"""Time the trainer's hot path in a base and a head `src/` tree.

    python scripts/bench_trainer.py BASE_SRC HEAD_SRC [--out BENCH_trainer.json]

BASE_SRC and HEAD_SRC are `src/` directories, for example of a `git archive`
of the parent commit and of this checkout. All points use the desk recipe's
shapes: n = 800 training rows (the overlap family's train split), D = 2,
one hidden layer of 32, batch 64, and C = 2 (the binary methods) or C = 10
(RG+CE with K = 9). Rows are Gaussian blobs, one per class.

- `step_S{1,8}_C{2,10}`: µs per model-step, the wall time of one `train`
  call of S stacked models over EPOCHS epochs divided by S × steps. Each
  epoch's end-of-epoch divergence check is included, as in a real fit.
- `loss_and_grad_512x{2,10}`: one `losses.loss_and_grad` call on 512 rows of
  logits, in µs.

Each round runs one fresh interpreter per side, alternating which side goes
first; each interpreter makes one warm-up call per point before its timed
calls. Both sides must give the same bytes: trained weights, biases, learning
rates and step losses, and the loss values and gradients. The output file
holds the environment, every sample, and the median and quartiles per side.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROUNDS = 10  # fresh interpreters per side, alternating which side goes first
REPEATS = 5  # timed calls per point and interpreter
N, D, HIDDEN, BATCH, EPOCHS, LOSS_ROWS = 800, 2, 32, 64, 20, 512


def blobs(n: int, C: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, C, 0x7A1])
    y = np.arange(n) % C
    return rng.normal(0.0, 2.0, size=(C, D))[y] + rng.standard_normal((n, D)), y


def measure(src: str) -> dict:
    """Run in a fresh interpreter: time each point of `src`'s package."""
    sys.path.insert(0, src)
    from regroupbench import losses, trainer
    from regroupbench.dataset import Dataset

    def stack(S, C):
        datasets = [Dataset(*blobs(N, C, s)) for s in range(S)]
        specs = [trainer.MlpSpec(D, C, (HIDDEN,), init_seed=s) for s in range(S)]
        cfgs = [trainer.TrainConfig(epochs=EPOCHS, batch_size=BATCH, shuffle_seed=s)
                for s in range(S)]
        return datasets, specs, cfgs

    def fit(S, C):
        datasets, specs, cfgs = stack(S, C)

        def call():
            out = []
            for model, history in trainer.train(datasets, specs, losses.LossSpec("ce"), cfgs):
                out += [a.tobytes() for a in (*model.weights, *model.biases)]
                out.append(repr((history.learning_rate, history.step_loss)).encode())
            return out
        return call

    def loss_and_grad(C):
        rng = np.random.default_rng([C, 0x1055])
        Z, y = rng.standard_normal((LOSS_ROWS, C)) * 3.0, rng.integers(C, size=LOSS_ROWS)
        spec = losses.LossSpec("ce")
        return lambda: [a.tobytes() for a in losses.loss_and_grad(Z, y, spec)]

    calls, per_call = {}, {}
    for C in (2, 10):
        for S in (1, 8):
            calls[f"step_S{S}_C{C}"] = fit(S, C)
            per_call[f"step_S{S}_C{C}"] = S * EPOCHS * -(-N // BATCH)
        calls[f"loss_and_grad_{LOSS_ROWS}x{C}"] = loss_and_grad(C)
        per_call[f"loss_and_grad_{LOSS_ROWS}x{C}"] = 1
    samples, digests = {}, {}
    for name, call in calls.items():
        call()  # warm-up
        samples[name] = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            out = call()
            samples[name].append(1e6 * (time.perf_counter() - t0) / per_call[name])
        digests[name] = hashlib.sha256(b"".join(out)).hexdigest()
    return {"samples": samples, "digests": digests}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def quartiles(samples: list) -> dict:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_us": round(float(med), 2), "q1_us": round(float(q1), 2),
            "q3_us": round(float(q3), 2)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    parser.add_argument("--out", default="BENCH_trainer.json")
    args = parser.parse_args()
    sides = {"base": str(Path(args.base_src).resolve()), "head": str(Path(args.head_src).resolve())}
    samples = {side: {} for side in sides}
    digests = {}
    for r in range(ROUNDS):
        for side in (["base", "head"] if r % 2 == 0 else ["head", "base"]):
            cmd = [sys.executable, __file__, "--measure", sides[side]]
            doc = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
            for name, values in doc["samples"].items():
                samples[side].setdefault(name, []).extend(values)
            for name, digest in doc["digests"].items():
                digests.setdefault(name, set()).add(digest)
    unequal = sorted(name for name, d in digests.items() if len(d) != 1)
    if unequal:
        print(f"outputs differ between runs or sides: {unequal}", file=sys.stderr)
        return 1
    report = {
        "environment": environment(),
        "input": f"n = {N} rows, D = {D}, hidden {HIDDEN}, batch {BATCH}, {EPOCHS} epochs, "
                 "CE; one Gaussian blob per class; step = train() wall / (S x steps), "
                 f"epoch-end checks included; loss_and_grad on {LOSS_ROWS} rows",
        "rounds": ROUNDS,
        "calls_per_round": REPEATS,
        "bytes_equal": True,
        "summary": {side: {name: quartiles(v) for name, v in s.items()} for side, s in samples.items()},
        "samples_us": {side: {name: [round(x, 3) for x in v] for name, v in s.items()}
                       for side, s in samples.items()},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, head in report["summary"]["head"].items():
        base = report["summary"]["base"][name]["median_us"]
        print(f"{name}: base {base} us, head {head['median_us']} us")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--measure"]:  # one side's fresh interpreter
        print(json.dumps(measure(sys.argv[2])))
    else:
        raise SystemExit(main())
