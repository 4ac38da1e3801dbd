"""Set-up time probe: run in a fresh interpreter, prints the seconds spent
importing regroupbench from the checkout and loading the given experiment
configs.

Usage: python3 perfbench/probe_setup.py ROOT [CONFIG.json ...]
"""
import sys
import time
from pathlib import Path

root = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(root / "src"))
start = time.perf_counter()
import regroupbench.cli  # noqa: E402,F401  (the CLI imports every module)
from regroupbench.harness import load_config  # noqa: E402

for config in sys.argv[2:]:
    load_config(config)
elapsed = time.perf_counter() - start
if not Path(regroupbench.cli.__file__).resolve().is_relative_to(root / "src"):
    raise SystemExit(f"regroupbench imported from outside {root / 'src'}")
print(repr(elapsed))
