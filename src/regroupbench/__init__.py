"""regroupbench: imbalanced classification by regrouping majority classes
into pseudo-classes, plus standard baselines (WCE, focal, LDAM, ROS, RUS,
SMOTE) and AP-centric evaluation."""

from .clustering import KMeansModel, kmeans_fit
from .dataset import (
    Dataset,
    GaussianComponent,
    MixtureSpec,
    generate_imbalanced_mixture,
    load_csv_dataset,
    save_csv_dataset,
    standardize,
    stratified_split,
)
from .harness import (
    ExperimentConfig,
    MethodKind,
    ResultRow,
    overlap_mixture,
    rg_favorable_mixture,
    run_experiment,
    run_grid,
    write_results,
)
from .losses import LossSpec, loss_gradient, loss_value, softmax
from .metrics import (
    ConfusionTable,
    MetricReport,
    average_precision,
    confusion_table,
    per_class_ap,
    summary_metrics,
)
from .regrouping import (
    RegroupPlan,
    collapse_proba_matrix,
    compute_k,
    regroup_binary,
    regroup_multiclass,
)
from .resampling import ResampleSpec, resample
from .trainer import (
    MlpSpec,
    TrainConfig,
    TrainedModel,
    cosine_lr,
    predict_proba,
    train,
)

__version__ = "0.1.0"
