"""regroupbench: imbalanced classification by regrouping majority classes
into pseudo-classes, plus standard baselines (WCE, focal, LDAM, ROS, RUS,
SMOTE) and AP-centric evaluation."""

__version__ = "0.1.0"
