"""Implied-volatility forecasting laboratory.

Feature engineering, three regressor families (epsilon-SVR, leaf-wise
MAE gradient boosting, a convolution/attention/GRU hybrid network), a
per-prediction incremental batch walk-forward protocol, and forecast
comparison statistics, runnable end to end on synthetic or CSV data.
"""

__version__ = "0.1.0"

from .creditvix import CreditVixInputs, implied_variance, implied_vol
from .features import (
    FeatureMatrix,
    ScalerState,
    SequencedDataset,
    add_uniform_noise,
    apply_scaler,
    engineer,
    fit_scaler,
    invert_scaler,
    levels_from_logdiffs,
    log_diff,
    rolling_rv,
    sequence,
)
from .frames import (
    PartitionSpec,
    TimeSeriesFrame,
    align,
    generate_synthetic,
    load_csv,
    partition,
)
from .gbdt import GbdtModel, GbdtParams, fit_gbdt, predict_gbdt
from .grids import MODELS, ParamState, enumerate_grid
from .metrics import DmResult, MetricTable, compute_metrics, dm_test
from .net import NetConfig, TrainResult, forward, init_params, predict, train
from .selection import ImportanceReport, rf_importance, select_top_k
from .svr import SvrModel, SvrParams, fit_svr, kernel_eval, predict_svr
from .tree import RegressionTree, TreeLimits, fit_regression_tree, predict_tree
from .walkforward import (
    BatchTask,
    ExperimentData,
    ForecastRecord,
    run_batch,
    run_experiment,
    validate_params,
)
