"""Implied-volatility forecasting laboratory.

Feature engineering, three regressor families (epsilon-SVR, leaf-wise
MAE gradient boosting, a convolution/attention/GRU hybrid network), a
per-prediction incremental batch walk-forward protocol, and forecast
comparison statistics, runnable end to end on synthetic or CSV data.
Import from the submodules (``vollab.walkforward``, ``vollab.svr``, ...).
"""

# numpy loads numpy.random lazily, on first use.  Every vollab import runs
# this file first, so it loads at import time rather than inside the first
# forecast.
import numpy.random

__version__ = "0.1.0"
