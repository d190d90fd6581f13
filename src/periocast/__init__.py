"""Periodicity-aware workload forecasting for cluster traces."""

from .loss import LossConfig
from .model import Ablation, Forecast, SampleWindow, WindowConfig, WindowSplit, make_windows
from .periodicity import (
    PeriodicityConfig,
    PeriodicityReport,
    PeriodKnowledge,
    build_knowledge,
    detect_period,
    fit_threshold_gmm,
)
from .stats import acf, heavy_mask, metrics
from .traceio import (
    CsvSchema,
    RawTrace,
    SCHEMAS,
    SyntheticSpec,
    WorkloadSeries,
    generate,
    load_csv,
    normalize,
    save_csv,
)
from .training import EvalReport, TrainConfig, TrainLog, evaluate, run_ablation_suite, train

__version__ = "0.1.0"

__all__ = [
    "Ablation", "CsvSchema", "EvalReport", "Forecast", "LossConfig",
    "PeriodKnowledge", "PeriodicityConfig", "PeriodicityReport", "RawTrace",
    "SCHEMAS", "SampleWindow", "SyntheticSpec", "TrainConfig", "TrainLog",
    "WindowConfig", "WindowSplit", "WorkloadSeries", "acf", "build_knowledge",
    "detect_period", "evaluate", "fit_threshold_gmm", "generate", "heavy_mask",
    "load_csv", "make_windows", "metrics", "normalize", "run_ablation_suite",
    "save_csv", "train",
]
