"""Experiment façade and engine presets."""

from .config import FAST_ENGINE, PAPER_ENGINE, SMOKE_ENGINE, bench_engine
from .experiment import Experiment, ExperimentResult, MethodRun

__all__ = [
    "Experiment", "ExperimentResult", "FAST_ENGINE", "MethodRun",
    "PAPER_ENGINE", "SMOKE_ENGINE", "bench_engine",
]
