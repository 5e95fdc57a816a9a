"""Analysis configuration, pipeline, reporting, CLI, and acceptance suite."""

from .analyze import run_analysis
from .config import AnalysisConfig, load_spec_file, sample_points
from .report import Report
from .selftest import CriterionResult, run_all, selftest

__all__ = [
    "AnalysisConfig",
    "CriterionResult",
    "Report",
    "load_spec_file",
    "run_all",
    "run_analysis",
    "sample_points",
    "selftest",
]
