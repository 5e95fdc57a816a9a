"""Metric assembly, curvature, Hodge duality, and conformal rescaling."""

from .curvature import CurvaturePack, box_scalar, christoffel, curvature, walker_box_closed_form
from .dual import DualOperator, volume_and_duals, weyl_split
from .metric import CONFORMAL_WALKER, GENERAL, WALKER, MetricJet, MetricSpec, conformal_rescale, metric_jet

__all__ = [
    "CONFORMAL_WALKER",
    "CurvaturePack",
    "DualOperator",
    "GENERAL",
    "MetricJet",
    "MetricSpec",
    "WALKER",
    "box_scalar",
    "christoffel",
    "conformal_rescale",
    "curvature",
    "metric_jet",
    "volume_and_duals",
    "walker_box_closed_form",
    "weyl_split",
]
