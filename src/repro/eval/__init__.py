"""Evaluation metrics, timers and table rendering."""

from .metrics import AccuracyEvaluator, attack_success_rate, predict, test_accuracy
from .tables import TableResult, format_table, percent
from .timers import StageTimer

__all__ = [
    "AccuracyEvaluator",
    "attack_success_rate",
    "predict",
    "test_accuracy",
    "TableResult",
    "format_table",
    "percent",
    "StageTimer",
]
