"""Experiment harness: one module per paper table/figure.

Each module exposes ``run(scale, seed) -> TableResult``; the registry
maps paper artifact ids ("table1", "fig5", ...) to runners and the CLI
(``python -m repro.experiments.cli``) drives them.
"""

from . import ablations
from .common import FederatedSetup, build_setup, clone_model, evaluate_modes
from .registry import EXPERIMENTS, run_experiment
from .scale import (
    BENCH,
    BENCH_PRESETS,
    PAPER,
    SMOKE,
    ExperimentScale,
    build_bench_world,
    get_scale,
)

__all__ = [
    "ablations",
    "FederatedSetup",
    "build_setup",
    "clone_model",
    "evaluate_modes",
    "EXPERIMENTS",
    "run_experiment",
    "BENCH",
    "PAPER",
    "SMOKE",
    "ExperimentScale",
    "get_scale",
    "BENCH_PRESETS",
    "build_bench_world",
]
