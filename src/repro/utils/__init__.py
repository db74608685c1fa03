"""Shared utilities: configuration parsing, RNG management, logging.

The paper drives every sampling/training run from YAML case files
(``subsample.py case.yaml``); :mod:`repro.utils.miniyaml` provides an
offline YAML-subset parser so the same UX works without PyYAML.
"""

from repro.utils.miniyaml import loads as yaml_loads, load_file as yaml_load_file, dumps as yaml_dumps
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig
from repro.utils.rng import make_rng, spawn_rngs, seed_everything
from repro.utils.log import get_logger

__all__ = [
    "yaml_loads",
    "yaml_load_file",
    "yaml_dumps",
    "CaseConfig",
    "SharedConfig",
    "SubsampleConfig",
    "TrainConfig",
    "make_rng",
    "spawn_rngs",
    "seed_everything",
    "get_logger",
]
