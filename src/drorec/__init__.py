"""Exposure-debiased sequential recommendation via distributionally
robust optimization, with a mixture exposure simulator and SNIPS
evaluation on a synthetic feedback-loop world."""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config, save_config
from .data import (Catalog, DatasetSplit, EventLog, parse_event_log,
                   serialize_event_log, split_by_user, split_exposure,
                   truncate_pad)
from .dro import dro_term, train_model
from .evaluation import MetricsReport, coverage, metric_values, snips_evaluate
from .exposure import ExposureSimulator, build_simulators, train_exposure_component
from .model import SeqModel
from .synthworld import (GroundTruthWorld, LoggingPolicy, generate_world,
                         oracle_evaluate, run_feedback_loop)
