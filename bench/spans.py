"""Timing spans around drorec's public functions, for the traced run.

`install` replaces each traced function with a wrapper at every name a
drorec module looks it up by (for example both `drorec.nn.sigmoid` and the
`sigmoid` that `drorec.gru` imported), and methods on their class.  Each call
records a span: parent span, name, start, end and a few counts taken from
its arguments.  Spans stay in memory until `Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np


def _valid_steps(seqs) -> int:
    return int(np.sum((seqs[:, :-1] > 0) & (seqs[:, 1:] > 0)))


def _encoder_counts(args, kwargs, result):
    mask = args[2]
    return {"tokens": int(mask.size), "nonpad": float(mask.sum())}


def _component_counts(args, kwargs, result):
    return {"arch": args[2] if len(args) > 2 else kwargs["arch"]}


def _q0_counts(args, kwargs, result):
    seqs = args[1]
    return {"rows": int(seqs.shape[0] * seqs.shape[1]), "last": int(seqs.shape[0]),
            "valid": _valid_steps(seqs)}


def _objective_counts(args, kwargs, result):
    model, seqs = args[0], args[1]
    valid = _valid_steps(seqs)
    robust = kwargs.get("method") == "dro" and kwargs.get("a", 0.0) != 0.0
    return {"valid": valid, "term": valid * model.n_items if robust else 0}


def _sigmoid_counts(args, kwargs, result):
    return {"elements": int(np.size(args[0]))}


def _checkpoint_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, function or Class.method, span name, counts taken from the call)
TARGETS = (
    ("drorec.pipeline", "simulate", "pipeline.simulate", None),
    ("drorec.pipeline", "prepare", "data.prepare", None),
    ("drorec.pipeline", "train_exposure", "pipeline.train_exposure", None),
    ("drorec.pipeline", "train_backbone", "pipeline.train_backbone", None),
    ("drorec.pipeline", "evaluate", "pipeline.evaluate", None),
    ("drorec.synthworld", "run_feedback_loop", "synthworld.run_feedback_loop", None),
    ("drorec.synthworld", "GroundTruthWorld.click_probs", "synthworld.click_probs", None),
    ("drorec.synthworld", "_fit_policy_model", "synthworld.policy_fit", None),
    ("drorec.data", "parse_event_log", "data.parse_event_log", None),
    ("drorec.data", "serialize_event_log", "data.serialize_event_log", None),
    ("drorec.data", "sequences_to_matrix", "data.sequences_to_matrix", None),
    ("drorec.nn", "save_params", "io.checkpoint_save", _checkpoint_counts),
    ("drorec.nn", "load_params", "io.checkpoint_load", None),
    ("drorec.nn", "Adam.step", "nn.adam_step", None),
    ("drorec.nn", "sigmoid", "nn.sigmoid", _sigmoid_counts),
    ("drorec.exposure", "train_exposure_component", "exposure.train_component",
     _component_counts),
    ("drorec.exposure", "ExposureSimulator.q0_all_positions",
     "exposure.q0_all_positions", _q0_counts),
    ("drorec.attention", "forward", "attention.forward", _encoder_counts),
    ("drorec.attention", "backward", "attention.backward", None),
    ("drorec.gru", "forward", "gru.forward", _encoder_counts),
    ("drorec.gru", "backward", "gru.backward", None),
    ("drorec.model", "SeqModel.forward_states", "model.forward_states", None),
    ("drorec.model", "SeqModel.backward_states", "model.backward_states", None),
    ("drorec.dro", "train_model", "dro.train_model", None),
    ("drorec.dro", "batch_objective", "dro.batch_objective", _objective_counts),
    ("drorec.baselines", "PropensityProvider.for_steps", "baselines.for_steps", None),
    ("drorec.baselines", "median_exposure_clip", "baselines.median_exposure_clip", None),
    ("drorec.evaluation", "evaluate_model", "evaluation.evaluate_model", None),
    ("drorec.evaluation", "target_ranks", "evaluation.target_ranks", None),
)


class Tracer:
    """Spans of one process, as [parent, name id, start, end, counts] rows.

    A span's parent index is smaller than its own; an unfinished span is None.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list | None] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, counts=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_id = len(spans)
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = [parent, name_id, start, end, None]
            if counts is not None:
                spans[span_id][4] = counts(args, kwargs, result)
            return result

        return traced

    def dump(self, path, stage: str) -> None:
        with open(path, "w") as fh:
            json.dump({"stage": stage, "names": self.names, "spans": self.spans,
                       "missing": self.missing}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every target at each name drorec modules look it up by.

    A target that no longer exists is skipped and listed in
    `tracer.missing`; the benchmark counts each as a failed operation.
    """
    for module_name, attr, span_name, counts in TARGETS:
        owner = importlib.import_module(module_name)
        *cls_name, name = attr.split(".")
        if cls_name:
            owner = getattr(owner, cls_name[0], None)
        original = getattr(owner, name, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(span_name, original, counts)
        if cls_name:
            setattr(owner, name, wrapped)
            continue
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "drorec":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
