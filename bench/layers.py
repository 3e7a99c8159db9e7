"""Per-layer metrics: from the traced run's spans and the stages' rusage.

The metric names, units and directions are declared in BENCHMARK.json; this
module computes the values under those names.  Every `_s` metric is total
seconds; `self_s` excludes the time of child spans.  A span's role is that
of its nearest ancestor among the spans in `ROLE_OF`: `sim` under simulator
training or q0 inference, `rec` under recommender training, `policy` under
the feedback loop, `eval` under evaluation scoring.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

ROLE_OF = {
    "exposure.train_component": "sim",
    "exposure.q0_all_positions": "sim",
    "pipeline.train_backbone": "rec",
    "synthworld.run_feedback_loop": "policy",
    "evaluation.evaluate_model": "eval",
}
ENCODER_ROLES = {"attention": ("sim", "rec"), "gru": ("sim", "rec", "policy")}
# q0 rows each caller consumes, by the caller's span: every valid step, or
# only the last position of each sequence; unknown callers count every row
Q0_ROWS_USED = {
    "pipeline.train_backbone": "valid",
    "baselines.for_steps": "valid",
    "pipeline.evaluate": "last",
    "baselines.median_exposure_clip": "last",
}
STAGE_KEYS = {"simulate": "simulate", "train-exposure": "train_exposure",
              "train": "train", "evaluate": "evaluate"}

# spans whose calls and total seconds are reported as <name>.calls / <name>.s
_CALLS_AND_SECONDS = ("synthworld.click_probs", "synthworld.policy_fit",
                      "data.parse_event_log", "nn.adam_step", "nn.sigmoid",
                      "exposure.q0_all_positions")
_SECONDS = ("data.serialize_event_log", "data.prepare", "data.sequences_to_matrix",
            "io.checkpoint_save", "io.checkpoint_load", "baselines.for_steps",
            "baselines.median_exposure_clip", "evaluation.evaluate_model",
            "evaluation.target_ranks")
_SELF_SECONDS = ("synthworld.run_feedback_loop", "model.backward_states",
                 "dro.train_model", "dro.batch_objective")


def _add_process(totals: dict, names: list[str], rows: list) -> None:
    n = len(rows)
    name = [None] * n
    dur = [0.0] * n
    child = [0.0] * n
    role = [None] * n
    for i, row in enumerate(rows):
        if row is None:
            continue
        parent, name_id, start, end, _ = row
        name[i] = names[name_id]
        dur[i] = end - start
        inherited = role[parent] if parent >= 0 else None
        role[i] = ROLE_OF.get(name[i], inherited)
        if parent >= 0:
            child[parent] += dur[i]

    for i, row in enumerate(rows):
        if row is None:
            continue
        nm, counts, parent = name[i], row[4], row[0]
        if nm in _CALLS_AND_SECONDS:
            totals[f"{nm}.calls"] += 1
            totals[f"{nm}.s"] += dur[i]
        if nm in _SECONDS:
            totals[f"{nm}.s"] += dur[i]
        if nm in _SELF_SECONDS:
            totals[f"{nm}.self_s"] += dur[i] - child[i]
        if nm in ("dro.train_model", "dro.batch_objective"):
            totals[f"{nm}.calls"] += 1
        if nm == "nn.sigmoid":
            totals["nn.sigmoid.elements"] += counts["elements"]
        elif nm == "io.checkpoint_save":
            totals["io.checkpoint_bytes"] += counts["bytes"]
        elif nm == "exposure.train_component":
            totals[f"exposure.train_component.{counts['arch']}.s"] += dur[i]
        elif nm == "exposure.q0_all_positions":
            caller = name[parent] if parent >= 0 else None
            totals["exposure.q0.rows_computed"] += counts["rows"]
            totals["exposure.q0.rows_used"] += counts[Q0_ROWS_USED.get(caller, "rows")]
        elif nm == "dro.batch_objective":
            totals["dro.valid_steps"] += counts["valid"]
            totals["dro.term_elements"] += counts["term"]
        elif nm == "model.forward_states" and role[i] == "eval":
            totals["evaluation.forward_passes"] += 1
        elif nm in ("attention.forward", "gru.forward", "attention.backward", "gru.backward"):
            layer, direction = nm.split(".")
            key = f"{layer}.{role[i]}"
            totals[f"{key}.{direction}_s"] += dur[i]
            if direction == "forward":
                totals[f"{key}.forward_calls"] += 1
                totals[f"{key}.tokens"] += counts["tokens"]
                totals[f"{key}._nonpad"] += counts["nonpad"]


def span_metrics(span_files: list[Path]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the span files of one traced pass, and the
    traced targets that drorec no longer has."""
    totals: dict[str, float] = defaultdict(float)
    missing: set[str] = set()
    for path in span_files:
        data = json.loads(Path(path).read_text())
        _add_process(totals, data["names"], data["spans"])
        missing.update(data.get("missing", []))
    for layer, roles in ENCODER_ROLES.items():
        for role in roles:
            key = f"{layer}.{role}"
            tokens = totals[f"{key}.tokens"]
            totals[f"{key}.nonpad_ratio"] = totals[f"{key}._nonpad"] / tokens if tokens else 0.0
    computed = totals["exposure.q0.rows_computed"]
    totals["exposure.q0.useful_ratio"] = (totals["exposure.q0.rows_used"] / computed
                                          if computed else 0.0)
    return totals, sorted(missing)


def stage_metrics(stage_runs) -> dict[str, float]:
    """stage.<stage>.{wall_s,user_s,sys_s,minflt} from one untraced pass."""
    out = {}
    for run in stage_runs:
        key = f"stage.{STAGE_KEYS[run.stage]}"
        out.update({f"{key}.wall_s": run.wall_s, f"{key}.user_s": run.user_s,
                    f"{key}.sys_s": run.sys_s, f"{key}.minflt": float(run.minflt)})
    return out
