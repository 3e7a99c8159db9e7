"""Span aggregation, workload configs and the counting of failed operations."""

from __future__ import annotations

import json

import layers
import run
import workloads


def test_self_time_and_roles(tmp_path):
    names = ["synthworld.run_feedback_loop", "synthworld.click_probs",
             "synthworld.policy_fit", "gru.forward"]
    spans = [[-1, 0, 0.0, 10.0, None],
             [0, 1, 1.0, 2.0, None],
             [0, 2, 3.0, 6.0, None],
             [2, 3, 4.0, 5.0, {"tokens": 8, "nonpad": 6.0}]]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"stage": "simulate", "names": names, "spans": spans}))
    m, missing = layers.span_metrics([path])
    assert missing == []
    assert m["synthworld.run_feedback_loop.self_s"] == 6.0
    assert m["synthworld.click_probs.calls"] == 1 and m["synthworld.click_probs.s"] == 1.0
    assert m["synthworld.policy_fit.s"] == 3.0
    assert m["gru.policy.forward_s"] == 1.0 and m["gru.policy.tokens"] == 8
    assert m["gru.policy.nonpad_ratio"] == 0.75
    assert m["gru.rec.forward_calls"] == 0


def test_every_declared_workload_has_a_config():
    assert sorted(run.WORKLOADS) == sorted(workloads.CONFIGS)


def test_a_traced_function_drorec_no_longer_has_fails_the_run(monkeypatch, tmp_path):
    import spans

    monkeypatch.setattr(spans, "TARGETS", (
        ("drorec.nn", "no_such_function", "nn.none", None),
        ("drorec.nn", "NoSuchClass.step", "nn.none_step", None)))
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.dump(tmp_path / "spans.json", stage="train")
    _, missing = layers.span_metrics([tmp_path / "spans.json"])
    ops = run.Operations(tmp_path / "config.txt")
    ops.traced_targets(missing)
    assert missing == ["drorec.nn.NoSuchClass.step", "drorec.nn.no_such_function"]
    assert ops.failed == ops.attempted == 2


def test_a_checker_that_hangs_is_a_failed_operation(monkeypatch, tmp_path):
    def hang(argv, **kwargs):
        raise run.subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(run.subprocess, "run", hang)
    ops = run.Operations(tmp_path / "config.txt")
    assert ops.check(tmp_path, "--outputs") is None
    assert ops.failed == ops.attempted == 1
