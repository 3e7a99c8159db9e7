"""Row halves on two lanes against one lane, and the lanes' safety rules.

`attention.forward`/`backward` and the robust block of
`dro.batch_objective` hand the two halves of their row-wise work to two
lanes (`drorec.lanes`).  With the lane rule patched to 1 and to 2, every
result must be `np.array_equal`, and every row must be computed once.
The second lane is one thread per process, which `lanes.each` holds for
one pair of calls at a time.
"""

import itertools
import json
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from drorec import attention, dro, exposure, lanes, pipeline
from drorec.config import ExperimentConfig
from drorec.exposure import ExposureSimulator
from drorec.model import SeqModel

T, D = 7, 4
ROW_BYTES = attention.N_HEADS * T * T * 8      # one row's (heads, T, T) float64 block


class _HalfFailure(RuntimeError):
    pass


def _left_padded(rng, lens, length, n_items):
    seqs = rng.integers(1, n_items + 1, size=(len(lens), length))
    return seqs * (np.arange(length)[None, :] >= (length - np.asarray(lens))[:, None])


def _inputs(batch, seed=0):
    """Params, item embeddings, a mask with leading pad in every row but one
    and, from two rows on, an all-pad last row; dL/dH."""
    rng = np.random.default_rng(seed)
    params = attention.init_weights(rng, D, T + 2)
    lens = rng.integers(1, T, size=batch)
    lens[0] = T                                   # no pad
    if batch > 1:
        lens[-1] = 0                              # all pad, in the second half
    mask = (_left_padded(rng, lens, T, 1) > 0).astype(np.float64)
    x = rng.standard_normal((batch, T, D)) * mask[:, :, None]
    return params, x, mask, rng.standard_normal((batch, T, D))


def _spy(monkeypatch, module, name, rows_of):
    """Record (thread, rows) of every call of module.name."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((threading.current_thread(), rows_of(*args, **kwargs)))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _use_lanes(monkeypatch, n):
    monkeypatch.setattr(lanes, "count", lambda: n)


def _lane_thread():
    """The thread the second of two calls runs on (with two lanes patched in)."""
    return lanes.each([threading.current_thread, threading.current_thread])[1]


def _other_threads():
    return [t for t in threading.enumerate() if t is not threading.main_thread()]


def _assert_split(calls, rows, n_lanes):
    """Every row once: in one part on this thread, or two parts on two threads."""
    assert sum(r for _, r in calls) == rows
    assert len(calls) == min(n_lanes, rows)
    threads = {thread for thread, _ in calls}
    assert threading.main_thread() in threads and len(threads) == len(calls)


@pytest.mark.parametrize("block", ["shipped", "one row"])
@pytest.mark.parametrize("batch", [5, 2, 1])    # uneven halves, one row each, no split
def test_attention_halves_match_one_lane(monkeypatch, batch, block):
    params, x, mask, dH = _inputs(batch)
    if block == "one row":
        monkeypatch.setattr(attention, "BLOCK_BYTES", ROW_BYTES)
    forward_rows = _spy(monkeypatch, attention, "_forward_rows", lambda p, x, *rest: len(x))
    backward_rows = _spy(monkeypatch, attention, "_backward_rows", lambda p, c, dH, *rest: len(dH))
    runs = []
    for n in (1, 2):
        _use_lanes(monkeypatch, n)
        forward_rows.clear()
        backward_rows.clear()
        H, cache = attention.forward(params, x, mask)
        grads, dx = attention.backward(params, cache, dH)
        _assert_split(forward_rows, batch, n)
        _assert_split(backward_rows, batch, n)
        runs.append((H, grads, dx))
    (H1, grads1, dx1), (H2, grads2, dx2) = runs
    assert np.array_equal(H2, H1)
    assert np.array_equal(dx2, dx1)
    assert grads2.keys() == grads1.keys()
    for name in grads1:
        assert np.array_equal(grads2[name], grads1[name]), name


def _robust_batch(seed=3, n_items=40, batch=9, length=12):
    """A model, a left-padded batch with an all-pad leading column, its
    negatives and the per-step q0 of a small simulator."""
    rng = np.random.default_rng(seed)
    sim = ExposureSimulator(
        component_a=SeqModel(n_items, 4, length, "attention", seed=1),
        component_b=SeqModel(n_items, 4, length, "recurrent", seed=2),
        pop_counts=rng.integers(0, 9, size=n_items),
        beta=0.3)
    lens = rng.integers(2, length, size=batch)
    seqs = _left_padded(rng, lens, length, n_items)
    negs = rng.integers(1, n_items + 1, size=(batch, length - 1))
    model = SeqModel(n_items, 6, length, "attention", seed=4)
    return model, seqs, negs, sim.step_q0(seqs)


def test_robust_block_halves_match_one_lane(monkeypatch):
    model, seqs, negs, q0_steps = _robust_batch()
    n_steps = int(dro._valid_steps(seqs).sum())
    steps = _spy(monkeypatch, dro, "_robust_steps", lambda q0, y, target, *rest: len(target))
    outs = []
    for n in (1, 2):
        _use_lanes(monkeypatch, n)
        steps.clear()
        outs.append(dro.batch_objective(model, seqs, negs, method="dro", a=0.1,
                                        q0_steps=q0_steps))
        _assert_split(steps, n_steps, n)
    one, two = outs
    assert one["loss_dro"] > 0.0
    for key in ("loss_rec", "loss_dro", "loss_joint", "n_steps"):
        assert two[key] == one[key], key
    assert two["grads"].keys() == one["grads"].keys()
    for name in one["grads"]:
        assert np.array_equal(two["grads"][name], one["grads"][name]), name


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("lanes")
    cfg = ExperimentConfig(
        out_dir=str(out), n_users=60, n_items=25, latent_dim=4, slate_size=5,
        rounds=4, embedding_dim=8, expo_dim=8, lr=0.01, epochs=4,
        warmup_epochs=2, expo_epochs=1, batch_size=16, max_click_len=10,
        max_expo_len=24, k_list=(3, 5), seed=0, method="dro", a=0.1)
    pipeline.simulate(cfg, out)
    data = pipeline.prepare(cfg, pipeline.load_log(out))
    return cfg, data, pipeline.fit_simulator(cfg, data)


def test_warm_start_and_robust_finetune_match_one_lane(monkeypatch, tmp_path, small_run):
    """Two epochs of each phase, as the train stage runs them."""
    cfg, data, sim = small_run
    q0_steps = sim.step_q0(data.train_seqs)
    threads = _spy(monkeypatch, attention, "_forward_rows", lambda p, x, *rest: len(x))
    params, logs = [], []
    for n in (1, 2):
        _use_lanes(monkeypatch, n)
        threads.clear()
        log_path = tmp_path / f"train_log_{n}.jsonl"
        model = pipeline.warm_start(cfg, data, log_path)
        pipeline.robust_finetune(model, cfg, data, q0_steps, log_path)
        params.append(model.params)
        logs.append([{k: v for k, v in json.loads(line).items() if k != "seconds"}
                     for line in log_path.read_text().splitlines()])
        workers = {t for t, _ in threads} - {threading.main_thread()}
        assert len(workers) == n - 1          # the lane thread serves both phases
        if n == 2:
            assert workers == {_lane_thread()}
    assert len(logs[0]) == cfg.epochs
    assert logs[1] == logs[0]
    assert params[1].keys() == params[0].keys()
    for name in params[0]:
        assert np.array_equal(params[1][name], params[0][name]), name


def test_row_split_inside_a_fit_lane_runs_inline(monkeypatch, small_run):
    """Simulator fits hold both lanes: their attention passes run whole,
    on the thread that fits them, and lanes never nest."""
    cfg, _, _ = small_run
    _use_lanes(monkeypatch, 2)
    batches = _spy(monkeypatch, attention, "forward", lambda p, x, mask: len(x))
    forward_rows = _spy(monkeypatch, attention, "_forward_rows", lambda p, x, *rest: len(x))
    backward_rows = _spy(monkeypatch, attention, "_backward_rows", lambda p, c, dH, *rest: len(dH))
    recurrent = _spy(monkeypatch, dro, "train_model", lambda model, *rest, **kw: model.arch)
    pipeline.train_exposure(cfg, cfg.out_dir)
    assert {(t is threading.main_thread(), arch) for t, arch in recurrent} == {
        (True, "attention"), (False, "recurrent")}
    assert len(forward_rows) == len(batches) > 0
    assert [rows for _, rows in forward_rows] == [rows for _, rows in batches]
    assert len(backward_rows) == len(batches)
    assert all(t is threading.main_thread() for t, _ in forward_rows + backward_rows)
    assert {t for t, arch in recurrent if arch == "recurrent"} == {_lane_thread()}


def _fail_in(failing, real, ended):
    """real, failing at once on the caller's thread or on the lane thread,
    and elsewhere first sleeping, then recording its thread in ended."""
    def flaky(*args, **kwargs):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (failing == "worker"):
            raise _HalfFailure(failing)
        time.sleep(0.05)              # so that a failure not waited for shows
        out = real(*args, **kwargs)
        ended.append(threading.current_thread())
        return out
    return flaky


@pytest.mark.parametrize("failing", ["caller", "worker"])
@pytest.mark.parametrize("where", ["forward", "robust block", "training run", "simulator fit"])
def test_error_in_a_half_reaches_the_caller(monkeypatch, small_run, failing, where):
    """The failure reaches the caller with its type, only after the other
    half has ended; then the lanes are free, on one lane thread still."""
    _use_lanes(monkeypatch, 2)
    model, seqs, negs, q0_steps = _robust_batch()
    ended = []
    if where == "forward":
        monkeypatch.setattr(attention, "_forward_rows",
                            _fail_in(failing, attention._forward_rows, ended))
        params, x, mask, _ = _inputs(5)
        run = lambda: attention.forward(params, x, mask)                     # noqa: E731
    elif where == "robust block":
        monkeypatch.setattr(dro, "_robust_steps", _fail_in(failing, dro._robust_steps, ended))
        run = lambda: dro.batch_objective(model, seqs, negs, method="dro",   # noqa: E731
                                          a=0.1, q0_steps=q0_steps)
    elif where == "training run":
        monkeypatch.setattr(attention, "_backward_rows",
                            _fail_in(failing, attention._backward_rows, ended))
        run = lambda: dro.train_model(model, seqs, epochs=1, lr=0.01,       # noqa: E731
                                      batch_size=4, seed=0, beta2=0.999)
    else:       # the attention fits run on the caller's thread, the recurrent on the lane
        monkeypatch.setattr(exposure, "train_exposure_component",
                            _fail_in(failing, lambda *args, **kwargs: None, ended))
        cfg, _, _ = small_run
        run = lambda: pipeline.train_exposure(cfg, cfg.out_dir)              # noqa: E731
    with pytest.raises(_HalfFailure, match=failing):
        run()
    ended_first = list(ended)         # before any further use of the lanes
    other = threading.main_thread() if failing == "worker" else _lane_thread()
    assert ended_first and set(ended_first) == {other}
    if where == "simulator fit":
        assert len(ended_first) == 2  # the other lane's remaining fit finished too
    assert _lane_thread() is not threading.main_thread()
    assert len(_other_threads()) == 1


def _recording_each(monkeypatch):
    """Wrap lanes.each to record, per pair of calls, the caller and the
    (start tick, end tick, thread) of each call."""
    real = lanes.each
    ticks = itertools.count()
    pairs = []

    def each(calls):
        spans = []

        def timed(call):
            def run():
                start = next(ticks)
                try:
                    return call()
                finally:
                    spans.append((start, next(ticks), threading.current_thread()))
            return run

        try:
            return real([timed(call) for call in calls])
        finally:
            pairs.append((threading.current_thread(), spans))

    monkeypatch.setattr(lanes, "each", each)
    return pairs


def test_callers_on_many_threads_share_the_lanes_safely(monkeypatch):
    """Threads that run attention at once, more of them than cores: one
    pair of calls at a time holds the lanes, the others run on one lane,
    and every result equals the one-thread result."""
    _use_lanes(monkeypatch, 2)
    params, x, mask, dH = _inputs(5)
    H, cache = attention.forward(params, x, mask)
    expected = (H, *attention.backward(params, cache, dH))
    pairs = _recording_each(monkeypatch)
    failures = []

    def run():
        try:
            for _ in range(10):
                H, cache = attention.forward(params, x, mask)
                got = (H, *attention.backward(params, cache, dH))
                if not (np.array_equal(got[0], expected[0]) and np.array_equal(got[2], expected[2])
                        and all(np.array_equal(got[1][k], expected[1][k]) for k in expected[1])):
                    failures.append("mismatch")
        except Exception as exc:          # reported below, with the thread's others
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    held = [(min(start for start, _, _ in spans), max(end for _, end, _ in spans))
            for caller, spans in pairs if any(t is not caller for _, _, t in spans)]
    assert held                                 # some pairs ran on two lanes,
    held.sort()
    assert all(end < start for (_, end), (start, _) in zip(held, held[1:]))   # one at a time
    assert len(_other_threads()) == 1


def _forward_in_child(params, x, mask, send):
    try:
        threads = set()
        real = attention._forward_rows

        def spy(*args):
            threads.add(threading.current_thread())
            return real(*args)

        attention._forward_rows = spy
        send.send((attention.forward(params, x, mask)[0], len(threads)))
    except BaseException as exc:      # reported by the parent
        send.send((repr(exc), 0))


def test_forked_child_runs_on_two_lanes(monkeypatch):
    """A child forked after the lane thread started has no lane thread: it
    starts its own, and does not wait on the parent's."""
    _use_lanes(monkeypatch, 2)
    params, x, mask, _ = _inputs(5)
    expected = attention.forward(params, x, mask)[0]
    assert _lane_thread() is not threading.main_thread()
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_forward_in_child, args=(params, x, mask, send))
    child.start()
    try:
        assert receive.poll(60), "the forked child did not finish attention.forward"
        H, n_threads = receive.recv()
    finally:
        child.kill()
        child.join()
    assert isinstance(H, np.ndarray), H
    assert n_threads == 2
    assert np.array_equal(H, expected)
