"""A training step's peak memory against its encoder's own.

`dro.batch_objective` frees each loss-head array at its last use, so the
encoder's backward, the peak of a step, holds the forward cache, dL/dH and
the backward's own gradients, and none of the head's (steps, d) arrays.  The
traced peak of a whole step may then exceed that of `forward_states` and
`backward_states` alone by at most EXTRA_ARRAYS (valid steps, d) float64
arrays.  A step that keeps its head arrays through the backward exceeds it
by five or more.

With a catalog wider than d, the robust term's (valid steps, catalog)
arrays set the peak of a `dro` step instead.  It makes each of them only
when needed and reuses it, so at most four coexist.
"""

import tracemalloc

import numpy as np
import pytest

from drorec import dro
from drorec.exposure import ExposureSimulator
from drorec.model import SeqModel

# The recurrent backward holds little besides its cache, so there the peak
# of a step is the head's embedding scatter: the 2 x steps positive and
# negative rows and their flat index outgrow the encoder's own scatter of
# steps rows by about two arrays.  The attention backward's gradients
# outgrow the head.
EXTRA_ARRAYS = 3
B, T, D = 32, 40, 16
# Narrower than D, so the robust term's (steps, n_items) arrays, which it
# needs only while it runs, weigh less than the (steps, d) arrays counted here.
N_ITEMS = 8
# Wider than D, so the robust term's arrays set the step's peak, held to
# CATALOG_ARRAYS (valid steps, WIDE_ITEMS) arrays.  Four at most coexist; a
# step that makes all seven up front (dlogits, two on the q0 lane, the
# product and three more in `nn.sigmoid`) reads 5 or more.
WIDE_ITEMS = 256
CATALOG_ARRAYS = 4.5


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def _step_and_encoder_peaks(arch, method, n_items):
    """The traced peak of one step and of its encoder's own forward and
    backward, and the step's valid steps."""
    rng = np.random.default_rng(0)
    seqs = rng.integers(1, n_items + 1, size=(B, T))          # full rows
    negs = rng.integers(1, n_items + 1, size=(B, T - 1))
    sim = ExposureSimulator(
        component_a=SeqModel(n_items, 4, T, "attention", seed=1),
        component_b=SeqModel(n_items, 4, T, "recurrent", seed=2),
        pop_counts=rng.integers(0, 9, size=n_items),
        beta=0.3)
    q0_steps = sim.step_q0(seqs)
    model = SeqModel(n_items, D, T, arch, seed=3)

    def encoder():
        H, cache = model.forward_states(seqs)
        dH = np.ones_like(H)
        del H
        model.backward_states(cache, dH, seqs)

    def step():
        out = dro.batch_objective(model, seqs, negs, method=method, a=0.5, q0_steps=q0_steps)
        assert out["loss_dro"] > 0.0 if method == "dro" else out["loss_dro"] == 0.0

    return _traced_peak(step), _traced_peak(encoder), int(dro._valid_steps(seqs).sum())


@pytest.mark.parametrize("method", ["none", "dro"])
@pytest.mark.parametrize("arch", ["attention", "recurrent"])
def test_step_peak_is_the_encoders_own(arch, method):
    step, encoder, n_steps = _step_and_encoder_peaks(arch, method, N_ITEMS)
    array = n_steps * D * 8
    extra = step - encoder
    assert extra <= EXTRA_ARRAYS * array, f"{extra / array:.2f} (steps, d) arrays"


@pytest.mark.parametrize("arch", ["attention", "recurrent"])
def test_robust_term_peak_over_a_wide_catalog(arch):
    step, encoder, n_steps = _step_and_encoder_peaks(arch, "dro", WIDE_ITEMS)
    array = n_steps * WIDE_ITEMS * 8
    extra = step - encoder
    assert extra <= CATALOG_ARRAYS * array, f"{extra / array:.2f} (steps, catalog) arrays"
