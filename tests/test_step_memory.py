"""A training step's peak memory against its encoder's own.

`dro.batch_objective` frees each loss-head array at its last use, so the
encoder's backward, the peak of a step, holds the forward cache, dL/dH and
the backward's own gradients, and none of the head's (steps, d) arrays.  The
traced peak of a whole step may then exceed that of `forward_states` and
`backward_states` alone by at most EXTRA_ARRAYS (valid steps, d) float64
arrays.  A step that keeps its head arrays through the backward exceeds it
by five or more.
"""

import tracemalloc

import numpy as np
import pytest

from drorec import dro
from drorec.exposure import ExposureSimulator, PopularityTable
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


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", ["none", "dro"])
@pytest.mark.parametrize("arch", ["attention", "recurrent"])
def test_step_peak_is_the_encoders_own(arch, method):
    rng = np.random.default_rng(0)
    seqs = rng.integers(1, N_ITEMS + 1, size=(B, T))          # full rows
    negs = rng.integers(1, N_ITEMS + 1, size=(B, T - 1))
    sim = ExposureSimulator(
        component_a=SeqModel(N_ITEMS, 4, T, "attention", seed=1),
        component_b=SeqModel(N_ITEMS, 4, T, "recurrent", seed=2),
        popularity=PopularityTable.from_counts(rng.integers(0, 9, size=N_ITEMS)),
        beta=0.3)
    q0_steps = sim.step_q0(seqs)
    model = SeqModel(N_ITEMS, D, T, arch, seed=3)

    def encoder():
        H, cache = model.forward_states(seqs)
        dH = np.ones_like(H)
        del H
        model.backward_states(cache, dH, seqs)

    def step():
        out = dro.batch_objective(model, seqs, negs, method=method, a=0.5, q0_steps=q0_steps)
        assert out["loss_dro"] > 0.0 if method == "dro" else out["loss_dro"] == 0.0

    array = int(dro._valid_steps(seqs).sum()) * D * 8
    extra = _traced_peak(step) - _traced_peak(encoder)
    assert extra <= EXTRA_ARRAYS * array, f"{extra / array:.2f} (steps, d) arrays"
