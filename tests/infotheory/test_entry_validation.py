"""Entry validation of the Blahut-Arimoto solvers.

The shared iteration step runs without per-iteration domain checks:
``q = pW`` and the softmax iterate are non-negative by construction
once the transition matrix and the starting point pass the checks at
entry. Those checks are therefore the only guard, and each one is held
here to its exact message for the scalar solver, the batched kernel and
the timed-DMC solve that feeds the penalized kernel.
"""

import re

import numpy as np
import pytest

from repro.infotheory import blahut_arimoto, blahut_arimoto_batch
from repro.timing.timed_dmc import timed_dmc_capacity

GOOD = np.array([[0.9, 0.1], [0.2, 0.8]])
DURATIONS = np.array([1.0, 2.0])


def with_entry(value, row=0, col=0):
    w = GOOD.copy()
    w[row, col] = value
    return w


NON_FINITE = {
    "nan": with_entry(np.nan),
    "+inf": with_entry(np.inf),
    "-inf": with_entry(-np.inf),
}
#: A negative entry whose row still sums to 1, so only the sign check
#: can reject it.
NEGATIVE = np.array([[1.5, -0.5], [0.2, 0.8]])
UNNORMALIZED = np.array([[0.5, 0.4], [0.2, 0.8]])
#: Malformed starting points: (initial_input, scalar message, batch message).
BAD_INITIAL = {
    "wrong-shape": (
        np.array([0.2, 0.3, 0.5]),
        "initial_input has wrong shape",
        "initial_input has wrong shape",
    ),
    "negative": (
        np.array([1.5, -0.5]),
        "initial_input must be a distribution",
        "initial_input rows must be distributions",
    ),
    "unnormalized": (
        np.array([0.5, 0.4]),
        "initial_input must be a distribution",
        "initial_input rows must be distributions",
    ),
    "nan": (
        np.array([np.nan, 0.5]),
        "initial_input must be a distribution",
        "initial_input rows must be distributions",
    ),
}


def raises_exactly(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


class TestScalar:
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite(self, case):
        with raises_exactly("transition matrix contains non-finite entries"):
            blahut_arimoto(NON_FINITE[case])

    def test_negative(self):
        with raises_exactly("transition probabilities must be non-negative"):
            blahut_arimoto(NEGATIVE)

    def test_rows_not_summing_to_one(self):
        with raises_exactly("transition matrix rows must each sum to 1"):
            blahut_arimoto(UNNORMALIZED)

    def test_not_a_matrix(self):
        with raises_exactly("transition must be a 2-D matrix P(y|x)"):
            blahut_arimoto(GOOD[None])

    def test_damping_out_of_range(self):
        with raises_exactly("damping must be in [0, 1)"):
            blahut_arimoto(GOOD, damping=1.0)

    @pytest.mark.parametrize("case", sorted(BAD_INITIAL))
    def test_malformed_initial_input(self, case):
        initial, message, _ = BAD_INITIAL[case]
        with raises_exactly(message):
            blahut_arimoto(GOOD, initial_input=initial)


class TestBatch:
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite(self, case):
        stack = np.stack([GOOD, NON_FINITE[case]])
        with raises_exactly("transition stack contains non-finite entries"):
            blahut_arimoto_batch(stack)

    def test_negative(self):
        with raises_exactly("transition probabilities must be non-negative"):
            blahut_arimoto_batch(np.stack([GOOD, NEGATIVE]))

    def test_rows_not_summing_to_one(self):
        with raises_exactly("transition matrix rows must each sum to 1"):
            blahut_arimoto_batch(np.stack([GOOD, UNNORMALIZED]))

    def test_not_a_stack(self):
        with raises_exactly("transitions must be a (k, nx, ny) channel stack"):
            blahut_arimoto_batch(GOOD[0])

    @pytest.mark.parametrize("case", sorted(BAD_INITIAL))
    def test_malformed_shared_initial_input(self, case):
        initial, _, message = BAD_INITIAL[case]
        with raises_exactly(message):
            blahut_arimoto_batch(np.stack([GOOD, GOOD]), initial_input=initial)

    def test_malformed_per_channel_initial_input(self):
        initial = np.array([[0.5, 0.5], [0.5, 0.4]])
        with raises_exactly("initial_input rows must be distributions"):
            blahut_arimoto_batch(np.stack([GOOD, GOOD]), initial_input=initial)


class TestTimedDMC:
    """``timed_dmc_capacity`` owns the admission checks of the penalized
    kernel, which takes its stack as pre-validated."""

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite(self, case):
        with raises_exactly("transition matrix contains non-finite entries"):
            timed_dmc_capacity(NON_FINITE[case], DURATIONS)

    def test_negative(self):
        with raises_exactly("transition rows must be distributions"):
            timed_dmc_capacity(NEGATIVE, DURATIONS)

    def test_rows_not_summing_to_one(self):
        with raises_exactly("transition rows must be distributions"):
            timed_dmc_capacity(UNNORMALIZED, DURATIONS)

    def test_not_a_matrix(self):
        with raises_exactly("transition must be a 2-D matrix"):
            timed_dmc_capacity(GOOD[None], DURATIONS)

    @pytest.mark.parametrize(
        "durations, message",
        [
            (np.array([1.0, 2.0, 3.0]), "durations must match the input alphabet"),
            (np.array([1.0, 0.0]), "durations must be positive"),
            (np.array([1.0, -2.0]), "durations must be positive"),
        ],
    )
    def test_malformed_durations(self, durations, message):
        with raises_exactly(message):
            timed_dmc_capacity(GOOD, durations)
