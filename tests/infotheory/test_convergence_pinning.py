"""Convergence pinning: Blahut-Arimoto statuses, iterations, capacities.

The tables below were recorded from the solvers before the shared
row-entropy step (``repro.infotheory.kernels._ba_step``) replaced the
direct ``sum_y W (log2 W - log2 q)`` evaluation. A change to the step
that silently moves convergence, even one that keeps every capacity
within its own gap, fails here:

* the 48 random 8x10 channels of ``benchmarks/test_bench_kernels.py``
  (``default_rng(6)``) at ``tol=1e-9``, solved by the scalar
  :func:`blahut_arimoto` one at a time and by
  :func:`blahut_arimoto_batch` as one stack. Ten of them end
  ``max_iter`` or ``stalled``, so the stall and cap paths are pinned
  too;
* the 12-point ``(P_d, P_i)`` grid of :func:`indel_block_bound_sweep`
  at block shape ``(6, 3)`` (block length 6, up to 3 extra output
  symbols, the service's ``block_bound`` shape), whose slow corner
  ``(0.3, 0.1)`` runs about 10k iterations on a 64x1024 table.

Statuses must match exactly, iteration counts within one, and
capacities within 1e-12 bits.
"""

import numpy as np
import pytest

from repro.bounds.indel import (
    indel_block_bound_sweep,
    indel_block_transition_stack,
)
from repro.infotheory import blahut_arimoto, blahut_arimoto_batch

TOL = 1e-9
CAPACITY_ATOL = 1e-12
ITERATION_SLACK = 1

GRID = [(pd, pi) for pd in (0.0, 0.1, 0.2, 0.3) for pi in (0.0, 0.05, 0.1)]

#: (status, iterations, capacity) per channel, scalar solver.
SCALAR = [
    ("converged", 252, 0.34559352094581347),
    ("max_iter", 10000, 0.31628328383900345),
    ("stalled", 1019, 0.23727112557485203),
    ("converged", 9293, 0.31888149731139115),
    ("converged", 853, 0.3265904897725254),
    ("converged", 1093, 0.25051978397886016),
    ("converged", 5903, 0.24143771238851705),
    ("converged", 1711, 0.38598340314802215),
    ("converged", 857, 0.35483235428256565),
    ("converged", 384, 0.30675668578207116),
    ("converged", 788, 0.23727721346023165),
    ("converged", 3760, 0.22547098662436862),
    ("max_iter", 10000, 0.3135004554663027),
    ("converged", 1114, 0.26063258492245317),
    ("converged", 2629, 0.20355097340243206),
    ("converged", 5750, 0.23794723892285094),
    ("stalled", 401, 0.2575551169930826),
    ("converged", 8831, 0.20987474448419563),
    ("converged", 585, 0.25743538249616804),
    ("converged", 1911, 0.28858703497037336),
    ("converged", 1083, 0.2776076003835289),
    ("converged", 581, 0.31397547526677805),
    ("max_iter", 10000, 0.24088142333837073),
    ("converged", 889, 0.42516377817431333),
    ("converged", 259, 0.2949484741732954),
    ("converged", 482, 0.2645528482000465),
    ("converged", 450, 0.4454418876577333),
    ("converged", 639, 0.33165704416784764),
    ("max_iter", 10000, 0.24461311256956147),
    ("converged", 1235, 0.41455889656336353),
    ("stalled", 386, 0.22548528439247859),
    ("converged", 834, 0.31642867838157585),
    ("converged", 1539, 0.30253403958559544),
    ("converged", 326, 0.302289214594231),
    ("converged", 2512, 0.2684865158554402),
    ("converged", 1567, 0.3614555072628695),
    ("converged", 465, 0.24878393648252192),
    ("converged", 1431, 0.21809045296455776),
    ("converged", 1428, 0.45161038410583476),
    ("converged", 2460, 0.3120708776621498),
    ("converged", 4232, 0.24600125757082056),
    ("stalled", 414, 0.2810118517695197),
    ("max_iter", 10000, 0.34557813231439216),
    ("max_iter", 10000, 0.24777731336143072),
    ("converged", 523, 0.31543148221812994),
    ("converged", 3194, 0.3655644243984535),
    ("converged", 8250, 0.3213082364544422),
    ("converged", 939, 0.3006067130716045),
]

#: (status, iterations, capacity) per channel, one batched solve.
BATCHED = [
    ("converged", 252, 0.34559352094581325),
    ("max_iter", 10000, 0.3162832838390036),
    ("stalled", 1019, 0.23727112557485208),
    ("converged", 9293, 0.31888149731139137),
    ("converged", 853, 0.32659048977252547),
    ("converged", 1093, 0.2505197839788604),
    ("converged", 5903, 0.24143771238851702),
    ("converged", 1711, 0.3859834031480221),
    ("converged", 857, 0.35483235428256565),
    ("converged", 384, 0.306756685782071),
    ("converged", 788, 0.23727721346023173),
    ("converged", 3760, 0.22547098662436857),
    ("max_iter", 10000, 0.3135004554663027),
    ("converged", 1114, 0.26063258492245284),
    ("converged", 2629, 0.20355097340243195),
    ("converged", 5750, 0.2379472389228511),
    ("stalled", 401, 0.2575551169930826),
    ("converged", 8831, 0.2098747444841958),
    ("converged", 585, 0.25743538249616815),
    ("converged", 1911, 0.2885870349703734),
    ("converged", 1083, 0.27760760038352894),
    ("converged", 581, 0.3139754752667782),
    ("max_iter", 10000, 0.24088142333837065),
    ("converged", 889, 0.42516377817431344),
    ("converged", 259, 0.2949484741732953),
    ("converged", 482, 0.26455284820004626),
    ("converged", 450, 0.4454418876577335),
    ("converged", 639, 0.33165704416784736),
    ("max_iter", 10000, 0.2446131125695616),
    ("converged", 1235, 0.41455889656336364),
    ("stalled", 386, 0.2254852843924784),
    ("converged", 834, 0.31642867838157585),
    ("converged", 1539, 0.3025340395855957),
    ("converged", 326, 0.302289214594231),
    ("converged", 2512, 0.26848651585544014),
    ("converged", 1567, 0.3614555072628696),
    ("converged", 465, 0.24878393648252187),
    ("converged", 1431, 0.21809045296455773),
    ("converged", 1428, 0.4516103841058347),
    ("converged", 2460, 0.3120708776621499),
    ("converged", 4232, 0.24600125757082072),
    ("stalled", 414, 0.2810118517695196),
    ("max_iter", 10000, 0.34557813231439205),
    ("max_iter", 10000, 0.24777731336143097),
    ("converged", 523, 0.3154314822181301),
    ("converged", 3194, 0.3655644243984534),
    ("converged", 8250, 0.32130823645444206),
    ("converged", 939, 0.3006067130716045),
]

#: (status, iterations, max block information) per grid point.
INDEL_GRID = [
    ("converged", 1, 6.0),
    ("converged", 11, 5.536086802606184),
    ("converged", 18, 5.080898552689085),
    ("converged", 23, 4.634863323351034),
    ("converged", 43, 3.9372212616123576),
    ("converged", 83, 3.4545817209074414),
    ("converged", 56, 3.5938373004450836),
    ("converged", 152, 2.941066645330416),
    ("converged", 484, 2.542011057874742),
    ("converged", 134, 2.806087592677182),
    ("converged", 1077, 2.2461323024952566),
    ("converged", 9789, 1.9259306260753917),
]


def channel_stack():
    rng = np.random.default_rng(6)
    stack = rng.random((48, 8, 10))
    return stack / stack.sum(axis=2, keepdims=True)


def assert_pinned(label, expected, status, iterations, capacity):
    want_status, want_iterations, want_capacity = expected
    assert status.value == want_status, label
    assert abs(iterations - want_iterations) <= ITERATION_SLACK, label
    assert abs(capacity - want_capacity) <= CAPACITY_ATOL, label


def test_scalar_convergence_is_pinned():
    stack = channel_stack()
    for i, expected in enumerate(SCALAR):
        result = blahut_arimoto(stack[i], tol=TOL)
        assert_pinned(
            f"channel {i}", expected,
            result.status, result.iterations, result.capacity,
        )


def test_batched_convergence_is_pinned():
    batch = blahut_arimoto_batch(channel_stack(), tol=TOL)
    for i, expected in enumerate(BATCHED):
        assert_pinned(
            f"channel {i}", expected,
            batch.statuses[i], int(batch.iterations[i]), batch.capacity[i],
        )


@pytest.fixture(scope="module")
def indel_stack():
    stack, _groups, _tails = indel_block_transition_stack(
        6, GRID, max_extra=3
    )
    return stack


def test_indel_grid_kernel_is_pinned(indel_stack):
    batch = blahut_arimoto_batch(indel_stack, tol=TOL)
    for i, expected in enumerate(INDEL_GRID):
        assert_pinned(
            f"grid point {GRID[i]}", expected,
            batch.statuses[i], int(batch.iterations[i]), batch.capacity[i],
        )


def test_indel_grid_sweep_is_pinned():
    results = indel_block_bound_sweep(GRID, block_length=6, max_extra=3)
    for point, result, (status, _iterations, capacity) in zip(
        GRID, results, INDEL_GRID
    ):
        assert result.status.value == status, point
        assert abs(
            result.max_block_information - capacity
        ) <= CAPACITY_ATOL, point
