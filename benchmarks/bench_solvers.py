"""Ablation X4: steady-state solver comparison on the paper's CTMCs.

Times each solver on the Figure 3 chain (4331 states) and checks they
agree.  This is the one file using pytest-benchmark's statistics in the
conventional way (several rounds), since individual solves are fast.

``test_gth_direct_crossover`` is the size sweep behind
``repro.ctmc.steady.GTH_CUTOFF``: dense GTH against the sparse LU on
Figure 3 chains of 6 to 2793 states, the LU timed both with its
fill-reducing order computed afresh (a sweep's first point) and with the
order cached (every later point).  Run it with ``-s`` to see the table.
"""

import time

import numpy as np
import pytest

import repro.ctmc.steady as steady
from repro.ctmc.steady import (
    GTH_CUTOFF,
    steady_state_direct,
    steady_state_gth,
    steady_state_power,
)
from repro.models import TagsExponential

SOLVERS = {
    "gth": steady_state_gth,
    "direct": steady_state_direct,
    "power": steady_state_power,
}

SIZE_SHAPES = [
    (1, 1), (1, 2), (1, 4), (2, 2), (1, 6), (2, 4),
    (4, 2), (4, 4), (4, 6), (8, 4), (6, 6), (8, 6),
]
"""``(K, n)`` of the size sweep's Figure 3 chains (``K1 = K2 = K``):
6, 12, 30, 35, 56, 99, 117, 357, 725, 1353, 1591 and 2793 states."""


@pytest.fixture(scope="module")
def fig3_chain():
    model = TagsExponential(lam=5, mu=10, t=51, n=6, K1=10, K2=10)
    gen = model.generator
    reference = steady_state_direct(gen)
    return gen, reference


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_solver(benchmark, fig3_chain, name):
    gen, reference = fig3_chain
    solver = SOLVERS[name]
    pi = benchmark(solver, gen)
    np.testing.assert_allclose(pi, reference, atol=1e-6)


def _best_ms(solve, repeat: int, before=lambda: None):
    """Fastest of ``repeat`` timed calls, in ms, and the last call's
    result; ``before`` runs untimed ahead of each call."""
    best = float("inf")
    for _ in range(repeat):
        before()
        t0 = time.perf_counter()
        out = solve()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3, out


def _forget_orders():
    with steady._plans_lock:
        steady._plans.clear()


def test_gth_direct_crossover():
    rows = []
    for K, n in SIZE_SHAPES:
        gen = TagsExponential(lam=5.0, mu=10.0, t=51.0, n=n, K1=K, K2=K).generator
        size = gen.n_states
        repeat = max(1, min(30, 3000 // size))
        gth, ref = _best_ms(lambda: steady_state_gth(gen), repeat)
        first, _ = _best_ms(lambda: steady_state_direct(gen), repeat, _forget_orders)
        cached, pi = _best_ms(lambda: steady_state_direct(gen), repeat)
        rel = float(np.max(np.abs(pi - ref) / ref))
        rows.append((size, gth, first, cached, rel))
    print()
    print(f"{'states':>7} {'gth ms':>9} {'LU first ms':>12} {'LU cached ms':>13} "
          f"{'gth/first':>10} {'max rel diff':>13}")
    for size, gth, first, cached, rel in rows:
        print(f"{size:>7} {gth:>9.2f} {first:>12.2f} {cached:>13.2f} "
              f"{gth / first:>10.1f} {rel:>13.1e}")
    print(f"GTH_CUTOFF = {GTH_CUTOFF}")
    assert all(rel <= 1e-12 for *_, rel in rows)
    # the cutoff's premise, with a wide margin against timing noise: at
    # the sweep's largest chain the LU, ordering included, beats dense GTH
    gth, first = rows[-1][1:3]
    assert first * 2 < gth
