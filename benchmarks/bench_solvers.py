"""Ablation X4: steady-state solver comparison on the paper's CTMCs.

Times each solver on the Figure 3 chain (4331 states) and checks they
agree.  This is the one file using pytest-benchmark's statistics in the
conventional way (several rounds), since individual solves are fast.
"""

import numpy as np
import pytest

from repro.ctmc.steady import (
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
