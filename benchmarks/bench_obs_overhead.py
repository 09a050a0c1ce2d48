"""Obs overhead: the disabled path must be free, the enabled path cheap.

Benchmarks the worst-instrumented hot path -- power iteration, the one
solver that emits a per-iteration convergence trace when a recorder is
listening -- three ways:

* ``recorder_off``: the default :class:`~repro.obs.NullRecorder`
  (the <2% bar for disabled observability; compare against
  ``bench_solvers.py`` numbers from before the obs layer);
* ``recorder_on``: a live :class:`~repro.obs.Recorder` (the CI
  ``obs-overhead`` job allows at most 10% over the disabled path);
* ``sweep_recorded``: a recorded engine sweep, to size the span/counter
  cost per grid point.

The CI job gets its off/on numbers by running ``bench_solvers.py`` twice
(without/with ``REPRO_OBS=record``); this file is the local,
single-command equivalent.
"""

import pytest

from repro import obs
from repro.ctmc.steady import steady_state_power
from repro.models import TagsExponential
from repro.sweep import SweepEngine


@pytest.fixture(scope="module")
def fig3_chain():
    return TagsExponential(lam=5, mu=10, t=51, n=6, K1=10, K2=10).generator


def test_recorder_off(benchmark, fig3_chain):
    assert not obs.recorder().enabled
    benchmark(steady_state_power, fig3_chain)


def test_recorder_on(benchmark, fig3_chain):
    def solve():
        with obs.use(obs.Recorder()):
            steady_state_power(fig3_chain)

    benchmark(solve)


def test_sweep_recorded(benchmark):
    grid = [
        dict(lam=5.0, mu=10.0, n=6, K1=4, K2=4, t=float(t))
        for t in range(10, 111, 20)
    ]

    def sweep():
        with obs.use(obs.Recorder()) as rec:
            SweepEngine(workers=1, cache=False).sweep(TagsExponential, grid)
        return rec

    rec = benchmark(sweep)
    assert len(rec.find_spans("sweep.point")) == len(grid)


def test_disabled_path_records_nothing(fig3_chain):
    """Sanity, not timing: with the null recorder no buffers grow."""
    rec = obs.recorder()
    assert not rec.enabled
    steady_state_power(fig3_chain)
    assert rec.spans == [] and rec.counters == {} and rec.traces == []
