"""Sweep-engine performance on the Figure 6/7 grid.

Three configurations of the same 30-point sweep (Figure 6's t-grid over the
paper's lam=5, mu=10 TAGS system):

* **serial-cold** -- one worker, empty cache (the seed's behaviour, except
  the seed also solved the grid *twice*, once per figure);
* **parallel** -- the grid fanned out over a process pool;
* **cached** -- an immediate re-run answered from the content-addressed
  cache.

Also regenerates the Figure 6 + Figure 7 *pair* through the shared engine
and checks the headline claim: strictly fewer steady-state solves than the
seed's two independent sweeps, with identical series.
"""

import os
import time

import numpy as np

from repro.experiments import figure6, figure7
from repro.experiments.config import FIG6_PARAMS, FIG6_T_GRID
from repro.models import TagsExponential
from repro.sweep import SweepEngine, default_engine, format_sweep_stats

GRID = [dict(FIG6_PARAMS, t=float(t)) for t in FIG6_T_GRID]
SEED_SOLVES_FOR_PAIR = 2 * (len(FIG6_T_GRID) + 2)
"""The seed solved the sweep + 2 reference models once *per figure*."""


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_figure_6_7_pair_shares_solves(once):
    """Fig 6 + Fig 7 through the shared engine: one solve pass, not two."""
    eng = default_engine()
    eng.cache.clear()

    def pair():
        return figure6(), figure7()

    (f6, f7), = [once(pair)]
    solves, hits = eng.cache.misses, eng.cache.hits
    print()
    print(f"seed solves for the pair : {SEED_SOLVES_FOR_PAIR}")
    print(f"engine solves for the pair: {solves} (cache hits: {hits})")
    assert solves < SEED_SOLVES_FOR_PAIR  # strictly fewer than the seed
    assert solves == len(FIG6_T_GRID) + 2  # exactly one solve pass
    assert hits >= len(FIG6_T_GRID)
    # the two figures really describe the same sweep
    k6 = int(np.argmin(f6.series["TAG total"]))
    k7 = int(np.argmin(f7.series["TAG"]))
    assert abs(k6 - k7) <= 1


def test_serial_vs_parallel_vs_cached():
    serial_eng = SweepEngine(workers=1)
    serial, t_serial = _timed(lambda: serial_eng.sweep(TagsExponential, GRID))
    print()
    print(format_sweep_stats(serial, "serial-cold"))

    workers = min(4, max(2, os.cpu_count() or 1))
    par_eng = SweepEngine(workers=workers)
    par, t_par = _timed(lambda: par_eng.sweep(TagsExponential, GRID))
    print(format_sweep_stats(par, f"parallel({workers})"))

    cached, t_cached = _timed(lambda: serial_eng.sweep(TagsExponential, GRID))
    print(format_sweep_stats(cached, "cached-rerun"))
    print(
        f"wall times: serial {t_serial:.3f} s, parallel {t_par:.3f} s, "
        f"cached {t_cached * 1e3:.1f} ms"
    )

    # determinism: parallel series numerically identical to serial
    for metric in ("mean_jobs", "response_time", "throughput"):
        np.testing.assert_allclose(
            par.values(metric), serial.values(metric), rtol=1e-10, atol=0.0
        )
    assert cached.n_solves == 0 and cached.n_hits == len(GRID)
    assert t_cached < t_serial / 20
    if (os.cpu_count() or 1) >= 2:
        # real cores available: the pool must beat the serial pass
        assert t_par < t_serial, (t_par, t_serial)
    else:
        print("single-CPU container: parallel speedup not asserted")
