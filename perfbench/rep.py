"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every timed run
begins with empty process-wide caches (the sweep engine's solve cache and
the structure cache), as a user regenerating a figure would.  It prints
one JSON object on its last stdout line:

* ``setup_s`` -- from the parent's spawn instant (``--spawned``, a
  ``time.time()`` stamp) through interpreter start, ``import repro`` and
  input generation;
* ``wall_s`` -- the timed part of the workload;
* ``peak_rss_mb`` -- peak RSS of this process plus the largest of its
  sweep workers;
* the check verdict, machine facts and, with ``--traced``, the
  per-layer metrics (spans go to ``--spans``).

Usage: ``PYTHONPATH=src python3 perfbench/rep.py --workload exp-grid
--seed 1 --spawned "$(date +%s.%N)"``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def _machine(engine_cls) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "sweep_workers": engine_cls().resolve_workers(None, 1 << 30),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans here (JSONL)")
    ap.add_argument("--reference", default=None, help="reference directory to check against")
    args = ap.parse_args(argv)

    import repro  # noqa: F401  (set-up: the import a user pays)
    import repro.experiments.figures  # noqa: F401
    import repro.models.tags_pepa  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sim  # noqa: F401
    from repro import obs
    from repro.sweep import SweepEngine

    from workloads import REFERENCE_DIR, WORKLOADS, collect_points, load_reference

    w = WORKLOADS[args.workload]
    reference = load_reference(w.reference, args.reference or REFERENCE_DIR)
    points = collect_points()
    tracer = None
    recorder = obs.recorder()
    if args.traced:
        from layers import Tracer, install

        tracer = Tracer()
        install(tracer)
        if w.sweeps:  # for the cross-check against the program's counters
            recorder = obs.Recorder()

    with obs.use(recorder):
        inputs = w.prepare(args.seed, tracer)
        setup_s = time.time() - args.spawned
        t0 = time.perf_counter()
        outputs = w.execute(inputs)
        wall_s = time.perf_counter() - t0
    # before the checks, whose own bookkeeping is not the program's memory
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    verdict = w.check(inputs, outputs, reference, points)
    result = {
        "workload": w.name,
        "seed": args.seed,
        "traced": args.traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "correct": not verdict.problems,
        "problems": verdict.problems,
        "machine": _machine(SweepEngine),
    }
    if w.name == "tags-des":
        result["sim_s"] = outputs["sim_s"]
        result["serve_s"] = outputs["serve_s"]

    if tracer is not None:
        from layers import layer_metrics, lu_fill_nnz

        jobs, sim_kills = {}, 0
        if w.name == "tags-des":
            jobs = {host: outputs[host].offered for host in ("sim", "serve")}
            sim_kills = sum(k for _, _, k in outputs["sim"].job_outcomes().values())
        lu_fill = max((lu_fill_nnz(Q) for Q in tracer.direct_chains.values()), default=0)
        layers = layer_metrics(tracer, jobs=jobs, sim_kills=sim_kills, lu_fill=lu_fill)
        layers["obs.sweep.structure.miss"] = recorder.counter_total("sweep.structure.miss")
        layers["obs.sweep.cache.miss"] = recorder.counter_total("sweep.cache.miss")
        for ours, theirs in (
            ("structure.builds", "obs.sweep.structure.miss"),
            ("sweep.solves", "obs.sweep.cache.miss"),
        ):
            if layers[ours] != layers[theirs]:
                result["correct"] = False
                result["problems"].append(
                    f"cross-check: {ours}={layers[ours]} != {theirs}={layers[theirs]}"
                )
        result["layers"] = layers
        if args.spans:
            tracer.write_jsonl(args.spans)

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
