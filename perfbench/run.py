#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload exp-grid --seed 7 --seconds 20 --trace 0

Workloads: ``exp-grid`` (Figures 6-8), ``h2-grid`` (Figures 9-10 on a
seeded t-subset), ``structure-scan`` (15 buffer/phase shapes through the
direct and the compiled-PEPA construction) and ``tags-des`` (a seeded
100k-job trace replayed through ``sim.runner`` and ``serve``).  See
``perfbench/README.md`` for why each exists and what each metric should
move.

Every repetition runs in a fresh interpreter (``perfbench/rep.py``), so
it starts from empty process-wide caches.  Repetition ``k`` of a run
draws its inputs from workload seed ``seed + k``: a run covers several
grids or traces, not one (tags-des peak memory, for one, differs by
~10% between traces with the heap layout).  Repetitions continue until
``--seconds`` have passed (at least :data:`MIN_REPS`), and the medians
are reported:

* ``--trace 0`` -- the end-to-end metrics ``setup_s``, ``wall_s`` and
  ``peak_rss_mb``, with sweeps on the program's default worker count;
* ``--trace 1`` -- pairs of one-worker repetitions, one untraced and one
  with the layer wrappers of ``perfbench/layers.py`` installed; prints
  every per-layer metric plus ``trace_overhead`` and writes the spans to
  ``perfbench/out/``.

Every output is checked (``perfbench/workloads.py``).  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Machine facts and per-repetition numbers go
to the lines before it and to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("exp-grid", "h2-grid", "structure-scan", "tags-des")

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
"""Names and units of every metric (``end_to_end`` / ``per_layer``)."""
MIN_REPS = 3
"""Fewest untraced repetitions a run reports the median of (a traced run
makes at least one untraced/traced pair)."""
REP_TIMEOUT_S = 150.0
"""A repetition still running after this long is killed (with its sweep
workers) and the run fails."""


def _spawn(workload: str, seed: int, env: dict, traced: bool, spans: "str | None", deadline: float):
    """One repetition; returns its result dict, or None if it failed."""
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if traced:
        cmd.append("--traced")
        if spans:
            cmd += ["--spans", spans]
    cmd += ["--spawned", repr(time.time())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the repetition and its pool workers
        proc.communicate()
        print(f"repetition of {workload} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        print(f"repetition of {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out[-2000:] + err[-2000:])
        return None


def _median(reps: list, key: str) -> float:
    return statistics.median(r[key] for r in reps)


def _preflight() -> "str | None":
    if not os.path.isfile(SPEC_PATH):
        return f"no {SPEC_PATH}"
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return f"no program source at {os.path.join(ROOT, 'src', 'repro')}"
    for name in ("figures", "structure_scan", "tags_des"):
        if not os.path.isfile(os.path.join(HERE, "reference", f"{name}.json")):
            return f"missing reference {name}.json"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = _preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles the same sources
    env.pop("REPRO_OBS", None)  # the traced pass installs its own recorder
    if args.trace:
        env["REPRO_SWEEP_WORKERS"] = "1"  # pool workers are invisible to wrappers
    else:
        env.pop("REPRO_SWEEP_WORKERS", None)  # the program's default worker count

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = time.monotonic()
    deadline = start + REP_TIMEOUT_S
    reps, traced, ok = [], [], True
    while ok:
        if args.trace:
            spans = os.path.join(OUT_DIR, f"{tag}-spans.jsonl")
            pair = (
                _spawn(args.workload, args.seed + len(reps), env, False, None, deadline),
                _spawn(args.workload, args.seed + len(reps), env, True, spans, deadline),
            )
            ok = None not in pair
            if ok:
                reps.append(pair[0])
                traced.append(pair[1])
        else:
            rep = _spawn(args.workload, args.seed + len(reps), env, False, None, deadline)
            ok = rep is not None
            if ok:
                reps.append(rep)
        # stop when one more repetition would end nearer past --seconds
        elapsed = time.monotonic() - start
        per_rep = elapsed / max(len(reps), 1)
        enough = len(reps) >= (1 if args.trace else MIN_REPS)
        if (enough and elapsed + per_rep / 2 >= args.seconds) or elapsed > REP_TIMEOUT_S - 30:
            break

    runs = reps + traced
    attempted = sum(r["attempted"] for r in runs) or 1
    failed = sum(r["failed"] for r in runs)
    correct = ok and bool(reps) and all(r["correct"] for r in runs)
    if not ok:
        failed = attempted
    problems = [p for r in runs for p in r["problems"]]

    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    metrics: dict = {}
    if reps and args.trace:
        layers = {
            k: statistics.median(t["layers"][k] for t in traced)
            for k in traced[0]["layers"]
        }
        layers["wall_s.one_worker"] = _median(reps, "wall_s")
        layers["wall_s.traced"] = _median(traced, "wall_s")
        layers["trace_overhead"] = layers["wall_s.traced"] / layers["wall_s.one_worker"] - 1
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    elif reps:
        metrics = {m["name"]: {"value": _median(reps, m["name"]), "unit": m["unit"]} for m in spec["end_to_end"]}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": runs[0]["machine"] if runs else None,
        "repetitions": reps,
        "traced_repetitions": traced,
        "problems": problems[:50],
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}"
          f"{' (+%d traced)' % len(traced) if args.trace else ''}")
    print("machine " + json.dumps(detail["machine"]))
    for p in problems[:10]:
        print("CHECK FAILED: " + p)
    for k, m in metrics.items():
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
