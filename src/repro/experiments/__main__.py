"""Command-line figure regeneration.

Usage::

    python -m repro.experiments                 # everything (slow)
    python -m repro.experiments 6 7 s1 t1       # selected experiments
    python -m repro.experiments 9 --csv out/    # also write out/figure9.csv
    python -m repro.experiments 9 --trace t.jsonl --obs-summary

Experiment ids: ``6``-``12`` (figures), ``s1`` (Section 1 example),
``t1`` (state-space count), ``a`` (Section 4 approximations),
``serve`` (online dispatcher: controller trajectory + live-vs-CTMC
validation, virtual clock), ``faults`` (graceful degradation versus
node-2 crash rate, supervised failover on the virtual clock).

Observability flags (see ``docs/observability.md``):

``--trace FILE``
    Record the whole run (every solve, state-space build and sweep --
    including pool-worker events) and append the JSONL event log to
    FILE.
``--obs-summary``
    Print the aggregated span/counter/gauge/trace tables after the run.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys

from repro import obs
from repro.experiments import (
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    render_figure,
    render_table,
    section1_example,
    section4_approximations,
    state_space_table,
)


def _print_s1() -> None:
    print("S1: Section 1 worked example")
    rows = [
        [label, paper, ours]
        for label, (paper, ours) in section1_example().items()
    ]
    print(render_table(["case", "paper", "ours"], rows))


def _print_t1() -> None:
    print("T1: Figure 3 state space")
    print(
        render_table(
            ["quantity", "value"],
            [[k, v] for k, v in state_space_table().items()],
            float_fmt="{:.0f}",
        )
    )


def _print_a() -> None:
    print("A: Section 4 approximations")
    print(
        render_table(
            ["quantity", "value"],
            [[k, v] for k, v in section4_approximations().items()],
        )
    )


def _print_serve() -> None:
    """Online TAGS under closed-loop timeout control (virtual clock).

    lam = 8 against mu = 10 with a deliberately mistuned timeout rate
    t = 5; the controller estimates (lam, mu) from the live window,
    re-optimises through the Section 4 fixed point, and the final system
    is validated against the exact Figure 3 chain at the operating
    point it steered to.
    """
    from repro.dists import Exponential
    from repro.models import TagsExponential
    from repro.serve import (
        DispatchRuntime,
        PoissonLoad,
        TimeoutController,
        validate_against_model,
    )
    from repro.sim import ErlangTimeout, TagsPolicy

    lam, mu, n = 8.0, 10.0, 6
    print("SERVE: online TAGS dispatcher, adaptive timeout "
          f"(lam={lam:g}, mu={mu:g}, start t=5)")
    ctrl = TimeoutController(
        interval=150.0, window=300.0, metric="throughput"
    )
    rt = DispatchRuntime(
        PoissonLoad(lam, Exponential(mu)),
        TagsPolicy(timeouts=(ErlangTimeout(n, 5.0),)),
        (10, 10),
        seed=0,
        controller=ctrl,
    )
    res = rt.run(2000.0, warmup=200.0)
    rows = [
        [
            d.time,
            "-" if d.lam_hat is None else f"{d.lam_hat:.2f}",
            "-" if d.mu_hat is None else f"{d.mu_hat:.2f}",
            "-" if d.t_opt is None else f"{d.t_opt:.1f}",
            d.reason,
        ]
        for d in ctrl.history
    ]
    print(render_table(
        ["time", "lam^", "mu^", "t_opt", "decision"], rows
    ))
    t_final = rt.current_timeout(0).t
    print(f"\nfinal timeout rate t = {t_final:.2f} "
          f"(offered {res.offered}, completed {res.completed}, "
          f"killed {res.killed})")
    print("\nlive metrics vs exact CTMC at the operating point "
          "(node band widened for the paper's node-2 approximation):")
    model = TagsExponential(lam=lam, mu=mu, t=t_final, n=n, K1=10, K2=10)
    print(validate_against_model(res, model, node_tol=0.25).format())


def _print_faults() -> None:
    """Graceful degradation of the online runtime versus node-2 crash rate.

    Each row replays online TAGS (virtual clock) against a seeded
    FaultPlan with the given node-2 crash rate; the supervisor restarts
    the node, and ``degraded="single_node"`` suppresses timeouts while
    node 2 is down so node 1 serves alone.  The interesting readout is
    how slowly throughput falls as availability erodes.
    """
    import os

    from repro.faults import degradation_table

    rates = [0.0, 0.002, 0.005, 0.01, 0.02]
    env = os.environ.get("REPRO_FAULTS_CRASH_RATES")
    if env:
        rates = [float(x) for x in env.split(",")]
    print("FAULTS: degradation vs node-2 crash rate "
          "(supervised, single-node fallback)")
    headers, rows = degradation_table(rates, supervised=True)
    print(render_table(headers, rows))


FIGURES = {
    "6": figure6,
    "7": figure7,
    "8": figure8,
    "9": figure9,
    "10": figure10,
    "11": figure11,
    "12": figure12,
}
SPECIALS = {
    "s1": _print_s1,
    "t1": _print_t1,
    "a": _print_a,
    "serve": _print_serve,
    "faults": _print_faults,
}


def _pop_path_flag(args: list, flag: str) -> "pathlib.Path | None":
    """Extract ``flag PATH`` from ``args`` (paths keep their case)."""
    if flag not in args:
        return None
    i = args.index(flag)
    try:
        path = pathlib.Path(args[i + 1])
    except IndexError:
        raise SystemExit(f"{flag} needs a path argument")
    del args[i : i + 2]
    return path


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        csv_dir = _pop_path_flag(raw, "--csv")
        trace_path = _pop_path_flag(raw, "--trace")
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    obs_summary = "--obs-summary" in raw
    if obs_summary:
        raw.remove("--obs-summary")
    args = [a.lower() for a in raw]
    if not args:
        args = ["s1", "t1", "a", "serve", "faults"] + sorted(FIGURES, key=int)
    unknown = [a for a in args if a not in SPECIALS and a not in FIGURES]
    if unknown:
        print(
            f"unknown experiment {', '.join(map(repr, unknown))}; choose from "
            f"{sorted(SPECIALS) + sorted(FIGURES, key=int)}",
            file=sys.stderr,
        )
        return 2
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)

    # --trace/--obs-summary record the run even when REPRO_OBS is unset;
    # otherwise whatever recorder the env var installed keeps working
    rec = obs.recorder()
    if (trace_path is not None or obs_summary) and not rec.enabled:
        ctx = obs.use(obs.Recorder())
    else:
        ctx = contextlib.nullcontext(rec)
    with ctx as rec:
        for arg in args:
            if arg in SPECIALS:
                with rec.span("experiment", id=arg):
                    SPECIALS[arg]()
            else:
                with rec.span("experiment", id=arg):
                    fig = FIGURES[arg]()
                print(render_figure(fig, max_rows=20))
                if csv_dir is not None:
                    from repro.experiments.report import figure_to_csv

                    path = csv_dir / f"figure{arg}.csv"
                    figure_to_csv(fig, path)
                    print(f"(written to {path})")
            print()
    if trace_path is not None:
        n = obs.write_jsonl(rec, trace_path)
        print(f"(obs trace: {n} events appended to {trace_path})")
    if obs_summary:
        print(obs.format_summary(rec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
