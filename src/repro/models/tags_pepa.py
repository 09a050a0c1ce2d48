"""PEPA model of TAGS (paper Figures 3 and 5), the one builder of every
TAGS PEPA chain.

The model is generated programmatically (queue sizes are parameters), with
component names matching the paper: ``Q1_i``, ``Timer1_i``, ``Q2_i`` /
``Q2r_i`` (the paper's primed ``Q2'_i``), ``Timer2_i``.

Structure (see DESIGN.md interpretation notes)::

    Node1  =  Q1_0  <service1, tick1, timeout>   Timer1_{n-1}
    Node2  =  Q2_0  <repeatservice, tick2>       Timer2_{n-1}
    System =  Node1 <timeout> Node2

``timeout`` is therefore a three-way synchronisation: Q1 supplies the
clock rate ``t`` and sheds the head job, Timer1 passively enables it in
its last phase, Q2 passively admits the job (or drops it via a self-loop
when full).  The node-1 clock rate sits on the ``Q1_i`` side (``tick1``
and ``timeout`` active in the queue, passive in the timer), as Figure 5
does for ``timeout``: under PEPA's apparent-rate rule the synchronised
rate is ``t`` either way, and the queue side lets the rate depend on the
queue length (``t_of_q1``).  ``service2`` is *not* in Node2's
cooperation set: Timer2 never performs it (unlike Timer1, which resets
on ``service1``), so including it -- as the paper's Figure 4 appears to
-- would block queue 2 for ever.  Our well-formedness checker flags
exactly this mistake.

**Timer convention.** The paper is internally inconsistent about ``n``: the
printed component definitions give the timer ``n`` ticks plus the timeout
action (Erlang(n+1, t)), but the prose ("the average total timeout duration
... is simply n/t"), the Section 4 algebra (``(t/(t+mu))^n``) and the
reported state count (4331 at n=6, K1=K2=10) all treat ``n`` as the total
number of Erlang *phases*.  We follow the numerical results: the timer has
derivatives ``Timer_{n-1} .. Timer_0`` (``n-1`` ticks, then ``timeout``),
mean timeout ``n / t``.  With this convention the reachable state space at
n=6, K=10 is exactly ``(K1 n + 1)(K2 (n+1) + 1) = 61 * 71 = 4331``,
matching the paper.

Two encodings of the node-2 timer during the residual service are offered
(``tick_during_residual``): the paper's Figure 3 text includes a
``(tick2, T)`` self-loop in ``Q2'_i`` (the timer keeps running), while the
paper's own state-count formula ``K2 (n+2) + 1`` matches the timer being
frozen until the next repeat phase.  Both are built; metrics differ only
marginally (see ``benchmarks/bench_ablation_tick2.py``).

Extensions beyond the paper's homogeneous model (all default off):

* **heterogeneous nodes** (Section 3: "if the system is heterogeneous
  ... new rates for the ticks of the repeated service and for
  service2"): ``mu2_service`` sets node 2's service rate and ``t2`` the
  repeat-clock rate; both default to ``mu`` / ``t``.
* **dynamic timeout** (Section 7 future work: "a dynamic timeout
  duration that adapts to queue length"): ``t_of_q1`` maps the node-1
  queue length to the clock rate of ``Q1_i``; overrides ``t`` at node 1.
* **resume instead of restart** (the open problem of Section 6: "nobody
  has yet studied the costs and benefits of resume against restart"):
  with ``restart_work=False`` a timed-out job *migrates* -- node 2 has no
  ``Timer2`` and no repeat phase, just the job's (memoryless) residual
  -- turning the system into the multi-level-feedback variant the
  paper's introduction contrasts TAGS with.

Loss accounting: a self-loop ``(arrloss, lam)`` is attached to the full
``Q1_K1`` derivative.  Self-loops do not alter the CTMC, but give the
node-1 drop rate directly as an action throughput.

**More nodes, MMPP arrivals.**  ``capacities``/``timeouts`` make a line
of N queue/timer pairs, ``(Node1 <timeout> Node2) <timeout2> Node3``:
node ``i``'s timeout is active in ``Q<i>``, passive in ``Timer<i>`` and
``Q<i+1>``.  A new head at node ``i`` first makes ``i - 1`` repeat
passes (``Q<i>_q``, ``Q<i>p<k>_q``, then residual ``Q<i>r_q``), each a
full clock cycle it cannot time out of; the last node is Figure 3's
node 2 (:mod:`repro.models.tags_multinode` names the approximation).
``arrivals`` adds a leaf, ``System <arrival, arrloss> MMPP_0`` (as
``TagsBreakdown`` adds its breaker), and queue 1's arrivals turn
passive; a phase of rate 0 has no arrival prefixes.  The model classes
(:class:`CompiledTags`) explore each shape once and refill its rates.

**Service phases (Figure 5).**  ``service`` makes a job's demand one of
several exponential phases.  A node-1 head in phase ``j`` (``Q1h<j>_q``;
phase 0 is plain ``Q1_q``) serves at ``rates[j]``; the next head draws
its phase on every departure that leaves the queue non-empty, and a job
arriving at an empty queue on arrival.  At the last node
``repeatservice`` branches into residual phase ``j`` (``Q2rh<j>_q``) by
the mixing vector -- ``(alpha', 1 - alpha')`` for H2 -- as passive
weights against the timer's rate; a zero weight drops its branch, so a
never-entered residual stays out of the model.  Exponential service is
the one-phase case, so Figure 3 is unchanged.  Corrections to the
printed Figure 5 (DESIGN.md note 4): the ``timeout`` rates in ``Q1_i``
read ``alpha mu2 / (1-alpha) mu2`` but are ``alpha t / (1-alpha) t``
here (the timeout race does not depend on the head's phase), and
``(arrival, (1-alpha) lam).Q1_1'`` targets ``Q1'_1`` (``Q1h1_1``).
Figure 5 puts the repeat clock's rate ``t`` on the queue side; under the
apparent-rate rule that is the same CTMC as Figure 3's timer-side clock,
which the builder uses for every chain.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from repro.ctmc.bfs import Chain
from repro.models.metrics import (
    QueueMetrics,
    check_rates,
    from_population_and_throughput,
)
from repro.pepa import (
    Activity,
    Choice,
    Constant,
    Cooperation,
    Model,
    Prefix,
    Rate,
    top,
)
from repro.pepa.compiled import TemplateMismatch, compile_model
from repro.sweep.structure import structure_cache

__all__ = [
    "TagsParameters",
    "TagsExponential",
    "TagsPepa",
    "build_tags_model",
    "tags_pepa_metrics",
]


@dataclass(frozen=True)
class TagsParameters:
    """Parameters of the Figure 3 model.

    ``n`` is the total number of Erlang phases in the timeout clock
    (``n - 1`` ticks followed by the ``timeout`` action), so the timeout
    duration is Erlang(n, t) with mean ``n / t`` -- the convention of the
    paper's prose and numerical results (see the module docstring, which
    also describes the ``mu2_service``/``t2``/``t_of_q1``/``restart_work``
    extensions).
    """

    lam: float = 5.0
    mu: float = 10.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10
    tick_during_residual: bool = False
    mu2_service: float | None = None
    t2: float | None = None
    t_of_q1: Callable[[int], float] | None = None
    restart_work: bool = True

    def __post_init__(self) -> None:
        if self.n < 1 or self.K1 < 1 or self.K2 < 1:
            raise ValueError("n, K1, K2 must be >= 1")
        check_rates(lam=self.lam, mu=self.mu, t=self.t)
        for name in ("mu2_service", "t2"):
            if getattr(self, name) is not None:
                check_rates(**{name: getattr(self, name)})
        if self.t_of_q1 is not None:
            for q in range(1, self.K1 + 1):
                check_rates(**{f"t_of_q1({q})": self.t_of_q1(q)})


def _choice(*terms):
    comp = terms[0]
    for t in terms[1:]:
        comp = Choice(comp, t)
    return comp


def _p(action, rate, target):
    r = rate if isinstance(rate, Rate) else Rate(rate)
    return Prefix(Activity(action, r), Constant(target))


def _timeout(i: int) -> str:
    """Node ``i``'s timeout action (node 1's is Figure 3's)."""
    return "timeout" if i == 1 else f"timeout{i}"


def _one_phase(mu: float) -> tuple:
    """The ``service`` of :func:`build_tags_model` for exponential
    service: one phase of rate ``mu``."""
    return ((0, 1.0),), (mu,), (1.0,)


def build_tags_model(
    params: TagsParameters,
    *,
    capacities: tuple | None = None,
    timeouts: tuple | None = None,
    arrivals=None,
    service: tuple | None = None,
) -> Model:
    """Construct the TAGS PEPA model (see the module docstring).

    ``capacities`` (one per node) and ``timeouts`` (one clock rate per
    node but the last) replace ``(K1, K2)`` and ``(t,)``; ``arrivals``
    (an :class:`~repro.models.bursty.MMPP2`) replaces the Poisson
    stream.  ``service = (draws, rates, mixing)`` replaces ``params.mu``
    by exponential phases of rates ``rates``: a head job starts its
    node-1 service in the phase ``draws`` picks (``(phase, probability)``
    pairs, as :func:`~repro.models.shortest_queue._service_phases` gives
    them) and its residual at the last node in phase ``j`` with
    probability ``mixing[j]``.  More than one phase is built for the
    two-node Poisson chain with restarts, static clocks and equal nodes
    only (Figure 5).
    """
    caps = (params.K1, params.K2) if capacities is None else tuple(capacities)
    clocks = (params.t,) if timeouts is None else tuple(timeouts)
    n = params.n
    draws, rates, mixing = service or _one_phase(params.mu)
    if len(rates) > 1 and (
        len(caps) > 2
        or arrivals is not None
        or not params.restart_work
        or (params.t_of_q1, params.mu2_service, params.t2) != (None,) * 3
    ):
        raise ValueError(
            "several service phases are built for the two-node Poisson "
            "chain with restarts, static clocks and equal nodes only"
        )
    rates2 = rates if params.mu2_service is None else (params.mu2_service,)
    phases = range(len(rates))
    mixed = [(j, top(w)) for j, w in enumerate(mixing) if w]
    lam = params.lam if arrivals is None else top()
    defs: dict = {}
    for i, K in enumerate(caps, start=1):
        last, serve, tick = i == len(caps), f"service{i}", f"tick{i}"
        # repeat passes a new head makes before its residual service
        passes = i - 1 if params.restart_work else 0
        clock = clocks[i - 1] if not last else params.t2 or clocks[-1]

        def Q(q, k=0, j=0, i=i, passes=passes):
            """Queue i holding q jobs, its head in pass k (residual at
            k == passes) and service phase j."""
            mark = "" if k == 0 else "r" if k == passes else f"p{k}"
            return f"Q{i}{mark}h{j}_{q}" if j else f"Q{i}{mark}_{q}"

        # -------------------------------------------------- queue i
        # the head's phase matters once it can finish its service
        states = [
            (q, k, j)
            for q in range(K + 1)
            for k in range(passes + 1 if q else 1)
            for j in (phases if q and k == passes else (0,))
        ]
        for q, k, j in states:
            if i > 1:  # a timeout into a full queue is dropped
                terms = [_p(_timeout(i - 1), top(), Q(min(q + 1, K), k, j))]
            elif q == 0:
                terms = [_p("arrival", lam * p, Q(1, 0, ph)) for ph, p in draws]
            elif q < K:
                terms = [_p("arrival", lam, Q(q + 1, k, j))]
            else:
                terms = [_p("arrloss", lam, Q(K, k, j))]
            if q and k < passes:
                # a repeat pass: one full clock cycle, no timeout;
                # the last node mixes the residual's phase
                rate = top() if last else clock
                terms.append(_p(tick, rate, Q(q, k)))
                if last and k + 1 == passes:
                    terms += [_p("repeatservice", w, Q(q, k + 1, r)) for r, w in mixed]
                else:
                    terms.append(_p("repeatservice", rate, Q(q, k + 1)))
            elif q and last:
                if params.tick_during_residual and passes:
                    terms.append(_p(tick, top(), Q(q, k, j)))
                terms.append(_p(serve, rates2[j], Q(q - 1)))
            elif q:
                t_i = clock
                if i == 1 and params.t_of_q1 is not None:
                    t_i = float(params.t_of_q1(q))
                mu_i = (rates if i == 1 else rates2)[j]
                # the next head starts its first pass, drawing its phase at node 1
                nxt = [(1.0, Q(q - 1))]
                if i == 1 and q > 1:
                    nxt = [(p, Q(q - 1, 0, ph)) for ph, p in draws]
                terms += [_p(serve, mu_i * p, s) for p, s in nxt]
                terms += [_p(_timeout(i), t_i * p, s) for p, s in nxt]
                terms.append(_p(tick, t_i, Q(q, k, j)))
            defs[Q(q, k, j)] = _choice(*terms)

        # -------------------------------------------------- timer i
        # n Erlang phases: Timer_{n-1} .. Timer_1 tick, Timer_0 ends the
        # cycle; the queue drives it (passive here) except at the last
        # node, whose repeat clock runs only while the queue repeats
        reset = f"Timer{i}_{n - 1}"
        if not last:
            ends = [_timeout(i), serve] + ["repeatservice"] * bool(passes)
            defs[f"Timer{i}_0"] = _choice(*(_p(a, top(), reset) for a in ends))
            for k in range(1, n):
                defs[f"Timer{i}_{k}"] = _choice(
                    _p(tick, top(), f"Timer{i}_{k - 1}"),
                    _p(serve, top(), reset),
                )
            shared = {tick, *ends}
        elif passes:
            defs[f"Timer{i}_0"] = _p("repeatservice", clock, reset)
            for k in range(1, n):
                defs[f"Timer{i}_{k}"] = _p(tick, clock, f"Timer{i}_{k - 1}")
            shared = {"repeatservice", tick}
        node = Constant(f"Q{i}_0")
        if not last or passes:
            node = Cooperation(node, Constant(reset), frozenset(shared))
        if i > 1:
            node = Cooperation(system, node, frozenset({_timeout(i - 1)}))
        system = node

    if arrivals is not None:
        # ------------------------------------------------ arrival phase
        for ph in (0, 1):
            rate = arrivals.rate(ph)  # an off phase (rate 0) has no arrivals
            defs[f"MMPP_{ph}"] = _choice(
                *(_p(a, rate, f"MMPP_{ph}") for a in ("arrival", "arrloss") if rate),
                _p("switch", arrivals.switch(ph), f"MMPP_{1 - ph}"),
            )
        system = Cooperation(
            system, Constant("MMPP_0"), frozenset({"arrival", "arrloss"})
        )
    return Model(defs, system)


def _index(name: str) -> int:
    """The trailing index of a derivative name (``Q2r_3`` -> 3)."""
    return int(name.rsplit("_", 1)[1])


def _phase(name: str) -> int:
    """The head's service phase of a queue derivative (``Q1h1_3`` -> 1)."""
    return int(name.partition("_")[0].partition("h")[2] or 0)


# the Figure 3 tuple columns (q1, r1, q2, ph2, r2) read off the sequential
# components Q1_i, Timer1_k, Q2_j / Q2r_j, Timer2_k; ph2 is 0 while node
# 2's head repeats and 1 + j in residual phase j (Q2rh<j>_q)
FIGURE3_FIELDS = [
    (0, _index),
    (1, _index),
    (2, _index),
    (2, lambda name: (name[2] == "r") * (1 + _phase(name))),
    (3, _index),
]


class CompiledTags(Chain):
    """Build/metrics plumbing shared by the TAGS PEPA model classes.

    Subclasses are dataclasses with the fields of their parameter record
    ``PARAMS`` (which validates them) that supply :meth:`build` (the PEPA
    model), :meth:`_structure_key` (the parameters that shape the
    reachability graph; a rate does only where zero is allowed, as for
    an MMPP phase) and :meth:`_state_fields` (how the tuple encoding of
    :attr:`states` reads off the sequential components; the columns in
    ``_QUEUE_COLUMNS`` are the queue lengths, node by node).  One
    :meth:`metrics` serves them all.

    The generator comes from the compiled engine through the process-wide
    structure cache: the first model of a shape compiles and explores,
    every further one refills the shared space's rate column and
    assembles its generator right away.  The tuple states depend only on
    the structure and are memoised on the cached space; ``pi`` and the
    throughputs come from the :class:`~repro.ctmc.bfs.Chain` base.
    """

    SOLVE_ENGINE = "pepa-compiled-v2"
    PARAMS: type
    _QUEUE_COLUMNS: tuple

    def __post_init__(self) -> None:
        self.params()  # the parameter record validates

    def params(self, record: type | None = None):
        """This model's parameters as a (validated) ``record``, by default
        ``PARAMS``; fields the class lacks keep the record's defaults."""
        record = record or self.PARAMS
        return record(
            **{
                f.name: getattr(self, f.name)
                for f in fields(record)
                if hasattr(self, f.name)
            }
        )

    def _state_fields(self) -> list:
        """One ``(leaf, decode)`` pair per tuple column: ``decode`` maps
        the local derivative name of sequential component ``leaf`` to
        the column value; ``leaf=None`` makes ``decode`` a constant."""
        raise NotImplementedError

    def _extra(self) -> dict:
        """Model-specific entries for ``QueueMetrics.extra``."""
        return {}

    def _offered_load(self) -> float:
        return self.lam

    # ------------------------------------------------------------------
    def _space(self):
        """The structure-cached compiled space carrying *this* model's
        rates (refilled again if another model refilled it since)."""
        model = getattr(self, "_model", None)
        if model is None:
            model = self._model = self.build()
        space = getattr(self, "_space_memo", None)
        if space is not None:
            return space if space.model is model else space.refill(model)
        key = self._structure_key()
        cache = structure_cache()

        def build_space():
            return compile_model(model).explore()

        space = cache.get_or_build(key, build_space)
        if space.model is not model:
            try:
                space.refill(model)
            except TemplateMismatch:
                cache.drop(key)
                space = cache.get_or_build(key, build_space)
        self._space_memo = space
        return space

    @property
    def generator(self):
        if getattr(self, "_gen", None) is None:
            self._gen = self._space().generator()
        return self._gen

    def _state_array(self) -> np.ndarray:
        """The tuple encoding as an ``(n_states, width)`` int array."""
        space = self._space()
        S = space.memo.get("tags.state_array")
        if S is None:
            fields_ = self._state_fields()
            S = np.empty((space.n_states, len(fields_)), dtype=np.int64)
            for c, (leaf, decode) in enumerate(fields_):
                if leaf is None:
                    S[:, c] = decode
                    continue
                local = space.compiled.leaves[leaf].names
                table = np.array([decode(name) for (name,) in local])
                S[:, c] = table[space.locals[:, leaf]]
            space.memo["tags.state_array"] = S
        return S

    @property
    def states(self) -> list:
        """Reachable states as tuples, in generator order."""
        memo = self._space().memo
        if "tags.states" not in memo:
            memo["tags.states"] = list(map(tuple, self._state_array().tolist()))
        return memo["tags.states"]

    def metrics(self) -> QueueMetrics:
        pi = self.pi
        S = self._state_array()
        nodes = len(self._QUEUE_COLUMNS)
        served = [self.throughput(f"service{i}") for i in range(1, nodes + 1)]
        # timeouts out of each node; the last node has none
        moved = [self.throughput(_timeout(i)) for i in range(1, nodes)] + [0.0]
        # flow balance at node i >= 2: the timeouts of node i - 1 that
        # found space are its entries, which leave by service or timeout
        lost = [self.throughput("arrloss")] + [
            moved[i - 1] - served[i] - moved[i] for i in range(1, nodes)
        ]
        return from_population_and_throughput(
            # float copies: contiguous, so the dot products take the same
            # path as a reward vector's
            mean_jobs_per_node=tuple(
                float(pi @ S[:, c].astype(float)) for c in self._QUEUE_COLUMNS
            ),
            throughput=math.fsum(served),
            offered_load=self._offered_load(),
            # measured, not offered - throughput: keeps its relative
            # precision when the loss is tiny, and makes validate()'s
            # flow-balance check a real one
            loss_rate=math.fsum(lost),
            loss_per_node=lost,
            extra={
                "n_states": self.n_states,
                "timeout_throughput": moved[0],
                "service1_throughput": served[0],
                "service2_throughput": served[1],
                **self._extra(),
            },
        )


@dataclass
class _Figure3(CompiledTags):
    """Figure 3 model class body (see :class:`TagsExponential`)."""

    lam: float = 5.0
    mu: float = 10.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10
    tick_during_residual: bool = False
    mu2_service: float | None = None
    t2: float | None = None
    t_of_q1: Callable[[int], float] | None = None
    restart_work: bool = True

    PARAMS = TagsParameters
    _QUEUE_COLUMNS = (0, 2)

    def build(self) -> Model:
        return build_tags_model(self.params())

    def service_phases(self) -> tuple:
        """The builder's ``service``: one exponential phase."""
        return _one_phase(self.mu)

    def _structure_key(self) -> tuple:
        return (
            "tags-figure3",
            self.n,
            self.K1,
            self.K2,
            self.tick_during_residual,
            self.restart_work,
        )

    def _state_fields(self) -> list:
        if not self.restart_work:
            # no repeat phase (and no Timer2): the head is always in
            # residual service
            return FIGURE3_FIELDS[:3] + [(None, 1), (None, self.n - 1)]
        return FIGURE3_FIELDS


class TagsExponential(_Figure3):
    """Two-node TAGS, exponential service (the Figure 3 chain).

    State tuples ``(q1, r1, q2, ph2, r2)``: ``q1`` jobs at node 1 and
    ``r1`` node-1 clock phases left (``n-1 .. 0``; the timeout fires at
    0); ``q2`` jobs at node 2, ``ph2`` 0 while the head repeats its
    node-1 time and 1 in residual service, ``r2`` repeat-clock phases
    left.  Under ``restart_work=False`` every node-2 state reads
    ``ph2 = 1, r2 = n - 1``.  The ``mu2_service``, ``t2``, ``t_of_q1``
    and ``restart_work`` extensions are described in the module
    docstring.
    """


class TagsPepa(_Figure3):
    """The Figure 3 model under its PEPA-builder name.

    Same parameters, chain and metrics as :class:`TagsExponential`; a
    class of its own (not an alias) so per-class instrumentation of
    ``generator`` / ``metrics`` wraps each name once.
    """


def tags_pepa_metrics(params: TagsParameters) -> QueueMetrics:
    """Solve the Figure 3 model and extract the paper's metrics."""
    return TagsPepa(**asdict(params)).metrics()
