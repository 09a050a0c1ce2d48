"""Compiled PEPA engine: vectorized exploration + rate refills.

The interpreter in :mod:`repro.pepa.statespace` pays Python-level AST
rewriting and component hashing for every transition of every state.
For the fragment all of this reproduction's models live in, none of that
work depends on the *rate values* -- only on the cooperation structure
and each sequential component's local derivative graph.  This module
exploits that in two steps:

**Compilation** (:func:`compile_model`) flattens the cooperation tree
into sequential *leaves*, explores each leaf's small local derivative
graph once through the shared :class:`~repro.pepa.semantics.
TransitionContext` (the leaf-local blocks of a Kronecker-style assembly),
and turns every global transition family into a *rule*: a flat
cross-product table of participating leaf moves with

* a packed mixed-radix state key (which local states enable the rule),
* an integer code delta (how the packed global state changes), and
* a symbolic rate: the product of the participating leaf entries' rate
  values, with passive factors row-normalised (PEPA's apparent-rate
  treatment of the active/passive synchronisation).

**Exploration** (:meth:`CompiledModel.explore`) packs global states into
an ``int64`` array and runs a level-synchronous BFS: per level, one pass
matches every rule against the whole frontier (one matrix product gives
each rule's key for each state, one ``searchsorted`` over the rules'
joined key tables finds the enabled rows), successors come from adding
code deltas, and the fresh ones are merged into a sorted index of the
known codes -- no AST objects are touched until
:meth:`CompiledSpace.statespace` reconstructs the expressions for
presentation.

The supported fragment is exactly what the apparent-rate algebra keeps
*factorable*: every synchronised action must pair one active side with a
single passive term (arbitrary nesting and hiding of active actions is
fine).  Everything else -- both-active or both-passive synchronisation,
a shared action that is active in several parallel components, hiding a
passive action, mixed active/passive kinds on one side -- raises
:class:`CompileError` and :func:`~repro.pepa.statespace.explore` falls
back to the interpreter.  Reachability-dependent errors keep interpreter
semantics: a top-level passive transition raises
:class:`~repro.pepa.statespace.PassiveRateError` only when a reachable
state enables it ("poison rules" checked during the BFS, not eagerly
over the whole product space), and ``max_states`` raises
:class:`MemoryError`.

**Refills**: the state space, the transition structure and hence the
generator's CSR pattern depend only on the model's shape, so
:meth:`CompiledSpace.refill` re-evaluates nothing but the rate vector
for a new model of identical shape, and :meth:`CompiledSpace.generator`
fills the space's :class:`~repro.ctmc.generator.GeneratorPattern` --
a parameter sweep explores once and refills per (lambda, mu, t) point.
Spans ``pepa.compile``, ``pepa.explore.fast`` and ``template.refill``
make the split visible in :mod:`repro.obs` traces.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro import obs
from repro.ctmc.generator import Generator, GeneratorPattern, stable_groups
from repro.pepa.semantics import TransitionContext
from repro.pepa.statespace import PassiveRateError, StateSpace
from repro.pepa.syntax import TAU, Constant, Cooperation, Hiding, Model

__all__ = [
    "CompileError",
    "TemplateMismatch",
    "CompiledModel",
    "CompiledSpace",
    "compile_model",
]

_MAX_CODE = 2**62  # headroom below int64 so code deltas can never wrap
_MAX_RULE_ROWS = 5_000_000  # cross-product table guard (falls back)


class CompileError(ValueError):
    """The model falls outside the compiled fragment; callers fall back
    to the interpreter (:func:`repro.pepa.statespace.explore` does)."""


class TemplateMismatch(ValueError):
    """A refill model's structure differs from the compiled template."""


# ----------------------------------------------------------------------
# leaves: local derivative graphs, int-coded
# ----------------------------------------------------------------------


def _flat_names(comp) -> tuple:
    """Sequential-component names of ``comp``, flattened exactly like
    :meth:`StateSpace.local_names` (cooperation/hiding unwrapped)."""
    out: list = []

    def walk(c) -> None:
        if isinstance(c, Cooperation):
            walk(c.left)
            walk(c.right)
        elif isinstance(c, Hiding):
            walk(c.component)
        else:
            out.append(c.name if isinstance(c, Constant) else repr(c))

    walk(comp)
    return tuple(out)


class _LeafAction:
    """Aggregated local transitions of one action within one leaf.

    ``raw`` keeps the enumerated ``(src, dst)`` lists and ``order`` /
    ``group`` how they aggregate, so a refill that enumerates the same
    lists sums its new rates without sorting again.
    """

    __slots__ = ("src", "dst", "val", "passive", "raw", "order", "group")

    def __init__(self, src, dst, val, passive, raw, order, group) -> None:
        self.src = src
        self.dst = dst
        self.val = val
        self.passive = passive
        self.raw = raw
        self.order = order
        self.group = group


class _Leaf:
    """One sequential leaf: local states, their flattened names, and the
    per-action transition arrays."""

    __slots__ = ("comp", "states", "names", "mats", "n")

    def __init__(self, comp, states, names, mats) -> None:
        self.comp = comp
        self.states = states
        self.names = names
        self.mats = mats
        self.n = len(states)


def _leaf_table(
    comp, ctx: TransitionContext, template: "_Leaf | None" = None
) -> _Leaf:
    """Explore a sequential component in isolation (BFS over its local
    derivatives) and aggregate multi-transitions per (src, dst).

    With a ``template`` leaf, an action whose enumerated (src, dst)
    lists match the template's reuses its aggregation, and equal local
    states reuse its names.
    """
    index = {comp: 0}
    states = [comp]
    raw: dict = {}  # action -> ([src], [dst], [val], passive)
    head = 0
    while head < len(states):
        s = states[head]
        head += 1
        for action, rate, succ in ctx.transitions(s):
            j = index.get(succ)
            if j is None:
                j = len(states)
                index[succ] = j
                states.append(succ)
            ent = raw.get(action)
            if ent is None:
                ent = raw[action] = ([], [], [], rate.passive)
            elif ent[3] != rate.passive:
                raise CompileError(
                    f"action {action!r} is both active and passive within "
                    "one sequential component"
                )
            ent[0].append(index[s])
            ent[1].append(j)
            ent[2].append(rate.value)
    old = template.mats if template is not None else {}
    mats = {}
    for action, (src, dst, val, passive) in raw.items():
        ref = old.get(action)
        if ref is not None and ref.raw == (src, dst):
            order, group, src_a, dst_a = ref.order, ref.group, ref.src, ref.dst
        else:
            src_a = np.asarray(src, dtype=np.int64)
            dst_a = np.asarray(dst, dtype=np.int64)
            # aggregate duplicate (src, dst) pairs: PEPA's multiset
            # semantics sums them (in enumeration order, as the
            # interpreter does), and a single entry per pair keeps the
            # cross-product tables minimal
            order, group, first = stable_groups(np.arange(src_a.size), src_a, dst_a)
            src_a, dst_a = src_a[first], dst_a[first]
        val_a = np.asarray(val, dtype=np.float64)[order]
        mats[action] = _LeafAction(
            src_a, dst_a, np.bincount(group, val_a), passive, (src, dst), order, group
        )
    if template is not None and template.states == states:
        names = template.names
    else:
        names = [_flat_names(s) for s in states]
    return _Leaf(comp, states, names, mats)


# ----------------------------------------------------------------------
# symbolic combination of the cooperation tree
# ----------------------------------------------------------------------
#
# A *term* is one family of global transitions for one action: a tuple of
# factors (leaf_id, leaf_action, normalised) whose cross product, with
# rates multiplied (normalised factors contribute their row-normalised
# passive weights), enumerates the family.  The combination rules mirror
# the Kronecker-product algebra of PEPA cooperation, kept symbolic so
# rates stay refillable.


class _Term:
    __slots__ = ("passive", "factors")

    def __init__(self, passive: bool, factors: tuple) -> None:
        self.passive = passive
        self.factors = factors  # ((leaf, action, normalised), ...) by leaf


def _combine(left: dict, right: dict, coop_actions) -> dict:
    out: dict = {}
    for table in (left, right):
        for action, terms in table.items():
            if action not in coop_actions:
                out.setdefault(action, []).extend(terms)
    # sorted iteration: frozenset order is hash-dependent across
    # processes, and rule order must be deterministic
    for action in sorted(coop_actions):
        lt = left.get(action)
        rt = right.get(action)
        if lt is None or rt is None:
            continue  # permanently blocked: contributes nothing
        lkinds = {t.passive for t in lt}
        rkinds = {t.passive for t in rt}
        if len(lkinds) > 1 or len(rkinds) > 1:
            raise CompileError(
                f"shared action {action!r} mixes active and passive terms "
                "on one side of a cooperation"
            )
        lp, rp = lkinds.pop(), rkinds.pop()
        if not lp and not rp:
            raise CompileError(
                f"synchronised action {action!r} is active on both sides; "
                "the min-rate semantics is not factorable"
            )
        if lp and rp:
            raise CompileError(
                f"synchronised action {action!r} is passive on both sides"
            )
        passive_terms, active_terms = (lt, rt) if lp else (rt, lt)
        if len(passive_terms) != 1:
            raise CompileError(
                f"passive side of synchronised action {action!r} has "
                "multiple parallel terms; its apparent rate is not "
                "factorable"
            )
        leaf, act, _ = passive_terms[0].factors[0]
        pfac = (leaf, act, True)
        new_terms = [
            _Term(
                False,
                tuple(sorted(t.factors + (pfac,))),
            )
            for t in active_terms
        ]
        out.setdefault(action, []).extend(new_terms)
    return out


def _hide(table: dict, hidden) -> dict:
    out: dict = {}
    for action, terms in table.items():
        if action in hidden:
            if any(t.passive for t in terms):
                raise CompileError(
                    f"hiding the passive action {action!r}"
                )
            out.setdefault(TAU, []).extend(terms)
        else:
            out.setdefault(action, []).extend(terms)
    return out


def _flatten(comp, ctx: TransitionContext, leaves: list):
    """Recursively flatten the system tree.  Returns ``(skeleton,
    table)`` where skeleton is a nested tuple mirroring the tree shape
    (for state reconstruction) and table maps action -> list of terms."""
    if isinstance(comp, Cooperation):
        lsk, lt = _flatten(comp.left, ctx, leaves)
        rsk, rt = _flatten(comp.right, ctx, leaves)
        return ("coop", lsk, rsk, comp.actions), _combine(lt, rt, comp.actions)
    if isinstance(comp, Hiding):
        sk, t = _flatten(comp.component, ctx, leaves)
        return ("hide", sk, comp.actions), _hide(t, comp.actions)
    i = len(leaves)
    leaves.append(_leaf_table(comp, ctx))
    table = {
        action: [_Term(mat.passive, ((i, action, False),))]
        for action, mat in leaves[i].mats.items()
    }
    return ("leaf", i), table


def _skeleton_leaf_order(skeleton, out: list) -> None:
    kind = skeleton[0]
    if kind == "coop":
        _skeleton_leaf_order(skeleton[1], out)
        _skeleton_leaf_order(skeleton[2], out)
    elif kind == "hide":
        _skeleton_leaf_order(skeleton[1], out)
    else:
        out.append(skeleton[1])


def _match_skeleton(comp, skeleton, out: list) -> None:
    """Collect the leaf expressions of ``comp`` along ``skeleton``,
    verifying the tree shape and cooperation/hiding sets match."""
    kind = skeleton[0]
    if kind == "coop":
        if not isinstance(comp, Cooperation) or comp.actions != skeleton[3]:
            raise TemplateMismatch("cooperation structure differs")
        _match_skeleton(comp.left, skeleton[1], out)
        _match_skeleton(comp.right, skeleton[2], out)
    elif kind == "hide":
        if not isinstance(comp, Hiding) or comp.actions != skeleton[2]:
            raise TemplateMismatch("hiding structure differs")
        _match_skeleton(comp.component, skeleton[1], out)
    else:
        if isinstance(comp, (Cooperation, Hiding)):
            raise TemplateMismatch("leaf position holds a composite")
        out.append(comp)


# ----------------------------------------------------------------------
# rules: flat cross-product transition tables
# ----------------------------------------------------------------------


class _Rule:
    """One transition family: the cross-product table of its factors.

    ``idx`` holds, per table row and per factor, the row index into the
    factor's leaf-action entry arrays; ``key`` packs each row's source
    local states in the rule-local mixed radix ``strides`` over the
    participating leaves ``leaf_cols`` (``key_space`` codes in all), and
    ``delta`` is the row's packed-code change.  Rate values live
    *outside* the rule (recomputed on refill).
    """

    __slots__ = (
        "action",
        "factors",
        "leaf_cols",
        "strides",
        "key_space",
        "idx",
        "key",
        "delta",
        "n_rows",
    )

    def __init__(self, action, term: _Term, leaves, mult) -> None:
        self.action = action
        self.factors = term.factors
        mats = [leaves[leaf].mats[act] for leaf, act, _ in term.factors]
        sizes = [m.src.size for m in mats]
        n_rows = 1
        for s in sizes:
            n_rows *= s
        if n_rows > _MAX_RULE_ROWS:
            raise CompileError(
                f"transition table for action {action!r} has {n_rows} "
                "rows; model too entangled for the compiled engine"
            )
        self.n_rows = n_rows
        # row-major cross product, last factor fastest (a meshgrid would
        # cap the factor count at numpy's 32 dimensions)
        flat = np.arange(n_rows, dtype=np.int64)
        self.idx = np.empty((n_rows, len(sizes)), dtype=np.int64)
        step = 1
        for k in reversed(range(len(sizes))):
            self.idx[:, k] = flat // step % sizes[k]
            step *= sizes[k]
        leaf_ids = [leaf for leaf, _, _ in term.factors]
        self.leaf_cols = np.asarray(leaf_ids, dtype=np.intp)
        strides = np.empty(len(leaf_ids), dtype=np.int64)
        acc = 1
        for k in reversed(range(len(leaf_ids))):
            strides[k] = acc
            acc *= leaves[leaf_ids[k]].n
        self.strides = strides
        self.key_space = acc
        key = np.zeros(n_rows, dtype=np.int64)
        delta = np.zeros(n_rows, dtype=np.int64)
        for k, m in enumerate(mats):
            rows = self.idx[:, k]
            key += m.src[rows] * strides[k]
            delta += (m.dst[rows] - m.src[rows]) * mult[leaf_ids[k]]
        self.key = key
        self.delta = delta


class _RuleTable:
    """A list of rules matched against a frontier in one pass.

    The rules' strides form one rules x leaves matrix (zero off each
    rule's own leaves) and their key tables one sorted array, each rule's
    keys shifted by the key spaces of the rules before it.  A frontier's
    keys are then one matrix product and its enabled rows one
    ``searchsorted``.  Table rows are numbered across the rules in list
    order (rule ``r``'s rows start at ``offsets[r]``).
    """

    def __init__(self, rules: list, n_leaves: int) -> None:
        space = sum(rule.key_space for rule in rules)  # exact Python int
        if space >= _MAX_CODE:
            raise CompileError(
                f"rule key tables span {space} codes; they overflow the "
                "packed int64 encoding"
            )
        self.strides = np.zeros((len(rules), n_leaves), dtype=np.int64)
        for r, rule in enumerate(rules):
            self.strides[r, rule.leaf_cols] = rule.strides
        spaces = np.array([rule.key_space for rule in rules], dtype=np.int64)
        key_off = np.cumsum(spaces) - spaces
        self.key_off = key_off[:, None]
        sizes = np.array([rule.n_rows for rule in rules], dtype=np.int64)
        self.offsets = np.cumsum(sizes) - sizes
        self.n_rows = int(sizes.sum())
        keys = np.concatenate(
            [rule.key + off for rule, off in zip(rules, key_off)]
            or [np.empty(0, dtype=np.int64)]
        )
        # stable: within one key, rows keep their table order
        self.rows_sorted = np.argsort(keys, kind="stable")
        self.key_unique, self.row_start, self.row_count = np.unique(
            keys[self.rows_sorted], return_index=True, return_counts=True
        )

    def match(self, locals_: np.ndarray):
        """Match every rule against a frontier's local-state matrix.

        Returns ``(frontier_rows, table_rows)``: parallel arrays with one
        entry per (state, enabled table row) pair, rule by rule, then in
        frontier order, then in table order.
        """
        n = locals_.shape[0]
        empty = np.empty(0, dtype=np.int64)
        if not self.key_unique.size:
            return empty, empty
        # rules x frontier, flattened rule-major: the output order
        keys = (self.strides @ locals_.T + self.key_off).ravel()
        pos = np.searchsorted(self.key_unique, keys)
        np.minimum(pos, self.key_unique.size - 1, out=pos)
        hit = np.flatnonzero(self.key_unique[pos] == keys)
        if not hit.size:
            return empty, empty
        pos = pos[hit]
        fi = hit % n
        starts = self.row_start[pos]
        counts = self.row_count[pos]
        total = int(counts.sum())
        if total == hit.size:  # every matched key enables a single row
            return fi, self.rows_sorted[starts]
        ends = np.cumsum(counts)
        offs = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        return np.repeat(fi, counts), self.rows_sorted[
            np.repeat(starts, counts) + offs
        ]


def _rule_values(rule: _Rule, leaves, norm_cache: dict) -> np.ndarray:
    """Evaluate a rule's rate column: product of its factors' current
    values (row-normalised for passive factors)."""
    v = None
    for k, (leaf, action, normalised) in enumerate(rule.factors):
        mat = leaves[leaf].mats[action]
        if normalised:
            col = norm_cache.get((leaf, action))
            if col is None:
                sums = np.bincount(
                    mat.src, weights=mat.val, minlength=leaves[leaf].n
                )
                col = norm_cache[(leaf, action)] = mat.val / sums[mat.src]
        else:
            col = mat.val
        vk = col[rule.idx[:, k]]
        v = vk if v is None else v * vk
    return v


# ----------------------------------------------------------------------
# the compiled model
# ----------------------------------------------------------------------


class CompiledModel:
    """Structure-compiled form of a PEPA model (rates still attached).

    Construction raises :class:`CompileError` when the model falls
    outside the supported fragment.  :meth:`explore` runs the vectorized
    BFS and returns a :class:`CompiledSpace`.
    """

    def __init__(self, model: Model) -> None:
        rec = obs.recorder()
        with rec.span("pepa.compile") as sp:
            self.model = model
            ctx = TransitionContext(model)
            self.leaves: list = []
            self.skeleton, table = _flatten(model.system, ctx, self.leaves)
            if not self.leaves:
                raise CompileError("model has no sequential leaves")
            total = 1
            for leaf in self.leaves:
                total *= leaf.n
            if total >= _MAX_CODE:
                raise CompileError(
                    f"product state space ({total} codes) overflows the "
                    "packed int64 encoding"
                )
            L = len(self.leaves)
            self.radices = np.array(
                [leaf.n for leaf in self.leaves], dtype=np.int64
            )
            mult = np.empty(L, dtype=np.int64)
            acc = 1
            for j in reversed(range(L)):
                mult[j] = acc
                acc *= self.leaves[j].n
            self.mult = mult
            self.rules: list = []
            self.poison: list = []  # top-level passive families
            for action in table:  # insertion order: deterministic
                for term in table[action]:
                    rule = _Rule(action, term, self.leaves, mult)
                    (self.poison if term.passive else self.rules).append(rule)
            self._table = _RuleTable(self.rules, L)
            self._poison = _RuleTable(self.poison, L)
            self.n_table_rows = self._table.n_rows
            # canonical action ordering (independent of rule order)
            names = sorted({r.action for r in self.rules})
            self.action_names = names
            name_rank = {a: i for i, a in enumerate(names)}
            self.rule_action = np.array(
                [name_rank[r.action] for r in self.rules], dtype=np.int64
            )
            # per table row: packed-code change and action code
            self._row_delta = np.concatenate(
                [r.delta for r in self.rules] or [np.empty(0, dtype=np.int64)]
            )
            self._row_act = np.repeat(
                self.rule_action, [r.n_rows for r in self.rules]
            )
            sp.set(
                leaves=L,
                rules=len(self.rules),
                table_rows=self.n_table_rows,
            )

    # ------------------------------------------------------------------
    def values(self) -> np.ndarray:
        """Current rate column over all rule table rows (concatenated in
        rule order)."""
        norm_cache: dict = {}
        if not self.rules:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(
            [_rule_values(r, self.leaves, norm_cache) for r in self.rules]
        )

    def rebind(self, model: Model) -> None:
        """Re-attach ``model``'s rates to the compiled structure.

        ``model`` must have the same shape: identical cooperation tree,
        and per leaf the same local derivative graph (state counts,
        actions, (src, dst) arrays and active/passive kinds).  Raises
        :class:`TemplateMismatch` otherwise.

        Each leaf is derived against the one it replaces: an action
        whose enumerated (src, dst) lists are unchanged keeps its
        aggregation order and groups, and unchanged local states keep
        their names, so a rate-only refill sorts nothing.
        """
        exprs: list = []
        _match_skeleton(model.system, self.skeleton, exprs)
        if len(exprs) != len(self.leaves):
            raise TemplateMismatch("leaf count differs")
        ctx = TransitionContext(model)
        new_leaves = []
        for old, comp in zip(self.leaves, exprs):
            new = _leaf_table(comp, ctx, old)
            if new.n != old.n or set(new.mats) != set(old.mats):
                raise TemplateMismatch("local derivative graph differs")
            for action, mat in new.mats.items():
                ref = old.mats[action]
                if mat.passive != ref.passive or (
                    mat.src is not ref.src  # else it reused ref's aggregation
                    and not (
                        np.array_equal(mat.src, ref.src)
                        and np.array_equal(mat.dst, ref.dst)
                    )
                ):
                    raise TemplateMismatch(
                        f"local transitions of action {action!r} differ"
                    )
            new_leaves.append(new)
        self.leaves = new_leaves
        self.model = model

    # ------------------------------------------------------------------
    def explore(self, max_states: int = 2_000_000) -> "CompiledSpace":
        """Level-synchronous vectorized BFS from the initial packed state."""
        rec = obs.recorder()
        with rec.span("pepa.explore.fast") as sp:
            space = self._explore(max_states, rec)
            sp.set(
                states=space.n_states,
                transitions=space.n_transitions,
                depth=len(space.frontier_sizes),
            )
        return space

    def _explore(self, max_states: int, rec) -> "CompiledSpace":
        """The BFS behind :meth:`explore`.

        Per level, one :class:`_RuleTable` pass matches every rule
        against the frontier (the poison rules' table first); matches
        come out rule by rule, then in frontier order, so the match
        sequence -- and with it the state numbering (BFS level, then
        packed code), the transition order and every float sum -- is
        fixed by the model alone.  New codes are merged into one sorted
        index of every known code, which tells fresh successors apart.
        """
        rec_on = rec.enabled
        level_codes = [np.zeros(1, dtype=np.int64)]  # all leaves start at 0
        known = level_codes[0]  # every code found so far, sorted
        n_total = 1
        level_start = 0  # state id of the frontier's first code
        frontier = level_codes[0]
        frontier_sizes: list = []
        m_src: list = []
        m_succ: list = []
        m_row: list = []
        while frontier.size:
            frontier_sizes.append((len(frontier_sizes), int(frontier.size)))
            if rec_on:
                rec.gauge("pepa.frontier", frontier.size)
            locals_ = self.decode(frontier)
            fi, rows = self._poison.match(locals_)
            if fi.size:
                # the first match is the first enabled poison rule's
                r = int(np.searchsorted(self._poison.offsets, rows[0], "right"))
                state = self._describe(frontier[int(fi[0])])
                raise PassiveRateError(
                    f"passive rate for action {self.poison[r - 1].action!r} "
                    f"reachable at the top level in state {state}; the "
                    "model is incomplete (a 'T' rate never synchronised "
                    "with an active partner)"
                )
            fi, rows = self._table.match(locals_)
            if not fi.size:
                break
            succ = frontier[fi] + self._row_delta[rows]
            m_src.append(fi + level_start)
            m_succ.append(succ)
            m_row.append(rows)
            cand = np.unique(succ)
            pos = np.searchsorted(known, cand)
            fresh = known[np.minimum(pos, known.size - 1)] != cand
            new_codes = cand[fresh]
            if not new_codes.size:
                break
            if n_total + new_codes.size > max_states:
                raise MemoryError(
                    f"state space exceeded max_states={max_states}"
                )
            level_codes.append(new_codes)
            # merge: new code k lands after the pos[k] old codes below it
            # and the k new codes before it
            at = pos[fresh] + np.arange(new_codes.size)
            keep = np.ones(known.size + new_codes.size, dtype=bool)
            keep[at] = False
            merged = np.empty(keep.size, dtype=np.int64)
            merged[at] = new_codes
            merged[keep] = known
            known = merged
            level_start = n_total
            n_total += new_codes.size
            frontier = new_codes

        codes = np.concatenate(level_codes)
        if m_src:
            src_ids = np.concatenate(m_src)
            table_rows = np.concatenate(m_row)
            dst_ids = np.argsort(codes)[
                np.searchsorted(known, np.concatenate(m_succ))
            ]
            act = self._row_act[table_rows]
            # canonical transition order: (src, action, dst); stable, so
            # equal-key match rows keep their deterministic BFS order and
            # the float aggregation in CompiledSpace._fill is reproducible
            perm, match_group, first = stable_groups(
                np.arange(src_ids.size), src_ids, act, dst_ids
            )
            entry_src, entry_act, entry_dst = src_ids[first], act[first], dst_ids[first]
            match_rows = table_rows[perm]
        else:
            entry_src = entry_act = entry_dst = np.empty(0, dtype=np.int64)
            match_rows = match_group = np.empty(0, dtype=np.int64)
        space = CompiledSpace(
            self,
            codes,
            entry_src,
            entry_dst,
            entry_act,
            match_rows,
            match_group,
            frontier_sizes,
        )
        if rec_on:
            rec.trace("pepa.explore.frontier", frontier_sizes)
            rec.add("pepa.states", space.n_states)
            rec.add("pepa.transitions", space.n_transitions)
        return space

    # ------------------------------------------------------------------
    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Per-leaf local state indices of packed ``codes``."""
        return (np.asarray(codes).reshape(-1, 1) // self.mult) % self.radices

    def _describe(self, code: int) -> str:
        row = self.decode(np.array([code]))[0]
        parts = []
        for j, leaf in enumerate(self.leaves):
            parts.extend(leaf.names[int(row[j])])
        return "(" + ", ".join(parts) + ")"

    def rebuild_state(self, local_row) -> object:
        """Reconstruct the component expression for one local-state row."""

        def build(sk):
            kind = sk[0]
            if kind == "coop":
                return Cooperation(build(sk[1]), build(sk[2]), sk[3])
            if kind == "hide":
                return Hiding(build(sk[1]), sk[2])
            leaf = self.leaves[sk[1]]
            return leaf.states[int(local_row[sk[1]])]

        return build(self.skeleton)


class CompiledSpace:
    """Explored state space with a refillable rate vector.

    :meth:`generator` assembles the CTMC straight from the integer
    action codes, without materialising component expressions;
    :meth:`statespace` builds the full interpreter-compatible object.
    """

    def __init__(
        self,
        compiled: CompiledModel,
        codes: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        act: np.ndarray,
        match_rows: np.ndarray,
        match_group: np.ndarray,
        frontier_sizes: list,
    ) -> None:
        self.compiled = compiled
        self.codes = codes
        self.locals = compiled.decode(codes)
        self.src = src
        self.dst = dst
        self._act = act
        self._match_rows = match_rows
        self._match_group = match_group
        self.frontier_sizes = frontier_sizes
        self._names: "list | None" = None
        self._reward_memo: dict = {}
        # per-structure data derived by callers (e.g. a model's own state
        # encoding); survives refills like the reward memo
        self.memo: dict = {}
        self.rate = self._fill()

    # -- shape ---------------------------------------------------------
    @property
    def n_states(self) -> int:
        return int(self.codes.size)

    @property
    def n_transitions(self) -> int:
        return int(self.src.size)

    @property
    def action(self) -> list:
        names = self.compiled.action_names
        return [names[i] for i in self._act]

    @property
    def model(self) -> Model:
        return self.compiled.model

    # -- rates ---------------------------------------------------------
    def _fill(self) -> np.ndarray:
        values = self.compiled.values()
        return np.bincount(
            self._match_group,
            weights=values[self._match_rows],
            minlength=self.n_transitions,
        )

    def refill(self, model: Model) -> "CompiledSpace":
        """Re-evaluate the rate vector for ``model`` (same structure,
        new rate values); the state space, sparsity pattern and action
        labels are reused unchanged.  Returns ``self``.
        """
        rec = obs.recorder()
        with rec.span("template.refill") as sp:
            old_names = [leaf.names for leaf in self.compiled.leaves]
            self.compiled.rebind(model)
            # local names usually survive a rate refill (same constants,
            # new rate values); only a renamed model invalidates the
            # name-derived caches, including memoised reward vectors
            if [leaf.names for leaf in self.compiled.leaves] != old_names:
                self._names = None
                self._reward_memo.clear()
                self.memo.clear()
            self.rate = self._fill()
            if rec.enabled:
                rec.add("template.refill.points")
            sp.set(transitions=self.n_transitions)
        return self

    # -- presentation --------------------------------------------------
    def names(self) -> list:
        """Flattened local names per state (no AST reconstruction)."""
        if self._names is None:
            leaves = self.compiled.leaves
            per_leaf = [leaf.names for leaf in leaves]
            self._names = [
                tuple(
                    name
                    for j in range(len(leaves))
                    for name in per_leaf[j][int(row[j])]
                )
                for row in self.locals
            ]
        return self._names

    def state_reward(self, fn) -> np.ndarray:
        """Vectorise ``fn(local_names) -> float`` over all states.

        Vectors are memoised by ``fn`` identity -- rewards depend only
        on state names, which survive rate refills -- so a sweep pays
        each reward once per structure.  Pass module-level functions
        (not fresh lambdas) to benefit.
        """
        out = self._reward_memo.get(fn)
        if out is None:
            out = self._reward_memo[fn] = np.fromiter(
                (fn(nm) for nm in self.names()), dtype=np.float64,
                count=self.n_states,
            )
        return out.copy()

    @cached_property
    def _pattern(self) -> GeneratorPattern:
        return GeneratorPattern(
            self.n_states, self.src, self.dst, self._act, self.compiled.action_names
        )

    def generator(self) -> Generator:
        """Assemble the CTMC generator.  The CSR pattern is built from
        the integer action codes on the first call and kept on the
        space, so after a :meth:`refill` only the new rate vector is
        summed into it."""
        return self._pattern.fill(self.rate)

    def statespace(self) -> StateSpace:
        """Materialise the interpreter-compatible :class:`StateSpace`
        (states in canonical order: BFS level, then packed code)."""
        cm = self.compiled
        states = [cm.rebuild_state(row) for row in self.locals]
        space = StateSpace(
            states=states,
            index={s: i for i, s in enumerate(states)},
            src=self.src.copy(),
            dst=self.dst.copy(),
            rate=self.rate.copy(),
            action=self.action,
            model=cm.model,
        )
        space._prime_names(self.names())
        return space


def compile_model(model: Model) -> CompiledModel:
    """Compile ``model`` for vectorized exploration and rate refills.

    Raises :class:`CompileError` when the model falls outside the
    supported fragment (see the module docstring for the boundary).
    """
    return CompiledModel(model)
