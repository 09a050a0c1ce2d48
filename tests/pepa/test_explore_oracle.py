"""Oracle for the compiled engine's batched BFS.

:func:`per_rule_explore` is the level loop the compiled engine used
before it matched all rules of a level in one pass: every rule is
matched on its own, against its own sorted key table, and the sorted
index of known codes is rebuilt from scratch at every level.  The
batched explore must reproduce it exactly: the same packed codes in the
same order, the same transition arrays, the same match rows and groups
(so every float sum is the same) and the same frontier sizes -- or the
same error.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.models import (
    TagsBreakdown,
    TagsHyperExponential,
    TagsMMPP,
    TagsMultiNode,
    build_tags_model,
)
from repro.models.bursty import MMPP2
from repro.models.tags_pepa import TagsParameters
from repro.pepa import PassiveRateError, parse_model
from repro.pepa.compiled import compile_model

from tests.pepa.test_compiled import BUILDERS, two_level_coop


def _lexsort_groups(idx, *keys):
    """Stable sort of ``idx`` by ``keys`` through ``np.lexsort``, with
    group ids and group heads (what ``stable_groups`` must return)."""
    order = idx[np.lexsort(tuple(k[idx] for k in reversed(keys)))]
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for k in keys:
        ks = k[order]
        new[1:] |= ks[1:] != ks[:-1]
    return order, np.cumsum(new) - 1, order[new]


def _rule_table(rule, offset):
    """One rule's sorted key table, built from its rows alone."""
    order = np.argsort(rule.key, kind="stable")
    key_unique, counts = np.unique(rule.key[order], return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return rule, offset, order, key_unique, starts, counts


def _match(table, locals_):
    """One rule against a frontier: ``(frontier_rows, table_rows)``."""
    rule, _, rows_sorted, key_unique, row_start, row_count = table
    keys = locals_[:, rule.leaf_cols] @ rule.strides
    pos = np.searchsorted(key_unique, keys)
    pos_c = np.minimum(pos, key_unique.size - 1)
    fi = np.flatnonzero(key_unique[pos_c] == keys)
    if fi.size == 0:
        return fi, fi
    counts = row_count[pos[fi]]
    starts = row_start[pos[fi]]
    total = int(counts.sum())
    rep_fi = np.repeat(fi, counts)
    base = np.repeat(starts, counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return rep_fi, rows_sorted[base + offs]


ARRAYS = ("codes", "src", "dst", "_act", "_match_rows", "_match_group")


def per_rule_explore(cm, max_states=2_000_000):
    """The per-rule level loop: what ``CompiledModel.explore`` must
    reproduce, as a dict of the arrays a ``CompiledSpace`` keeps."""
    tables, offset = [], 0
    for rule in cm.rules:
        tables.append(_rule_table(rule, offset))
        offset += rule.n_rows
    poison = [_rule_table(rule, 0) for rule in cm.poison]
    level_codes = [np.zeros(1, dtype=np.int64)]
    sorted_codes = level_codes[0]
    sorted_ids = np.zeros(1, dtype=np.int64)
    n_total = 1
    frontier = level_codes[0]
    frontier_sizes = []
    m_src, m_succ, m_rule, m_row = [], [], [], []
    while frontier.size:
        frontier_sizes.append((len(frontier_sizes), int(frontier.size)))
        locals_ = (frontier[:, None] // cm.mult[None, :]) % cm.radices[None, :]
        for ptable in poison:
            fi, _ = _match(ptable, locals_)
            if fi.size:
                state = cm._describe(frontier[int(fi[0])])
                raise PassiveRateError(
                    f"passive rate for action {ptable[0].action!r} "
                    f"reachable at the top level in state {state}; the "
                    "model is incomplete (a 'T' rate never synchronised "
                    "with an active partner)"
                )
        succ_parts = []
        for ri, table in enumerate(tables):
            fi, rows = _match(table, locals_)
            if fi.size == 0:
                continue
            src_c = frontier[fi]
            succ_c = src_c + table[0].delta[rows]
            m_src.append(src_c)
            m_succ.append(succ_c)
            m_rule.append(np.full(rows.size, ri, dtype=np.int64))
            m_row.append(rows + table[1])
            succ_parts.append(succ_c)
        if not succ_parts:
            break
        cand = np.unique(np.concatenate(succ_parts))
        pos = np.minimum(np.searchsorted(sorted_codes, cand), sorted_codes.size - 1)
        new_codes = cand[sorted_codes[pos] != cand]
        if not new_codes.size:
            break
        if n_total + new_codes.size > max_states:
            raise MemoryError(f"state space exceeded max_states={max_states}")
        level_codes.append(new_codes)
        n_total += new_codes.size
        all_codes = np.concatenate(level_codes)
        order = np.argsort(all_codes, kind="stable")
        sorted_codes = all_codes[order]
        sorted_ids = order
        frontier = new_codes
    out = {"codes": np.concatenate(level_codes), "frontier_sizes": frontier_sizes}
    if m_src:
        src_ids = sorted_ids[np.searchsorted(sorted_codes, np.concatenate(m_src))]
        dst_ids = sorted_ids[np.searchsorted(sorted_codes, np.concatenate(m_succ))]
        act = cm.rule_action[np.concatenate(m_rule)]
        perm, group, first = _lexsort_groups(
            np.arange(src_ids.size), src_ids, act, dst_ids
        )
        out.update(
            src=src_ids[first],
            dst=dst_ids[first],
            _act=act[first],
            _match_rows=np.concatenate(m_row)[perm],
            _match_group=group,
        )
    else:
        empty = np.empty(0, dtype=np.int64)
        out.update({name: empty for name in ARRAYS[1:]})
    return out


def assert_same_explore(model, max_states=2_000_000):
    cm = compile_model(model)
    want = per_rule_explore(cm, max_states)
    got = cm.explore(max_states=max_states)
    for name in ARRAYS:
        a, b = getattr(got, name), want[name]
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.frontier_sizes == want["frontier_sizes"]


SHAPES = [(K, n) for K in (2, 4, 6, 8, 10) for n in (2, 4, 6)]

CHAINS = {
    "figure3": lambda: build_tags_model(TagsParameters()),
    "figure5": lambda: TagsHyperExponential().build(),
    "multinode": lambda: TagsMultiNode(
        timeouts=(20.0, 10.0), n=2, capacities=(3, 3, 2)
    ).build(),
    "mmpp": lambda: TagsMMPP(MMPP2(20.0, 2.0, 1.0, 1.0), n=3, K1=4, K2=4).build(),
    "breakdown": lambda: TagsBreakdown(n=2, K1=3, K2=3).build(),
    "breakdown_down": lambda: TagsBreakdown(
        n=2, K1=3, K2=3, permanently_down=True
    ).build(),
}


class TestBatchedExploreMatchesPerRule:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_tags_chains(self, name):
        assert_same_explore(CHAINS[name]())

    @pytest.mark.parametrize("K,n", SHAPES)
    def test_structure_scan_shapes(self, K, n):
        assert_same_explore(
            build_tags_model(TagsParameters(lam=5.0, mu=10.0, t=51.0, n=n, K1=K, K2=K))
        )

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_pepa_test_models(self, name):
        assert_same_explore(BUILDERS[name]())

    @settings(max_examples=40, deadline=None)
    @given(two_level_coop())
    def test_random_two_level_cooperations(self, model):
        assert_same_explore(model)

    def test_unreachable_passive(self):
        assert_same_explore(
            parse_model(
                """
                L = (a, 1.0).L;
                M0 = (b, 2.0).M1;
                M1 = (c, infty).M0;
                L <b, c> M0;
                """
            )
        )

    def test_reachable_passive_raises_the_same_error(self):
        # the first poison rule that a state enables names the error
        model = parse_model(
            """
            P0 = (go, 1.0).P1;
            P1 = (a, infty).P1 + (b, infty).P0;
            Q = (c, 2.0).Q;
            P0 <> Q;
            """
        )
        cm = compile_model(model)
        assert len(cm.poison) == 2
        with pytest.raises(PassiveRateError) as want:
            per_rule_explore(cm)
        with pytest.raises(PassiveRateError) as got:
            cm.explore()
        assert str(got.value) == str(want.value)
        assert "'a'" in str(got.value)

    @pytest.mark.parametrize("max_states", [1, 2, 3, 4, 5])
    def test_max_states(self, max_states):
        model = BUILDERS["mm1k"]()
        cm = compile_model(model)
        try:
            per_rule_explore(cm, max_states)
        except MemoryError as e:
            with pytest.raises(MemoryError, match=str(e)):
                cm.explore(max_states=max_states)
        else:
            assert_same_explore(model, max_states)
