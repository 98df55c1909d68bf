"""The table-driven reducts and modifications against set-based references.

``AbaSplitting``, ``QuasiSplitting`` and ``SetafSplitting`` build their tops
from int-mask tables computed once per splitting.  The references below build the same tops the
direct way, from sets, one rule or attack at a time; the two must agree field
by field, rules and attacks in order.
"""

from itertools import chain, combinations

import pytest

from helpers import assumption_contrary_abaf, cyclic_abaf, perfbench_stack, quasi_splittings
from splitkit.aba import Abaf, Rule, enumerate_extensions, fresh_name, tainted, theory_closure
from splitkit.finder import find_balanced_splitting, setaf_splitting_bottoms, splitting_sets
from splitkit.generate import random_abaf, random_setaf
from splitkit.semantics import Semantics
from splitkit.setaf import Setaf, attacked_args, induced
from splitkit.split_aba import AbaSplitting, QuasiSplitting, make_splitting
from splitkit.split_setaf import SetafSplitting, make_splitting as make_setaf_splitting


def subsets(items):
    items = sorted(items)
    return [frozenset(c) for c in chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))]


# -- ABA -----------------------------------------------------------------------


def reference_modification(sp: AbaSplitting, e: frozenset[int], modified: bool = True) -> Abaf:
    """The E-reduct, and with ``modified`` the E-modification, from sets."""
    d1 = sp.bottom
    th = theory_closure(d1, e)
    rules = [Rule(r.head, r.body - th) for r in sp.r2 if r.body & sp.s <= th]
    contrary = {a: sp.base.contrary[a] for a in sp.a2}
    live = frozenset(a for a in d1.assumptions if d1.contrary[a] not in th)
    ua = live - e
    if not modified or not ua:
        return Abaf(sp.base.names, rules, sp.a2, contrary)
    derivable = theory_closure(d1, live)
    ut = tainted(d1, live, ua)
    inc = (sp.s - derivable) | frozenset(sp.base.contrary[a] for a in e)
    taken = set(sp.base.names)
    xu_name, cu_name = fresh_name(taken, "_u"), fresh_name(taken, "_cu")
    xu, cu = len(sp.base.names), len(sp.base.names) + 1
    rules.append(Rule(cu, frozenset({xu})))
    for r in sp.r2:
        if not r.body & inc and r.body & ut:
            rules.append(Rule(r.head, (r.body - sp.s) | {xu}))
    contrary[xu] = cu
    return Abaf(sp.base.names + (xu_name, cu_name), rules, sp.a2 | {xu}, contrary)


def same_abaf(got: Abaf, want: Abaf) -> None:
    assert got.names == want.names
    assert got.rules == want.rules
    assert got.assumptions == want.assumptions
    assert got.contrary == want.contrary


def check_aba(sp: AbaSplitting, choices) -> int:
    for e in choices:
        same_abaf(sp.modification(e), reference_modification(sp, e))
        same_abaf(sp.reduct(e), reference_modification(sp, e, modified=False))
    return len(choices)


def test_aba_tables_match_the_reference_on_random_and_cyclic_frameworks():
    checked = 0
    for d in [random_abaf(seed) for seed in range(120)] + [cyclic_abaf(seed) for seed in range(120)]:
        for s in splitting_sets(d):
            sp = make_splitting(d, s)
            checked += check_aba(sp, subsets(sp.a1))
    assert checked > 10_000


def test_aba_tables_match_the_reference_on_the_layered_stacks():
    stack = perfbench_stack()
    guarded = 0
    for gen in range(20):
        d = stack(gen, 2, 8 + gen % 2)
        sp = make_splitting(d, find_balanced_splitting(d))
        choices = {e for e in enumerate_extensions(sp.bottom, Semantics.CF)}
        check_aba(sp, sorted(choices, key=sorted))
        guarded += sum(len(sp.modification(e).assumptions) > len(sp.a2) for e in choices)
    assert guarded > 0  # the guarded rules are exercised, not only the reducts


# -- SETAF ---------------------------------------------------------------------


def reference_top(sp: SetafSplitting, e1: frozenset[int], modified: bool = True):
    """The reduct of the top w.r.t. ``e1``, or its modification, from sets."""
    defeated = frozenset(h for t, h in sp.r3 if t <= e1)
    args = sp.a2 - defeated
    attacks = list(sp.r2)
    if defeated:
        attacks = [(t, h) for t, h in attacks if h in args and t <= args]
    for t, h in sp.r3:
        rest = t - sp.a1
        if rest and t & sp.a1 <= e1 and not t & defeated and h in args:
            attacks.append((rest, h))
    if modified:
        plus_r1 = attacked_args(sp.base, e1, sp.r1)
        open_a1 = sp.a1 - e1 - plus_r1
        attacked = plus_r1 | defeated
        undecided = [(t, h) for t, h in sp.r3 if t & open_a1 and not t & attacked]
        attacks += [((t & args) | {h}, h) for t, h in undecided if h in args]
    return induced(sp.base, args, attacks)


def reference_undecided_links(sp: SetafSplitting, e1: frozenset[int]):
    defeated = frozenset(h for t, h in sp.r3 if t <= e1)
    plus_r1 = attacked_args(sp.base, e1, sp.r1)
    open_a1 = sp.a1 - e1 - plus_r1
    return tuple((t, h) for t, h in sp.r3 if t & open_a1 and not t & (plus_r1 | defeated))


def same_top(got: tuple[Setaf, tuple[int, ...]], want: tuple[Setaf, tuple[int, ...]]) -> None:
    assert got[1] == want[1]
    assert got[0].names == want[0].names
    assert got[0].attacks == want[0].attacks


@pytest.fixture(scope="module")
def suite7():
    """The SETAFs of acceptance criterion c07."""
    return [random_setaf(7000 + i, max_args=8, max_attacks=10, max_tail=3) for i in range(500)]


def test_setaf_tables_match_the_reference_on_the_c07_setafs(suite7):
    checked = defeated = 0
    for sf in suite7:
        for a1 in setaf_splitting_bottoms(sf, nontrivial=True):
            sp = make_setaf_splitting(sf, a1)
            for e1 in subsets(sp.a1) if len(sp.a1) <= 4 else [frozenset(), sp.a1]:
                same_top(sp._top(e1), reference_top(sp, e1))
                same_top(sp._top(e1, modified=False), reference_top(sp, e1, modified=False))
                assert sp.modification(e1) == reference_top(sp, e1)[0]
                assert sp.undecided_links(e1) == reference_undecided_links(sp, e1)
                checked += 1
                defeated += len(sp._top(e1)[1]) < len(sp.a2)
    assert checked > 10_000 and defeated > 1_000


# -- quasi-splittings ----------------------------------------------------------


def reference_expanded(q: QuasiSplitting) -> tuple[Abaf, dict[int, int]]:
    """The expanded bottom and the markers, from sets: the bottom rules cut to
    S, the vulnerabilities and their contraries, then per vulnerability ``b``
    the rules ``contrary(b) <- b'`` and ``c_b' <- b``."""
    base = q.base
    names = list(base.names)
    taken = set(names)
    marker_of, marker_contrary = {}, {}
    for b in sorted(q.vulnerabilities):
        m_name = fresh_name(taken, f"{base.names[b]}'")
        marker_of[b] = len(names)
        names.append(m_name)
        marker_contrary[b] = len(names)
        names.append(fresh_name(taken, f"c_{m_name}"))
    l1 = q.s | q.vulnerabilities | {base.contrary[b] for b in q.vulnerabilities}
    rules = [Rule(r.head, r.body & l1) for r in q.r1]
    for b in sorted(q.vulnerabilities):
        rules.append(Rule(base.contrary[b], frozenset({marker_of[b]})))
        rules.append(Rule(marker_contrary[b], frozenset({b})))
    a1 = (q.s & base.assumptions) | q.vulnerabilities
    contrary = {a: base.contrary[a] for a in a1}
    for b, m in marker_of.items():
        contrary[m] = marker_contrary[b]
    return Abaf(tuple(names), tuple(rules), a1 | set(marker_of.values()), contrary), marker_of


def reference_top_for(q: QuasiSplitting, e1: frozenset[int]) -> Abaf:
    """The top of a bottom choice, from sets: the reduct by the theory of the
    expanded bottom, then the fact ``b <-`` for each accepted vulnerability
    and the loop rule ``contrary(b) <- b`` for each marked one."""
    exp, marker_of = reference_expanded(q)
    th = theory_closure(exp, e1)
    rules = [Rule(r.head, r.body - (th & q.s)) for r in q.r2 if r.body & q.s <= th]
    for b in sorted(e1 & q.vulnerabilities):
        rules.append(Rule(b, frozenset()))
    for b in sorted(q.vulnerabilities):
        if marker_of[b] in e1:
            rules.append(Rule(q.base.contrary[b], frozenset({b})))
    contrary = {a: q.base.contrary[a] for a in q.a2}
    return Abaf(q.base.names, tuple(rules), q.a2, contrary)


def test_quasi_tops_match_the_reference():
    """The expanded bottom and the top of every stable bottom choice, for
    every quasi set with k <= 2, against the set-based references, non-flat
    expanded bottoms included; and with k > 0, for every conflict-free choice
    that leaves an assumption undecided, that only top rules are guarded."""
    frameworks = [random_abaf(seed, max_assumptions=5, max_rules=8) for seed in range(200)]
    frameworks += [cyclic_abaf(seed) for seed in range(150)]
    frameworks += [random_abaf(9000 + i, 6, 9, 3) for i in range(300)]  # the c09 ABAFs
    frameworks += [assumption_contrary_abaf(seed) for seed in range(100)]
    splittings = tops = vulnerable = non_flat = undecided = 0
    for d in frameworks:
        for q in quasi_splittings(d, 2):
            exp, marker_of = reference_expanded(q)
            same_abaf(q.bottom, exp)
            assert q.marker_of == marker_of and q.a1 == exp.assumptions
            for e1 in enumerate_extensions(q.bottom, Semantics.STB):
                same_abaf(q.modification(e1), reference_top_for(q, e1))
                tops += 1
            top_rules = {(r.head, r.body - q.s) for r in q.r2}
            for e1 in enumerate_extensions(q.bottom, Semantics.CF) if q.k else ():
                top = q.modification(e1)
                for xu in top.assumptions - q.a2:
                    guard = Rule(top.contrary[xu], frozenset({xu}))
                    guarded = [r for r in top.rules if xu in r.body and r != guard]
                    assert {(r.head, r.body - {xu}) for r in guarded} <= top_rules
                    undecided += 1
            splittings += 1
            vulnerable += q.k > 0
            non_flat += not q.bottom.flat
    assert splittings > 15_000 and vulnerable > 5_000 and tops > 15_000 and non_flat > 500
    assert undecided > 50_000
