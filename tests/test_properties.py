"""Property-based checks backing the semantic invariants.

Frameworks are drawn through the seeded generator, so shrinking happens on
the seed; the independent oracles here (top-down proof search, subset
scans) deliberately avoid the fixpoint machinery they are checking.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from helpers import support_sets, topo_prefixes
from splitkit.aba import (
    enumerate_extensions as aba_extensions,
    minimal_supports,
    theory_closure,
)
from splitkit.finder import splitting_sets
from splitkit.generate import random_abaf, random_setaf
from splitkit.instantiate import aba_to_setaf
from splitkit.io import emit_aba, emit_setaf, parse_aba, parse_setaf
from splitkit.semantics import Semantics
from splitkit.setaf import enumerate_extensions as setaf_extensions
from splitkit.split_aba import make_splitting
from splitkit.split_setaf import make_splitting as make_setaf_splitting

SEEDS = st.integers(min_value=0, max_value=10**6)

small_abafs = st.builds(lambda s: random_abaf(s, max_assumptions=5, max_rules=8), SEEDS)
tiny_abafs = st.builds(lambda s: random_abaf(s, max_assumptions=4, max_rules=7), SEEDS)
small_setafs = st.builds(lambda s: random_setaf(s, max_args=6, max_attacks=8), SEEDS)


def derivable_by_proof_search(abaf, base, goal, stack=frozenset()):
    """Top-down AND-search for a derivation tree, independent of the fixpoints."""
    if goal in base:
        return True
    for r in abaf.rules:
        if r.head == goal and goal not in stack:
            if all(derivable_by_proof_search(abaf, base, b, stack | {goal}) for b in r.body):
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(small_abafs, SEEDS)
def test_theory_closure_is_monotone(d, pick):
    order = sorted(d.assumptions)
    small = frozenset(a for i, a in enumerate(order) if pick >> i & 1)
    big = frozenset(a for i, a in enumerate(order) if pick >> (i + 7) & 1) | small
    assert theory_closure(d, small) <= theory_closure(d, big)


@settings(max_examples=50, deadline=None)
@given(tiny_abafs)
def test_minimal_supports_match_proof_search(d):
    sup = support_sets(minimal_supports(d))
    order = sorted(d.assumptions)
    for mask in range(1 << len(order)):
        base = frozenset(a for i, a in enumerate(order) if mask >> i & 1)
        th = theory_closure(d, base)
        for atom in range(d.n_atoms):
            found = derivable_by_proof_search(d, base, atom)
            assert found == any(t <= base for t in sup[atom])
            assert found == (atom in th)


@settings(max_examples=50, deadline=None)
@given(small_abafs)
def test_aba_semantics_lattice(d):
    fams = {sem: set(aba_extensions(d, sem)) for sem in Semantics}
    assert fams[Semantics.STB] <= fams[Semantics.PREF] <= fams[Semantics.COM]
    assert fams[Semantics.COM] <= fams[Semantics.ADM] <= fams[Semantics.CF]
    assert len(fams[Semantics.GRD]) == 1  # flat frameworks


@settings(max_examples=50, deadline=None)
@given(small_setafs)
def test_setaf_semantics_lattice(sf):
    fams = {sem: set(setaf_extensions(sf, sem)) for sem in Semantics}
    assert fams[Semantics.STB] <= fams[Semantics.PREF] <= fams[Semantics.COM]
    assert fams[Semantics.COM] <= fams[Semantics.ADM] <= fams[Semantics.CF]


@settings(max_examples=50, deadline=None)
@given(small_abafs)
def test_aba_round_trip(d):
    assert parse_aba(emit_aba(d)) == d


@settings(max_examples=50, deadline=None)
@given(small_setafs)
def test_setaf_round_trip(sf):
    assert parse_setaf(emit_setaf(sf)) == sf


@settings(max_examples=40, deadline=None)
@given(tiny_abafs)
def test_conflict_free_combination_aba(d):
    """Bottom and modified-top conflict-free sets union to conflict-free sets,
    and conflict-free sets project to bottom/reduct conflict-free sets."""
    from splitkit.aba import check_extension

    whole_cf = aba_extensions(d, Semantics.CF)
    for s in splitting_sets(d, nontrivial=True)[:6]:
        sp = make_splitting(d, s)
        for e1 in aba_extensions(sp.bottom, Semantics.CF)[:8]:
            top = sp.modification(e1)
            for e2 in aba_extensions(top, Semantics.CF)[:8]:
                assert check_extension(d, e1 | (e2 & sp.a2), Semantics.CF)
        for e in whole_cf[:16]:
            assert check_extension(sp.bottom, e & sp.a1, Semantics.CF)
            assert check_extension(sp.reduct(e & sp.a1), e & sp.a2, Semantics.CF)


@settings(max_examples=40, deadline=None)
@given(small_abafs)
def test_splitting_bottoms_transfer_to_the_instantiation(d):
    sf = aba_to_setaf(d)
    for s in splitting_sets(d)[:10]:
        a1 = frozenset(sf.arg_id(d.names[a]) for a in s & d.assumptions)
        make_setaf_splitting(sf, a1)  # assumption parts are valid bottoms


@settings(max_examples=30, deadline=None)
@given(small_setafs, st.sampled_from([Semantics.STB, Semantics.COM, Semantics.PREF]))
def test_setaf_split_agrees_with_oracle(sf, sem):
    from splitkit.finder import setaf_splitting_bottoms
    from splitkit.split_setaf import split_solve

    for a1 in setaf_splitting_bottoms(sf, nontrivial=True)[:8]:
        assert split_solve(sf, a1, sem) == setaf_extensions(sf, sem)


@settings(max_examples=30, deadline=None)
@given(tiny_abafs, st.sampled_from([Semantics.STB, Semantics.ADM, Semantics.GRD]))
def test_aba_split_agrees_with_oracle(d, sem):
    from splitkit.split_aba import split_solve

    for s in topo_prefixes(d):
        assert split_solve(d, s, sem) == aba_extensions(d, sem)


def test_oracle_agrees_with_all_subsets_evaluator():
    """Dual-route check: the support-table oracle against a from-scratch
    evaluator whose defense check quantifies over every attacker subset."""
    from itertools import combinations

    from splitkit.aba import enumerate_extensions as enum

    for seed in range(80):
        d = random_abaf(seed, max_assumptions=5, max_rules=8)
        order = sorted(d.assumptions)
        subs = [
            frozenset(c) for r in range(len(order) + 1) for c in combinations(order, r)
        ]
        th = {s: theory_closure(d, s) for s in subs}

        def attacks(s, a):
            return d.contrary[a] in th[s]

        def defended(s, a):
            return all(any(attacks(s, t) for t in tt) for tt in subs if attacks(tt, a))

        cf = [s for s in subs if not any(attacks(s, a) for a in s)]
        adm = [s for s in cf if all(defended(s, a) for a in s)]
        com = [s for s in adm if all(a in s for a in d.assumptions if defended(s, a))]
        naive = {
            Semantics.CF: set(cf),
            Semantics.ADM: set(adm),
            Semantics.COM: set(com),
            Semantics.GRD: {s for s in com if not any(o < s for o in com)},
            Semantics.PREF: {s for s in com if not any(s < o for o in com)},
            Semantics.STB: {
                s for s in cf if all(a in s or attacks(s, a) for a in d.assumptions)
            },
        }
        for sem in Semantics:
            assert set(enum(d, sem)) == naive[sem]


def test_setaf_oracle_agrees_with_definitions():
    """Every family of the SETAF oracle against a subset scan of the
    definitions, with grounded as the minimal complete set."""
    from itertools import combinations

    for seed in range(80):
        sf = random_setaf(seed, max_args=6, max_attacks=8)
        subs = [frozenset(c) for r in range(sf.n_args + 1) for c in combinations(sf.args, r)]

        def attacks(s, a):
            return any(h == a and t <= s for t, h in sf.attacks)

        def defended(s, a):
            return all(any(attacks(s, b) for b in t) for t, h in sf.attacks if h == a)

        cf = [s for s in subs if not any(attacks(s, a) for a in s)]
        adm = [s for s in cf if all(defended(s, a) for a in s)]
        com = [s for s in adm if all(a in s for a in sf.args if defended(s, a))]
        naive = {
            Semantics.CF: set(cf),
            Semantics.ADM: set(adm),
            Semantics.COM: set(com),
            Semantics.GRD: {s for s in com if not any(o < s for o in com)},
            Semantics.PREF: {s for s in com if not any(s < o for o in com)},
            Semantics.STB: {s for s in cf if all(a in s or attacks(s, a) for a in sf.args)},
        }
        for sem in Semantics:
            assert set(setaf_extensions(sf, sem)) == naive[sem]
