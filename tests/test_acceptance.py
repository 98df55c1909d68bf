"""Acceptance suite: exact reproduction of the worked examples plus the
splitting-theorem property sweeps on seeded random instances.

Each criterion prints one PASS line (visible with ``pytest -s``); every
comparison is exact set equality and the sweeps assert their wall-clock
budgets.
"""

import time

import pytest

from helpers import (
    abaf7, abaf_chain3, abaf_vuln, attacks_nm, fam, ids, nm, setaf7, support_sets, topo_prefixes,
)
from splitkit.aba import (
    atom_closure,
    check_extension as aba_check,
    enumerate_extensions as aba_ext,
    is_uninfluenced,
    minimal_supports,
    projection,
)
from splitkit.errors import NonAssumptionBodyOut, NotAtomClosed
from splitkit.finder import (
    balanced_candidates,
    dependency_graph,
    pair_contracted,
    setaf_splitting_bottoms,
)
from splitkit.generate import random_abaf, random_setaf
from splitkit.graphs import condense
from splitkit.instantiate import aba_to_setaf, setaf_to_aba
from splitkit.semantics import Semantics
from splitkit.setaf import (
    check_extension as setaf_check,
    enumerate_extensions as setaf_ext,
    normalized,
)
from splitkit.split_aba import make_quasi_splitting, make_splitting
from splitkit.split_setaf import make_splitting as make_setaf_splitting

SPLIT_SEMS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)


def report(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def suite7():
    return [random_setaf(7000 + i, max_args=8, max_attacks=10, max_tail=3) for i in range(500)]


@pytest.fixture(scope="module")
def suite8():
    return [random_abaf(8000 + i, max_assumptions=7, max_rules=10, max_body=3) for i in range(500)]


@pytest.fixture(scope="module")
def suite9():
    return [random_abaf(9000 + i, max_assumptions=6, max_rules=9, max_body=3) for i in range(300)]


def test_c01_preferred_and_instantiation_agree():
    start = time.time()
    d = abaf7()
    prefs = aba_ext(d, Semantics.PREF)
    assert ids(d, "a", "w", "z") in prefs
    sf = aba_to_setaf(d)
    assert fam(d, prefs) == fam(sf, setaf_ext(sf, Semantics.PREF))
    assert time.time() - start < 1
    report(1, "pref families equal across instantiation")


def test_c02_setaf_splitting_worked_example():
    start = time.time()
    sf = setaf7()
    sp = make_setaf_splitting(sf, ids(sf, "a", "b"))
    e1 = ids(sf, "a")
    red = sp.reduct(e1)
    assert set(red.names) == {"w", "x", "y", "z"}
    assert attacks_nm(red) == {(frozenset({"w"}), "x"), (frozenset({"x"}), "y")}
    assert {(nm(sf, t), sf.names[h]) for t, h in sp.undecided_links(e1)} == {
        (frozenset({"b", "z"}), "y")
    }
    mod = sp.modification(e1)
    assert attacks_nm(mod) - attacks_nm(red) == {(frozenset({"y", "z"}), "y")}
    assert fam(mod, setaf_ext(mod, Semantics.PREF)) == {frozenset({"w", "z"})}
    assert frozenset({"a", "w", "z"}) in fam(sf, sp.solve(Semantics.PREF))
    assert time.time() - start < 1
    report(2, "reduct/undecided/modification/solve all exact")


def test_c03_aba_splitting_worked_example():
    start = time.time()
    d = abaf7()
    sp = make_splitting(d, ids(d, "a", "b", "a_c", "b_c", "p"))
    assert sp.bottom.rules_by_name() == {
        ("b_c", frozenset({"b"})),
        ("p", frozenset({"a"})),
    }
    e = ids(d, "a")
    assert sp.reduct(e).rules_by_name() == {
        ("v_c", frozenset()),
        ("x_c", frozenset({"w"})),
        ("y_c", frozenset({"x"})),
    }
    ua, ut = sp.undecided(e)
    assert nm(d, ua) == {"b"} and nm(d, ut) == {"b", "b_c"}
    top = sp.modification(e)
    assert top.rules_by_name() == {
        ("v_c", frozenset()),
        ("x_c", frozenset({"w"})),
        ("y_c", frozenset({"x"})),
        ("y_c", frozenset({"z", "_u"})),
        ("_cu", frozenset({"_u"})),
    }
    assert fam(top, aba_ext(top, Semantics.PREF)) == {frozenset({"w", "z"})}
    assert frozenset({"a", "w", "z"}) in fam(d, sp.solve(Semantics.PREF))
    assert time.time() - start < 1
    report(3, "bottom/reduct/undecided/modification/solve all exact")


def test_c04_parametrised_worked_example():
    start = time.time()
    d = abaf_vuln()
    assert fam(d, aba_ext(d, Semantics.STB)) == {frozenset("bc"), frozenset("acd")}
    q = make_quasi_splitting(d, ids(d, "a", "a_c", "d", "d_c", "p"))
    assert nm(d, q.vulnerabilities) == {"b"} and q.k == 1
    exp = q.bottom
    stb1 = aba_ext(exp, Semantics.STB)
    assert fam(exp, stb1) == {frozenset({"b"}), frozenset({"b'", "a", "d"})}
    tops = {
        frozenset(nm(exp, e1)): q.modification(e1).rules_by_name() for e1 in stb1
    }
    assert tops[frozenset({"b"})] == {("b", frozenset())}
    assert tops[frozenset({"b'", "a", "d"})] == {
        ("b_c", frozenset()),
        ("b_c", frozenset({"b"})),
    }
    assert fam(d, q.solve()) == {frozenset("bc"), frozenset("acd")}
    assert time.time() - start < 1
    report(4, "vulnerability, expanded bottom, constrained tops, solve all exact")


def test_c05_aba_and_setaf_splittings_correspond():
    start = time.time()
    d = abaf_chain3()
    sf = aba_to_setaf(d)
    s1 = ids(d, "a", "b", "a_c", "b_c")
    sets = [
        s1,
        s1 | ids(d, "p"),
        s1 | ids(d, "s"),
        s1 | ids(d, "p", "q", "s"),
    ]
    e1 = ids(d, "b")
    for s in sets:
        sp = make_splitting(d, s)  # validates
        assert nm(d, sp.a1) == {"a", "b"}
        top = sp.modification(e1)
        assert fam(top, aba_ext(top, Semantics.PREF)) == {frozenset()}
    sp_sf = make_setaf_splitting(sf, ids(sf, "a", "b"))
    assert {(nm(sf, t), sf.names[h]) for t, h in sp_sf.r3} == {
        (frozenset({"a", "b"}), "c")
    }
    mod = sp_sf.modification(ids(sf, "b"))
    assert fam(mod, setaf_ext(mod, Semantics.PREF)) == {frozenset()}
    assert time.time() - start < 1
    report(5, "four splitting sets, one induced SETAF splitting, empty preferred tops")


def test_c06_dependency_graph_and_balanced_finder():
    start = time.time()
    d = abaf7()
    cond = condense(dependency_graph(d))
    assert len(cond.sccs) == 8
    assert {frozenset(nm(d, c)) for c in cond.sccs} == (
        {frozenset({a, f"{a}_c"}) for a in "abvwxyz"} | {frozenset({"p"})}
    )
    target = ids(d, "a", "a_c", "b", "b_c", "p", "v", "v_c")
    make_splitting(d, target)  # validates as a splitting set
    cands = balanced_candidates(d)
    assert target in cands
    best = abs(len(cands[0]) - 0.5 * d.n_atoms)
    assert abs(len(target) - 0.5 * d.n_atoms) == best
    assert time.time() - start < 1
    report(6, "8 SCCs; the worked splitting set is an optimally balanced candidate")


def test_c07_setaf_splitting_theorem_suite(suite7):
    start = time.time()
    checked = 0
    for sf in suite7:
        fams = {sem: setaf_ext(sf, sem) for sem in SPLIT_SEMS}
        for a1 in setaf_splitting_bottoms(sf, nontrivial=True):
            sp = make_setaf_splitting(sf, a1)
            sub, order = sp.bottom
            back = {a: i for i, a in enumerate(order)}
            checked += 1
            # one top per bottom extension, so its grd and prf families are
            # enumerated once for all extensions and semantics that share it
            mods = {}
            for sem in SPLIT_SEMS:
                assert sp.solve(sem) == fams[sem]
                for e in fams[sem]:
                    e1 = e & sp.a1
                    assert setaf_check(sub, frozenset(back[a] for a in e1), sem)
                    if e1 not in mods:
                        mods[e1] = sp.modification(e1)
                    mod = mods[e1]
                    local = frozenset(mod.names.index(sf.names[a]) for a in e & sp.a2)
                    assert setaf_check(mod, local, sem)
    elapsed = time.time() - start
    assert elapsed < 60
    report(7, f"{len(suite7)} SETAFs, {checked} splittings, 5 semantics, {elapsed:.1f}s")


def test_c08_aba_splitting_theorem_suite(suite8):
    start = time.time()
    checked = 0
    for d in suite8:
        fams = {sem: aba_ext(d, sem) for sem in SPLIT_SEMS}
        whole_sup = support_sets(minimal_supports(d))
        cf_whole = aba_ext(d, Semantics.CF)
        for s in topo_prefixes(d):
            sp = make_splitting(d, s)
            checked += 1
            # conservativity: bottom attacks never leave the bottom
            local_sup = support_sets(minimal_supports(sp.bottom))
            for a in sp.a1:
                assert whole_sup[d.contrary[a]] == local_sup[d.contrary[a]]
                assert all(t <= sp.a1 for t in whole_sup[d.contrary[a]])
            for sem in SPLIT_SEMS:
                assert sp.solve(sem) == fams[sem]
                for e in fams[sem]:
                    e1 = e & sp.a1
                    assert aba_check(sp.bottom, e1, sem)
                    assert aba_check(sp.modification(e1), e & sp.a2, sem)
            # conflict-free combination, both directions (sampled)
            cf_bottom = aba_ext(sp.bottom, Semantics.CF)
            for e1 in cf_bottom[:10]:
                top = sp.modification(e1)
                for e2 in aba_ext(top, Semantics.CF)[:10]:
                    assert aba_check(d, e1 | (e2 & sp.a2), Semantics.CF)
            for e in cf_whole[:20]:
                assert aba_check(sp.bottom, e & sp.a1, Semantics.CF)
                assert aba_check(sp.reduct(e & sp.a1), e & sp.a2, Semantics.CF)
    elapsed = time.time() - start
    assert elapsed < 120
    report(8, f"{len(suite8)} ABAFs, {checked} splittings, 5 semantics, {elapsed:.1f}s")


def test_c09_parametrised_splitting_suite(suite9):
    start = time.time()
    checked = 0
    for d in suite9:
        direct = aba_ext(d, Semantics.STB)
        con = pair_contracted(d)
        m = len(con.groups)
        for mask in range(1 << m):
            atoms = frozenset()
            for i in range(m):
                if mask >> i & 1:
                    atoms |= con.groups[i]
            try:
                q = make_quasi_splitting(d, atoms)
            except (NonAssumptionBodyOut, NotAtomClosed):
                continue
            if q.k > 2:
                continue
            checked += 1
            assert q.solve() == direct
            stb_exp = aba_ext(q.bottom, Semantics.STB)
            for e in direct:
                e1 = q.witness_bottom(e)
                assert e1 in stb_exp
                assert aba_check(q.modification(e1), e & q.a2, Semantics.STB)
    elapsed = time.time() - start
    assert elapsed < 120
    report(9, f"{len(suite9)} ABAFs, {checked} quasi-splittings with k<=2, {elapsed:.1f}s")


def test_c10_instantiation_equivalence(suite7, suite8):
    start = time.time()
    for d in suite8:
        sf = aba_to_setaf(d)
        for sem in Semantics:
            assert fam(d, aba_ext(d, sem)) == fam(sf, setaf_ext(sf, sem))
    for sf in suite7:
        back = aba_to_setaf(setaf_to_aba(sf))
        assert attacks_nm(back) == attacks_nm(normalized(sf))
    elapsed = time.time() - start
    assert elapsed < 60
    report(10, f"6 semantics on {len(suite8)} ABAFs; {len(suite7)} SETAF round trips, {elapsed:.1f}s")


def test_c11_directionality(suite8):
    start = time.time()
    checked = 0
    sems = (Semantics.CF, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)
    for d in suite8:
        sf = aba_to_setaf(d)
        order = sorted(d.assumptions)
        fams = {sem: aba_ext(d, sem) for sem in sems}
        for mask in range(1 << len(order)):
            u = frozenset(a for i, a in enumerate(order) if mask >> i & 1)
            if not is_uninfluenced(d, u):
                continue
            s = atom_closure(d, u)
            if s & d.assumptions != u:
                continue  # closing pulled in extra assumptions
            sub = projection(d, s)
            if not sub.flat:
                continue
            # the projection must still derive the same attacks among u,
            # otherwise intermediate sentences were cut away with their rules
            induced = {
                (nm(sf, t), sf.names[h])
                for t, h in sf.attacks
                if nm(sf, t) | {sf.names[h]} <= nm(d, u)
            }
            if attacks_nm(aba_to_setaf(sub)) != induced:
                continue
            checked += 1
            for sem in sems:
                projected = {frozenset(nm(d, e & u)) for e in fams[sem]}
                assert fam(sub, aba_ext(sub, sem)) == projected
    elapsed = time.time() - start
    assert elapsed < 60
    report(11, f"{checked} faithful uninfluenced projections across {len(suite8)} ABAFs, {elapsed:.1f}s")
