import pytest

from helpers import (
    abaf7, abaf_chain3, abaf_vuln, assumption_contrary_abaf, cyclic_abaf, fam, ids, nm,
    quasi_splittings, rules_nm, support_sets,
)
from splitkit.aba import (
    Abaf,
    Rule,
    all_supports,
    check_extension,
    enumerate_extensions,
    is_uninfluenced,
    minimal_supports,
    theory_closure,
)
from splitkit.errors import HeadInBodyOut, NonAssumptionBodyOut, NonFlatError, NotAtomClosed
from splitkit.generate import random_abaf
from splitkit.semantics import Semantics
from splitkit.split_aba import (
    make_quasi_splitting,
    make_splitting,
    param_split_solve,
    split_solve,
    undecided_theory,
)

SEMS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)


def s_ex(d):
    return ids(d, "a", "b", "a_c", "b_c", "p")


def test_make_splitting_worked_example():
    d = abaf7()
    sp = make_splitting(d, s_ex(d))
    assert sp.bottom.rules_by_name() == {
        ("b_c", frozenset({"b"})),
        ("p", frozenset({"a"})),
    }
    assert nm(d, sp.a1) == {"a", "b"} and nm(d, sp.a2) == {"v", "w", "x", "y", "z"}
    assert len(sp.r2) == 4


def test_make_splitting_on_three_chain():
    d = abaf_chain3()
    sp = make_splitting(d, ids(d, "a", "b", "a_c", "b_c"))
    assert {d.names[r.head] for r in sp.r1} == {"a_c"}


def test_make_splitting_errors():
    d = abaf7()
    make_splitting(d, ids(d, "a", "a_c"))  # valid: p <- a has head outside
    with pytest.raises(HeadInBodyOut):
        make_splitting(d, ids(d, "x", "x_c"))  # x_c <- w,p reaches outside
    with pytest.raises(NotAtomClosed):
        make_splitting(d, ids(d, "a"))


def test_reduct_worked_example():
    d = abaf7()
    sp = make_splitting(d, s_ex(d))
    red = sp.reduct(ids(d, "a"))
    assert red.rules_by_name() == {
        ("v_c", frozenset()),
        ("x_c", frozenset({"w"})),
        ("y_c", frozenset({"x"})),
    }
    assert nm(red, red.assumptions) == {"v", "w", "x", "y", "z"}


def test_reduct_pure_literal_deletion():
    d = abaf7()
    sp = make_splitting(d, ids(d, "a", "a_c", "p"))
    red = sp.reduct(ids(d, "a"))  # theory {a, p} covers every bottom-side literal
    assert red.rules_by_name() == {
        ("b_c", frozenset({"b"})),
        ("v_c", frozenset()),
        ("x_c", frozenset({"w"})),
        ("y_c", frozenset({"x"})),
        ("y_c", frozenset({"b_c", "z"})),
    }


def test_reduct_deletes_unsupported_rules_under_empty_choice():
    d = abaf7()
    sp = make_splitting(d, ids(d, "a", "a_c", "p"))
    red = sp.reduct(frozenset())
    assert ("v_c", frozenset()) not in red.rules_by_name()
    assert ("x_c", frozenset({"w"})) not in red.rules_by_name()


def test_reduct_vocabulary_stays_in_top_language():
    for seed in range(25):
        d = random_abaf(seed, max_assumptions=5, max_rules=8)
        from splitkit.finder import splitting_sets

        for s in splitting_sets(d, nontrivial=True):
            sp = make_splitting(d, s)
            for e1 in enumerate_extensions(sp.bottom, Semantics.COM):
                for r in sp.reduct(e1).rules:
                    assert r.head not in s and not r.body & s


def test_undecided_theory_worked_example():
    d = abaf7()
    sp = make_splitting(d, s_ex(d))
    ua, ut = sp.undecided(ids(d, "a"))
    assert nm(d, ua) == {"b"} and nm(d, ut) == {"b", "b_c"}


def test_undecided_theory_empty_for_stable_choice():
    d1 = Abaf.from_names(assumptions={"e": "ce", "u": "cu"}, rules=[("cu", ["e"])])
    ua, ut = undecided_theory(d1, ids(d1, "e"))
    assert ua == frozenset() and ut == frozenset()


def test_undecided_theory_isolated_assumption():
    d1 = Abaf.from_names(assumptions={"u": "cu"}, rules=[])
    ua, ut = undecided_theory(d1, frozenset())
    assert nm(d1, ua) == {"u"} and nm(d1, ut) == {"u"}


def test_undecided_theory_needs_exact_leaf_sets():
    # p is only derivable from {a} alone; a leaf set {a, b} admits no tree,
    # so p must stay out of the undecided theory even though b is undecided
    d1 = Abaf.from_names(
        assumptions={"a": "a_c", "b": "b_c"},
        rules=[("b_c", ["b"]), ("p", ["a"])],
    )
    ua, ut = undecided_theory(d1, ids(d1, "a"))
    assert nm(d1, ua) == {"b"} and nm(d1, ut) == {"b", "b_c"}


def test_incompatible_sentences_worked_example():
    d = abaf7()
    sp = make_splitting(d, s_ex(d))
    assert nm(d, sp.incompatible(ids(d, "a"))) == {"a_c"}
    # with nothing accepted, only the underivable bottom sentence is ruled out
    assert nm(d, sp.incompatible(frozenset())) == {"a_c"}


def test_incompatible_sentences_cover_defeated_theory():
    d = Abaf.from_names(
        assumptions={"e": "e_c", "b": "b_c", "t": "t_c"},
        rules=[("b_c", ["e"]), ("q", ["b"]), ("t_c", ["q"])],
    )
    sp = make_splitting(d, ids(d, "e", "b", "e_c", "b_c", "q"))
    inc = sp.incompatible(ids(d, "e"))
    assert {"b", "q"} <= nm(d, inc)  # everything reachable only via defeated b
    assert "b_c" not in nm(d, inc)  # derivable from the accepted side, so live


def test_incompatible_keeps_facts_and_mixed_derivations():
    # c_a1 is a fact: defeating a1 must not rule the fact itself out,
    # otherwise the top loses a live collective attack through it
    d = Abaf.from_names(
        assumptions={"a1": "c_a1", "a2": "c_a2", "a4": "c_a4"},
        rules=[("c_a1", []), ("c_a2", ["a4", "c_a1"])],
    )
    s = ids(d, "a1", "a4", "c_a1", "c_a4")
    sp = make_splitting(d, s)
    inc = sp.incompatible(frozenset())
    assert "c_a1" not in nm(d, inc)
    top = sp.modification(frozenset())
    assert ("c_a2", frozenset({"_u"})) in top.rules_by_name()
    for sem in SEMS:
        assert split_solve(d, s, sem) == enumerate_extensions(d, sem)


def test_modification_worked_example():
    d = abaf7()
    sp = make_splitting(d, s_ex(d))
    top = sp.modification(ids(d, "a"))
    assert top.assumptions - sp.a2 == ids(top, "_u")  # one fresh assumption added
    assert top.rules_by_name() == {
        ("v_c", frozenset()),
        ("x_c", frozenset({"w"})),
        ("y_c", frozenset({"x"})),
        ("y_c", frozenset({"z", "_u"})),
        ("_cu", frozenset({"_u"})),
    }
    assert fam(top, enumerate_extensions(top, Semantics.PREF)) == {
        frozenset({"w", "z"})
    }


def test_modification_absent_without_undecided_assumptions():
    d = abaf7()
    sp = make_splitting(d, s_ex(d))
    top = sp.modification(ids(d, "a", "b"))  # decides both bottom assumptions
    assert top == sp.reduct(ids(d, "a", "b"))  # so no fresh assumption is added


def test_modification_guard_blocks_incompatible_bodies():
    d = abaf7()
    sp = make_splitting(d, s_ex(d))
    # with nothing chosen, b_c stays undecided but a_c can never hold, so the
    # rule y_c <- b_c, z is re-added while nothing guarded by a_c would be
    top = sp.modification(frozenset())
    assert ("y_c", frozenset({"z", "_u"})) in top.rules_by_name()


def test_modification_size_bound_and_single_fresh_assumption():
    for seed in range(25):
        d = random_abaf(seed, max_assumptions=5, max_rules=8)
        from splitkit.finder import splitting_sets

        for s in splitting_sets(d, nontrivial=True):
            sp = make_splitting(d, s)
            for e1 in enumerate_extensions(sp.bottom, Semantics.COM):
                top = sp.modification(e1)
                red = sp.reduct(e1)
                assert len(top.rules) <= len(red.rules) + len(sp.r2) + 1
                assert len(top.assumptions - red.assumptions) <= 1


def test_split_solve_worked_example():
    d = abaf7()
    result = split_solve(d, s_ex(d), Semantics.PREF)
    assert fam(d, result) == {frozenset({"a", "w", "z"})}


def test_split_solve_full_set_degenerates_to_bottom():
    d = abaf7()
    for sem in SEMS:
        assert split_solve(d, d.atoms, sem) == enumerate_extensions(d, sem)


def test_split_solve_rejects_non_flat_as_the_oracle_does():
    """The one non-flat rule b <- a, p dies in the reduct, since nothing
    derives p, so bottom and top are flat; the split route still answers
    only what the oracle answers on the whole framework."""
    d = Abaf.from_names(assumptions={"a": "ca", "b": "cb"}, rules=[("b", ["a", "p"])],
                        extra_atoms=["p"])
    assert not d.flat
    for sem in SEMS:
        if sem is Semantics.STB:
            assert split_solve(d, ids(d, "p"), sem) == enumerate_extensions(d, sem)
        else:
            with pytest.raises(NonFlatError):
                split_solve(d, ids(d, "p"), sem)


def test_split_solve_equals_oracle_on_random_instances():
    from splitkit.finder import splitting_sets

    for seed in range(40):
        d = random_abaf(seed, max_assumptions=5, max_rules=8)
        for s in splitting_sets(d):
            for sem in SEMS:
                assert split_solve(d, s, sem) == enumerate_extensions(d, sem)


def test_split_solves_each_distinct_top_once():
    """Two stacked blocks whose bottom extensions leave few distinct tops: the
    sub-solver runs once on the bottom and once per distinct top."""
    from splitkit.io import emit_aba

    d = Abaf.from_names(
        assumptions={"a": "a_c", "b": "b_c", "c": "c_c", "x": "x_c", "y": "y_c"},
        rules=[
            ("b_c", ["c"]),
            ("c_c", ["b"]),
            ("x_c", ["y"]),
            ("y_c", ["x"]),
            ("x_c", ["b"]),
            ("y_c", ["a", "c"]),
        ],
    )
    sp = make_splitting(d, ids(d, "a", "b", "c", "a_c", "b_c", "c_c"))
    repeats = 0
    for sem in SEMS:
        calls = []

        def counting(fw, s):
            calls.append(fw)
            return enumerate_extensions(fw, s)

        assert sp.solve(sem, sub_solver=counting) == enumerate_extensions(d, sem)
        bottom_exts = enumerate_extensions(sp.bottom, sem)
        tops = {emit_aba(sp.modification(e1)) for e1 in bottom_exts}
        assert calls[0] is sp.bottom
        assert sorted(emit_aba(top) for top in calls[1:]) == sorted(tops)
        repeats += len(bottom_exts) - len(tops)
    assert repeats > 0


def distinct_tops_built(sp, sem) -> tuple[int, int]:
    """Solve ``sp`` with a sub-solver that records what it is handed and
    solves only the bottom, and check that it was handed each distinct top
    (rules in order) once; the bottom extensions and distinct tops counted."""
    from splitkit.io import emit_aba

    calls = []

    def recording(fw, s):
        calls.append(fw)
        return enumerate_extensions(fw, s) if len(calls) == 1 else ()

    sp.solve(sem, sub_solver=recording)
    bottom_exts = enumerate_extensions(sp.bottom, sem)
    tops = sorted({emit_aba(sp.modification(e1)) for e1 in bottom_exts})
    assert calls[0] is sp.bottom
    assert sorted(emit_aba(top) for top in calls[1:]) == tops
    return len(bottom_exts), len(tops)


def test_bottom_extensions_share_a_top_key_exactly_when_their_tops_are_equal():
    """Each distinct top, rules in order, reaches the sub-solver once, over
    many splittings whose bottom extensions share tops.  Two top rules with
    the same reduct make two selections that build one top, solved once, or
    two tops that hold the same rules in different orders, solved once each."""
    from helpers import perfbench_stack, topo_prefixes
    from splitkit.finder import find_balanced_splitting

    stack = perfbench_stack()
    three = (Semantics.ADM, Semantics.COM, Semantics.STB)
    splittings = [
        (make_splitting(d, find_balanced_splitting(d)), three)
        for d in (stack(gen, 2, 8 + gen % 2) for gen in range(20))
    ]
    for d in [random_abaf(seed) for seed in range(60)] + [cyclic_abaf(seed) for seed in range(60)]:
        sems = three if d.flat else (Semantics.STB,)
        splittings += [(make_splitting(d, s), sems) for s in topo_prefixes(d)]
        splittings += [(q, (Semantics.STB,)) for q in quasi_splittings(d, 2)]
    shared = 0
    for sp, sems in splittings:
        for sem in sems:
            exts, tops = distinct_tops_built(sp, sem)
            shared += exts - tops
    assert shared > 1000

    for between in (False, True):
        rules = [("a_c", ["b"]), ("b_c", ["a"]), ("s", ["a"]), ("t", ["b"]),
                 ("h", ["s", "x"]), ("h", ["t", "x"])]
        rules.insert(5 if between else 4, ("k", ["x"]))
        d = Abaf.from_names({"a": "a_c", "b": "b_c", "x": "x_c"}, rules)
        sp = make_splitting(d, ids(d, "a", "b", "a_c", "b_c", "s", "t"))
        assert distinct_tops_built(sp, Semantics.STB) == (2, 2 if between else 1)


def test_bottom_support_conservativity():
    from splitkit.finder import splitting_sets

    for seed in range(25):
        d = random_abaf(seed, max_assumptions=5, max_rules=8)
        whole = support_sets(minimal_supports(d))
        for s in splitting_sets(d, nontrivial=True):
            sp = make_splitting(d, s)
            local = support_sets(minimal_supports(sp.bottom))
            for a in sp.a1:
                assert whole[d.contrary[a]] == local[d.contrary[a]]
                assert all(t <= sp.a1 for t in whole[d.contrary[a]])


# -- derivability questions against the support tables ------------------------
#
# The table-based forms below are the earlier definitions, kept as the
# reference: they quantify over the listed leaf sets that the fixpoints in
# ``aba`` decide without listing.


def table_undecided(d1, e):
    th = theory_closure(d1, e)
    ua = frozenset(a for a in d1.assumptions if a not in e and d1.contrary[a] not in th)
    sup = support_sets(all_supports(d1))
    ut = frozenset(
        p
        for p in range(d1.n_atoms)
        for t in sup[p]
        if t & ua and not any(d1.contrary[b] in th for b in t)
    )
    return ua, ut


def table_incompatible(sp, e):
    th = theory_closure(sp.bottom, e)
    defeated = frozenset(a for a in sp.a1 if sp.base.contrary[a] in th)
    sup = support_sets(minimal_supports(sp.bottom))
    blocked = frozenset(p for p in sp.s if all(t & defeated for t in sup[p]))
    return blocked | frozenset(sp.base.contrary[a] for a in e)


def table_uninfluenced(d, u):
    sup = support_sets(all_supports(d))
    return all(t <= u for b in u for t in sup[d.contrary[b]])


def subsets(atoms):
    order = sorted(atoms)
    for mask in range(1 << len(order)):
        yield frozenset(a for i, a in enumerate(order) if mask >> i & 1)


def assert_same_as_tables(d, splits):
    for u in subsets(d.assumptions):
        assert undecided_theory(d, u) == table_undecided(d, u)
        assert is_uninfluenced(d, u) == table_uninfluenced(d, u)
    for s in splits:
        sp = make_splitting(d, s)
        for e in subsets(sp.a1):  # conflict-free or not
            assert sp.undecided(e) == table_undecided(sp.bottom, e)
            assert sp.incompatible(e) == table_incompatible(sp, e)


def test_derivability_answers_match_the_tables_on_generated_instances():
    from splitkit.finder import splitting_sets

    for seed in range(40):
        d = random_abaf(seed, max_assumptions=5, max_rules=8)
        assert_same_as_tables(d, splitting_sets(d, nontrivial=True))


def test_derivability_answers_match_the_tables_on_cyclic_non_flat_instances():
    from splitkit.finder import splitting_sets

    non_flat = 0
    for seed in range(150):
        d = cyclic_abaf(seed)
        non_flat += not d.flat
        assert_same_as_tables(d, [d.atoms, *splitting_sets(d, nontrivial=True)])
    assert non_flat > 50


def test_modification_and_influence_past_the_guard():
    # a chain of 21 bottom assumptions, each attacking the one below it; no
    # question asked here needs anything exponential in them
    chain = [f"a{i}" for i in range(1, 22)]
    d = Abaf.from_names(
        assumptions={**{a: f"c_{a}" for a in chain}, "x": "x_c"},
        rules=[(f"c_{lo}", [hi]) for lo, hi in zip(chain, chain[1:])]
        + [("x_c", ["c_a1"])],
    )
    s = ids(d, *chain, *(f"c_{a}" for a in chain))
    sp = make_splitting(d, s)
    assert len(sp.a1) == 21
    top = sp.modification(frozenset())
    assert rules_nm(top) == {("_cu", frozenset({"_u"})), ("x_c", frozenset({"_u"}))}
    assert nm(d, sp.undecided(frozenset())[0]) == set(chain)
    odd = ids(d, *chain[::2])  # the grounded choice decides everything
    assert sp.undecided(odd) == (frozenset(), frozenset())
    assert not sp.modification(odd).rules
    assert is_uninfluenced(d, sp.a1) and is_uninfluenced(d, ids(d, "a21"))
    assert not is_uninfluenced(d, ids(d, "a1")) and not is_uninfluenced(d, ids(d, "x"))


# -- quasi-splittings ---------------------------------------------------------


def s_q(d):
    return ids(d, "a", "a_c", "d", "d_c", "p")


def test_make_quasi_splitting_worked_example():
    d = abaf_vuln()
    q = make_quasi_splitting(d, s_q(d))
    assert nm(d, q.vulnerabilities) == {"b"} and q.k == 1
    assert "c" not in nm(d, q.vulnerabilities)  # c_c heads no rule


def test_every_proper_splitting_is_a_zero_splitting():
    d = abaf7()
    q = make_quasi_splitting(d, s_ex(d))
    assert q.k == 0


def test_quasi_splitting_errors():
    d = abaf_vuln()
    with pytest.raises(NonAssumptionBodyOut):
        make_quasi_splitting(d, ids(d, "a", "a_c"))  # a_c <- p, c with p outside
    with pytest.raises(NotAtomClosed):
        make_quasi_splitting(d, ids(d, "a"))


def test_bottom_expansion_worked_example():
    d = abaf_vuln()
    q = make_quasi_splitting(d, s_q(d))
    exp = q.bottom
    assert exp.rules_by_name() == {
        ("d_c", frozenset({"b"})),
        ("a_c", frozenset({"p"})),  # the unattacked outside assumption c is dropped
        ("p", frozenset({"b"})),
        ("c_b'", frozenset({"b"})),
        ("b_c", frozenset({"b'"})),
    }
    assert fam(exp, enumerate_extensions(exp, Semantics.STB)) == {
        frozenset({"b"}),
        frozenset({"b'", "a", "d"}),
    }


def test_bottom_expansion_without_vulnerabilities_adds_nothing():
    d = abaf7()
    q = make_quasi_splitting(d, s_ex(d))
    sp = make_splitting(d, s_ex(d))
    assert q.bottom.names == d.names
    assert q.bottom == sp.bottom  # names, rules in order, assumptions, contraries
    assert q.marker_of == {} and q.a1 == sp.a1


def test_top_constrained_worked_example():
    d = abaf_vuln()
    q = make_quasi_splitting(d, s_q(d))
    exp = q.bottom
    accept_b = ids(exp, "b")
    reject_b = ids(exp, "b'", "a", "d")
    assert nm(exp, {q.marker_of[b] for b in q.vulnerabilities}) == {"b'"}
    assert q.modification(accept_b).rules_by_name() == {("b", frozenset())}
    assert q.modification(reject_b).rules_by_name() == {
        ("b_c", frozenset()),
        ("b_c", frozenset({"b"})),
    }


def test_top_constrained_plain_reduct_without_vulnerabilities():
    d = abaf7()
    q = make_quasi_splitting(d, s_ex(d))
    sp = make_splitting(d, s_ex(d))
    e1 = ids(d, "a")
    assert q.reduct(e1) == sp.reduct(e1)
    for e in [e1, *enumerate_extensions(sp.bottom, Semantics.CF)]:
        assert q.modification(e) == sp.modification(e)


def test_param_split_solve_worked_example():
    d = abaf_vuln()
    assert fam(d, param_split_solve(d, s_q(d))) == {
        frozenset({"b", "c"}),
        frozenset({"a", "c", "d"}),
    }


def test_param_split_collapses_to_proper_splitting():
    d = abaf7()
    assert param_split_solve(d, s_ex(d)) == split_solve(d, s_ex(d), Semantics.STB)


def test_param_split_equals_oracle_on_random_instances():
    from splitkit.errors import NotAtomClosed as NAC
    from splitkit.finder import pair_contracted

    for seed in range(40):
        d = random_abaf(seed, max_assumptions=5, max_rules=8)
        direct = enumerate_extensions(d, Semantics.STB)
        con = pair_contracted(d)
        m = len(con.groups)
        for mask in range(1 << m):
            atoms = frozenset()
            for i in range(m):
                if mask >> i & 1:
                    atoms |= con.groups[i]
            try:
                q = make_quasi_splitting(d, atoms)
            except (NonAssumptionBodyOut, NAC):
                continue
            if q.k > 2:
                continue
            assert q.solve() == direct


def test_param_split_with_assumption_contraries_equals_oracle():
    """An assumption contrary is derivable without a rule, so the body
    assumption it attacks is a vulnerability: the finder's pick and every
    quasi set with k <= 2 solve as the oracle does."""
    from splitkit.errors import DegenerateSplit
    from splitkit.finder import find_quasi_splitting

    picked = checked = 0
    for seed in range(400):
        d = assumption_contrary_abaf(seed)
        direct = enumerate_extensions(d, Semantics.STB)
        try:
            q = find_quasi_splitting(d)
        except DegenerateSplit:
            pass
        else:
            assert q.solve() == direct
            picked += 1
        for q in quasi_splittings(d, 2):
            assert q.solve() == direct
            checked += 1
    assert picked > 350 and checked > 10_000


def test_quasi_solve_takes_the_semantics_first_and_covers_stable_only():
    """``QuasiSplitting.solve`` takes its arguments in the order of the
    ``AbaSplitting.solve`` it overrides: stable semantics answers as no
    argument does, and any other semantics is refused, not taken for a
    guard."""
    from splitkit.errors import UnsupportedSemantics
    from splitkit.finder import find_quasi_splitting

    d = random_abaf(0, max_assumptions=6, max_rules=9)
    q = find_quasi_splitting(d)
    assert q.solve(Semantics.STB) == q.solve() == enumerate_extensions(d, Semantics.STB)
    assert q.solve(Semantics.STB, 20) == q.solve(guard=20) == q.solve()
    for sem in set(Semantics) - {Semantics.STB}:
        with pytest.raises(UnsupportedSemantics):
            q.solve(sem)


def test_param_split_witness_recovery():
    d = abaf_vuln()
    q = make_quasi_splitting(d, s_q(d))
    for e in enumerate_extensions(d, Semantics.STB):
        e1 = q.witness_bottom(e)
        assert e1 in enumerate_extensions(q.bottom, Semantics.STB)
        top = q.modification(e1)
        assert check_extension(top, e & q.a2, Semantics.STB)


def test_param_regression_circular_top_rule():
    # a circular top rule must not be allowed to confirm a guessed contrary:
    # simplifying c_b out of the body below would turn c_b <- u, c_b into a
    # fact once b is guessed out, wrongly making {u} stable
    d = Abaf.from_names(
        assumptions={"b": "c_b", "u": "c_u"},
        rules=[("p", ["b"]), ("c_b", ["u", "c_b"])],
    )
    s = ids(d, "p", "u", "c_u")
    assert fam(d, enumerate_extensions(d, Semantics.STB)) == {frozenset({"b", "u"})}
    assert param_split_solve(d, s) == enumerate_extensions(d, Semantics.STB)


def test_split_regression_mixed_derivations_stay_live():
    # p has one derivation through the defeated d and one through the
    # untouched u, so the attack on q through p must survive the modification
    d = Abaf.from_names(
        assumptions={"e": "e_c", "d": "d_c", "u": "u_c", "q": "q_c"},
        rules=[("d_c", ["e"]), ("p", ["d"]), ("p", ["u"]), ("q_c", ["p"])],
    )
    s = ids(d, "e", "e_c", "d", "d_c", "u", "u_c", "p")
    sp = make_splitting(d, s)
    assert "p" not in nm(d, sp.incompatible(ids(d, "e")))
    top = sp.modification(ids(d, "e"))
    assert ("q_c", frozenset({"_u"})) in top.rules_by_name()
    for sem in SEMS:
        assert split_solve(d, s, sem) == enumerate_extensions(d, sem)


def test_modification_skips_rules_with_dead_body_atoms():
    # q can only arise through the defeated b, so even though r keeps the
    # rule's body undecided, no guarded variant of t_c may be added
    d = Abaf.from_names(
        assumptions={"e": "e_c", "b": "b_c", "u": "u_c", "t": "t_c"},
        rules=[("b_c", ["e"]), ("q", ["b"]), ("r", ["u"]), ("t_c", ["q", "r"])],
    )
    s = ids(d, "e", "e_c", "b", "b_c", "u", "u_c", "q", "r")
    sp = make_splitting(d, s)
    e = ids(d, "e")
    ua, ut = sp.undecided(e)
    assert "u" in nm(d, ua) and "r" in nm(d, ut)
    assert "q" in nm(d, sp.incompatible(e))
    top = sp.modification(e)
    assert not any(h == "t_c" for h, _ in top.rules_by_name())
    for sem in SEMS:
        assert split_solve(d, s, sem) == enumerate_extensions(d, sem)


def test_constrained_top_reports_non_flat():
    from splitkit.aba import validate
    from helpers import abaf_vuln

    d = abaf_vuln()
    q = make_quasi_splitting(d, s_q(d))
    top = q.modification(ids(q.bottom, "b"))  # adds the fact b <-
    report = validate(top)
    assert not report.flat
    assert [top.names[r.head] for r in report.non_flat_rules] == ["b"]
