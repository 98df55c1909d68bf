from itertools import combinations

import pytest

from helpers import (
    abaf7, abaf_vuln, assumption_contrary_abaf, cyclic_abaf, head_first_chains, ids, nm,
    perfbench_stack, support_ladder, support_sets,
)
from reference import support_extensions
from splitkit.aba import (
    Abaf,
    Rule,
    all_supports,
    atom_closure,
    attack_range,
    check_extension,
    enumerate_extensions,
    is_atom_closed,
    is_uninfluenced,
    minimal_supports,
    projection,
    strip_dummy_rules,
    tainted,
    theory_closure,
    validate,
)
from splitkit.errors import GuardExceeded, NonFlatError, NotAtomClosed, ValidationError
from splitkit.generate import random_abaf
from splitkit.semantics import Semantics


def test_construction_checks():
    def rejected(*args):
        with pytest.raises(ValidationError) as err:
            Abaf(*args)
        return str(err.value)

    assert rejected(("a", "ca"), (), frozenset({0}), {}) == (
        "contrary map must be total on assumptions and nothing else")
    assert rejected(("a", "ca"), (), frozenset({0}), {0: 1, 1: 0}) == (
        "contrary map must be total on assumptions and nothing else")  # non-assumption
    assert rejected(("a", ""), (), frozenset({0}), {0: 1}) == "atom names must be nonempty"
    for a in (-1, 2):
        assert rejected(("a", "ca"), (), frozenset({0, a}), {0: 1, a: 1}) == (
            "assumption id out of range")
    for c in (-1, 2):
        assert rejected(("a", "ca"), (), frozenset({0}), {0: c}) == "contrary id out of range"
    for rule in (Rule(5, frozenset()), Rule(-1, frozenset()),
                 Rule(1, frozenset({0, 2})), Rule(1, frozenset({-1}))):
        assert rejected(("a", "ca"), (Rule(1, frozenset({0})), rule), frozenset({0}), {0: 1}) == (
            "rule mentions an atom id out of range")
    assert rejected(("a", "ca"), ((1, {0, 2}),), frozenset({0}), {0: 1}) == (
        "rule mentions an atom id out of range")
    # the first failing check decides the message
    assert rejected(("a", ""), ((7, ()),), frozenset({0, 9}), {}) == "atom names must be nonempty"
    assert rejected(("a", "b"), ((7, ()),), frozenset({0}), {0: 9}) == "contrary id out of range"

    # plain (head, body) pairs become rules; repeats collapse to the first
    # occurrence, in order; ``flat`` says whether any rule heads an assumption
    d = Abaf(["x", "cx", "p"], [(2, [0]), Rule(1, frozenset({2})), (2, (0,)), (1, {2})],
             {0}, {0: 1})
    assert d.rules == (Rule(2, frozenset({0})), Rule(1, frozenset({2})))
    assert d.names == ("x", "cx", "p") and d.assumptions == frozenset({0})
    assert d.flat
    spread = [Rule(h, frozenset({0})) for h in (5, 1, 4, 2, 3)]
    d = Abaf(("x", "cx", "p", "q", "r", "s"), spread + spread[::-1], {0}, {0: 1})
    assert d.rules == tuple(spread)
    assert not Abaf(("x", "cx"), ((0, ()),), frozenset({0}), {0: 1}).flat
    assert Abaf(("x", "cx"), (), frozenset(), {}).flat
    assert Abaf((), (), frozenset(), {}).rules == ()


def test_duplicate_rules_are_collapsed():
    d = Abaf(("a", "ca"), (Rule(1, frozenset({0})), Rule(1, frozenset({0}))),
             frozenset({0}), {0: 1})
    assert len(d.rules) == 1


def test_flat_flag_and_loop_rule():
    d = abaf7()
    assert d.flat
    loop = next(r for r in d.rules if d.names[r.head] == "b_c")
    assert d.is_loop_rule(loop)
    plain = next(r for r in d.rules if d.names[r.head] == "p")
    assert not d.is_loop_rule(plain)


def test_validate_running_example_clean():
    report = validate(abaf7())
    assert report.flat and not report.dummy_rules and report.ok


def test_validate_detects_dummy_rule():
    d = Abaf.from_names(
        assumptions={"a": "ca"}, rules=[("q", ["r"])], extra_atoms=["q", "r"]
    )
    report = validate(d)
    assert len(report.dummy_rules) == 1
    stripped, dummies = strip_dummy_rules(d)
    assert not stripped.rules and len(dummies) == 1


def test_validate_detects_non_flat():
    d = Abaf.from_names(assumptions={"b": "cb"}, rules=[("b", [])])
    report = validate(d)
    assert not report.flat
    assert report.non_flat_rules == (d.rules[0],)


def test_theory_closure_examples():
    d = abaf7()
    assert nm(d, theory_closure(d, ids(d, "a"))) == {"a", "p", "v_c"}
    assert theory_closure(d, frozenset()) == frozenset()
    with pytest.raises(ValueError):
        theory_closure(d, ids(d, "p"))  # not an assumption


def test_theory_closure_is_monotone():
    d = abaf7()
    small = theory_closure(d, ids(d, "a"))
    big = theory_closure(d, ids(d, "a", "w"))
    assert small <= big


def test_minimal_supports_examples():
    d = abaf7()
    sup = support_sets(minimal_supports(d))
    assert {nm(d, t) for t in sup[d.atom_id("x_c")]} == {frozenset({"a", "w"})}
    assert {nm(d, t) for t in sup[d.atom_id("y_c")]} == {
        frozenset({"x"}),
        frozenset({"b", "z"}),
    }
    assert {nm(d, t) for t in sup[d.atom_id("a")]} == {frozenset({"a"})}
    assert sup[d.atom_id("a_c")] == ()  # underivable


def test_all_supports_records_exact_leaf_sets():
    d = Abaf.from_names(
        assumptions={"a": "ca", "u": "cu", "z": "p"},
        rules=[("p", ["a"]), ("p", ["a", "u"])],
    )
    exact = support_sets(all_supports(d))[d.atom_id("p")]
    assert {nm(d, t) for t in exact} == {frozenset({"a"}), frozenset({"a", "u"})}
    minimal = support_sets(minimal_supports(d))[d.atom_id("p")]
    assert {nm(d, t) for t in minimal} == {frozenset({"a"})}


def test_attack_range_examples():
    d = abaf7()
    attacked, rng = attack_range(d, ids(d, "a"))
    assert nm(d, attacked) == {"v"} and nm(d, rng) == {"a", "v"}
    assert attack_range(d, frozenset())[0] == frozenset()
    attacked, _ = attack_range(d, ids(d, "b", "z"))
    assert {"y", "b"} <= nm(d, attacked)


def test_attack_range_honours_rule_filter():
    d = abaf7()
    bottom_rules = [r for r in d.rules if d.names[r.head] in ("b_c", "p")]
    attacked, _ = attack_range(d, ids(d, "a"), rules=bottom_rules)
    assert attacked == frozenset()  # v_c is not derivable in the filtered system


def test_check_extension_examples():
    d = abaf7()
    assert check_extension(d, ids(d, "a", "w", "z"), Semantics.PREF)
    assert check_extension(d, frozenset(), Semantics.CF)
    q = abaf_vuln()
    assert check_extension(q, ids(q, "b", "c"), Semantics.STB)
    assert check_extension(q, ids(q, "a", "c", "d"), Semantics.STB)
    assert not check_extension(q, ids(q, "a", "b"), Semantics.CF)
    with pytest.raises(ValueError):
        check_extension(d, ids(d, "p"), Semantics.CF)


def test_check_matches_enumeration_on_all_semantics():
    for d in (abaf_vuln(), *(random_abaf(seed) for seed in range(60))):
        for sem in Semantics:
            family = set(enumerate_extensions(d, sem))
            for mask in range(1 << len(d.assumptions)):
                cand = frozenset(
                    a for i, a in enumerate(sorted(d.assumptions)) if mask >> i & 1
                )
                assert check_extension(d, cand, sem) == (cand in family)


def test_enumerate_examples():
    d = abaf7()
    assert ids(d, "a", "w", "z") in enumerate_extensions(d, Semantics.PREF)
    empty = Abaf((), (), frozenset(), {})
    for sem in Semantics:
        assert enumerate_extensions(empty, sem) == (frozenset(),)


def test_enumerate_guard_error_names_limit():
    d = abaf7()
    with pytest.raises(GuardExceeded) as err:
        enumerate_extensions(d, Semantics.PREF, guard=3)
    assert "3" in str(err.value)


def test_guard_environment_override(monkeypatch):
    d = abaf7()
    monkeypatch.setenv("SPLITKIT_GUARD", "2")
    with pytest.raises(GuardExceeded):
        enumerate_extensions(d, Semantics.PREF)


def test_enumerate_rejects_non_flat_except_stable():
    d = Abaf.from_names(
        assumptions={"b": "cb", "e": "ce"}, rules=[("b", []), ("cb", ["e"])]
    )
    assert not d.flat
    with pytest.raises(NonFlatError):
        enumerate_extensions(d, Semantics.ADM)
    # stable on the non-flat framework demands closed sets: b is a consequence
    # of the empty set, so every extension contains it
    for ext in enumerate_extensions(d, Semantics.STB):
        assert d.atom_id("b") in ext


def test_projection_examples():
    d = abaf7()
    s = ids(d, "a", "b", "a_c", "b_c", "p")
    sub = projection(d, s)
    assert sub.rules_by_name() == {
        ("b_c", frozenset({"b"})),
        ("p", frozenset({"a"})),
    }
    assert nm(sub, sub.assumptions) == {"a", "b"}
    assert projection(d, d.atoms) == d
    tiny = projection(d, ids(d, "w", "w_c"))
    assert not tiny.rules and nm(tiny, tiny.assumptions) == {"w"}
    with pytest.raises(NotAtomClosed):
        projection(d, ids(d, "a"))


def test_atom_closure_multi_valued_alpha():
    d = Abaf.from_names(assumptions={"a": "q", "b": "q"}, rules=[])
    closed = atom_closure(d, ids(d, "a"))
    assert nm(d, closed) == {"a", "b", "q"}  # b shares the contrary q
    assert is_atom_closed(d, closed)
    assert not is_atom_closed(d, ids(d, "a", "q"))


def test_is_uninfluenced_examples():
    d = abaf7()
    assert is_uninfluenced(d, ids(d, "a", "b"))
    assert not is_uninfluenced(d, ids(d, "y"))
    assert is_uninfluenced(d, frozenset())


def test_tainted_follows_derivations_from_the_allowed_leaves():
    d = Abaf.from_names(
        assumptions={"a": "a_c", "b": "b_c", "c": "c_c"},
        rules=[("p", ["a"]), ("q", ["p", "b"]), ("r", ["q", "c"]), ("a_c", ["b"])],
    )
    # every derivation of q uses a; r needs c, which is not allowed
    assert nm(d, tainted(d, ids(d, "a", "b"), ids(d, "a"))) == {"a", "p", "q"}
    # b reaches q through the derivable p, and a_c directly
    assert nm(d, tainted(d, ids(d, "a", "b"), ids(d, "b"))) == {"b", "q", "a_c"}
    assert tainted(d, d.assumptions, frozenset()) == frozenset()


def test_semantics_lattice_on_examples():
    for d in (abaf7(), abaf_vuln()):
        fams = {sem: set(enumerate_extensions(d, sem)) for sem in Semantics}
        assert fams[Semantics.STB] <= fams[Semantics.PREF]
        assert fams[Semantics.PREF] <= fams[Semantics.COM]
        assert fams[Semantics.COM] <= fams[Semantics.ADM]
        assert fams[Semantics.ADM] <= fams[Semantics.CF]


def test_flat_grounded_is_singleton():
    for d in (abaf7(), abaf_vuln()):
        grd = enumerate_extensions(d, Semantics.GRD)
        assert len(grd) == 1
        com = enumerate_extensions(d, Semantics.COM)
        assert all(grd[0] <= e for e in com)


def test_theory_closure_in_expanded_quasi_bottom():
    from helpers import abaf_vuln
    from splitkit.split_aba import make_quasi_splitting

    d = abaf_vuln()
    q = make_quasi_splitting(d, ids(d, "a", "a_c", "d", "d_c", "p"))
    exp = q.bottom
    th = theory_closure(exp, ids(exp, "b"))
    assert nm(exp, th) == {"b", "d_c", "c_b'", "p", "a_c"}


# -- support tables against the earlier set-based fixpoint ----------------------


def reference_supports(abaf, minimal):
    """The earlier ``_support_fixpoint``, kept as the reference: every rule on
    every pass, each body's sets combined by ``product``, masks over the
    assumptions in increasing order; returned as atom-id sets per atom."""
    from itertools import product

    order = sorted(abaf.assumptions)
    index = {a: i for i, a in enumerate(order)}
    sup = [set() for _ in range(abaf.n_atoms)]
    for a in abaf.assumptions:
        sup[a].add(1 << index[a])

    def add(atom, mask):
        bucket = sup[atom]
        if mask in bucket:
            return False
        if minimal:
            if any(m & mask == m for m in bucket):
                return False
            bucket.difference_update({m for m in bucket if m & mask == mask})
        bucket.add(mask)
        return True

    changed = True
    while changed:
        changed = False
        for r in abaf.rules:
            body_sups = [sup[b] for b in r.body]
            if any(not bs for bs in body_sups):
                continue
            if not body_sups:
                if add(r.head, 0):
                    changed = True
                continue
            for combo in product(*[sorted(bs) for bs in body_sups]):
                mask = 0
                for m in combo:
                    mask |= m
                if add(r.head, mask):
                    changed = True
    return {
        atom: {frozenset(a for i, a in enumerate(order) if m >> i & 1) for m in masks}
        for atom, masks in enumerate(sup)
    }


def test_support_tables_match_the_set_based_fixpoint():
    stack = perfbench_stack()
    frameworks = [random_abaf(seed, max_assumptions=6, max_rules=10) for seed in range(60)]
    frameworks += [cyclic_abaf(seed) for seed in range(150)]
    frameworks += [stack(gen, 2, 8 + gen % 2) for gen in range(20)]
    assert sum(not d.flat for d in frameworks) > 50
    facts = underivable = 0
    for d in frameworks:
        for minimal, table in ((True, minimal_supports(d)), (False, all_supports(d))):
            assert list(table) == list(range(d.n_atoms))
            for masks in table.values():
                assert list(masks) == sorted(set(masks))  # increasing, no repeats
            got = {atom: set(sets) for atom, sets in support_sets(table).items()}
            assert got == reference_supports(d, minimal)
        sup = minimal_supports(d)
        facts += sum(masks == (0,) for masks in sup.values())
        underivable += sum(masks == () for masks in sup.values())
    assert facts > 100 and underivable > 200


# -- the sweep on the rules against the support-based sweep ----------------------


def test_rule_sweep_matches_the_support_sweep_and_the_definitions():
    """``enumerate_extensions`` against the sweep of the support table that
    it replaced, and against ``check_extension`` on every subset: non-flat
    frameworks (stable and conflict-free), assumption contraries, chains
    listed head first, which need one closure pass per link, and the ladder
    whose last rung has 2^k minimal supports."""
    frameworks = [cyclic_abaf(seed) for seed in range(150)]
    frameworks += [assumption_contrary_abaf(seed) for seed in range(150)]
    frameworks += [head_first_chains(n) for n in (1, 4, 9)]
    ladders = [support_ladder(k) for k in range(3, 7)]
    assert sum(not d.flat for d in frameworks) > 50
    nonflat_answers = 0
    for d in frameworks + ladders:
        for sem in Semantics:
            copy = Abaf(d.names, d.rules, d.assumptions, d.contrary)
            try:
                want = support_extensions(copy, sem)
            except NonFlatError:
                with pytest.raises(NonFlatError):
                    enumerate_extensions(d, sem)
                continue
            got = enumerate_extensions(d, sem)
            assert got == want, (d, sem)
            nonflat_answers += not d.flat and got != ()
            definitional = sem in (Semantics.CF, Semantics.STB, Semantics.ADM, Semantics.COM)
            if definitional and len(d.assumptions) <= 7:
                everything = sorted(d.assumptions)
                for size in range(len(everything) + 1):
                    for s in map(frozenset, combinations(everything, size)):
                        assert check_extension(d, s, sem) == (s in got), (d, s, sem)
    assert nonflat_answers > 50
    for chain_abaf in frameworks[-3:]:
        assert nm(chain_abaf, enumerate_extensions(chain_abaf, Semantics.STB)[0]) == {"a", "c"}
    for k, d in enumerate(ladders, 3):
        for sem in (Semantics.STB, Semantics.PREF):
            family = enumerate_extensions(d, sem)
            assert len(family) == 2 ** k and not any(d.atom_id("x") in e for e in family)
