import pytest

from helpers import attacks_nm, fam, ids, nm, setaf7
from splitkit.errors import InvalidSplit
from splitkit.generate import random_setaf
from splitkit.semantics import Semantics
from splitkit.setaf import Setaf, enumerate_extensions
from splitkit.split_setaf import make_splitting, split_solve

SEMS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)


def test_make_splitting_partitions():
    sf = setaf7()
    sp = make_splitting(sf, ids(sf, "a", "b"))
    assert attacks_nm_set(sf, sp.r1) == {(frozenset({"b"}), "b")}
    assert attacks_nm_set(sf, sp.r2) == {(frozenset({"x"}), "y")}
    assert attacks_nm_set(sf, sp.r3) == {
        (frozenset({"a"}), "v"),
        (frozenset({"a", "w"}), "x"),
        (frozenset({"b", "z"}), "y"),
    }


def attacks_nm_set(sf, attacks):
    return {(nm(sf, t), sf.names[h]) for t, h in attacks}


def test_make_splitting_rejects_attack_into_bottom():
    sf = setaf7()
    with pytest.raises(InvalidSplit):
        make_splitting(sf, ids(sf, "y"))


def test_empty_bottom_is_trivial():
    sf = setaf7()
    sp = make_splitting(sf, frozenset())
    assert not sp.r1 and not sp.r3 and set(sp.r2) == set(sf.attacks)


def test_reduct_worked_example():
    sf = setaf7()
    sp = make_splitting(sf, ids(sf, "a", "b"))
    red = sp.reduct(ids(sf, "a"))
    assert set(red.names) == {"w", "x", "y", "z"}
    assert attacks_nm(red) == {
        (frozenset({"w"}), "x"),
        (frozenset({"x"}), "y"),
    }


def test_reduct_with_empty_choice_keeps_top_untouched():
    sf = Setaf.from_names(["a", "b", "c"], [(["a"], "c"), (["b"], "c")])
    sp = make_splitting(sf, ids(sf, "a"))
    red = sp.reduct(frozenset())
    # the only tails are in A1, so no attack survives projection and c stays
    assert set(red.names) == {"b", "c"} and attacks_nm(red) == {(frozenset({"b"}), "c")}


def test_reduct_deletes_defeated_heads():
    sf = Setaf.from_names(["a", "v"], [(["a"], "v")])
    sp = make_splitting(sf, ids(sf, "a"))
    assert set(sp.reduct(ids(sf, "a")).names) == set()


def test_undecided_links_worked_example():
    sf = setaf7()
    sp = make_splitting(sf, ids(sf, "a", "b"))
    assert attacks_nm_set(sf, sp.undecided_links(ids(sf, "a"))) == {
        (frozenset({"b", "z"}), "y")
    }


def test_stable_bottom_choice_leaves_no_undecided_links():
    sf = Setaf.from_names(["a", "b", "c"], [(["a"], "b"), (["b"], "c")])
    sp = make_splitting(sf, ids(sf, "a", "b"))
    assert sp.undecided_links(ids(sf, "a")) == ()  # {a} is stable in the bottom


def test_no_links_means_no_undecided_links():
    sf = Setaf.from_names(["a", "b"], [])
    sp = make_splitting(sf, ids(sf, "a"))
    assert sp.undecided_links(frozenset()) == ()


def test_modification_worked_example():
    sf = setaf7()
    sp = make_splitting(sf, ids(sf, "a", "b"))
    mod = sp.modification(ids(sf, "a"))
    assert attacks_nm(mod) == {
        (frozenset({"w"}), "x"),
        (frozenset({"x"}), "y"),
        (frozenset({"y", "z"}), "y"),
    }
    assert fam(mod, enumerate_extensions(mod, Semantics.PREF)) == {frozenset({"w", "z"})}


def test_modification_without_undecided_links_is_reduct():
    sf = Setaf.from_names(["a", "b", "c"], [(["a"], "b"), (["b"], "c")])
    sp = make_splitting(sf, ids(sf, "a", "b"))
    e1 = ids(sf, "a")
    assert sp.modification(e1).attacks == sp.reduct(e1).attacks


def test_modification_skips_deleted_heads():
    # b stays undecided, its link heads at c, but {a} already defeats c
    sf = Setaf.from_names(
        ["a", "b", "c"], [(["b"], "b"), (["a"], "c"), (["b"], "c")]
    )
    sp = make_splitting(sf, ids(sf, "a", "b"))
    e1 = ids(sf, "a")
    assert sp.undecided_links(e1) != ()
    assert sp.modification(e1).attacks == sp.reduct(e1).attacks == ()


def test_modification_tails_contain_their_head():
    sf = setaf7()
    sp = make_splitting(sf, ids(sf, "a", "b"))
    e1 = ids(sf, "a")
    extra = set(sp.modification(e1).attacks) - set(sp.reduct(e1).attacks)
    assert extra and all(h in t for t, h in extra)


def test_split_solve_worked_example():
    sf = setaf7()
    result = split_solve(sf, ids(sf, "a", "b"), Semantics.PREF)
    assert fam(sf, result) == {frozenset({"a", "w", "z"})}


def test_split_solve_with_empty_bottom_degenerates_to_direct():
    sf = setaf7()
    for sem in SEMS:
        assert split_solve(sf, frozenset(), sem) == enumerate_extensions(sf, sem)


def test_split_solve_rejects_conflict_free():
    with pytest.raises(ValueError):
        split_solve(setaf7(), frozenset(), Semantics.CF)


def test_split_solve_equals_oracle_on_random_instances():
    from splitkit.finder import setaf_splitting_bottoms

    for seed in range(40):
        sf = random_setaf(seed, max_args=6, max_attacks=8)
        for a1 in setaf_splitting_bottoms(sf, nontrivial=True):
            for sem in SEMS:
                assert split_solve(sf, a1, sem) == enumerate_extensions(sf, sem)


def test_projection_directions_on_random_instances():
    from splitkit.finder import setaf_splitting_bottoms
    from splitkit.setaf import check_extension

    for seed in range(25):
        sf = random_setaf(seed, max_args=6, max_attacks=8)
        for a1 in setaf_splitting_bottoms(sf, nontrivial=True):
            sp = make_splitting(sf, a1)
            sub, order = sp.bottom
            back = {a: i for i, a in enumerate(order)}
            for sem in SEMS:
                for e in enumerate_extensions(sf, sem):
                    e1 = e & sp.a1
                    assert check_extension(sub, frozenset(back[a] for a in e1), sem)
                    mod = sp.modification(e1)
                    local = frozenset(
                        mod.names.index(sf.names[a]) for a in e & sp.a2
                    )
                    assert check_extension(mod, local, sem)


def test_conflict_free_combination_both_directions():
    for seed in range(25):
        sf = random_setaf(seed, max_args=6, max_attacks=8)
        from splitkit.finder import setaf_splitting_bottoms
        from splitkit.setaf import check_extension

        for a1 in setaf_splitting_bottoms(sf, nontrivial=True):
            sp = make_splitting(sf, a1)
            sub, order = sp.bottom
            cf_bottom = [
                frozenset(order[i] for i in e)
                for e in enumerate_extensions(sub, Semantics.CF)
            ]
            for e1 in cf_bottom[:12]:
                mod = sp.modification(e1)
                for e2 in enumerate_extensions(mod, Semantics.CF)[:12]:
                    union = e1 | frozenset(
                        sf.arg_id(mod.names[i]) for i in e2
                    )
                    assert check_extension(sf, union, Semantics.CF)
            for e in enumerate_extensions(sf, Semantics.CF)[:24]:
                e1 = e & sp.a1
                assert check_extension(
                    sub, frozenset(order.index(a) for a in e1), Semantics.CF
                )
                red = sp.reduct(e1)
                local = frozenset(red.names.index(sf.names[a]) for a in e & sp.a2)
                assert check_extension(red, local, Semantics.CF)


def test_recursive_sub_solver():
    from splitkit.errors import DegenerateSplit
    from splitkit.finder import find_setaf_splitting

    def recursive(sf, sem):
        try:
            a1 = find_setaf_splitting(sf)
        except DegenerateSplit:
            return enumerate_extensions(sf, sem)
        return make_splitting(sf, a1).solve(sem, sub_solver=recursive)

    for seed in range(15):
        sf = random_setaf(seed, max_args=7, max_attacks=9)
        for sem in SEMS:
            try:
                a1 = find_setaf_splitting(sf)
            except DegenerateSplit:
                continue
            got = make_splitting(sf, a1).solve(sem, sub_solver=recursive)
            assert got == enumerate_extensions(sf, sem)
