import pytest

from helpers import attacks_nm, fam, ids, nm, setaf7
from splitkit.errors import GuardExceeded, ValidationError
from splitkit.semantics import DEFAULT_GUARD, Semantics
from splitkit.setaf import (
    Setaf,
    attack_range,
    check_extension,
    enumerate_extensions,
    normalized,
    primal_graph,
)


def test_empty_tails_rejected():
    with pytest.raises(ValidationError):
        Setaf(("a", "b"), ((frozenset(), 0),))


def test_duplicates_dropped_supersets_kept():
    sf = Setaf(
        ("a", "b", "c"),
        (
            (frozenset({0}), 2),
            (frozenset({0}), 2),
            (frozenset({0, 1}), 2),
        ),
    )
    assert len(sf.attacks) == 2  # exact duplicate removed, superset tail kept
    norm = normalized(sf)
    assert attacks_nm(norm) == {(frozenset({"a"}), "c")}


def test_check_extension_examples():
    sf = setaf7()
    assert check_extension(sf, ids(sf, "a", "w", "z"), Semantics.PREF)
    assert check_extension(sf, frozenset(), Semantics.CF)
    star = Setaf.from_names(
        ["w", "x", "y", "z"],
        [(["w"], "x"), (["x"], "y"), (["y", "z"], "y")],
    )
    assert check_extension(star, ids(star, "w", "z"), Semantics.PREF)


def test_enumerate_examples():
    sf1 = Setaf.from_names(["a", "b"], [(["b"], "b")])
    assert fam(sf1, enumerate_extensions(sf1, Semantics.PREF)) == {frozenset({"a"})}
    free = Setaf.from_names(["a", "b", "c"], [])
    for sem in (Semantics.STB, Semantics.PREF, Semantics.GRD, Semantics.COM):
        assert fam(free, enumerate_extensions(free, sem)) == {frozenset("abc")}
    # the self-attacker b is unattackable, so no stable extension exists
    assert enumerate_extensions(setaf7(), Semantics.STB) == ()


def test_enumerate_guard():
    sf = setaf7()
    with pytest.raises(GuardExceeded):
        enumerate_extensions(sf, Semantics.CF, guard=4)


def test_enumerate_at_the_guard():
    pairs = 10  # 2 * pairs == DEFAULT_GUARD arguments
    names = tuple(f"{side}{i}" for i in range(pairs) for side in "ab")
    attacks = [(frozenset({2 * i}), 2 * i + 1) for i in range(pairs)]
    attacks += [(frozenset({2 * i + 1}), 2 * i) for i in range(pairs)]
    sf = Setaf(names, tuple(attacks))
    assert sf.n_args == DEFAULT_GUARD
    stb = enumerate_extensions(sf, Semantics.STB)
    prf = enumerate_extensions(sf, Semantics.PREF)
    assert len(stb) == 2**pairs and set(stb) == set(prf)
    for ext in prf:
        assert check_extension(sf, ext, Semantics.STB)
        assert check_extension(sf, ext, Semantics.PREF)
    assert enumerate_extensions(sf, Semantics.GRD) == (frozenset(),)
    one_more = Setaf(names + ("c",), tuple(attacks))
    for sem in Semantics:
        with pytest.raises(GuardExceeded):
            enumerate_extensions(one_more, sem)


def test_attack_range_examples():
    sf = setaf7()
    assert nm(sf, attack_range(sf, ids(sf, "a"))[0]) == {"v"}
    assert nm(sf, attack_range(sf, ids(sf, "a", "w"))[0]) == {"v", "x"}
    assert attack_range(sf, frozenset())[0] == frozenset()


def test_attack_range_filter():
    sf = setaf7()
    only_loop = [at for at in sf.attacks if nm(sf, at[0]) == {"b"}]
    attacked, _ = attack_range(sf, ids(sf, "a", "w"), attack_filter=only_loop)
    assert attacked == frozenset()


def test_primal_graph_examples():
    sf = setaf7()
    g = primal_graph(sf)
    edges = {(g.names[u], g.names[v]) for u, v in g.edges}
    assert edges == {
        ("a", "v"), ("a", "x"), ("w", "x"), ("x", "y"),
        ("b", "b"), ("b", "y"), ("z", "y"),
    }
    assert primal_graph(Setaf.from_names(["a"], [])).edges == frozenset()
    pair = Setaf.from_names(["p", "q", "r"], [(["p", "q"], "r")])
    g2 = primal_graph(pair)
    assert {(g2.names[u], g2.names[v]) for u, v in g2.edges} == {("p", "r"), ("q", "r")}


def test_af_special_case_hand_worked():
    # a -> b -> c, plain Dung-style chain: grounded accepts a and c
    af = Setaf.from_names(["a", "b", "c"], [(["a"], "b"), (["b"], "c")])
    assert fam(af, enumerate_extensions(af, Semantics.GRD)) == {frozenset({"a", "c"})}
    assert fam(af, enumerate_extensions(af, Semantics.STB)) == {frozenset({"a", "c"})}
    # mutual attack: two stable extensions, empty grounded
    duel = Setaf.from_names(["a", "b"], [(["a"], "b"), (["b"], "a")])
    assert fam(duel, enumerate_extensions(duel, Semantics.STB)) == {
        frozenset({"a"}),
        frozenset({"b"}),
    }
    assert fam(duel, enumerate_extensions(duel, Semantics.GRD)) == {frozenset()}


def test_stable_equals_conflict_free_with_full_range():
    from splitkit.generate import random_setaf

    for seed in range(30):
        sf = random_setaf(seed, max_args=6)
        stable = set(enumerate_extensions(sf, Semantics.STB))
        for mask in range(1 << sf.n_args):
            s = frozenset(i for i in range(sf.n_args) if mask >> i & 1)
            attacked, rng = attack_range(sf, s)
            by_def = not (attacked & s) and rng == sf.args
            assert by_def == (s in stable)


def test_semantics_lattice_random():
    from splitkit.generate import random_setaf

    for seed in range(30):
        sf = random_setaf(seed, max_args=6)
        fams = {sem: set(enumerate_extensions(sf, sem)) for sem in Semantics}
        assert fams[Semantics.STB] <= fams[Semantics.PREF] <= fams[Semantics.COM]
        assert fams[Semantics.COM] <= fams[Semantics.ADM] <= fams[Semantics.CF]
        assert len(fams[Semantics.GRD]) == 1
