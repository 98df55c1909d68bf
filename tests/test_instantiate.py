import pytest

from helpers import abaf7, abaf_chain3, attacks_nm, fam, setaf7
from splitkit.aba import Abaf, enumerate_extensions as aba_extensions
from splitkit.errors import NonFlatError
from splitkit.generate import random_abaf, random_setaf
from splitkit.instantiate import aba_to_setaf, setaf_to_aba
from splitkit.semantics import Semantics
from splitkit.setaf import Setaf, enumerate_extensions as setaf_extensions, normalized


def test_instantiation_attacks():
    sf = aba_to_setaf(abaf7())
    assert attacks_nm(sf) == {
        (frozenset({"b"}), "b"),
        (frozenset({"a"}), "v"),
        (frozenset({"a", "w"}), "x"),
        (frozenset({"x"}), "y"),
        (frozenset({"b", "z"}), "y"),
    }
    assert attacks_nm(aba_to_setaf(abaf_chain3())) == {
        (frozenset({"a"}), "a"),
        (frozenset({"a", "b"}), "c"),
    }


def test_rule_free_framework_gives_attack_free_setaf():
    d = Abaf.from_names(assumptions={"a": "ca", "b": "cb"}, rules=[])
    sf = aba_to_setaf(d)
    assert sf.n_args == 2 and not sf.attacks


def test_non_flat_input_rejected():
    d = Abaf.from_names(assumptions={"b": "cb"}, rules=[("b", [])])
    with pytest.raises(NonFlatError):
        aba_to_setaf(d)


def test_all_supports_mode_emits_non_minimal_tails():
    d = Abaf.from_names(
        assumptions={"a": "ca", "u": "cu", "z": "p"},
        rules=[("p", ["a"]), ("p", ["a", "u"])],
    )
    assert attacks_nm(aba_to_setaf(d)) == {(frozenset({"a"}), "z")}
    assert attacks_nm(aba_to_setaf(d, all_tails=True)) == {
        (frozenset({"a"}), "z"),
        (frozenset({"a", "u"}), "z"),
    }


def test_setaf_to_aba_dedicated_rules():
    d = setaf_to_aba(setaf7())
    assert d.flat
    assert d.rules_by_name() == {
        ("c_b", frozenset({"b"})),
        ("c_v", frozenset({"a"})),
        ("c_x", frozenset({"a", "w"})),
        ("c_y", frozenset({"x"})),
        ("c_y", frozenset({"b", "z"})),
    }


def test_setaf_to_aba_fresh_name_collision():
    sf = Setaf.from_names(["a", "c_a"], [(["a"], "c_a")])
    d = setaf_to_aba(sf)
    assert len(set(d.names)) == 4  # both fresh contraries got distinct names


def test_round_trip_up_to_normalization():
    for sf in (setaf7(), *(random_setaf(s) for s in range(25))):
        back = aba_to_setaf(setaf_to_aba(sf))
        assert attacks_nm(back) == attacks_nm(normalized(sf))
        assert back.names[: sf.n_args] == sf.names


def test_semantic_equivalence_all_semantics():
    for seed in range(30):
        d = random_abaf(seed, max_assumptions=5, max_rules=8)
        sf = aba_to_setaf(d)
        for sem in Semantics:
            assert fam(d, aba_extensions(d, sem)) == fam(sf, setaf_extensions(sf, sem))


def test_splitting_sets_induce_setaf_bottoms():
    from splitkit.finder import splitting_sets
    from splitkit.split_setaf import make_splitting

    for d in (abaf7(), abaf_chain3()):
        sf = aba_to_setaf(d)
        for s in splitting_sets(d):
            a1 = frozenset(sf.arg_id(d.names[a]) for a in s & d.assumptions)
            make_splitting(sf, a1)  # must not raise


def test_setaf_to_aba_is_semantics_preserving():
    sf = setaf7()
    d = setaf_to_aba(sf)
    for sem in Semantics:
        assert fam(d, aba_extensions(d, sem)) == fam(sf, setaf_extensions(sf, sem))


def test_canonical_framework_realizes_every_setaf_bottom():
    from splitkit.finder import setaf_splitting_bottoms, splitting_sets

    for sf in (setaf7(), *(random_setaf(s, max_args=7) for s in range(25))):
        d = setaf_to_aba(sf)
        aba_bottoms = {
            frozenset(d.names[a] for a in s & d.assumptions)
            for s in splitting_sets(d)
        }
        for b in setaf_splitting_bottoms(sf):
            assert frozenset(sf.names[a] for a in b) in aba_bottoms


def test_canonical_framework_condensations_coincide_on_assumptions():
    from splitkit.finder import dependency_graph
    from splitkit.graphs import condense
    from splitkit.setaf import primal_graph

    for seed in range(15):
        sf = random_setaf(seed, max_args=7)
        d = setaf_to_aba(sf)
        dep = condense(dependency_graph(d))
        pri = condense(primal_graph(sf))
        dep_parts = {
            frozenset(d.names[a] for a in c if a in d.assumptions) for c in dep.sccs
        }
        pri_parts = {frozenset(sf.names[a] for a in c) for c in pri.sccs}
        assert dep_parts - {frozenset()} == pri_parts
