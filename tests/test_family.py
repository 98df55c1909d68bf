"""The canonical family and what is built once for it: the member lists the
canonical sort keeps for the printout, the column table of each sweep width,
and the guard that a split solve resolves once for all its sub-solves."""

import pytest

from helpers import abaf7, perfbench_stack, setaf7
from splitkit import aba, semantics, setaf, split_aba, split_setaf
from splitkit.aba import Abaf
from splitkit.errors import GuardExceeded, InvalidGuard, UnsupportedSemantics
from splitkit.finder import find_balanced_splitting
from splitkit.generate import random_abaf, random_setaf
from splitkit.io import format_extensions
from splitkit.semantics import (
    COLUMN_CAP, SPLIT_SEMANTICS, Family, Semantics, canonical_sets, item_columns,
)


def printed(sets, names) -> str:
    """The printout, rendered here from the sets alone."""
    lines = ["E " + " ".join(names[a] for a in sorted(s)) for s in sorted(set(sets), key=sorted)]
    return "".join(line.rstrip() + "\n" for line in lines) or "NO\n"


def assert_printout_ignores_the_carried_keys(family, names):
    assert isinstance(family, Family)
    scrambled = list(family)[::-1] + list(family)[:1]  # reversed, one set repeated
    text = format_extensions(family, names)
    assert text == format_extensions(scrambled, names) == printed(family, names)
    again = canonical_sets(scrambled)
    assert again == tuple(sorted(set(scrambled), key=sorted)) == family
    assert again.members == list(map(sorted, again)) == family.members


def test_layered_split_printouts_do_not_depend_on_the_carried_keys():
    stack = perfbench_stack()
    for gen in range(20):  # the stacks of the benchmark's layered workload
        d = stack(gen, 2, 8 + gen % 2)
        s = find_balanced_splitting(d)
        for sem in SPLIT_SEMANTICS:
            assert_printout_ignores_the_carried_keys(split_aba.split_solve(d, s, sem), d.names)


def test_random_printouts_do_not_depend_on_the_carried_keys():
    for seed in range(200):
        d = random_abaf(seed)
        sf = random_setaf(seed)
        for sem in Semantics:
            assert_printout_ignores_the_carried_keys(aba.enumerate_extensions(d, sem), d.names)
            assert_printout_ignores_the_carried_keys(setaf.enumerate_extensions(sf, sem), sf.names)


def test_a_family_is_the_plain_tuple_of_its_sets():
    family = canonical_sets([frozenset({2, 0}), frozenset(), frozenset({1}), frozenset()])
    assert family == (frozenset(), frozenset({0, 2}), frozenset({1}))
    assert hash(family) == hash(tuple(family))
    assert family.members == [[], [0, 2], [1]]
    assert format_extensions(canonical_sets([]), ("a",)) == "NO\n"


def test_item_columns_are_one_immutable_table_per_small_width():
    for n in range(COLUMN_CAP + 1):
        table = item_columns(n)
        assert table == tuple(
            int("".join("1" if m >> i & 1 else "0" for m in reversed(range(1 << n))), 2)
            for i in range(n))
        assert item_columns(n) is table
        with pytest.raises(TypeError):
            table[0:0] = (0,)
    wide = COLUMN_CAP + 1
    table = item_columns(wide)
    assert table[0] == int("10" * (1 << COLUMN_CAP), 2)
    assert item_columns(wide) == table and item_columns(wide) is not table
    assert wide not in semantics._columns


def stacked() -> tuple[Abaf, frozenset[int]]:
    """One bottom assumption and three top ones, with no rules, and the
    splitting set of the bottom: a bottom extension that takes the bottom
    assumption leaves a top of 3, the empty one a top of 4 (with ``_u``)."""
    d = Abaf.from_names(assumptions={"b": "c_b", "x": "c_x", "y": "c_y", "z": "c_z"}, rules=[])
    return d, frozenset(d.names.index(a) for a in ("b", "c_b"))


def test_a_split_checks_its_semantics_before_the_guard(monkeypatch):
    monkeypatch.setenv("SPLITKIT_GUARD", "abc")
    d, s = stacked()
    with pytest.raises(UnsupportedSemantics):
        split_aba.split_solve(d, s, Semantics.CF)
    with pytest.raises(InvalidGuard):
        split_aba.split_solve(d, s, Semantics.ADM)
    with pytest.raises(UnsupportedSemantics):
        split_aba.make_quasi_splitting(d, s).solve(Semantics.ADM)
    with pytest.raises(InvalidGuard):
        split_aba.param_split_solve(d, s)
    sf = setaf7()
    a1 = frozenset({sf.names.index("a")})
    with pytest.raises(UnsupportedSemantics):
        split_setaf.split_solve(sf, a1, Semantics.CF)
    with pytest.raises(InvalidGuard):
        split_setaf.split_solve(sf, a1, Semantics.ADM)
    assert split_aba.split_solve(d, s, Semantics.ADM, guard=4)  # an explicit guard is read as given


def test_a_top_above_an_explicit_guard_is_refused():
    d, s = stacked()
    for solve, size in ((lambda: split_aba.split_solve(d, s, Semantics.ADM, guard=3), 4),
                        (lambda: split_aba.param_split_solve(d, s, guard=2), 3)):
        with pytest.raises(GuardExceeded) as err:
            solve()
        assert (err.value.size, err.value.guard) == (size, size - 1)
    d = abaf7()
    assert split_aba.split_solve(d, find_balanced_splitting(d), Semantics.ADM, guard=7)
