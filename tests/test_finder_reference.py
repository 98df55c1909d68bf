"""The one-pass finders against the finder path they replaced.

``find_balanced_splitting`` and ``find_setaf_splitting`` build successor
lists from the rules or attacks and choose the best balanced prefix in
``graphs.balanced_prefix``; ``reference`` keeps the path before it
(``condense``, ``prefix_ideals``, ``most_balanced``, ``make_splitting``).
Both must return the same set, or raise the same error type, at every
balance target, and the quasi finder's candidate pool must not change.
"""

import pytest

from helpers import assumption_contrary_abaf, cyclic_abaf, perfbench_module, perfbench_stack
import reference
from splitkit import finder
from splitkit.errors import SplitkitError
from splitkit.generate import random_abaf, random_setaf
from splitkit.instantiate import aba_to_setaf, setaf_to_aba
from splitkit.split_aba import derivable_atoms

TARGETS = (0, 0.3, 0.5, 0.8, 1)


def outcome(find, fw, target):
    try:
        return find(fw, target)
    except SplitkitError as err:
        return type(err)


def assert_same_picks(frameworks, new, old):
    """Each framework at each target; returns how many calls found a set."""
    found = 0
    for fw in frameworks:
        for t in TARGETS:
            got = outcome(new, fw, t)
            assert got == outcome(old, fw, t), (fw, t)
            found += isinstance(got, frozenset)
    return found


def assert_same_aba(frameworks):
    return assert_same_picks(frameworks, finder.find_balanced_splitting, reference.find_balanced_splitting)


def assert_same_setaf(frameworks):
    return assert_same_picks(frameworks, finder.find_setaf_splitting, reference.find_setaf_splitting)


def test_finders_match_the_reference_on_seeded_frameworks():
    abafs = [random_abaf(seed, max_assumptions=2 + seed % 8, max_rules=seed % 12, max_body=1 + seed % 3)
             for seed in range(300)]
    abafs += [cyclic_abaf(seed) for seed in range(150)]
    abafs += [assumption_contrary_abaf(seed) for seed in range(100)]
    setafs = [random_setaf(seed, max_args=1 + seed % 12, max_attacks=seed % 16, max_tail=1 + seed % 3)
              for seed in range(300)]
    assert assert_same_aba(abafs) > 1500
    assert assert_same_setaf(setafs) > 800


def test_finders_match_the_reference_on_c07_and_the_stacks():
    c07 = [random_setaf(7000 + i, max_args=8, max_attacks=10, max_tail=3) for i in range(500)]
    assert assert_same_setaf(c07) > 1000
    stack = perfbench_stack()
    stacks = [stack(gen, blocks, 8) for blocks, gens in ((2, 6), (3, 4), (4, 5)) for gen in range(gens)]
    images = [aba_to_setaf(d) for d in stacks]
    assert assert_same_aba(stacks + [setaf_to_aba(sf) for sf in images]) == 5 * 2 * len(stacks)
    assert assert_same_setaf(images) == 5 * len(images)


def test_finder_matches_the_reference_on_the_beyond_pieces(monkeypatch):
    """Every SETAF that one ``beyond(0)`` round hands the finder, the
    recursion pieces of its ``setaf-rec`` operations included."""
    workloads, routes = perfbench_module("workloads"), perfbench_module("routes")
    pieces = []
    find = finder.find_setaf_splitting

    def recorded(sf, *args):
        pieces.append(sf)
        return find(sf, *args)

    monkeypatch.setattr(finder, "find_setaf_splitting", recorded)
    for op in workloads.beyond(0):
        if op.route == "setaf-rec":
            routes.run_op(op.instance.kind, op.instance.text, op.sem, op.route)
    monkeypatch.undo()
    assert len(pieces) > 1000 and max(sf.n_args for sf in pieces) >= 32
    assert assert_same_setaf(pieces) > 1000


def quasi_corpus():
    frameworks = [random_abaf(seed, max_assumptions=5, max_rules=8) for seed in range(60)]
    frameworks += [cyclic_abaf(seed) for seed in range(80)]
    frameworks += [assumption_contrary_abaf(seed) for seed in range(40)]
    stack = perfbench_stack()
    stacks = [stack(gen, 2, 8) for gen in range(4)]
    return frameworks + stacks + [setaf_to_aba(aba_to_setaf(d)) for d in stacks]


@pytest.mark.parametrize("window", [(0.25, 0.75), (0.4, 0.6), (0, 1), (1, 0)])
def test_quasi_flow_candidates_are_unchanged(window):
    """The same pool in the same order, in windows that a set with k = 0
    fits and in the empty one, where the max-flows and balls run too."""
    compared = 0
    for d in quasi_corpus():
        con = finder.pair_contracted(d)
        if len(con.groups) <= 1:
            continue
        derivable = derivable_atoms(d)
        pool = finder._quasi_flow(d, con, derivable, *window)
        assert pool == reference.quasi_flow(d, con, derivable, *window)
        compared += 1
    assert compared > 150

