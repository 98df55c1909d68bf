"""The contract of ``split_union`` with a fake sub-solver and a fake ``build``."""

from splitkit.semantics import Semantics, canonical_sets, split_union


def test_split_union_solves_the_bottom_first_and_each_distinct_top_once():
    """Keys are only a fast path: two keys that build one top share one
    solve, a top whose family is empty is not solved again, a key met before
    is not built again, and the bottom is solved once, first."""
    families = {
        "bottom": [frozenset({i}) for i in range(5)],
        "T": (frozenset({10}),),
        "U": (),
    }
    key_of = {0: 1, 1: 2, 2: 3, 3: 3, 4: 4}  # bottom extension {i} -> key
    top_at = {1: "T", 2: "T", 3: "U", 4: "U"}  # key -> the top it builds
    solved, built = [], []

    def solver(framework, semantics):
        solved.append(framework)
        return families[framework]

    def top_of(e1):
        (i,) = e1
        return key_of[i], lambda e2: e1 | e2

    def build(key):
        built.append(key)
        return top_at[key]

    got = split_union(Semantics.STB, "bottom", top_of, solver, build)
    assert got == canonical_sets([frozenset({0, 10}), frozenset({1, 10})])
    assert solved == ["bottom", "T", "U"]
    assert built == [1, 2, 3, 4]

    # without ``build`` each key is its own top
    solved.clear()
    key_of.update({i: top_at[key] for i, key in key_of.items()})
    assert split_union(Semantics.STB, "bottom", top_of, solver) == got
    assert solved == ["bottom", "T", "U"]
