"""Shared fixtures-as-functions and name-based comparison helpers."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from splitkit.aba import Abaf, Rule
from splitkit.errors import NonAssumptionBodyOut, NotAtomClosed
from splitkit.finder import dependency_graph, pair_contracted
from splitkit.generate import random_abaf
from splitkit.graphs import condense
from splitkit.setaf import Setaf
from splitkit.split_aba import make_quasi_splitting


def abaf7() -> Abaf:
    """Seven assumptions, one intermediate sentence, two collective attacks."""
    return Abaf.from_names(
        assumptions={
            "a": "a_c", "b": "b_c", "v": "v_c", "w": "w_c",
            "x": "x_c", "y": "y_c", "z": "z_c",
        },
        rules=[
            ("b_c", ["b"]),
            ("p", ["a"]),
            ("v_c", ["a"]),
            ("x_c", ["w", "p"]),
            ("y_c", ["x"]),
            ("y_c", ["b_c", "z"]),
        ],
    )


def setaf7() -> Setaf:
    """The attack graph matching abaf7, built directly (not via instantiation)."""
    return Setaf.from_names(
        ["a", "b", "v", "w", "x", "y", "z"],
        [
            (["b"], "b"),
            (["a"], "v"),
            (["a", "w"], "x"),
            (["x"], "y"),
            (["b", "z"], "y"),
        ],
    )


def abaf_vuln() -> Abaf:
    """Four assumptions; splitting off {a, d, p} leaves b as a vulnerability."""
    return Abaf.from_names(
        assumptions={"a": "a_c", "b": "b_c", "c": "c_c", "d": "d_c"},
        rules=[
            ("b_c", ["a"]),
            ("d_c", ["b"]),
            ("a_c", ["p", "c"]),
            ("p", ["b"]),
        ],
    )


def abaf_chain3() -> Abaf:
    """Three assumptions, a self-attacker, and a chain through three sentences."""
    return Abaf.from_names(
        assumptions={"a": "a_c", "b": "b_c", "c": "c_c"},
        rules=[
            ("c_c", ["s", "q"]),
            ("s", ["b"]),
            ("q", ["p"]),
            ("p", ["a"]),
            ("a_c", ["a"]),
        ],
    )


def cyclic_abaf(seed: int) -> Abaf:
    """Rules with any head (assumptions too, so often non-flat), any body
    (cycles and underivable bodies included) and contraries anywhere."""
    rng = random.Random(seed)
    n_assumptions = rng.randint(1, 5)
    n = n_assumptions + rng.randint(1, 4)
    rules = [
        Rule(rng.randrange(n), frozenset(rng.sample(range(n), rng.randint(0, min(3, n)))))
        for _ in range(rng.randint(0, 10))
    ]
    contrary = {a: rng.randrange(n) for a in range(n_assumptions)}
    return Abaf(tuple(f"x{i}" for i in range(n)), tuple(rules),
                frozenset(range(n_assumptions)), contrary)


def assumption_contrary_abaf(seed: int) -> Abaf:
    """A flat ``random_abaf`` whose contraries are redrawn: each is an
    assumption (itself possibly) half of the time, else its own ``c_`` atom."""
    rng = random.Random(seed)
    d = random_abaf(rng, max_assumptions=5, max_rules=8)
    order = sorted(d.assumptions)
    contrary = {a: rng.choice(order) if rng.random() < 0.5 else c for a, c in d.contrary.items()}
    return Abaf(d.names, d.rules, d.assumptions, contrary)


def support_ladder(k: int) -> Abaf:
    """The fact ``p0``; for i = 1..k the assumptions ``a_i`` and ``b_i``,
    which attack each other, and the rules ``p_i <- p_{i-1}, a_i`` and
    ``p_i <- p_{i-1}, b_i``; and ``x``, whose contrary is ``p_k``.  That is
    2k + 1 assumptions, 2^k minimal supports of ``p_k``, and exactly 2^k
    stable and 2^k preferred extensions: one of ``a_i``, ``b_i`` for each i,
    never ``x``."""
    assumptions = {"x": f"p{k}"}
    rules = [("p0", [])]
    for i in range(1, k + 1):
        assumptions |= {f"a{i}": f"ca{i}", f"b{i}": f"cb{i}"}
        rules += [(f"ca{i}", [f"b{i}"]), (f"cb{i}", [f"a{i}"]),
                  (f"p{i}", [f"p{i - 1}", f"a{i}"]), (f"p{i}", [f"p{i - 1}", f"b{i}"])]
    return Abaf.from_names(assumptions, rules)


def head_first_chains(length: int) -> Abaf:
    """``a`` attacks ``b`` and ``b`` attacks ``c`` through chains of
    ``length`` sentences, each chain's rules listed from its head down, so
    that a closure pass derives one more link of each."""
    rules = []
    for src, dst in (("a", "b"), ("b", "c")):
        links = [src] + [f"{src}{i}" for i in range(1, length)] + [f"c_{dst}"]
        rules += [(links[i + 1], [links[i]]) for i in reversed(range(length))]
    return Abaf.from_names({"a": "c_a", "b": "c_b", "c": "c_c"}, rules)


def quasi_splittings(d: Abaf, max_k: int):
    """Every quasi-splitting of ``d`` by a union of contracted groups, k <= max_k."""
    con = pair_contracted(d)
    m = len(con.groups)
    for mask in range(1 << m):
        atoms = frozenset().union(*(con.groups[i] for i in range(m) if mask >> i & 1))
        try:
            q = make_quasi_splitting(d, atoms)
        except (NonAssumptionBodyOut, NotAtomClosed):
            continue
        if q.k <= max_k:
            yield q


def topo_prefixes(d: Abaf) -> list[frozenset[int]]:
    """The splitting sets on one prefix chain of the dependency condensation,
    that of its topological order, the empty set first: a sample of at most
    n + 1 of the up to 2^n splitting sets."""
    cond = condense(dependency_graph(d))
    chain = [frozenset()]
    for v in cond.topo_order:
        chain.append(chain[-1] | cond.sccs[v])
    return chain


def ids(fw, *names) -> frozenset[int]:
    lookup = fw.atom_id if hasattr(fw, "atom_id") else fw.arg_id
    return frozenset(lookup(n) for n in names)


def nm(fw, atom_set) -> frozenset[str]:
    return frozenset(fw.names[a] for a in atom_set)


def fam(fw, extensions) -> frozenset[frozenset[str]]:
    return frozenset(nm(fw, e) for e in extensions)


def rules_nm(abaf) -> frozenset[tuple[str, frozenset[str]]]:
    return abaf.rules_by_name()


def attacks_nm(sf) -> frozenset[tuple[frozenset[str], str]]:
    return sf.attacks_by_name()


def support_sets(table) -> dict[int, tuple[frozenset[int], ...]]:
    """A support table of masks (bit a is assumption a) as atom-id sets, in
    the table's order."""
    return {
        atom: tuple(frozenset(a for a in range(m.bit_length()) if m >> a & 1) for m in masks)
        for atom, masks in table.items()
    }


def _repo_module(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parent.parent / path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def perfbench_module(name: str):
    """The module ``perfbench/<name>.py``, loaded afresh."""
    return _repo_module(name, f"perfbench/{name}.py")


def perfbench_stack():
    """``stack(gen, blocks, block)`` of ``perfbench/workloads.py``: stacked blocks."""
    return perfbench_module("workloads").stack
