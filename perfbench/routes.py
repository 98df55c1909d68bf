"""One benchmark operation: text in, formatted extensions out.

An operation does what ``splitkit solve`` does after argument parsing:
parse the instance text, find a splitting if the route needs one, solve,
and format the extensions.  Each operation parses its own text, so no
``_cache`` on a framework or splitting object outlives it.

Every program function is looked up through its module at call time, so the
tracer can rebind it there.
"""

from __future__ import annotations

from splitkit import finder, instantiate, io, setaf, split_aba, split_setaf
from splitkit.errors import DegenerateSplit
from splitkit.semantics import Semantics


def _recursive(sf, sem):
    """SETAF sub-solver that keeps splitting until no nontrivial cut is left."""
    try:
        a1 = finder.find_setaf_splitting(sf)
    except DegenerateSplit:
        return setaf.enumerate_extensions(sf, sem)
    return split_setaf.split_solve(sf, a1, sem, sub_solver=_recursive)


def _split_set(find, fw) -> frozenset[int]:
    try:
        return find(fw)
    except DegenerateSplit:
        return frozenset()  # as the CLI does: the bottom is empty


def run_op(kind: str, text: str, sem: Semantics, route: str) -> str:
    """Solve one instance text on one route; returns the emitted extensions."""
    if kind == "aba":
        fw = io.parse_aba(text)
    else:
        fw = io.parse_setaf(text)
    names = fw.names
    if route == "split":
        if kind == "aba":
            s = _split_set(finder.find_balanced_splitting, fw)
            exts = split_aba.split_solve(fw, s, sem)
        else:
            s = _split_set(finder.find_setaf_splitting, fw)
            exts = split_setaf.split_solve(fw, s, sem)
    elif route == "param":
        s = _split_set(lambda f: finder.find_quasi_splitting(f).s, fw)
        exts = split_aba.param_split_solve(fw, s)
    elif route == "setaf-rec":
        sf = instantiate.aba_to_setaf(fw)
        names = sf.names
        a1 = _split_set(finder.find_setaf_splitting, sf)
        exts = split_setaf.split_solve(sf, a1, sem, sub_solver=_recursive)
    else:
        raise ValueError(f"unknown route {route!r}")
    return io.format_extensions(exts, names)
