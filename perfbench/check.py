"""Answer checking, made apart from the program wherever it can be.

The definitional checker reads the instance text with its own parser and
computes extensions from the definitions with its own forward-chaining
closure:

* stable: every assumption set S, for instances of at most
  ``STABLE_LIMIT`` assumptions, with S conflict-free (no contrary of a
  member derivable from S) and attacking every assumption outside it;
* grounded: the least fixpoint of the defence function, for every size.
  In a flat framework an assumption a is defended by S exactly when the
  assumptions S does not attack cannot derive the contrary of a, since
  derivability is monotone; so the fixpoint needs no subset sweep.

A SETAF is read as the flat framework with one contrary per argument and
one rule per attack.

Reference families come from the program's own oracle (direct enumeration)
or, past the guard, from the split solver on a splitting set the generator
knows.  Each is checked against the definitional checker and against the
properties every answer must have, and is then cached under
``.perfbench/`` by the digest of the instance before renaming, so later runs
in the same checkout skip the expensive part.  Answers are compared as
families of atom-id sets, which renaming does not change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from splitkit import aba, io, setaf, split_aba
from splitkit.semantics import Semantics

import workloads

STABLE_LIMIT = 16
CF_LIMIT = 8  # conflict-free families stay small enough to cache up to here
CACHE_DIR = Path(".perfbench")

Family = frozenset  # of frozensets of 1-based atom ids, as in the text


# -- the definitional checker -------------------------------------------------


class Framework:
    """Assumptions, contrary atoms and rules, read straight from the text."""

    def __init__(self, text: str):
        self.assumptions: list[int] = []
        self.contrary: dict[int, int] = {}
        self.rules: list[tuple[int, frozenset[int]]] = []
        names: dict[int, str] = {}
        kind, n = None, 0
        for raw in text.splitlines():
            parts = raw.split()
            if not parts:
                continue
            if parts[0] == "p":
                kind, n = parts[1], int(parts[2])
            elif parts[:2] == ["#", "name"]:
                names[int(parts[2])] = " ".join(parts[3:])
            elif parts[0] == "a":
                self.assumptions.append(int(parts[1]))
            elif parts[0] == "c":
                self.contrary[int(parts[1])] = int(parts[2])
            elif parts[0] == "r":
                self.rules.append((int(parts[1]), frozenset(map(int, parts[2:]))))
            elif parts[0] == "e":  # attack on argument h: contrary of h derived from the tail
                h = int(parts[1])
                self.rules.append((n + h, frozenset(map(int, parts[2:]))))
        if kind == "setaf":
            self.assumptions = list(range(1, n + 1))
            self.contrary = {a: n + a for a in self.assumptions}
        self.ids = {names.get(a, str(a)): a for a in self.assumptions}

    def closure(self, s: frozenset[int]) -> set[int]:
        derived = set(s)
        changed = True
        while changed:
            changed = False
            for head, body in self.rules:
                if head not in derived and body <= derived:
                    derived.add(head)
                    changed = True
        return derived

    def attacked(self, s: frozenset[int]) -> frozenset[int]:
        th = self.closure(s)
        return frozenset(a for a in self.assumptions if self.contrary[a] in th)

    def stable(self) -> Family:
        out = set()
        n = len(self.assumptions)
        for mask in range(1 << n):
            s = frozenset(a for i, a in enumerate(self.assumptions) if mask >> i & 1)
            att = self.attacked(s)
            if not att & s and len(att) + len(s) == n:
                out.add(s)
        return frozenset(out)

    def grounded(self) -> Family:
        everything = frozenset(self.assumptions)
        g: frozenset[int] = frozenset()
        while True:
            free = self.closure(everything - self.attacked(g))
            nxt = frozenset(a for a in self.assumptions if self.contrary[a] not in free)
            if nxt == g:
                return frozenset({g})
            g = nxt


# -- families -------------------------------------------------------------------


def family(answer: str, ids: dict[str, int]) -> Family:
    """The extensions printed by ``io.format_extensions``, as sets of atom ids."""
    if answer == "NO\n":
        return frozenset()
    return frozenset(frozenset(ids[n] for n in line.split()[1:]) for line in answer.splitlines())


def property_errors(fams: dict[Semantics, Family]) -> list[str]:
    """Inclusions and shapes that every correct set of families has."""
    errs = []
    chain = [s for s in (Semantics.STB, Semantics.PREF, Semantics.COM, Semantics.ADM, Semantics.CF)
             if s in fams]
    for inner, outer in zip(chain, chain[1:]):
        if not fams[inner] <= fams[outer]:
            errs.append(f"{inner.value} is not contained in {outer.value}")
    if Semantics.GRD in fams:
        grd = fams[Semantics.GRD]
        if len(grd) != 1:
            errs.append(f"{len(grd)} grounded extensions")
        elif Semantics.COM in fams and not all(next(iter(grd)) <= e for e in fams[Semantics.COM]):
            errs.append("grounded is not contained in every complete extension")
    if Semantics.PREF in fams:
        prf = fams[Semantics.PREF]
        if any(a < b for a in prf for b in prf):
            errs.append("two preferred extensions are comparable")
    return errs


def _reference(inst: workloads.Instance, sems, ids) -> dict[Semantics, Family]:
    """The program's own answers for ``inst``, by the route chosen for it."""
    if inst.kind == "aba":
        fw = io.parse_aba(inst.text)
    else:
        fw = io.parse_setaf(inst.text)
    out = {}
    for sem in sems:
        if inst.cut is None:
            module = aba if inst.kind == "aba" else setaf
            exts = module.enumerate_extensions(fw, sem)
        else:
            exts = split_aba.split_solve(fw, inst.cut, sem)
        out[sem] = family(io.format_extensions(exts, fw.names), ids)
    return out


def checked_reference(inst: workloads.Instance, sems) -> tuple[dict[Semantics, Family], list[str]]:
    """Reference families plus every disagreement with the checker and the properties."""
    fw = Framework(inst.text)
    fams = _reference(inst, sems, fw.ids)
    errs = property_errors(fams)
    if Semantics.GRD in fams and fams[Semantics.GRD] != fw.grounded():
        errs.append("grounded differs from the definitional fixpoint")
    if Semantics.STB in fams and len(fw.assumptions) <= STABLE_LIMIT:
        if fams[Semantics.STB] != fw.stable():
            errs.append("stable differs from the definitional subset sweep")
    return fams, errs


class References:
    """Checked reference families of one workload, cached on disk."""

    def __init__(self, workload: str):
        self.path = CACHE_DIR / f"refs-{workload}.json"
        self.data: dict = {}
        if self.path.is_file():
            self.data = json.loads(self.path.read_text())
        self.dirty = False

    def get(self, inst: workloads.Instance, sems) -> tuple[dict[Semantics, Family], list[str]]:
        stored = self.data.get(inst.key)
        if stored is not None and all(s.value in stored for s in sems):
            return {s: frozenset(frozenset(e) for e in stored[s.value]) for s in sems}, []
        fams, errs = checked_reference(inst, sems)
        if not errs:
            self.data[inst.key] = {s.value: sorted(sorted(e) for e in f) for s, f in fams.items()}
            self.dirty = True
        return fams, errs

    def save(self) -> None:
        if not self.dirty:
            return
        CACHE_DIR.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data))
        os.replace(tmp, self.path)


def check_answers(ops, answers: dict[int, str], refs: References) -> list[str]:
    """Every disagreement between the run's answers and the checked references."""
    sems_of: dict[str, set] = {}
    by_key: dict[str, workloads.Instance] = {}
    for op in ops:
        sems_of.setdefault(op.instance.key, set()).add(op.sem)
        by_key[op.instance.key] = op.instance
    errors = []
    fams, ids = {}, {}
    for key, inst in by_key.items():
        fw = Framework(inst.text)
        ids[key] = fw.ids
        sems = set(sems_of[key])
        if inst.cut is None:  # the oracle gives the families the property checks use
            sems |= set(workloads.SPLIT_SEMS)
            if len(fw.assumptions) <= CF_LIMIT:
                sems.add(Semantics.CF)
        fams[key], errs = refs.get(inst, sorted(sems, key=lambda s: s.value))
        errors += [f"instance {key}: {e}" for e in errs]
    refs.save()
    for i, answer in answers.items():
        op = ops[i]
        if family(answer, ids[op.instance.key]) != fams[op.instance.key][op.sem]:
            errors.append(f"op {i} ({op.route}, {op.sem.value}) on instance {op.instance.key}: "
                          "answer differs from the reference")
    return errors
