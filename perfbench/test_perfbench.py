"""Tests of the benchmark's own checker, tracer and workloads.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import pytest  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import routes  # noqa: E402
import workloads  # noqa: E402
from helpers import abaf7, abaf_chain3, abaf_vuln, setaf7  # noqa: E402
from splitkit import aba, finder, graphs, io, setaf, split_aba  # noqa: E402
from splitkit.errors import GuardExceeded  # noqa: E402
from splitkit.semantics import Semantics  # noqa: E402

EXAMPLES = [
    ("aba", io.emit_aba(abaf7())),
    ("aba", io.emit_aba(abaf_vuln())),
    ("aba", io.emit_aba(abaf_chain3())),
    ("setaf", io.emit_setaf(setaf7())),
]


def oracle(kind, text, sem):
    fw = io.parse_aba(text) if kind == "aba" else io.parse_setaf(text)
    module = aba if kind == "aba" else setaf
    answer = io.format_extensions(module.enumerate_extensions(fw, sem), fw.names)
    return check.family(answer, check.Framework(text).ids)


@pytest.mark.parametrize("kind,text", EXAMPLES)
def test_checker_agrees_with_the_oracle_on_the_worked_examples(kind, text):
    fw = check.Framework(text)
    assert fw.stable() == oracle(kind, text, Semantics.STB)
    assert fw.grounded() == oracle(kind, text, Semantics.GRD)


@pytest.mark.parametrize("kind,text", EXAMPLES)
def test_reference_families_pass_the_property_checks(kind, text):
    inst = workloads.Instance("example", kind, text)
    _, errs = check.checked_reference(inst, list(Semantics))
    assert errs == []


# the first worked example with a stable extension
PLANTED = next(ex for ex in EXAMPLES if check.Framework(ex[1]).stable())


def planted(text, change):
    """The stable family of ``text`` with one extension dropped or one added."""
    stable = set(check.Framework(text).stable())
    if change == "drop":
        stable.pop()
    else:
        everything = frozenset(check.Framework(text).ids.values())
        stable.add(next(s for s in (frozenset(), everything) if s not in stable))
    return frozenset(stable)


@pytest.mark.parametrize("change", ["drop", "add"])
def test_checker_rejects_a_planted_wrong_reference(monkeypatch, change):
    kind, text = PLANTED
    wrong = planted(text, change)
    monkeypatch.setattr(check, "_reference", lambda inst, sems, ids: {Semantics.STB: wrong})
    _, errs = check.checked_reference(workloads.Instance("example", kind, text), [Semantics.STB])
    assert errs == ["stable differs from the definitional subset sweep"]


@pytest.mark.parametrize("change", ["drop", "add"])
def test_a_planted_wrong_answer_is_reported(monkeypatch, tmp_path, change):
    monkeypatch.setattr(check, "CACHE_DIR", tmp_path)
    kind, text = PLANTED
    fw = io.parse_aba(text)
    names = {i: n for n, i in check.Framework(text).ids.items()}
    answer = io.format_extensions([frozenset(fw.atom_id(names[i]) for i in e)
                                   for e in planted(text, change)], fw.names)
    op = workloads.Op(workloads.Instance("example", kind, text), Semantics.STB, "split")
    right = routes.run_op(kind, text, Semantics.STB, "split")
    refs = check.References("test")
    assert check.check_answers([op], {0: right}, refs) == []
    errs = check.check_answers([op], {0: answer}, refs)
    assert len(errs) == 1 and "differs from the reference" in errs[0]


def run_pass(tracer, ops):
    before = dict(tracer.totals)
    for op in ops:
        tracer.begin_op()
        routes.run_op(op.instance.kind, op.instance.text, op.sem, op.route)
        tracer.end_op()
    return {k: tracer.totals[k] - before.get(k, 0) for k in ("semantics.subsets", "aba.support_sets")}


def test_no_cache_carries_work_from_one_operation_to_the_next(monkeypatch):
    ops = workloads.sweep(0)[::13] + workloads.layered(0)[:12]
    tracer = layers.Tracer()
    tracer.install(monkeypatch.setattr)
    first = run_pass(tracer, ops)
    assert first["semantics.subsets"] > 0 and first["aba.support_sets"] > 0
    assert run_pass(tracer, ops) == first


def test_the_failing_beyond_operations_hit_the_ideal_truncation():
    stuck = next(op for op in workloads.beyond(0) if op.expect_fail)
    d = io.parse_aba(stuck.instance.text)
    cond = graphs.condense(finder.dependency_graph(d))
    assert len(graphs.order_ideals(cond, finder.IDEAL_LIMIT)) == finder.IDEAL_LIMIT
    with pytest.raises(GuardExceeded):
        routes.run_op("aba", stuck.instance.text, Semantics.GRD, "split")
    # the two lower blocks form a valid 16/16 cut that the finder never saw
    assert len(split_aba.make_splitting(d, stuck.instance.cut).a1) == 16
    assert split_aba.split_solve(d, stuck.instance.cut, Semantics.STB)


def test_seeds_rename_but_keep_the_structure():
    a, b = workloads.layered(1), workloads.layered(2)
    assert [op.instance.key for op in a] == [op.instance.key for op in b]
    assert a[0].instance.text != b[0].instance.text
    assert workloads.layered(1)[0].instance.text == a[0].instance.text
    assert workloads.sweep(1)[0].instance.key != workloads.sweep(2)[0].instance.key
