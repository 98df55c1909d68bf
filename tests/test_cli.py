import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers import abaf7, abaf_chain3, attacks_nm, ids, setaf7
from splitkit.aba import Abaf
from splitkit.cli import main
from splitkit.errors import ParseError, ValidationError
from splitkit.finder import find_quasi_splitting
from splitkit.generate import random_abaf, random_setaf
from splitkit.io import (
    emit_aba,
    emit_setaf,
    format_extensions,
    parse_aba,
    parse_setaf,
)
from splitkit.split_aba import make_quasi_splitting


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_round_trip_aba():
    for fw in (abaf7(), abaf_chain3(), *(random_abaf(s) for s in range(10))):
        assert parse_aba(emit_aba(fw)) == fw


def test_round_trip_setaf():
    for fw in (setaf7(), *(random_setaf(s) for s in range(10))):
        assert parse_setaf(emit_setaf(fw)) == fw


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_aba("p aba 2\nbogus 1\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_aba("a 1\n")  # header missing
    with pytest.raises(ParseError):
        parse_setaf("p setaf 2\ne 1\n")  # empty tail


def test_parse_rejects_unknown_ids_and_missing_contrary():
    with pytest.raises(ParseError):
        parse_aba("p aba 1\nr 2\n")
    with pytest.raises(ValidationError):
        parse_aba("p aba 2\na 1\n")  # assumption without contrary
    with pytest.raises(ValidationError):
        parse_aba("p aba 2\nc 1 2\n")  # contrary for non-assumption


def test_dummy_rules_stripped_with_warning():
    text = "p aba 3\na 1\nc 1 2\nr 3 2\n"  # body atom 2 never derivable
    with pytest.warns(UserWarning):
        fw = parse_aba(text)
    assert not fw.rules
    with pytest.raises(ValidationError):
        parse_aba(text, strict_dummy=True)


def test_empty_frameworks():
    assert parse_aba("p aba 0\n").n_atoms == 0
    assert parse_setaf("p setaf 3\n").n_args == 3


def test_format_extensions_no_and_empty():
    fw = abaf7()
    assert format_extensions([], fw.names) == "NO\n"
    assert format_extensions([frozenset()], fw.names) == "E\n"


def test_solve_direct(tmp_path, capsys):
    path = write(tmp_path, "d.aba", emit_aba(abaf7()))
    assert main(["solve", path, "--semantics", "prf"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["E a w z"]
    assert main(["solve", path, "--semantics", "stb"]) == 0
    assert capsys.readouterr().out == "NO\n"


def test_solve_setaf_and_split_modes(tmp_path, capsys):
    path = write(tmp_path, "sf.setaf", emit_setaf(setaf7()))
    for mode in ("direct", "split"):
        assert main(["solve", path, "--format", "setaf", "--semantics", "prf",
                     "--mode", mode]) == 0
        assert capsys.readouterr().out.splitlines() == ["E a w z"]


def test_split_solve_with_explicit_set(tmp_path, capsys):
    d = abaf7()
    path = write(tmp_path, "d.aba", emit_aba(d))
    atoms = [d.atom_id(n) + 1 for n in ("a", "b", "a_c", "b_c", "p")]
    split = write(tmp_path, "s.txt", "\n".join(map(str, atoms)) + "\n")
    assert main(["solve", path, "--semantics", "prf", "--mode", "split",
                 "--split-set", split]) == 0
    assert capsys.readouterr().out.splitlines() == ["E a w z"]


def test_param_split_command(tmp_path, capsys):
    from helpers import abaf_vuln

    path = write(tmp_path, "q.aba", emit_aba(abaf_vuln()))
    assert main(["solve", path, "--semantics", "stb", "--mode", "param"]) == 0
    assert capsys.readouterr().out.splitlines() == ["E a c d", "E b c"]


def test_param_split_with_an_assumption_contrary(tmp_path, capsys):
    # contrary(a) = b is an assumption: a is a vulnerability of {p, d}, not
    # safe, although no rule heads b
    d = Abaf.from_names(
        assumptions={"a": "b", "b": "c", "d": "p"}, rules=[("p", ["a"])],
    )
    path = write(tmp_path, "q.aba", emit_aba(d))
    atoms = [d.atom_id(n) + 1 for n in ("p", "d")]
    split = write(tmp_path, "s.txt", "\n".join(map(str, atoms)) + "\n")
    assert main(["solve", path, "--semantics", "stb"]) == 0
    assert capsys.readouterr().out.splitlines() == ["E b d"]
    assert main(["solve", path, "--semantics", "stb", "--mode", "param",
                 "--split-set", split]) == 0
    assert capsys.readouterr().out.splitlines() == ["E b d"]
    assert make_quasi_splitting(d, ids(d, "p", "d")).k == 1


def test_find_split_pipes_into_split_solve(tmp_path, capsys):
    path = write(tmp_path, "d.aba", emit_aba(abaf7()))
    assert main(["find-split", path]) == 0
    found = capsys.readouterr().out
    split = write(tmp_path, "s.txt", found)
    assert main(["solve", path, "--semantics", "grd", "--mode", "split",
                 "--split-set", split]) == 0
    via_split = capsys.readouterr().out
    assert main(["solve", path, "--semantics", "grd"]) == 0
    assert via_split == capsys.readouterr().out


def test_find_split_quasi_and_dot(tmp_path, capsys):
    from helpers import abaf_vuln

    path = write(tmp_path, "q.aba", emit_aba(abaf_vuln()))
    dot = tmp_path / "dep.dot"
    assert main(["find-split", path, "--quasi", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# k ")
    assert dot.read_text().startswith("digraph")


def test_find_split_quasi_prints_the_set_that_param_solves_with(tmp_path, capsys):
    # a window of [0.3, 0.7] picks k = 1 with 4 of the 8 atoms here; the
    # finder's default window picks k = 0 with 6
    d = random_abaf(9014, max_assumptions=6, max_rules=9, max_body=3)
    path = write(tmp_path, "q.aba", emit_aba(d))
    assert main(["find-split", path, "--quasi"]) == 0
    atoms = [str(a + 1) for a in sorted(find_quasi_splitting(d).s)]
    assert capsys.readouterr().out.splitlines() == ["# k 0", *atoms]


def test_instantiate_chain3(tmp_path, capsys):
    path = write(tmp_path, "d6.aba", emit_aba(abaf_chain3()))
    assert main(["instantiate", path]) == 0
    sf = parse_setaf(capsys.readouterr().out)
    assert attacks_nm(sf) == {
        (frozenset({"a"}), "a"),
        (frozenset({"a", "b"}), "c"),
    }


def test_instantiate_reverse(tmp_path, capsys):
    path = write(tmp_path, "sf.setaf", emit_setaf(setaf7()))
    assert main(["instantiate", path, "--format", "setaf"]) == 0
    fw = parse_aba(capsys.readouterr().out)
    assert len(fw.rules) == 5 and fw.flat


def test_gen_is_deterministic(capsys):
    assert main(["gen", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "--seed", "8"]) == 0
    assert capsys.readouterr().out != first


def test_gen_output_parses_and_validates(capsys):
    for seed in range(5):
        assert main(["gen", "--seed", str(seed), "--format", "aba"]) == 0
        parse_aba(capsys.readouterr().out)
        assert main(["gen", "--seed", str(seed), "--format", "setaf"]) == 0
        parse_setaf(capsys.readouterr().out)


def test_check_command_agrees(capsys):
    assert main(["check", "--seed", "42", "--count", "25", "--semantics", "stb"]) == 0
    assert "0 mismatches" in capsys.readouterr().out
    assert main(["check", "--seed", "3", "--count", "10", "--semantics", "prf",
                 "--format", "setaf"]) == 0
    assert main(["check", "--seed", "5", "--count", "10", "--semantics", "stb",
                 "--mode", "param"]) == 0
    capsys.readouterr()


def test_exit_codes(tmp_path, capsys, monkeypatch):
    bad = write(tmp_path, "bad.aba", "p aba 1\nwhat\n")
    assert main(["solve", bad, "--semantics", "prf"]) == 2
    invalid = write(tmp_path, "inv.aba", "p aba 2\na 1\n")
    assert main(["solve", invalid, "--semantics", "prf"]) == 3
    for header in ("p aba x", "p aba -1"):
        assert main(["solve", write(tmp_path, "h.aba", header + "\n"), "--semantics", "prf"]) == 2
    for bare in ("name", "name 1", "name 1 a"):
        assert main(["solve", write(tmp_path, "b.aba", f"p aba 1\n{bare}\n"), "--semantics", "prf"]) == 2
    unnamed = write(tmp_path, "unnamed.setaf", "p setaf 1\n# name 1\n")
    assert main(["solve", unnamed, "--format", "setaf", "--semantics", "prf"]) == 2
    # display names must be distinct, default names included; the error names
    # the line that made the clash
    for fmt, text, line in (
        ("aba", "p aba 4\n# name 1 x\n# name 2 x\na 1\na 2\nc 1 3\nc 2 4\nr 3 2\n", 3),
        ("setaf", "p setaf 2\n# name 1 x\n# name 2 x\ne 1 2\n", 3),
        ("aba", "p aba 2\n# name 2 1\na 1\nc 1 2\n", 2),
    ):
        capsys.readouterr()
        twice = write(tmp_path, f"twice.{fmt}", text)
        assert main(["solve", twice, "--format", fmt, "--semantics", "stb"]) == 2
        assert f"line {line}:" in capsys.readouterr().err
    renamed = write(tmp_path, "renamed.aba", "p aba 2\n# name 2 1\n# name 1 a\na 1\nc 1 2\n")
    assert main(["solve", renamed, "--semantics", "stb"]) == 0  # no clash once all are read
    assert capsys.readouterr().out == "E a\n"
    assert main(["gen", "--seed", "3", "--output", str(tmp_path / "d.aba")]) == 0
    d = str(tmp_path / "d.aba")
    assert main(["solve", d, "--semantics", "cf", "--mode", "split"]) == 3
    assert main(["check", "--semantics", "cf"]) == 3
    # check shares solve's dispatch: param covers stable semantics on ABA only
    sf = write(tmp_path, "sf.setaf", emit_setaf(setaf7()))
    assert main(["solve", sf, "--format", "setaf", "--mode", "param", "--semantics", "adm"]) == 3
    assert main(["check", "--format", "setaf", "--mode", "param", "--semantics", "adm"]) == 3
    assert main(["check", "--count", "-3", "--semantics", "stb"]) == 3
    e = str(tmp_path / "e.aba")
    assert main(["gen", "--seed", "5", "--assumptions", "8", "--rules", "6", "--output", e]) == 0
    for balance in ("nan", "inf", "-3", "7"):
        assert main(["find-split", e, "--balance", balance]) == 3
    assert main(["find-split", e, "--quasi", "--balance", "nan"]) == 3
    assert main(["find-split", e, "--quasi", "--window", "-0.1"]) == 3
    monkeypatch.setenv("SPLITKIT_GUARD", "abc")
    assert main(["solve", d, "--semantics", "prf"]) == 3
    with pytest.raises(SystemExit) as err:
        main(["solve", "--no-such-flag"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:  # the finder never enumerates
        main(["find-split", e, "--guard", "1"])
    assert err.value.code == 1
    monkeypatch.delenv("SPLITKIT_GUARD")
    # a path that cannot be read or written is a usage error, on one line
    missing = str(tmp_path / "missing.aba")
    for argv in (
        ["solve", missing, "--semantics", "prf"],
        ["solve", e, "--semantics", "prf", "--mode", "split", "--split-set", missing],
        ["solve", e, "--semantics", "prf", "--output", str(tmp_path)],
        ["gen", "--output", str(tmp_path)],
    ):
        capsys.readouterr()
        assert main(argv) == 1
        err_text = capsys.readouterr().err
        assert err_text.count("\n") == 1 and "Traceback" not in err_text
    # text that is not UTF-8 is a parse error at the line that holds it
    latin = tmp_path / "latin.aba"
    latin.write_bytes(b"p aba 2\n# name 1 caf\xe9\na 1\nc 1 2\n")
    assert main(["solve", str(latin), "--semantics", "prf"]) == 2
    assert "line 2:" in capsys.readouterr().err
    assert main(["solve", str(latin), "--semantics", "prf", "--split-set", str(latin)]) == 2
    # gen sizes below their minimum are usage errors, not crashes
    for flag, low in (("--assumptions", 1), ("--rules", 0), ("--max-body", 1), ("--extra", 0),
                      ("--args", 1), ("--attacks", 0), ("--max-tail", 1)):
        fmt = "setaf" if flag in ("--args", "--attacks", "--max-tail") else "aba"
        for value in (low - 1, -3):
            with pytest.raises(SystemExit) as err:
                main(["gen", "--format", fmt, flag, str(value)])
            assert err.value.code == 1
        assert main(["gen", "--format", fmt, flag, str(low), "--seed", "1"]) == 0
    capsys.readouterr()


def test_guard_flag_and_env(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "d.aba", emit_aba(abaf7()))
    assert main(["solve", path, "--semantics", "prf", "--guard", "3"]) == 3
    monkeypatch.setenv("SPLITKIT_GUARD", "3")
    assert main(["solve", path, "--semantics", "prf"]) == 3
    monkeypatch.setenv("SPLITKIT_GUARD", "20")
    assert main(["solve", path, "--semantics", "prf"]) == 0
    for guard in ("3", "-5"):  # exceeded, malformed
        assert main(["instantiate", path, "--all-supports", "--guard", guard]) == 3
    monkeypatch.setenv("SPLITKIT_GUARD", "3")
    assert main(["instantiate", path, "--all-supports"]) == 3
    monkeypatch.delenv("SPLITKIT_GUARD")
    # a malformed guard fails although nothing enumerates
    gen = str(tmp_path / "g.aba")
    assert main(["gen", "--seed", "3", "--output", gen]) == 0
    image = str(tmp_path / "g.setaf")
    assert main(["instantiate", gen, "--output", image]) == 0
    assert main(["instantiate", gen, "--guard", "-5"]) == 3
    assert main(["instantiate", "--format", "setaf", image, "--guard", "-5"]) == 3
    monkeypatch.setenv("SPLITKIT_GUARD", "abc")
    assert main(["instantiate", gen]) == 3
    capsys.readouterr()


def test_strict_dummy_flag(tmp_path, capsys):
    path = write(tmp_path, "dummy.aba", "p aba 3\na 1\nc 1 2\nr 3 2\n")
    assert main(["solve", path, "--semantics", "prf", "--strict-dummy"]) == 3
    capsys.readouterr()


def test_gen_respects_zero_rules(capsys):
    assert main(["gen", "--seed", "2", "--rules", "0"]) == 0
    fw = parse_aba(capsys.readouterr().out)
    assert not fw.rules


def test_generated_instances_validate_clean():
    from splitkit.aba import validate

    for seed in range(60):
        report = validate(random_abaf(seed))
        assert report.flat and not report.dummy_rules


def test_output_is_byte_identical_across_runs(tmp_path, capsys):
    path = write(tmp_path, "d.aba", emit_aba(abaf7()))
    runs = []
    for _ in range(2):
        assert main(["solve", path, "--semantics", "com"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_split_set_errors_name_rules_and_attacks_by_display_names(tmp_path, capsys):
    # the file's "r 3 1 4" (internal head 2) and "e 1 2", the attack on 1 by 2
    aba = write(tmp_path, "d.aba", "p aba 4\na 1\nc 1 2\nr 3 1 4\nr 4\n")
    split = write(tmp_path, "s.txt", "3\n1\n2\n")
    for mode, what in (("split", "body atoms"), ("param", "non-assumption body atoms")):
        capsys.readouterr()
        assert main(["solve", aba, "--semantics", "stb", "--mode", mode, "--split-set", split]) == 3
        assert capsys.readouterr().err == f"error: rule 3 <- 1, 4 has {what} outside the set\n"
    sf = write(tmp_path, "sf.setaf", "p setaf 2\ne 1 2\n")
    bottom = write(tmp_path, "b.txt", "1\n")
    assert main(["solve", sf, "--format", "setaf", "--semantics", "stb", "--mode", "split",
                 "--split-set", bottom]) == 3
    assert capsys.readouterr().err == "error: attack ([2], 1) enters the bottom part\n"


# an inserted line is a directive and up to three ids, in and out of range;
# a replaced token is any of these or a header or name token
DIRECTIVES = ("a", "c", "r", "e", "#")
IDS = ("-1", "0", "1", "2", "3", "9")
TOKENS = DIRECTIVES + IDS + ("p", "aba", "setaf", "name")


@st.composite
def mutated_inputs(draw):
    """An emitted random framework with one to three lines deleted, inserted
    or changed in one token, its format and a semantics."""
    fmt = draw(st.sampled_from(("aba", "setaf")))
    seed = draw(st.integers(0, 500))
    text = emit_aba(random_abaf(seed)) if fmt == "aba" else emit_setaf(random_setaf(seed))
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("delete", "insert", "replace")))
        at = draw(st.integers(0, len(lines)))
        if kind == "insert":
            ids = draw(st.lists(st.sampled_from(IDS), max_size=3))
            lines.insert(at, [draw(st.sampled_from(DIRECTIVES)), *ids])
        elif at < len(lines) and kind == "delete":
            del lines[at]
        elif at < len(lines) and lines[at]:
            lines[at][draw(st.integers(0, len(lines[at]) - 1))] = draw(st.sampled_from(TOKENS))
    text = "".join(" ".join(line) + "\n" for line in lines)
    return fmt, text, draw(st.sampled_from(("cf", "adm", "com", "grd", "prf", "stb")))


def run_cli(argv) -> tuple[int, str]:
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # stripped dummy rules
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(mutated_inputs())
def test_mutated_inputs_exit_cleanly_and_split_answers_as_direct(case):
    """Every mode ends in an answer (0), a parse error (2) or a validation
    error (3); split and param exit as direct does, except that split
    refuses cf, and print what direct prints when they answer."""
    fmt, text, sem = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"in.{fmt}"
        path.write_text(text, encoding="utf-8")
        argv = ["solve", str(path), "--format", fmt, "--semantics", sem]
        direct, want = run_cli(argv + ["--mode", "direct"])
        assert direct in (0, 2, 3)
        modes = ("split", "param") if fmt == "aba" and sem == "stb" else ("split",)
        for mode in modes:
            code, out = run_cli(argv + ["--mode", mode])
            assert code == (3 if sem == "cf" and direct != 2 else direct), (mode, text)
            if code == 0:
                assert out == want, (mode, text)
