"""The linear front end against the code it replaced, and its cost on long
chains counted, not timed.

``io.parse_aba`` and ``io.parse_setaf`` read a text in one pass;
``reference`` keeps the parser before it.  Both must give the same
framework and warnings, or the same error type, message and line, on
emitted frameworks and on token-level mutations of their texts.
``aba.theory_closure`` counts missing body atoms; it must equal the
rescanning closure of ``reference`` and read each rule's body once.  The
quasi finder must not grow a ball while a set with k = 0 fits the window.
"""

import random
import warnings

import pytest

from helpers import assumption_contrary_abaf, cyclic_abaf, head_first_chains, perfbench_module
import reference
from splitkit import finder, io
from splitkit.aba import Abaf, Rule, theory_closure
from splitkit.errors import SplitkitError
from splitkit.generate import random_abaf, random_setaf
from splitkit.split_aba import derivable_atoms

# tokens a mutation may put in: ids in and out of range, ids that int()
# reads but no default name spells, directives, comments and names
ODD_TOKENS = ["0", "1", "2", "3", "9", "03", "+3", "-1", "1_0", "٣", " ", "x", "p", "a", "c", "r",
              "e", "#", "#x", "name", "aba", "setaf", "p aba 3", "p setaf 2", "# name 1 x", "# name 2"]


def outcome(parse, text):
    """The parsed framework and its warnings, or the error's type, message and line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fw = parse(text)
        except SplitkitError as err:
            return type(err), str(err), getattr(err, "line_no", None)
    return fw, [str(w.message) for w in caught]


def mutated(text: str, rng: random.Random) -> str:
    """``text`` with one to three lines or tokens replaced, dropped, doubled or inserted."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(lines) + 1)
        move = rng.randrange(6)
        if move == 0 or not lines:
            ids = rng.choices(ODD_TOKENS[:12], k=rng.randint(0, 3))
            lines.insert(at, rng.choice(ODD_TOKENS) + " " + " ".join(ids))
            continue
        at = min(at, len(lines) - 1)
        tokens = lines[at].split(" ")
        if move == 1:
            del lines[at]
        elif move == 2:
            lines.insert(at, lines[at])
        elif move == 3:
            tokens[rng.randrange(len(tokens))] = rng.choice(ODD_TOKENS)
        elif move == 4:
            del tokens[rng.randrange(len(tokens))]
        else:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(ODD_TOKENS))
        if move >= 3:
            lines[at] = " ".join(tokens)
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n", "\r\n"])


def named(fw, rng: random.Random):
    """``fw`` with some display names changed, so its text has ``# name`` lines."""
    names = [f"n{rng.randrange(1000)}" if rng.random() < 0.4 else name for name in fw.names]
    names = [name if names.count(name) == 1 else fw.names[i] for i, name in enumerate(names)]
    if isinstance(fw, Abaf):
        return Abaf(tuple(names), fw.rules, fw.assumptions, fw.contrary)
    return type(fw)(tuple(names), fw.attacks)


def assert_same_parses(frameworks, emit, new, old, seed):
    rng = random.Random(seed)
    compared = errors = 0
    for fw in frameworks:
        text = emit(named(fw, rng))
        for i in range(12):
            case = text if i == 0 else mutated(text, rng)
            got = outcome(new, case)
            assert got == outcome(old, case), case
            compared += 1
            errors += isinstance(got[0], type)
    return compared, errors


def test_parse_aba_matches_the_reference():
    frameworks = [random_abaf(seed, max_assumptions=1 + seed % 6, max_rules=seed % 10, max_body=1 + seed % 3)
                  for seed in range(250)]
    frameworks += [cyclic_abaf(seed) for seed in range(100)]
    frameworks += [assumption_contrary_abaf(seed) for seed in range(50)]
    compared, errors = assert_same_parses(frameworks, io.emit_aba, io.parse_aba, reference.parse_aba, 0)
    assert compared == 12 * 400 and 1500 < errors < compared - 1000


def test_parse_setaf_matches_the_reference():
    frameworks = [random_setaf(seed, max_args=1 + seed % 9, max_attacks=seed % 12, max_tail=1 + seed % 3)
                  for seed in range(300)]
    compared, errors = assert_same_parses(frameworks, io.emit_setaf, io.parse_setaf, reference.parse_setaf, 1)
    assert compared == 12 * 300 and 1000 < errors < compared - 1000


@pytest.mark.parametrize("text", [
    "", "\n\n", "# c\n", "# name 1 x\np aba 1\n", "p aba 1\np aba 1\n", "p aba 2\nr 3\np aba 2\n",
    "p aba 2\nr 3\n# name 1\n", "p aba 2\nx 1\n# name 1 2\n", "p aba 2\na 1\nc 1 2\nc 1 x\n",
    "p aba 3\n# name 1 b\n# name 2 b\nr 9\n", "p aba 3\nr 03 +3 1_0\n", "p aba 2\n#r 1\n#\nr 1 2\n",
    "p setaf 2\ne 1\ne 1 3\n", "p setaf 2\ne 02 1\n# name 2 a b\n", "p setaf 1\nr 1 1\np aba 1\n",
])
def test_parsers_keep_the_reference_error_precedence(text):
    """Header and ``# name`` errors beat directive errors on earlier lines,
    a name clash beats them too, and ids that no default name spells parse."""
    assert outcome(io.parse_aba, text) == outcome(reference.parse_aba, text)
    assert outcome(io.parse_setaf, text) == outcome(reference.parse_setaf, text)


def test_theory_closure_matches_the_reference():
    rng = random.Random(2)
    frameworks = [random_abaf(seed, max_assumptions=1 + seed % 7, max_rules=seed % 14, max_body=1 + seed % 4)
                  for seed in range(300)]
    frameworks += [cyclic_abaf(seed) for seed in range(300)]
    frameworks += [assumption_contrary_abaf(seed) for seed in range(200)]
    frameworks += [head_first_chains(length) for length in range(1, 30)]
    compared = 0
    for d in frameworks:
        order = sorted(d.assumptions)
        for _ in range(12):
            s = frozenset(a for a in order if rng.random() < 0.5)
            assert theory_closure(d, s) == reference.theory_closure(d, s)
            rules = [r for r in d.rules if rng.random() < 0.7]
            rng.shuffle(rules)
            assert theory_closure(d, s, rules) == reference.theory_closure(d, s, rules)
            compared += 2
    assert compared > 19000


class CountingRule(Rule):
    """A rule that counts the reads of its ``body``."""

    reads = 0

    def __getattribute__(self, name):
        if name == "body":
            CountingRule.reads += 1
        return super().__getattribute__(name)


def test_theory_closure_reads_each_body_once_on_a_head_first_chain():
    """Rules listed head first made the rescanning closure derive one link
    of each chain per pass over all rules: about 2 000 passes over 4 000."""
    d = head_first_chains(2000)
    counted = Abaf(d.names, tuple(CountingRule(r.head, r.body) for r in d.rules), d.assumptions, d.contrary)
    size = sum(len(r.body) + 1 for r in d.rules)
    CountingRule.reads = 0
    closure = theory_closure(counted, counted.assumptions)
    assert CountingRule.reads <= 2 * size
    assert closure == frozenset(range(d.n_atoms)) - {d.atom_id("c_a")}  # every link derives
    assert closure == reference.theory_closure(d, d.assumptions)


def no_balls(*args):
    raise AssertionError("a ball was grown although a set with k = 0 fits the window")


def test_quasi_finder_grows_no_ball_when_a_k0_set_fits(monkeypatch):
    """On a 2 000-link head-first chain and on every ``sweep`` param instance
    whose pool holds a set with k = 0 in the default window, the finder
    builds no ball; the instances where none fits still pick as before."""
    workloads = perfbench_module("workloads")
    instances = [io.parse_aba(op.instance.text) for seed in (0, 1) for op in workloads.sweep(seed)
                 if op.route == "param"]
    lo, hi = finder.QUASI_WINDOW
    fitting = []
    for d in instances:
        con = finder.pair_contracted(d)
        if len(con.groups) <= 1:
            continue
        pool = finder._quasi_flow(d, con, derivable_atoms(d), lo, hi)
        if any(k == 0 and lo * d.n_atoms <= s.bit_count() <= hi * d.n_atoms for k, s in pool):
            fitting.append((d, finder.find_quasi_splitting(d)))
    assert 400 < len(fitting) < len(instances)
    chain = head_first_chains(2000)
    monkeypatch.setattr(finder, "balls", no_balls)
    for d, picked in fitting:
        q = finder.find_quasi_splitting(d)
        assert (q.s, q.k) == (picked.s, picked.k)
    q = finder.find_quasi_splitting(chain)
    assert q.k == 0 and lo * chain.n_atoms <= len(q.s) <= hi * chain.n_atoms
