"""Exception types shared across the package."""

from __future__ import annotations


class SplitkitError(Exception):
    """Base class for all library errors."""


class ValidationError(SplitkitError):
    """A framework (or framework-level input) violates a structural invariant."""


class UnsupportedSemantics(ValidationError, ValueError):
    """A solver was asked for a semantics it does not cover."""


class InvalidGuard(ValidationError, ValueError):
    """The enumeration guard is not a nonnegative integer."""


class InvalidBalance(ValidationError, ValueError):
    """A balance target or window is not a finite number in its range."""


class ParseError(SplitkitError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NonFlatError(ValidationError):
    """Operation requires a flat framework (no assumption heads a rule)."""


class GuardExceeded(SplitkitError):
    """Brute-force enumeration refused: instance exceeds the subset guard."""

    def __init__(self, size: int, guard: int):
        super().__init__(
            f"instance has {size} assumptions/arguments, exceeding the "
            f"enumeration guard of {guard}; raise the guard or use a split solver"
        )
        self.size = size
        self.guard = guard


class InvalidSplit(SplitkitError):
    """A1 does not induce a splitting: some attack enters A1 from outside."""

    def __init__(self, attack, names):
        tail, head = attack
        tail = ", ".join(names[t] for t in sorted(tail))
        super().__init__(f"attack ([{tail}], {names[head]}) enters the bottom part")
        self.attack = attack


class NotAtomClosed(ValidationError):
    """A sentence set is not closed under assumption/contrary pairing."""

    def __init__(self, witness):
        super().__init__(f"set is not atom-closed, missing partner of atom {witness}")
        self.witness = witness


class HeadInBodyOut(ValidationError):
    """A rule has its head inside a candidate splitting set but body atoms outside."""

    def __init__(self, rule, names):
        body = ", ".join(names[b] for b in sorted(rule.body))
        super().__init__(f"rule {names[rule.head]} <- {body} has body atoms outside the set")
        self.rule = rule


class NonAssumptionBodyOut(ValidationError):
    """Quasi-splitting violation: a non-assumption body atom escapes the set."""

    def __init__(self, rule, names):
        body = ", ".join(names[b] for b in sorted(rule.body))
        super().__init__(
            f"rule {names[rule.head]} <- {body} has non-assumption body atoms outside the set"
        )
        self.rule = rule


class DegenerateSplit(SplitkitError):
    """Only the trivial splittings (empty set / all atoms) exist."""
