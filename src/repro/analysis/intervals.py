"""Abstract numeric domains for the resource-bound certifier.

Two domains, both deliberately small:

* :class:`Interval` — the classic interval domain over the integers
  (endpoints may be ``±inf``), with the standard widening operator so
  loop fixpoints converge in a handful of iterations;
* :class:`Bound` — a *symbolic* worst-case quantity: a polynomial with
  non-negative coefficients over non-negative atoms.  Atoms name facts
  about the UDF's arguments — ``len3`` is ``len(arg 3)`` (byte array,
  float array, or string), ``pos3`` is ``max(0, arg 3)`` for an integer
  argument — so a certified fuel bound like ``14 + 13·pos1 + 9·len0·pos2``
  specializes to Rel1/Rel100/Rel10000 the moment the actual arguments
  are known.

Because every atom and every coefficient is non-negative, all Bound
operations are monotone: ``+`` and ``*`` are exact polynomial algebra,
and ``join`` (coefficient-wise max) over-approximates the pointwise max
of two bounds, which is what a sound upper bound needs at control-flow
merges.  ``None`` plays ⊤ ("no finite bound"); the helper functions at
the bottom propagate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

INF = float("inf")

#: Practical ceiling: a bound evaluating beyond this is as good as ⊤
#: (and keeps certificate arithmetic out of silly float territory).
MAX_BOUND = 2.0 ** 62


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

_INT_MIN = -(2 ** 63)
_INT_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]``; endpoints may be ``±inf``.

    JaguarVM integers wrap at 64 bits, so any arithmetic result leaving
    the representable range collapses to ⊤ rather than pretending the
    mathematical value is the machine value.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def top() -> "Interval":
        return TOP

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    # -- predicates ---------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi and not math.isinf(self.lo)

    @property
    def is_top(self) -> bool:
        return math.isinf(self.lo) and math.isinf(self.hi)

    # -- arithmetic ---------------------------------------------------------

    def _wrapped(self, lo: float, hi: float) -> "Interval":
        if lo < _INT_MIN or hi > _INT_MAX:
            return TOP
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        return self._wrapped(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        return self._wrapped(self.lo - other.hi, self.hi - other.lo)

    def neg(self) -> "Interval":
        return self._wrapped(-self.hi, -self.lo)

    def mul(self, other: "Interval") -> "Interval":
        products = [
            _mul(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return self._wrapped(min(products), max(products))

    # -- lattice ------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        """Standard widening: a moving endpoint jumps straight to ∞."""
        lo = self.lo if other.lo >= self.lo else -INF
        hi = self.hi if other.hi <= self.hi else INF
        return Interval(lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.lo}, {self.hi}]"


TOP = Interval(-INF, INF)
NON_NEGATIVE = Interval(0, INF)


def _mul(a: float, b: float) -> float:
    """inf-safe multiply with the convention ``0 * inf == 0``."""
    if a == 0 or b == 0:
        return 0.0
    return a * b


# ---------------------------------------------------------------------------
# Symbolic bounds
# ---------------------------------------------------------------------------

#: A monomial is the sorted tuple of its atoms (repetition = power).
Monomial = Tuple[str, ...]


@dataclass(frozen=True)
class Bound:
    """A polynomial ``Σ coeff · Π atoms`` with everything non-negative.

    ``terms`` maps each monomial to its coefficient; the empty monomial
    ``()`` is the constant term.  Instances are immutable and always
    normalized (no zero coefficients).  Integer coefficients stay exact
    ``int`` through ``+`` and ``*``, so a bound near 2^63 renders exactly
    (the JIT's value guard compares one against 2^63).
    """

    terms: Tuple[Tuple[Monomial, float], ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(value: float) -> "Bound":
        if value <= 0:
            return ZERO
        return Bound(terms=(((), value),))

    @staticmethod
    def atom(name: str, coeff: float = 1.0) -> "Bound":
        if coeff <= 0:
            return ZERO
        return Bound(terms=(((name,), coeff),))

    @staticmethod
    def _from_dict(mapping: Dict[Monomial, float]) -> "Bound":
        cleaned = {m: c for m, c in mapping.items() if c > 0}
        if not cleaned:
            return ZERO
        return Bound(terms=tuple(sorted(cleaned.items())))

    def _as_dict(self) -> Dict[Monomial, float]:
        return dict(self.terms)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Bound") -> "Bound":
        out = self._as_dict()
        for monomial, coeff in other.terms:
            out[monomial] = out.get(monomial, 0) + coeff
        return Bound._from_dict(out)

    def __mul__(self, other: "Bound") -> "Bound":
        out: Dict[Monomial, float] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                monomial = tuple(sorted(m1 + m2))
                out[monomial] = out.get(monomial, 0) + c1 * c2
        return Bound._from_dict(out)

    def scale(self, factor: float) -> "Bound":
        if factor <= 0:
            return ZERO
        return Bound._from_dict(
            {m: c * factor for m, c in self.terms}
        )

    def ceiled(self) -> "Bound":
        """Every coefficient rounded up to an exact ``int``."""
        return Bound._from_dict(
            {m: int(math.ceil(c)) for m, c in self.terms}
        )

    def join(self, other: "Bound") -> "Bound":
        """Coefficient-wise max: ≥ pointwise max since atoms are ≥ 0."""
        out = self._as_dict()
        for monomial, coeff in other.terms:
            out[monomial] = max(out.get(monomial, 0.0), coeff)
        return Bound._from_dict(out)

    # -- inspection ---------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return all(m == () for m, __ in self.terms)

    @property
    def constant_value(self) -> Optional[float]:
        """The value if constant, else ``None``."""
        if not self.is_constant:
            return None
        return self.terms[0][1] if self.terms else 0.0

    @property
    def atoms(self) -> Tuple[str, ...]:
        seen = []
        for monomial, __ in self.terms:
            for atom in monomial:
                if atom not in seen:
                    seen.append(atom)
        return tuple(sorted(seen))

    # -- consumers ----------------------------------------------------------

    def evaluate(self, env: Callable[[str], float]) -> float:
        """The bound's value for concrete atom values (``env(atom)``)."""
        total = 0.0
        for monomial, coeff in self.terms:
            product = coeff
            for atom in monomial:
                product *= max(0.0, env(atom))
            total += product
        return min(total, MAX_BOUND)

    def as_python(self, atom_expr: Callable[[str], str]) -> str:
        """Render as a Python expression (the JIT prologue consumer)."""
        if not self.terms:
            return "0"
        parts = []
        for monomial, coeff in self.terms:
            factors = [str(int(math.ceil(coeff)))]
            factors.extend(atom_expr(atom) for atom in monomial)
            parts.append("*".join(factors))
        return " + ".join(parts)

    def describe(self) -> str:
        """Human rendering for lint output and EXPLAIN."""
        if not self.terms:
            return "0"
        parts = []
        for monomial, coeff in self.terms:
            pieces = []
            whole = int(math.ceil(coeff))
            if whole != 1 or not monomial:
                pieces.append(str(whole))
            pieces.extend(monomial)
            parts.append("*".join(pieces))
        return " + ".join(parts)


ZERO = Bound(terms=())


# ---------------------------------------------------------------------------
# ⊤-propagating helpers (None plays ⊤)
# ---------------------------------------------------------------------------

OptBound = Optional[Bound]


def badd(a: OptBound, b: OptBound) -> OptBound:
    if a is None or b is None:
        return None
    return a + b


def bmul(a: OptBound, b: OptBound) -> OptBound:
    if a is None or b is None:
        return None
    return a * b


def describe_bound(bound: OptBound) -> str:
    return "⊤" if bound is None else bound.describe()
