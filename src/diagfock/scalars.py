"""Exact scalar arithmetic for the four-parameter deformation (q, t, v, w).

Two kinds of scalars circulate in this package:

  * plain rationals, taken directly from ``fractions.Fraction``;
  * sparse polynomials in the four deformation variables with rational
    coefficients (class :class:`Poly`), used when a computation is run
    symbolically instead of at a rational parameter point.

A polynomial is a dict mapping exponent 4-tuples ``(a, b, c, d)`` (degrees of
q, t, v, w) to nonzero Fractions.  The zero polynomial has an empty dict.
Everything downstream is written against ordinary Python operators, so the
two scalar kinds mix freely: ``Fraction + Poly`` promotes to ``Poly``.

Convention: ``0**0 == 1`` throughout, so evaluating a monomial at q = 0 with
exponent 0 gives 1.  Python's ``Fraction(0) ** 0`` already behaves this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Tuple, Union

Exponent = Tuple[int, int, int, int]

VAR_NAMES = ("q", "t", "v", "w")

_ZERO4: Exponent = (0, 0, 0, 0)


def parse_rational(text: str) -> Fraction:
    """Parse a rational from a string such as '3/2', '-1', or '0.25'."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def render_rational(x: Fraction) -> str:
    """Render a Fraction as 'p' or 'p/q' (canonical lowest terms)."""
    x = Fraction(x)
    return str(x)


def _monomial_str(exp: Exponent) -> str:
    parts = []
    for name, e in zip(VAR_NAMES, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "".join(parts)


class Poly:
    """Sparse polynomial in q, t, v, w over the rationals.

    Immutable once constructed; zero coefficients are pruned.  Equality is
    structural (identical monomial dicts), which is canonical because the
    representation is.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[Exponent, Fraction] | None = None):
        clean: Dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    if len(exp) != 4 or any(e < 0 for e in exp):
                        raise ValueError(f"bad exponent tuple: {exp!r}")
                    clean[tuple(exp)] = coeff
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls({})

    @classmethod
    def const(cls, value: Union[int, Fraction]) -> "Poly":
        return cls({_ZERO4: Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name not in VAR_NAMES:
            raise ValueError(f"unknown variable {name!r}; expected one of {VAR_NAMES}")
        exp = [0, 0, 0, 0]
        exp[VAR_NAMES.index(name)] = 1
        return cls({tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, coeff: Union[int, Fraction], exp: Exponent) -> "Poly":
        return cls({tuple(exp): Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Dict[Exponent, Fraction]:
        return dict(self._terms)

    def constant_term(self) -> Fraction:
        return self._terms.get(_ZERO4, Fraction(0))

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for exp, c in o._terms.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s:
                out[exp] = s
            else:
                del out[exp]
        res = Poly.__new__(Poly)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = Poly.__new__(Poly)
        res._terms = {exp: -c for exp, c in self._terms.items()}
        return res

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: Dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in o._terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(exp)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        res = Poly.__new__(Poly)
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power needs a nonnegative integer")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        # a constant hashes like the Fraction it equals, so it finds the same
        # dict and set entries (the zero polynomial hashes like 0)
        if self._terms.keys() <= {_ZERO4}:
            return hash(self.constant_term())
        return hash(frozenset(self._terms.items()))

    # -- evaluation and printing -------------------------------------------

    def evaluate(self, q: Fraction, t: Fraction, v: Fraction, w: Fraction) -> Fraction:
        vals = (Fraction(q), Fraction(t), Fraction(v), Fraction(w))
        total = Fraction(0)
        for exp, coeff in self._terms.items():
            prod = coeff
            for base, e in zip(vals, exp):
                if e:
                    prod *= base ** e
            total += prod
        return total

    def sorted_terms(self):
        """Terms by total degree, then q-heavy first (q before t before v before w)."""
        return sorted(
            self._terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0]))
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for exp, coeff in self.sorted_terms():
            mono = _monomial_str(exp)
            if not mono:
                body = render_rational(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{render_rational(abs(coeff))} {mono}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self._terms!r})"


Q = Poly.variable("q")
T = Poly.variable("t")
V = Poly.variable("v")
W = Poly.variable("w")

Scalar = Union[Fraction, int, Poly]


def _qt_ladder(a: Scalar, b: Scalar, count: int) -> Iterator:
    """[1]_{a,b} .. [count]_{a,b} by the ladder [n+1] = a [n] + b^n, from
    [1] = a^0 b^0 (so each rung has the type of the sum it equals)."""
    b_pow = b**0
    cur = a**0 * b_pow
    for n in range(count):
        if n:
            b_pow = b_pow * b
            cur = a * cur + b_pow
        yield cur


def _qt_row(n: int, a: Scalar, b: Scalar) -> Tuple:
    """The summands (a^(i-1) b^(n-i)) for i = 1..n of [n]_{a,b}: the weight of
    moving position i of n to the front (the factor R_n of annihilation,
    gauge and the symmetrizer), or, read reversed, of ending the j-th of n
    open arcs."""
    return tuple((a ** (i - 1)) * (b ** (n - i)) for i in range(1, n + 1))


def qt_number(n: int, a: Scalar, b: Scalar):
    """Deformed integer [n]_{a,b} = sum_{i=1..n} a^(i-1) b^(n-i).

    [0] = 0, [1] = 1, and [n]_{a,1} is the usual a-integer.  Accepts rational
    or polynomial arguments (mixing allowed).
    """
    if n < 0:
        raise ValueError("deformed integer needs n >= 0")
    rungs = list(_qt_ladder(a, b, n))
    return rungs[-1] if rungs else Fraction(0)


@dataclass(frozen=True)
class DeformationParams:
    """The four deformation parameters.

    Each field is a Fraction, or a Poly variable when running symbolically.
    Operator positivity needs ``|q| <= t <= 1`` and ``|v| <= w <= 1``, but
    the combinatorial sums are defined for any rationals, so the
    constructor does not validate.
    """

    q: Scalar
    t: Scalar
    v: Scalar
    w: Scalar

    @classmethod
    def from_rationals(cls, q, t, v, w) -> "DeformationParams":
        return cls(Fraction(q), Fraction(t), Fraction(v), Fraction(w))

    @classmethod
    def symbolic(cls) -> "DeformationParams":
        return cls(Q, T, V, W)

    def monomial(self, a: int, b: int, c: int, d: int):
        """q^a t^b v^c w^d with the 0**0 = 1 convention."""
        return (self.q ** a) * (self.t ** b) * (self.v ** c) * (self.w ** d)
