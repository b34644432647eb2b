"""Exact scalar arithmetic for the four-parameter deformation (q, t, v, w).

Two kinds of scalars circulate in this package:

  * plain rationals, taken directly from ``fractions.Fraction``;
  * sparse polynomials in the four deformation variables with rational
    coefficients (class :class:`Poly`), used when a computation is run
    symbolically instead of at a rational parameter point.

A polynomial is a dict mapping packed exponents to nonzero int numerators,
over one positive int denominator that shares no factor with all of them
(Knuth, TAOCP vol. 2, 4.6.1).  The zero polynomial has an empty dict and
denominator 1.  The exponent ``(a, b, c, d)`` (degrees of q, t, v, w) is
packed in one int, ``a + b 2^16 + c 2^32 + d 2^48``: four 16-bit fields, q
lowest, so the key of a product of monomials is the sum of their keys and
hashes as an int.  An exponent of 2^16 or more is refused (OverflowError
in arithmetic), never carried into the next field.  The constructor packs
the 4-tuples; ``terms``, ``sorted_terms``, ``evaluate`` and the printing
unpack them.  The sums run on cleared integer data, so their Polys have
denominator 1 and add and multiply on ints; a Fraction enters only as one
scale of the numerators and the denominator.  ``terms``, ``constant_term``
and ``evaluate`` give Fractions.  Everything downstream is written against
ordinary Python operators, so the two scalar kinds mix freely:
``Fraction + Poly`` promotes to ``Poly``.

Convention: ``0**0 == 1`` throughout, so evaluating a monomial at q = 0 with
exponent 0 gives 1.  Python's ``Fraction(0) ** 0`` already behaves this way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Dict, Iterator, NamedTuple, Optional, Tuple, Union

Exponent = Tuple[int, int, int, int]

VAR_NAMES = ("q", "t", "v", "w")

_WIDTH = 16  # bits per exponent field of a packed key
_LIMIT = 1 << _WIDTH  # every exponent stays below this
_FIELD = _LIMIT - 1
_SHIFTS = tuple(range(0, 4 * _WIDTH, _WIDTH))
_HIGH = sum(_LIMIT >> 1 << s for s in _SHIFTS)  # the top bit of each field


def _pack(exp: Exponent) -> int:
    """The key of the exponent (a, b, c, d), each below _LIMIT."""
    if len(exp) != 4 or not all(0 <= e < _LIMIT for e in exp):
        raise ValueError(f"bad exponent tuple: {exp!r} (each exponent must lie in 0..{_FIELD})")
    return sum(e << s for e, s in zip(exp, _SHIFTS))


def _unpack(key: int) -> Exponent:
    return key & _FIELD, key >> _WIDTH & _FIELD, key >> 2 * _WIDTH & _FIELD, key >> 3 * _WIDTH


def _check_product(a: Dict[int, int], b: Dict[int, int]) -> None:
    """Refuse a product of the keys of a and b that would reach _LIMIT in a
    field: the top degrees in a variable multiply to a nonzero term."""
    for name, s in zip(VAR_NAMES, _SHIFTS):
        top = max((k >> s & _FIELD for k in a), default=0) + max((k >> s & _FIELD for k in b), default=0)
        if top >= _LIMIT:
            raise OverflowError(f"a product of degree {top} in {name}, at or above the limit {_LIMIT} of a Poly")


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


def _float(x, what: str) -> float:
    """float(x), an x too large for a float refused as bad input that names
    what (an exact x past 2^1024 overflows; a smaller one rounds)."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def _monomial_str(exp: Exponent) -> str:
    parts = []
    for name, e in zip(VAR_NAMES, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "".join(parts)


def _poly(num: Dict[int, int], den: int) -> "Poly":
    """The Poly num/den, its parts already in lowest terms."""
    res = Poly.__new__(Poly)
    res._num = num
    res._den = den
    return res


def _lowest(num: Dict[int, int], den: int) -> "Poly":
    """The Poly num/den for a positive den: numerators and denominator
    divided by their gcd (the zero polynomial gets denominator 1)."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {exp: c // g for exp, c in num.items()}
    return _poly(num, den)


def _parts(x) -> "Tuple[Dict[int, int], int] | None":
    """(numerators, denominator) of a Poly, int or Fraction, else None."""
    if isinstance(x, Poly):
        return x._num, x._den
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return ({0: x.numerator} if x else {}), x.denominator
    return None


class Poly:
    """Sparse polynomial in q, t, v, w over the rationals.

    Immutable once constructed.  Stored as integer numerators keyed by
    packed exponent (zeros pruned) over one positive integer denominator,
    with no common factor among them all (denominator 1 for zero).  That
    form is canonical, so equality is structural; at denominator 1, the
    common case of the cleared sums, arithmetic runs on ints with no gcd at
    all.  A key holds each degree in a 16-bit field, so a degree of 2^16 or
    more in any variable is refused: by the constructor with ValueError, by
    a product or power with OverflowError.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Dict[Exponent, Fraction] | None = None):
        clean: Dict[int, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    clean[_pack(exp)] = coeff
        # over the lcm of the denominators no prime divides every numerator:
        # each prime's top power in the lcm leaves one numerator prime to it
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._num = {exp: c.numerator * (den // c.denominator) for exp, c in clean.items()}
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls({})

    @classmethod
    def const(cls, value: Union[int, Fraction]) -> "Poly":
        return cls({(0, 0, 0, 0): value})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name not in VAR_NAMES:
            raise ValueError(f"unknown variable {name!r}; expected one of {VAR_NAMES}")
        exp = [0, 0, 0, 0]
        exp[VAR_NAMES.index(name)] = 1
        return cls({tuple(exp): 1})

    @classmethod
    def monomial(cls, coeff: Union[int, Fraction], exp: Exponent) -> "Poly":
        return cls({tuple(exp): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Dict[Exponent, Fraction]:
        den = self._den
        return {_unpack(key): Fraction(c, den) for key, c in self._num.items()}

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    @property
    def denominator(self) -> int:
        """The one positive int denominator, as a Fraction's."""
        return self._den

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        num, den = parts
        if den == self._den:
            out = dict(self._num)
        else:
            g = math.gcd(den, self._den)
            mine_by, num_by = den // g, self._den // g
            out = {exp: c * mine_by for exp, c in self._num.items()}
            num = {exp: c * num_by for exp, c in num.items()}
            den *= num_by  # the lcm of the two denominators
        get = out.get
        for exp, c in num.items():
            s = get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                del out[exp]
        return _poly(out, 1) if den == 1 else _lowest(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly({exp: -c for exp, c in self._num.items()}, self._den)

    def __sub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return self + -_poly(*parts)

    def __rsub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return -self + _poly(*parts)

    def _scaled(self, a: int, b: int) -> "Poly":
        """self * a/b for ints a and b > 0 with no common factor: a cancels
        against the denominator and b against the numerators' gcd, so the
        result needs no further reduction."""
        if not a:
            return _poly({}, 1)
        num, den = self._num, self._den
        if den != 1:
            g = math.gcd(a, den)
            a //= g
            den //= g
        g = math.gcd(b, *num.values()) if b != 1 else 1
        if g != 1:
            b //= g
            num = {exp: c // g * a for exp, c in num.items()}
        elif a != 1:
            num = {exp: c * a for exp, c in num.items()}
        return _poly(num, den * b)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, int):
                return self._scaled(other, 1)
            if isinstance(other, Fraction):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        big, small = self._num, other._num
        if len(big) < len(small):
            big, small = small, big
        if not small:
            return _poly({}, 1)
        # a field below half its range in both operands cannot carry
        if reduce(or_, small, reduce(or_, big, 0)) & _HIGH:
            _check_product(big, small)
        out: Dict[int, int] = {}
        get = out.get
        for e2, k2 in small.items():
            for e1, k1 in big.items():
                key = e1 + e2
                out[key] = get(key, 0) + k1 * k2
        if 0 in out.values():
            out = {key: c for key, c in out.items() if c}
        den = self._den * other._den
        return _poly(out, 1) if den == 1 else _lowest(out, den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power needs a nonnegative integer")
        if n == 0:
            return _poly({0: 1}, 1)
        base = self
        while not n & 1:  # the power at the lowest set bit starts the product
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def __eq__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return self._den == parts[1] and self._num == parts[0]

    def __hash__(self):
        # a constant hashes like the Fraction it equals, so it finds the same
        # dict and set entries (the zero polynomial hashes like 0)
        if self._num.keys() <= {0}:
            return hash(self.constant_term())
        return hash((self._den, frozenset(self._num.items())))

    # -- evaluation and printing -------------------------------------------

    def evaluate(self, q: Fraction, t: Fraction, v: Fraction, w: Fraction) -> Fraction:
        vals = (Fraction(q), Fraction(t), Fraction(v), Fraction(w))
        total = Fraction(0)
        for key, coeff in self._num.items():
            prod = Fraction(coeff)
            for base, e in zip(vals, _unpack(key)):
                if e:
                    prod *= base ** e
            total += prod
        return total / self._den

    def sorted_terms(self):
        """Terms by total degree, then q-heavy first (q before t before v before w)."""
        return sorted(
            self.terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0]))
        )

    def __str__(self) -> str:
        if not self._num:
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
        return f"Poly({dict(self.sorted_terms())!r})"


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


def _denominator(values) -> int:
    """The lcm D of the denominators of the ints, Fractions and Polys among
    values (None skipped): the scale that clears them."""
    scale = 1
    for x in values:
        if x is not None and scale % x.denominator:
            scale = math.lcm(scale, x.denominator)
    return scale


def _cleared(x, scale: int):
    """x * scale: an int for an int x or a Fraction x whose denominator
    divides scale, and a Poly x times scale, one scale of its int
    numerators, of denominator 1 when its denominator divides scale (x
    itself at scale 1)."""
    if type(x) is Fraction:
        return x.numerator * (scale // x.denominator)
    return x * scale if scale != 1 else x


def _over(x, scale: int):
    """x / scale: a Fraction for an int or Fraction x, and a Poly for a Poly
    x, one scale of its denominator."""
    if type(x) is int:
        return Fraction(x, scale)
    return x if scale == 1 else x * Fraction(1, scale)


def _entries(data) -> list:
    """The scalars of a scalar, a vector or a matrix (tuples or lists)."""
    if not isinstance(data, (tuple, list)):
        return [data]
    return [x for row in data for x in (row if isinstance(row, (tuple, list)) else (row,))]


def _cleared_array(data, scale: Optional[int] = None):
    """A scalar, a vector or a matrix (its first entry a row) times scale,
    entry by entry (:func:`_cleared`; an array comes back as tuples, built
    in one comprehension), scale defaulting to the lcm of its denominators."""
    if scale is None:
        scale = _denominator(_entries(data))
    if not isinstance(data, (tuple, list)):
        return _cleared(data, scale)
    if data and isinstance(data[0], (tuple, list)):
        return tuple(tuple([_cleared(x, scale) for x in row]) for row in data)
    return tuple([_cleared(x, scale) for x in data])


def _cleared_point(a: Scalar, b: Scalar) -> Tuple[Scalar, Scalar, int]:
    """(E a, E b, E), E the lcm of the denominators of a and b: each
    summand of [n]_{E a, E b} (:func:`_qt_row`) is E^(n-1) times that of
    [n]_{a,b}."""
    e = _denominator((a, b))
    return _cleared(a, e), _cleared(b, e), e


def qt_number(n: int, a: Scalar, b: Scalar):
    """Deformed integer [n]_{a,b} = sum_{i=1..n} a^(i-1) b^(n-i).

    [0] = 0, [1] = 1, and [n]_{a,1} is the usual a-integer.  Accepts rational
    or polynomial arguments (mixing allowed).
    """
    if n < 0:
        raise ValueError("deformed integer needs n >= 0")
    rungs = list(_qt_ladder(a, b, n))
    return rungs[-1] if rungs else Fraction(0)


class DeformationParams(NamedTuple):
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
