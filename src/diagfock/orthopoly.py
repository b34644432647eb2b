"""Orthogonal polynomials attached to the deformed moment functionals.

Everything is driven by monic three-term recurrence data

    x P_n = P_{n+1} + beta_n P_n + gamma_{n-1} P_{n-1},

packed in :class:`JacobiData`.  Exact entries (Fraction, or Poly in the four
deformation variables) feed the moments and the recurrence; float paths
(Cauchy transform, quadrature, densities) convert on entry.

The moment m_k is the weighted Motzkin-path sum over walks of length k from
level 0 back to 0 (up steps 1, flat steps beta_l, down steps gamma_{l-1}),
i.e. the top-left entry of J^k for the tridiagonal Jacobi matrix J; it is
read off the row vector e_0^T J^k, carried one step at a time.  The walk and
the three-term recurrence run on cleared data, E beta_n and E^2 gamma_n for
E the lcm of the entries' denominators, so they add and multiply ints (or
Polys of denominator 1) and divide once per result.  The families' Jacobi
data come from the ladder [n+1]_{a,b} = a [n]_{a,b} + b^n of
:mod:`diagfock.scalars` in one pass.

The float paths use the standard library only:

  * Gauss rules by Golub-Welsch (1969): the eigenvalues of the symmetrized
    Jacobi matrix and the squared first components of its eigenvectors, from
    one implicit-QL solver with Wilkinson shifts that carries only the first
    eigenvector row;
  * integrals (hyperbolic-secant and Meixner-Pollaczek moments) by adaptive
    bisection with the 20-point Gauss-Legendre rule, itself built by that
    solver from the Legendre recurrence.

The zeros of P_n are the n-point Gauss nodes, so :func:`quadrature_rule`
also serves wherever a root of an orthogonal polynomial is wanted.

Families:

  * deformed Hermite: beta = 0, gamma_{n-1} = [n]_{q,t} [n]_{v,w};
  * deformed Poisson-type (Charlier): beta_0 = 0, beta_n = gamma_{n-1} =
    [n]_{q,t} [n]_{v,w} for n >= 1;
  * one-parameter Meixner-Pollaczek type: beta = 0, gamma_{n-1} =
    [n]_q (1 + alpha q^{n-1});
  * hyperbolic-secant: gamma_{n-1} = n^2, the deformed Hermite family at
    (1, 1, 1, 1);
  * discrete q-Hermite I: gamma_{n-1} = [n]_q q^{n-1}, the deformed Hermite
    family at (q, 1, 0, q), since [n]_{0,q} = q^{n-1}.

The last two are built as those Hermite points, not by code of their own.

The Meixner-Pollaczek density on (-2/sqrt(1-q), 2/sqrt(1-q)) is implemented
in two variants.  The product factor as printed in the source formula,
``1 - 4 b x (1-q)^(-1/2) q^k + b^2 q^(2k)``, does not normalize (its total
mass at q = 1/4, alpha = -1/4 is about 4.38); replacing the coefficient by
``b x (1-q)^(1/2)`` gives total mass 1 and reproduces the recurrence moments.
Both are exposed ('printed' and 'corrected'); the discrepancy is reported,
not silently patched.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, NamedTuple, Sequence, Tuple

from . import _guards
from .scalars import DeformationParams, _cleared, _denominator, _float, _over, _qt_ladder

_QL_MAX_SWEEPS = 30  # implicit-QL sweeps per eigenvalue before giving up
_GL_POINTS = 20  # Gauss-Legendre points per panel of the adaptive quadrature
_QUAD_TOL = 1e-13  # panel acceptance, relative to the integral of |f|
_QUAD_MAX_DEPTH = 30  # bisection levels before a panel is kept as it is
_SECH_CUTOFF = 60.0  # the sech moments integrate over [0, _SECH_CUTOFF]
_QPOCH_TOL = 1e-16  # (a; q)_infinity stops at the first |a q^k| at or below this


class _JacobiDataFields(NamedTuple):
    beta: Tuple
    gamma: Tuple


class JacobiData(_JacobiDataFields):
    """Monic recurrence coefficients: beta_0..beta_{m-1}, gamma_0..gamma_{m-2}."""

    __slots__ = ()

    def __new__(cls, beta: Tuple, gamma: Tuple):
        if len(beta) != len(gamma) + 1:
            raise ValueError("need exactly one more beta than gamma")
        return super().__new__(cls, beta, gamma)

    @classmethod
    def _make(cls, iterable) -> "JacobiData":
        return cls(*iterable)  # so that _replace checks too

    @property
    def depth(self) -> int:
        return len(self.beta)

    def as_floats(self) -> Tuple[List[float], List[float]]:
        """beta and gamma as floats; an entry too large for one is bad input."""
        return [_float(b, f"the recurrence coefficient beta_{k}") for k, b in enumerate(self.beta)], [
            _float(g, f"the recurrence coefficient gamma_{k}") for k, g in enumerate(self.gamma)
        ]


def _hermite_gammas(params: DeformationParams, depth: int) -> Tuple:
    """gamma_{n-1} = [n]_{q,t} [n]_{v,w} for n = 1..depth-1."""
    _guards.check_size("the recurrence depth", depth, math.inf, least=1)
    top = _qt_ladder(params.q, params.t, depth - 1)
    bar = _qt_ladder(params.v, params.w, depth - 1)
    return tuple(x * y for x, y in zip(top, bar))


def _zero(params: DeformationParams):
    """0 as a Fraction, or as a Poly at the symbolic point, so that a beta of 0
    leaves no Fraction among the symbolic moments."""
    return params.q * Fraction(0)


def jacobi_hermite(params: DeformationParams, depth: int) -> JacobiData:
    gammas = _hermite_gammas(params, depth)  # guards depth before it sizes beta
    return JacobiData((_zero(params),) * depth, gammas)


def jacobi_poisson(params: DeformationParams, depth: int) -> JacobiData:
    gam = _hermite_gammas(params, depth)
    return JacobiData((_zero(params),) + gam, gam)


def jacobi_qmp(q: Fraction, alpha: Fraction, depth: int) -> JacobiData:
    """gamma_{n-1} = [n]_q (1 + alpha q^(n-1)), with q^(n-1) = [n]_{0,q}."""
    _guards.check_size("the recurrence depth", depth, math.inf, least=1)
    q, alpha = Fraction(q), Fraction(alpha)
    q_numbers = _qt_ladder(q, Fraction(1), depth - 1)
    q_pows = _qt_ladder(Fraction(0), q, depth - 1)
    gam = tuple(qn * (1 + alpha * q_pow) for qn, q_pow in zip(q_numbers, q_pows))
    return JacobiData(tuple(Fraction(0) for _ in range(depth)), gam)


def jacobi_sech(depth: int) -> JacobiData:
    """The (1, 1, 1, 1) Hermite point: gamma_{n-1} = n^2."""
    return jacobi_hermite(DeformationParams.from_rationals(1, 1, 1, 1), depth)


def jacobi_discrete_qhermite(q: Fraction, depth: int) -> JacobiData:
    """The (q, 1, 0, q) Hermite point: gamma_{n-1} = [n]_q q^(n-1)."""
    return jacobi_hermite(DeformationParams.from_rationals(q, 1, 0, q), depth)


# -- exact paths -----------------------------------------------------------------


def moments_from_jacobi(j: JacobiData, nmax: int) -> List:
    """Moments m_1..m_nmax as weighted Motzkin-path sums (Flajolet 1980).

    The row vector r_k = e_0^T J^k, with J the tridiagonal Jacobi matrix
    (beta_l on the diagonal, gamma_l above it, 1 below), holds the walks of
    length k from level 0, ended at each level; m_k = r_k[0] and

        r_{k+1}[l] = r_k[l-1] gamma_{l-1} + r_k[l] beta_l + r_k[l+1].

    A level above k is unreachable, and one above nmax - k cannot get back
    to 0 in time, so each row is cut there: the walk never rises above
    floor(nmax/2), which bounds the depth needed.

    The walk runs on E beta_l and E^2 gamma_l, E the lcm of the
    denominators of the entries it reads (:func:`_denominator`), so a path
    of length k ending at level l carries E^(k+l) and the cleared row is
    r'_k[l] = E^(k+l) r_k[l]; m_k = r'_k[0] / E^k.  Each moment has the
    type the walk on the entries as given returns: a Poly if a Poly lies on
    a walk of length k back to 0, else a Fraction if a Fraction does, else
    an int (beta_l lies on one for k >= 2l + 1 and gamma_l for k >= 2l + 2).
    """
    _guards.check_size("the moment order nmax", nmax, math.inf)
    size = nmax // 2 + 1
    if j.depth < size:
        raise ValueError(f"need recurrence depth >= {size} for {nmax} moments")
    # beta_0, gamma_0, beta_1, ...: the walks of length k read the first k
    reached = [(j.beta, j.gamma)[i % 2][i // 2] for i in range(nmax)]
    ints_until = next((k for k, x in enumerate(reached, 1) if type(x) is Fraction), nmax + 1)
    e = _denominator(reached)
    beta = [_cleared(x, e) for x in reached[0::2]]
    gamma = [_cleared(x, e * e) for x in reached[1::2]]
    out: List = []
    row = [beta[0], gamma[0]] if nmax >= 2 else beta[:1]  # e_0^T J, cut
    scale = 1
    for k in range(1, nmax + 1):
        scale *= e
        m = row[0]
        out.append(m // scale if k < ints_until and type(m) is int else _over(m, scale))
        nxt = []
        for lvl in range(min(len(row) + 1, nmax - k)):
            s = row[lvl - 1] * gamma[lvl - 1] if lvl else None
            if lvl < len(row):
                term = row[lvl] * beta[lvl]
                s = term if s is None else s + term
            if lvl + 1 < len(row):
                s = s + row[lvl + 1]
            nxt.append(s)
        row = nxt
    return out


def polys_from_jacobi(j: JacobiData, nmax: int) -> List[List]:
    """Monic orthogonal polynomials P_0..P_nmax as ascending coefficient lists,
    each coefficient in the ring of the Jacobi data (a Poly at the symbolic
    point, the leading 1 included).

    The recurrence runs on E beta_n and E^2 gamma_n, E the lcm of the
    denominators of the entries it reads: P~_n(x) = E^n P_n(x/E) satisfies
    P~_(n+1) = (x - E beta_n) P~_n - E^2 gamma_(n-1) P~_(n-1), and
    coefficient i of P_n is P~_n[i] / E^(n-i).  A coefficient is a Poly
    where the recurrence on the entries as given meets a Poly, and a
    Fraction elsewhere, but for P_1[0] = -beta_0 itself.
    """
    _guards.check_size("the polynomial degree nmax", nmax, math.inf)
    if j.depth < nmax:
        raise ValueError(f"need recurrence depth >= {nmax}")
    one = Fraction(1) + j.beta[0] * 0
    polys: List[List] = [[one]]
    if nmax == 0:
        return polys
    polys.append([-j.beta[0], one])
    e = _denominator([*j.beta[:nmax], *j.gamma[: nmax - 1]])
    beta = [_cleared(x, e) for x in j.beta[:nmax]]
    gamma = [_cleared(x, e * e) for x in j.gamma[: nmax - 1]]
    zero = beta[0] * 0
    prev, cur = [zero + 1], [-beta[0], zero + 1]  # P~_0 and P~_1
    for n in range(1, nmax):
        nxt = [zero] + cur  # x * P~_n
        for i, c in enumerate(cur):
            nxt[i] = nxt[i] - beta[n] * c
        for i, c in enumerate(prev):
            nxt[i] = nxt[i] - gamma[n - 1] * c
        polys.append([_over(c, e ** (n + 1 - i)) for i, c in enumerate(nxt)])
        prev, cur = cur, nxt
    return polys


def norm_squares_from_jacobi(j: JacobiData, nmax: int) -> List:
    """Squared norms of P_0..P_nmax: cumulative products of the gammas,
    starting from ||P_0||^2 = 1 in the ring of the Jacobi data."""
    _guards.check_size("the polynomial degree nmax", nmax, math.inf)
    if len(j.gamma) < nmax:
        raise ValueError(f"need {nmax} gamma entries")
    acc = Fraction(1) + j.beta[0] * 0
    out = [acc]
    for k in range(nmax):
        acc = acc * j.gamma[k]
        out.append(acc)
    return out


# -- float paths ------------------------------------------------------------------


def cauchy_transform(j: JacobiData, z: complex, depth: int) -> complex:
    """Continued-fraction Cauchy transform, evaluated backward from the tail.

        G(z) = 1 / (z - beta_0 - gamma_0 / (z - beta_1 - ...))

    truncated at the given depth.  Needs Im z != 0 for a safe denominator;
    a real z where a denominator vanishes is refused with ValueError.
    """
    _guards.check_size("the continued-fraction depth", depth, math.inf, least=1)
    beta, gamma = j.as_floats()
    if depth > j.depth:
        raise ValueError("depth exceeds available recurrence data")
    val = 0j
    for k in range(depth - 1, -1, -1):
        den = z - beta[k] - (gamma[k] * val if k < len(gamma) else 0.0)
        if abs(den) < 1e-290:
            raise ValueError(f"continued fraction denominator vanished at z = {z} (level {k})")
        val = 1.0 / den
    return val


def _tridiag_eigen(diag: Sequence[float], off: Sequence[float]) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Eigenvalues of the symmetric tridiagonal matrix with the given diagonal
    and off-diagonal, in ascending order, and the first component of each
    unit eigenvector.

    Implicit QL with Wilkinson shifts (the tql2 scheme).  Each Givens rotation
    of a sweep is applied to the first eigenvector row only: that row is all a
    Gauss rule needs (Golub-Welsch 1969).
    """
    n = len(diag)
    d = [float(x) for x in diag]
    e = [float(x) for x in off] + [0.0]
    z = [1.0] + [0.0] * (n - 1)
    for l in range(n):
        for _ in range(_QL_MAX_SWEEPS):
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == l:
                break
            # shift by the eigenvalue of the leading 2x2 block nearer d[l]
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # the matrix splits here: restart the sweep
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                z[i], z[i + 1] = c * z[i] - s * z[i + 1], s * z[i] + c * z[i + 1]
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
        else:
            raise ArithmeticError("tridiagonal QL iteration did not converge")
    pairs = sorted(zip(d, z))
    return tuple(x for x, _ in pairs), tuple(v for _, v in pairs)


def quadrature_rule(j: JacobiData, size: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Gauss nodes (ascending) and weights, as tuples of floats, from the
    symmetrized truncated recurrence matrix (Golub-Welsch).  It needs
    gamma_0..gamma_(size-2) >= 0, so that the matrix is symmetrizable over
    the reals."""
    _guards.check_size("the Gauss rule size", size, math.inf)
    if j.depth < size:
        raise ValueError("not enough recurrence data for the requested rule")
    beta, gamma = j.as_floats()
    for k, g in enumerate(gamma[: size - 1]):
        if g < 0:
            raise ValueError(f"gamma_{k} = {j.gamma[k]} is negative: no Gauss rule of size {size}")
    nodes, first = _tridiag_eigen(beta[:size], [math.sqrt(g) for g in gamma[: size - 1]])
    return nodes, tuple(v * v for v in first)


@lru_cache(maxsize=4)
def _legendre_rule(size: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Gauss-Legendre nodes and weights on [-1, 1], from the Legendre Jacobi
    data beta = 0, gamma_n = n^2 / (4 n^2 - 1) and the mass 2."""
    nodes, first = _tridiag_eigen([0.0] * size, [n / math.sqrt(4.0 * n * n - 1.0) for n in range(1, size)])
    return nodes, tuple(2.0 * v * v for v in first)


def _integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """Integral of f over [a, b] by adaptive bisection with the
    _GL_POINTS-point Gauss-Legendre rule.

    A panel is kept when its two halves sum to its own value within
    _QUAD_TOL times the integral of |f| estimated on [a, b]; otherwise each
    half is bisected in turn, its value serving as the estimate one level
    down.  A panel _QUAD_MAX_DEPTH levels down is kept as it is, with a
    warning.
    """
    nodes, weights = _legendre_rule(_GL_POINTS)

    def terms(lo: float, hi: float) -> List[float]:
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        return [w * half * f(mid + half * x) for x, w in zip(nodes, weights)]

    top = terms(a, b)
    tol = _QUAD_TOL * math.fsum(map(abs, top))
    pieces: List[float] = []
    capped = False
    stack = [(a, b, math.fsum(top), 1)]
    while stack:
        lo, hi, whole, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left, right = sum(terms(lo, mid)), sum(terms(mid, hi))
        if abs(left + right - whole) <= tol:
            pieces += (left, right)
        elif depth == _QUAD_MAX_DEPTH:
            capped = True
            pieces += (left, right)
        else:
            stack += ((mid, hi, right, depth + 1), (lo, mid, left, depth + 1))
    if capped:
        warnings.warn(
            f"adaptive quadrature reached its depth cap of {_QUAD_MAX_DEPTH} on [{a}, {b}]; "
            "the result may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    return math.fsum(pieces)


# -- hyperbolic-secant law -----------------------------------------------------------


def sech_density(x: float) -> float:
    """1 / (2 cosh(pi x / 2)).  Past |x| ~ 452.3 cosh overflows; from
    |x| ~ 451.9 on 2 cosh is already past the largest float and the density
    reads 0.0, so it reads 0.0 there too."""
    try:
        return 1.0 / (2.0 * math.cosh(math.pi * x / 2.0))
    except OverflowError:
        return 0.0


def sech_moment_quad(k: int) -> float:
    """k-th moment of the hyperbolic-secant law by quadrature (odd k gives 0).

    The tail beyond _SECH_CUTOFF is bounded by int x^k exp(-pi x / 2), which
    at 60 is far below any tolerance used here.
    """
    if k % 2:
        return 0.0
    return 2.0 * _integrate(lambda x: x**k * sech_density(x), 0.0, _SECH_CUTOFF)


# -- Meixner-Pollaczek-type density ---------------------------------------------------


def qpochhammer(a: float, q: float) -> float:
    """(a; q)_infinity for |q| < 1."""
    if not abs(q) < 1:
        raise ValueError("qpochhammer needs |q| < 1")
    prod = 1.0
    ak = a
    while abs(ak) > _QPOCH_TOL:
        prod *= 1.0 - ak
        ak *= q
    return prod


def _mp_radius(q: float, alpha: float) -> float:
    """Support radius 2 / sqrt(1 - q) of the density at (q, alpha), refusing
    a point outside its domain 0 < q < 1, -1 < alpha <= 1.  Above alpha = 1
    the density alone is not the law: its mass falls below 1 (0.96 at
    q = 0.1, alpha = 1.05; 0.68 at q = 1/2, alpha = 5)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"the Meixner-Pollaczek density needs 0 < q < 1, got q = {q}")
    if not alpha > -1.0:
        raise ValueError(f"the Meixner-Pollaczek density needs alpha > -1, got alpha = {alpha}")
    if not alpha <= 1.0:
        raise ValueError(f"the Meixner-Pollaczek density is the law only for alpha <= 1, got alpha = {alpha}")
    return 2.0 / math.sqrt(1.0 - q)


def mp_density(x: float, q: float, alpha: float, variant: str = "corrected") -> float:
    """Density of the one-parameter Meixner-Pollaczek-type law on its support
    (-2/sqrt(1-q), 2/sqrt(1-q)).  Requires 0 < q < 1 and -1 < alpha <= 1.

    The source formula is a ratio of products over k >= 0 of factors
    1 - c b x q^k + b^2 q^(2k), for b = +-1 and +-sqrt(q) above and
    b = +-i sqrt(-alpha) below (b^2 = alpha).  Each +- pair multiplies out to
    the real quadratic (1 + b^2 q^(2k))^2 - c^2 x^2 b^2 q^(2k), so the density
    is one real product.
    """
    r = _mp_radius(q, alpha)
    if variant == "printed":
        c2 = 16.0 / (1.0 - q)
    elif variant == "corrected":
        c2 = 1.0 - q
    else:
        raise ValueError("variant must be 'printed' or 'corrected'")
    if not -r < x < r:
        return 0.0
    cx2 = c2 * x * x
    val = qpochhammer(q, q) * qpochhammer(-alpha, q) / (2.0 * math.pi * math.sqrt((r - x) * (x + r)))
    qk = 1.0  # q^(2k)
    while qk >= 1e-20:
        even, odd, dual = qk, q * qk, alpha * qk
        val *= ((1.0 + even) ** 2 - cx2 * even) * ((1.0 + odd) ** 2 - cx2 * odd) / ((1.0 + dual) ** 2 - cx2 * dual)
        qk *= q * q
    return val


def mp_moment_quad(n: int, q: float, alpha: float, variant: str = "corrected") -> float:
    """n-th moment of the density by quadrature (trig substitution kills the
    endpoint square-root singularity).  Requires 0 < q < 1, -1 < alpha <= 1."""
    r = _mp_radius(q, alpha)

    def f(u: float) -> float:
        x = r * math.sin(u)
        return (x ** n) * mp_density(x, q, alpha, variant) * r * math.cos(u)

    return _integrate(f, -math.pi / 2.0, math.pi / 2.0)


def mp_normalization(q: float, alpha: float, variant: str = "corrected") -> float:
    """Total mass of the density (1 for 'corrected'); 0 < q < 1, -1 < alpha <= 1."""
    return mp_moment_quad(0, q, alpha, variant)
