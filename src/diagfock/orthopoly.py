"""Orthogonal polynomials attached to the deformed moment functionals.

Everything is driven by monic three-term recurrence data

    x P_n = P_{n+1} + beta_n P_n + gamma_{n-1} P_{n-1},

packed in :class:`JacobiData`.  Exact entries (Fraction, or Poly in the four
deformation variables) feed the moments and the recurrence; float paths
(Cauchy transform, quadrature, densities) convert on entry.

The moment m_k is the weighted Motzkin-path sum over walks of length k from
level 0 back to 0 (up steps 1, flat steps beta_l, down steps gamma_{l-1}),
i.e. the top-left entry of J^k for the tridiagonal Jacobi matrix J; it is
read off the row vector e_0^T J^k, carried one step at a time.  The families'
Jacobi data come from the running recurrence [n+1]_{a,b} = a [n]_{a,b} + b^n
in one pass.  numpy and scipy are imported only inside the float functions
that use them (quadrature, orthogonality residual, quadrature moments, root
bounds), so the exact paths and a plain ``import diagfock`` never load them.

Families:

  * deformed Hermite: beta = 0, gamma_{n-1} = [n]_{q,t} [n]_{v,w};
  * deformed Poisson-type (Charlier): beta_0 = 0, beta_n = gamma_{n-1} =
    [n]_{q,t} [n]_{v,w} for n >= 1;
  * one-parameter Meixner-Pollaczek type: beta = 0, gamma_{n-1} =
    [n]_q (1 + alpha q^{n-1});
  * hyperbolic-secant: gamma_{n-1} = n^2 (the (1,1,1,1) Hermite point);
  * discrete q-Hermite I: gamma_{n-1} = [n]_q q^{n-1} (the (q,1,0,q) point).

The Meixner-Pollaczek density on (-2/sqrt(1-q), 2/sqrt(1-q)) is implemented
in two variants.  The product factor as printed in the source formula,
``1 - 4 b x (1-q)^(-1/2) q^k + b^2 q^(2k)``, does not normalize (its total
mass at q = 1/4, alpha = -1/4 is about 4.38); replacing the coefficient by
``b x (1-q)^(1/2)`` gives total mass 1 and reproduces the recurrence moments.
Both are exposed ('printed' and 'corrected'); the discrepancy is reported,
not silently patched.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Iterator, List, Sequence, Tuple

from .scalars import DeformationParams, Scalar


@dataclass(frozen=True)
class JacobiData:
    """Monic recurrence coefficients: beta_0..beta_{m-1}, gamma_0..gamma_{m-2}."""

    beta: Tuple
    gamma: Tuple

    def __post_init__(self):
        if len(self.beta) != len(self.gamma) + 1:
            raise ValueError("need exactly one more beta than gamma")

    @property
    def depth(self) -> int:
        return len(self.beta)

    def as_floats(self) -> Tuple[List[float], List[float]]:
        return [float(b) for b in self.beta], [float(g) for g in self.gamma]


def _qt_numbers(a: Scalar, b: Scalar, count: int) -> Iterator:
    """[1]_{a,b} .. [count]_{a,b} by [n+1] = a [n] + b^n; entrywise equal to
    ``scalars.qt_number``, and of the same type."""
    cur = a**0 * b**0
    b_pow = b**0
    for _ in range(count):
        yield cur
        b_pow = b_pow * b
        cur = a * cur + b_pow


def _hermite_gammas(params: DeformationParams, depth: int) -> Tuple:
    """gamma_{n-1} = [n]_{q,t} [n]_{v,w} for n = 1..depth-1."""
    top = _qt_numbers(params.q, params.t, depth - 1)
    bar = _qt_numbers(params.v, params.w, depth - 1)
    return tuple(x * y for x, y in zip(top, bar))


def jacobi_hermite(params: DeformationParams, depth: int) -> JacobiData:
    return JacobiData(tuple(Fraction(0) for _ in range(depth)), _hermite_gammas(params, depth))


def jacobi_poisson(params: DeformationParams, depth: int) -> JacobiData:
    gam = _hermite_gammas(params, depth)
    return JacobiData((Fraction(0),) + gam, gam)


def _q_ladder(q: Fraction, depth: int) -> Iterator[Tuple[Fraction, Fraction]]:
    """([n]_q, q^(n-1)) for n = 1..depth-1."""
    q_pows = accumulate(repeat(q, depth - 2), mul, initial=Fraction(1))
    return zip(_qt_numbers(q, Fraction(1), depth - 1), q_pows)


def jacobi_qmp(q: Fraction, alpha: Fraction, depth: int) -> JacobiData:
    alpha = Fraction(alpha)
    gam = tuple(qn * (1 + alpha * q_pow) for qn, q_pow in _q_ladder(Fraction(q), depth))
    return JacobiData(tuple(Fraction(0) for _ in range(depth)), gam)


def jacobi_sech(depth: int) -> JacobiData:
    gam = tuple(Fraction(n * n) for n in range(1, depth))
    return JacobiData(tuple(Fraction(0) for _ in range(depth)), gam)


def jacobi_discrete_qhermite(q: Fraction, depth: int) -> JacobiData:
    gam = tuple(qn * q_pow for qn, q_pow in _q_ladder(Fraction(q), depth))
    return JacobiData(tuple(Fraction(0) for _ in range(depth)), gam)


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
    """
    size = nmax // 2 + 1
    if j.depth < size:
        raise ValueError(f"need recurrence depth >= {size} for {nmax} moments")
    beta, gamma = j.beta, j.gamma
    out: List = []
    row = [beta[0], gamma[0]] if nmax >= 2 else [beta[0]]  # e_0^T J, cut
    for k in range(1, nmax + 1):
        out.append(row[0])
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
    """Monic orthogonal polynomials P_0..P_nmax as ascending coefficient lists."""
    if j.depth < nmax:
        raise ValueError(f"need recurrence depth >= {nmax}")
    polys: List[List] = [[Fraction(1)]]
    if nmax == 0:
        return polys
    polys.append([-j.beta[0], Fraction(1)])
    for n in range(1, nmax):
        prev, cur = polys[n - 1], polys[n]
        shifted = [Fraction(0)] + list(cur)  # x * P_n
        nxt = list(shifted)
        for i, c in enumerate(cur):
            nxt[i] = nxt[i] - j.beta[n] * c
        for i, c in enumerate(prev):
            nxt[i] = nxt[i] - j.gamma[n - 1] * c
        polys.append(nxt)
    return polys


def norm_squares_from_jacobi(j: JacobiData, nmax: int) -> List:
    """Squared norms of P_0..P_nmax: cumulative products of the gammas,
    starting from ||P_0||^2 = 1."""
    if len(j.gamma) < nmax:
        raise ValueError(f"need {nmax} gamma entries")
    out = [Fraction(1)]
    acc = Fraction(1)
    for k in range(nmax):
        acc = acc * j.gamma[k]
        out.append(acc)
    return out


# -- float paths ------------------------------------------------------------------


def cauchy_transform(j: JacobiData, z: complex, depth: int) -> complex:
    """Continued-fraction Cauchy transform, evaluated backward from the tail.

        G(z) = 1 / (z - beta_0 - gamma_0 / (z - beta_1 - ...))

    truncated at the given depth.  Needs Im z != 0 for a safe denominator.
    """
    beta, gamma = j.as_floats()
    if depth > j.depth:
        raise ValueError("depth exceeds available recurrence data")
    val = 0j
    for k in range(depth - 1, -1, -1):
        den = z - beta[k] - (gamma[k] * val if k < len(gamma) else 0.0)
        if abs(den) < 1e-290:
            raise ZeroDivisionError("continued fraction denominator vanished")
        val = 1.0 / den
    return val


def quadrature_rule(j: JacobiData, size: int) -> Tuple:
    """Gauss nodes/weights (numpy arrays) from the symmetrized truncated
    recurrence matrix."""
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    beta, gamma = j.as_floats()
    if j.depth < size:
        raise ValueError("not enough recurrence data for the requested rule")
    d = np.array(beta[:size])
    e = np.sqrt(np.array(gamma[: size - 1]))
    vals, vecs = eigh_tridiagonal(d, e)
    weights = vecs[0, :] ** 2
    return vals, weights


def _poly_eval(coeffs: Sequence, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


def orthogonality_residual(j: JacobiData, max_degree: int, rule_size: int | None = None) -> float:
    """Largest |<P_a, P_b>| for a < b <= max_degree under the Gauss rule."""
    import numpy as np

    size = rule_size or (max_degree + 2)
    nodes, weights = quadrature_rule(j, size)
    polys = polys_from_jacobi(j, max_degree)
    values = [np.array([_poly_eval(p, x) for x in nodes]) for p in polys]
    worst = 0.0
    for a in range(max_degree + 1):
        for b in range(a + 1, max_degree + 1):
            worst = max(worst, abs(float(np.sum(weights * values[a] * values[b]))))
    return worst


# -- hyperbolic-secant law -----------------------------------------------------------


def sech_density(x: float) -> float:
    return 1.0 / (2.0 * math.cosh(math.pi * x / 2.0))


def sech_moment_quad(k: int, cutoff: float = 60.0) -> float:
    """k-th moment of the hyperbolic-secant law by quadrature (odd k gives 0).

    The tail beyond the cutoff is bounded by int x^k exp(-pi x / 2), which at
    cutoff 60 is far below any tolerance used here.
    """
    if k % 2:
        return 0.0
    from scipy import integrate

    f = lambda x: x ** k * sech_density(x)
    val, _ = integrate.quad(f, 0.0, cutoff, limit=400)
    return 2.0 * val


# -- Meixner-Pollaczek-type density ---------------------------------------------------


def qpochhammer(a: float, q: float, tol: float = 1e-16) -> float:
    """(a; q)_infinity for |q| < 1."""
    if not abs(q) < 1:
        raise ValueError("qpochhammer needs |q| < 1")
    prod = 1.0
    ak = a
    while abs(ak) > tol:
        prod *= 1.0 - ak
        ak *= q
    return prod


def _g_product(x: float, b: complex, q: float, variant: str) -> complex:
    if variant == "printed":
        coeff = 4.0 / math.sqrt(1.0 - q)
    elif variant == "corrected":
        coeff = math.sqrt(1.0 - q)
    else:
        raise ValueError("variant must be 'printed' or 'corrected'")
    prod = complex(1.0)
    qk = 1.0
    while True:
        prod *= 1.0 - coeff * b * x * qk + b * b * qk * qk
        qk *= q
        if qk < 1e-20:
            break
    return prod


def mp_support(q: float) -> Tuple[float, float]:
    r = 2.0 / math.sqrt(1.0 - q)
    return (-r, r)


def mp_density(x: float, q: float, alpha: float, variant: str = "corrected") -> float:
    """Density of the one-parameter Meixner-Pollaczek-type law on its support.

    alpha <= 0 uses beta = sqrt(-alpha); alpha >= 0 uses beta = i sqrt(alpha).
    In both cases beta^2 = -alpha, and the conjugate factor pair keeps the
    value real.  Requires 0 < q < 1 and -1 < alpha.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("density needs 0 < q < 1")
    lo, hi = mp_support(q)
    if not lo < x < hi:
        return 0.0
    beta = cmath.sqrt(complex(-alpha, 0.0))
    pref = qpochhammer(q, q) * qpochhammer(-alpha, q) / (
        2.0 * math.pi * math.sqrt((hi - x) * (x - lo))
    )
    num = (
        _g_product(x, 1.0, q, variant)
        * _g_product(x, -1.0, q, variant)
        * _g_product(x, math.sqrt(q), q, variant)
        * _g_product(x, -math.sqrt(q), q, variant)
    )
    den = _g_product(x, 1j * beta, q, variant) * _g_product(x, -1j * beta, q, variant)
    val = pref * (num / den)
    return val.real


def mp_moment_quad(n: int, q: float, alpha: float, variant: str = "corrected") -> float:
    """n-th moment of the density by quadrature (trig substitution kills the
    endpoint square-root singularity)."""
    from scipy import integrate

    lo, hi = mp_support(q)
    r = hi

    def f(u: float) -> float:
        x = r * math.sin(u)
        return (x ** n) * mp_density(x, q, alpha, variant) * r * math.cos(u)

    val, _ = integrate.quad(f, -math.pi / 2.0, math.pi / 2.0, limit=300)
    return val


def mp_normalization(q: float, alpha: float, variant: str = "corrected") -> float:
    return mp_moment_quad(0, q, alpha, variant)


# -- support and moment growth --------------------------------------------------------


def support_interval(q: Fraction, v: Fraction) -> Tuple[float, float]:
    """Support endpoints of the (q,1,v,1) law: +- 2 / (sqrt(1-q) sqrt(1-v))."""
    q = float(q)
    v = float(v)
    if not (q < 1 and v < 1):
        raise ValueError("support formula needs q < 1 and v < 1")
    r = 2.0 / (math.sqrt(1.0 - q) * math.sqrt(1.0 - v))
    return (-r, r)


def max_abs_root(coeffs: Sequence) -> float:
    """Largest |root| of a polynomial given by ascending coefficients."""
    import numpy as np

    arr = np.array([float(c) for c in coeffs], dtype=float)
    nz = np.nonzero(arr)[0]
    if len(nz) == 0 or nz[-1] == 0:
        return 0.0
    arr = arr[: nz[-1] + 1]
    roots = np.roots(arr[::-1])
    return float(max(abs(r) for r in roots))


def carleman_sums(j: JacobiData, nmax: int) -> Tuple[float, float]:
    """(sum of gamma_n^(-1/2) for n < nmax, harmonic sum H_nmax).

    For the (q,t,1,1) family gamma_{n-1} = [n]_{q,t} * n <= n^2, so the first
    component dominates the second; its divergence is the moment-determinacy
    criterion for these laws.
    """
    if len(j.gamma) < nmax:
        raise ValueError("not enough gamma entries")
    partial = sum(1.0 / math.sqrt(float(g)) for g in j.gamma[:nmax])
    harmonic = sum(1.0 / k for k in range(1, nmax + 1))
    return partial, harmonic
