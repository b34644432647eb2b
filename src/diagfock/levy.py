"""Stationary-increment process layer: cumulants, stochastic measures,
convolution of moment functionals, and GNS-style reconstruction.

A process family is described by :class:`LevySpec`: k noncommuting
coordinates, each given by a vector xi_u, a symmetric matrix T_u and a scalar
lambda_u on a common d-dimensional space (optionally carrying a rational
Gram matrix when the coordinates are classes in a quotient rather than an
orthonormal frame).  The time-s cumulant of a word u_1 ... u_n is

    R(u, s) = s * lambda_{u_1}                   (n = 1)
    R(u, s) = s * <xi_{u_1}, T_{u_2} ... T_{u_{n-1}} xi_{u_n}>   (n >= 2)

and moments come from the diagonal-partition sum with q^rc t^rnest v^rc
w^rnest weights, one factor of s per block.  Every such sum here goes through
the role-class kernel of :mod:`diagfock.partitions` (its docstring states the
factorisation), with the cumulants on the top row and weights only on the
bar row.  The operator model realizes the same numbers on the doubled Fock
space over step functions; tests compare the two routes exactly, with
interval lengths as rational metric weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from .partitions import (
    ROLE_OPENER,
    ROLE_SINGLETON,
    DiagonalPartition,
    SetPartition,
    class_sums,
    diagonal_partitions,
    diagonal_sum,
    row_sums,
)
from .scalars import DeformationParams, ResourceLimitError
from .fock import FockVector, GaugePair, VectorPair, quadrabasic_apply

Word = Tuple[int, ...]

MAX_LEVY_WORD = 8


@dataclass(frozen=True)
class LevySpec:
    """Cumulant data for k process coordinates on a d-dimensional space."""

    k: int
    d: int
    xi: Tuple[Tuple[Fraction, ...], ...]
    T: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]
    lam: Tuple[Fraction, ...]
    gram: Optional[Tuple[Tuple[Fraction, ...], ...]] = None

    @classmethod
    def of(cls, xi: Sequence[Sequence], T: Sequence[Sequence[Sequence]], lam: Sequence, gram=None) -> "LevySpec":
        xi_t = tuple(tuple(Fraction(a) for a in v) for v in xi)
        T_t = tuple(tuple(tuple(Fraction(x) for x in row) for row in m) for m in T)
        lam_t = tuple(Fraction(x) for x in lam)
        if not (len(xi_t) == len(T_t) == len(lam_t)):
            raise ValueError("xi, T, lam must have one entry per coordinate")
        d = len(xi_t[0]) if xi_t else 0
        if any(len(v) != d for v in xi_t):
            raise ValueError("all xi must share a dimension")
        if any(len(m) != d or any(len(r) != d for r in m) for m in T_t):
            raise ValueError("all T must be d x d")
        g = None
        if gram is not None:
            g = tuple(tuple(Fraction(x) for x in row) for row in gram)
        return cls(len(xi_t), d, xi_t, T_t, lam_t, g)

    def pair(self, x: Sequence, y: Sequence) -> Fraction:
        if self.gram is None:
            return _linalg.dot(x, y)
        return _linalg.dot(x, _linalg.mat_vec(self.gram, y))


def levy_cumulant(spec: LevySpec, word: Word, s: Fraction = Fraction(1)) -> Fraction:
    """Single-block cumulant of a word at time s."""
    s = Fraction(s)
    n = len(word)
    if n == 0:
        raise ValueError("cumulant of the empty word is undefined")
    if any(not 0 <= u < spec.k for u in word):
        raise ValueError("word uses an unknown coordinate")
    if n == 1:
        return s * spec.lam[word[0]]
    chain = spec.xi[word[-1]]
    for u in reversed(word[1:-1]):
        chain = _linalg.mat_vec(spec.T[u], chain)
    return s * spec.pair(spec.xi[word[0]], chain)


# no sum reads this cache; perfbench/tracer.py reads and clears it by name
@lru_cache(maxsize=None)
def _diag_partitions_list(n: int) -> Tuple[DiagonalPartition, ...]:
    return tuple(diagonal_partitions(n))


def _subword(word: Word, block: Sequence[int]) -> Word:
    return tuple(word[i - 1] for i in block)


def levy_moment(spec: LevySpec, word: Word, params: DeformationParams, s: Fraction = Fraction(1)):
    """Moment of a word at time s: diagonal-partition sum of cumulant products."""
    n = len(word)
    if n == 0:
        return Fraction(1)
    if n > MAX_LEVY_WORD:
        raise ResourceLimitError(f"moment words guarded at length <= {MAX_LEVY_WORD}")
    s = Fraction(s)
    return diagonal_sum(n, params, lambda block: levy_cumulant(spec, _subword(word, block), s))


def levy_moment_s_poly(spec: LevySpec, word: Word, params: DeformationParams) -> Dict[int, Fraction]:
    """The moment as a polynomial in the time s: degree (= block count) -> coefficient.

    A role class fixes the block count (its openers and singletons), so the
    class sums at s = 1 are grouped by it.  The linear coefficient is the
    single-block cumulant at s = 1, which is the generator of the convolution
    semigroup on this word.
    """
    n = len(word)
    if n == 0:
        return {0: Fraction(1)}
    if n > MAX_LEVY_WORD:
        raise ResourceLimitError(f"moment words guarded at length <= {MAX_LEVY_WORD}")
    out: Dict[int, Fraction] = {}
    sums = class_sums(n, params, lambda block: levy_cumulant(spec, _subword(word, block), Fraction(1)))
    for roles, val in sums.items():
        deg = roles.count(ROLE_OPENER) + roles.count(ROLE_SINGLETON)
        out[deg] = out.get(deg, Fraction(0)) + val
    return {k: v for k, v in out.items() if v != 0}


def diagonal_measure_spec(spec: LevySpec, u: int, n: int) -> LevySpec:
    """Coordinate data of the n-th diagonal measure of coordinate u:

        xi' = T_u^(n-1) xi_u,   T' = T_u^n,   lambda' = <xi_u, T_u^(n-2) xi_u>

    (n >= 2; n = 1 returns the coordinate itself)."""
    if n < 1:
        raise ValueError("diagonal measure needs n >= 1")
    if n == 1:
        return LevySpec(1, spec.d, (spec.xi[u],), (spec.T[u],), (spec.lam[u],), spec.gram)
    mat = spec.T[u]
    power = _linalg.identity(spec.d)
    for _ in range(n - 1):
        power = _linalg.mat_mul(power, mat)
    xi_new = _linalg.mat_vec(power, spec.xi[u])  # T^(n-1) xi
    t_new = _linalg.mat_mul(power, mat)  # T^n
    chain = spec.xi[u]
    for _ in range(n - 2):
        chain = _linalg.mat_vec(mat, chain)
    lam_new = spec.pair(spec.xi[u], chain)
    return LevySpec(1, spec.d, (tuple(xi_new),), (t_new,), (lam_new,), spec.gram)


def combined_spec(a: LevySpec, b: LevySpec) -> LevySpec:
    """Stack two specs on the same space: coordinates of a, then of b."""
    if a.d != b.d or a.gram != b.gram:
        raise ValueError("specs must share the space and gram")
    return LevySpec(a.k + b.k, a.d, a.xi + b.xi, a.T + b.T, a.lam + b.lam, a.gram)


# -- operator model over step functions ---------------------------------------------


def _interval_metric(lengths: Sequence[Fraction], base: Optional[Tuple[Tuple[Fraction, ...], ...]], d: int):
    n = len(lengths)
    size = n * d
    base_rows = base if base is not None else _linalg.identity(d)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i, ln in enumerate(lengths):
        for a in range(d):
            for b in range(d):
                val = Fraction(ln) * base_rows[a][b]
                if val:
                    rows[i * d + a][i * d + b] = val
    return tuple(tuple(r) for r in rows)


def fock_levy_oracle(
    spec: LevySpec,
    tokens: Sequence[Tuple[int, int]],
    lengths: Sequence[Fraction],
    params: DeformationParams,
) -> Fraction:
    """Vacuum moment of a product of process increments, computed on the
    operator model.

    ``tokens`` lists (coordinate u, interval index i); interval i carries the
    rational length lengths[i].  The top one-particle space is (number of
    intervals) x d with the step-function metric diag(lengths) (x) gram; the
    bar space is one-dimensional.  Each token acts as creation + annihilation
    + gauge (T_u cut to its interval) + lambda_u * length scalar.
    """
    if len(tokens) > MAX_LEVY_WORD:
        raise ResourceLimitError(f"operator words guarded at length <= {MAX_LEVY_WORD}")
    lengths = [Fraction(x) for x in lengths]
    n_int = len(lengths)
    d = spec.d
    metric_top = _interval_metric(lengths, spec.gram, d)
    metric = (metric_top, None)
    size = n_int * d

    def embed_vector(u: int, i: int) -> VectorPair:
        coords = [Fraction(0)] * size
        for a in range(d):
            coords[i * d + a] = spec.xi[u][a]
        return VectorPair(tuple(coords), (Fraction(1),))

    def embed_gauge(u: int, i: int) -> GaugePair:
        rows = [[Fraction(0)] * size for _ in range(size)]
        for a in range(d):
            for b in range(d):
                rows[i * d + a][i * d + b] = spec.T[u][a][b]
        return GaugePair(tuple(tuple(r) for r in rows), ((Fraction(1),),))

    f = FockVector.vacuum()
    for u, i in reversed(list(tokens)):
        if not 0 <= i < n_int:
            raise ValueError("interval index out of range")
        f = quadrabasic_apply(
            embed_vector(u, i), embed_gauge(u, i), spec.lam[u] * lengths[i], f, params, metric
        )
    return f.vacuum_coefficient()


def stochastic_measure(
    spec: LevySpec,
    word: Word,
    pi: SetPartition,
    s: Fraction,
    n_intervals: int,
    params: DeformationParams,
) -> Fraction:
    """The partition-indexed stochastic measure over an equal subdivision:

    sum over interval assignments with kernel pi of the operator moments of
    the corresponding increment products ([0, s) split into n_intervals equal
    parts; blocks of pi take pairwise distinct intervals).
    """
    n = len(word)
    if pi.n != n:
        raise ValueError("partition size must match the word length")
    s = Fraction(s)
    piece = s / n_intervals
    lengths = [piece] * n_intervals
    blocks = pi.blocks
    total = Fraction(0)
    for assignment in itertools.permutations(range(n_intervals), len(blocks)):
        interval_of = {}
        for block, iv in zip(blocks, assignment):
            for pos in block:
                interval_of[pos] = iv
        tokens = [(word[pos - 1], interval_of[pos]) for pos in range(1, n + 1)]
        total += fock_levy_oracle(spec, tokens, lengths, params)
    return total


def stochastic_limit(
    spec: LevySpec, word: Word, pi: SetPartition, s: Fraction, params: DeformationParams
) -> Fraction:
    """Refinement limit of :func:`stochastic_measure`: the sum over diagonal
    partitions whose top row equals pi of weight times cumulant products: the
    top weight of pi times its cumulants times the bar row sum of its class."""
    n = len(word)
    if pi.n != n:
        raise ValueError("partition size must match the word length")
    s = Fraction(s)
    bar = row_sums(n, None, params.v, params.w)[pi.roles()]
    total = (params.q ** pi.restricted_crossings()) * (params.t ** pi.restricted_nestings()) * bar
    for block in pi.blocks:
        total = total * levy_cumulant(spec, _subword(word, block), s)
    return total


# -- moment functionals, products, convolution ----------------------------------------

Functional = Dict[Word, Fraction]


def functional_from_spec(spec: LevySpec, params: DeformationParams, maxlen: int, s: Fraction = Fraction(1)) -> Functional:
    """Moment functional of a spec on all words up to maxlen."""
    out: Functional = {(): Fraction(1)}
    for n in range(1, maxlen + 1):
        for word in itertools.product(range(spec.k), repeat=n):
            out[word] = levy_moment(spec, word, params, s)
    return out


def cumulant_functional(phi: Functional, k: int, params: DeformationParams, maxlen: int) -> Functional:
    """Invert the moment formula word by word:

        Psi(u) = Phi(u) - sum over non-maximal diagonal partitions of
                 weight * product of Psi on the top-row subwords,

    the forward sum with the one-block value set to 0 (that block is alone in
    its role class, with weight 1).
    """
    psi: Functional = {}
    for n in range(1, maxlen + 1):
        for word in itertools.product(range(k), repeat=n):
            lower = diagonal_sum(n, params, lambda b: Fraction(0) if len(b) == n else psi[_subword(word, b)])
            psi[word] = phi[word] - lower
    return psi


def moment_functional(psi: Functional, k: int, params: DeformationParams, maxlen: int) -> Functional:
    """Expand cumulants back into moments over all diagonal partitions."""
    phi: Functional = {(): Fraction(1)}
    for n in range(1, maxlen + 1):
        for word in itertools.product(range(k), repeat=n):
            phi[word] = diagonal_sum(n, params, lambda block: psi[_subword(word, block)])
    return phi


def product_functional(
    phi1: Functional, k1: int, phi2: Functional, k2: int, params: DeformationParams, maxlen: int
) -> Functional:
    """The product-state moment functional on k1 + k2 coordinates.

    Its cumulant functional restricts to those of the factors on pure words
    and vanishes on mixed words; moments are then re-expanded.  Coordinates
    0..k1-1 come from phi1, k1..k1+k2-1 from phi2.
    """
    psi1 = cumulant_functional(phi1, k1, params, maxlen)
    psi2 = cumulant_functional(phi2, k2, params, maxlen)
    psi: Functional = {}
    for n in range(1, maxlen + 1):
        for word in itertools.product(range(k1 + k2), repeat=n):
            if all(u < k1 for u in word):
                psi[word] = psi1[word]
            elif all(u >= k1 for u in word):
                psi[word] = psi2[tuple(u - k1 for u in word)]
            else:
                psi[word] = Fraction(0)
    return moment_functional(psi, k1 + k2, params, maxlen)


# -- one-variable laws: generator pairs and convolution --------------------------------


@dataclass(frozen=True)
class GeneratorPair:
    """A one-variable generator: drift-type scalar lam and the moment sequence
    tau_moments = (m_0(tau), m_1(tau), ...) of a finite positive measure.

    Cumulants: r_1 = lam, r_n = m_{n-2}(tau) for n >= 2."""

    lam: Fraction
    tau_moments: Tuple[Fraction, ...]

    @classmethod
    def of(cls, lam, tau_moments: Sequence) -> "GeneratorPair":
        return cls(Fraction(lam), tuple(Fraction(x) for x in tau_moments))

    def cumulants(self, nmax: int) -> List[Fraction]:
        if nmax >= 2 and len(self.tau_moments) < nmax - 1:
            raise ValueError(f"need tau moments up to order {nmax - 2}")
        out = [self.lam]
        for n in range(2, nmax + 1):
            out.append(self.tau_moments[n - 2])
        return out

    def scale_time(self, s) -> "GeneratorPair":
        s = Fraction(s)
        return GeneratorPair(s * self.lam, tuple(s * m for m in self.tau_moments))


def brownian_pair(s=1, order: int = 12) -> GeneratorPair:
    """Gaussian-type generator at time s: lam = 0, tau = s * (unit mass at 0)."""
    s = Fraction(s)
    return GeneratorPair(Fraction(0), (s,) + tuple(Fraction(0) for _ in range(order - 1)))


def poisson_pair(s=1, order: int = 12) -> GeneratorPair:
    """Poisson-type generator at time s: lam = s, tau = s * (unit mass at 1)."""
    s = Fraction(s)
    return GeneratorPair(s, tuple(s for _ in range(order)))


def convolve_pairs(a: GeneratorPair, b: GeneratorPair) -> GeneratorPair:
    """Convolution adds generators: lam and tau moments add componentwise."""
    order = min(len(a.tau_moments), len(b.tau_moments))
    return GeneratorPair(
        a.lam + b.lam,
        tuple(a.tau_moments[i] + b.tau_moments[i] for i in range(order)),
    )


def pair_to_moments(p: GeneratorPair, params: DeformationParams, nmax: int) -> List[Fraction]:
    from .wick import cumulants_to_moments

    return cumulants_to_moments(p.cumulants(nmax), params)


def moments_to_pair(m: Sequence, params: DeformationParams) -> GeneratorPair:
    from .wick import moments_to_cumulants

    r = moments_to_cumulants(list(m), params)
    if not r:
        raise ValueError("need at least the first moment")
    return GeneratorPair(r[0], tuple(r[1:]))


def hankel_psd_check(tau_moments: Sequence) -> Tuple[str, int]:
    """Exact definiteness verdict of the Hankel matrix of a moment sequence."""
    m = [Fraction(x) for x in tau_moments]
    size = (len(m) - 1) // 2 + 1
    rows = tuple(tuple(m[i + j] for j in range(size)) for i in range(size))
    return _linalg.ldlt_classify(rows)


# -- conditional positivity and reconstruction -----------------------------------------


def _words_upto(k: int, maxlen: int) -> List[Word]:
    out: List[Word] = []
    for n in range(1, maxlen + 1):
        out.extend(itertools.product(range(k), repeat=n))
    return out


def _psi_value(psi: Functional, word: Word) -> Fraction:
    if word not in psi:
        raise ValueError(f"functional not defined on word {word}")
    return Fraction(psi[word])


def conditional_positivity_check(psi: Functional, k: int, maxlen: int) -> Tuple[str, int]:
    """Definiteness of the kernel <u, v> = psi(reverse(u) v) on words of
    length 1..maxlen (the constant-free sector).  Needs psi on words up to
    length 2 * maxlen."""
    words = _words_upto(k, maxlen)
    rows = tuple(
        tuple(_psi_value(psi, tuple(reversed(u)) + v) for v in words) for u in words
    )
    return _linalg.ldlt_classify(rows)


def gns_reconstruct(psi: Functional, k: int, maxlen: int) -> Tuple[LevySpec, Dict[str, object]]:
    """Reconstruct coordinate data (xi, T, lam, gram) from a cumulant
    functional psi, presented on words up to length 2 * maxlen + 2.

    The space is the span of word classes of length <= maxlen under the
    kernel psi(reverse(u) v); a maximal independent family of word classes is
    selected greedily, left multiplication by a coordinate is compressed onto
    the span, and lam_i = psi(x_i).  Multiplication compressions are exactly
    symmetric for reversal-symmetric psi, which is validated.

    The round trip (single-block cumulants of the result) reproduces psi on
    all words of length <= maxlen + 1; longer words see the compression.
    """
    for word in _words_upto(k, 2 * maxlen + 2):
        if word in psi and tuple(reversed(word)) in psi:
            if psi[word] != psi[tuple(reversed(word))]:
                raise ValueError("functional is not reversal-symmetric")
    words = _words_upto(k, maxlen)
    gram_full = [[_psi_value(psi, tuple(reversed(u)) + v) for v in words] for u in words]
    verdict, _ = _linalg.ldlt_classify(tuple(tuple(r) for r in gram_full))
    if verdict not in ("positive_definite", "positive_semidefinite", "zero"):
        raise ValueError("functional is not conditionally positive on this window")
    chosen = _linalg.independent_subset(tuple(tuple(r) for r in gram_full))
    basis = [words[i] for i in chosen]
    dim = len(basis)
    gram = tuple(tuple(Fraction(gram_full[i][j]) for j in chosen) for i in chosen)

    def represent(word: Word) -> Tuple[Fraction, ...]:
        rhs = [_psi_value(psi, tuple(reversed(b)) + word) for b in basis]
        if dim == 0:
            return ()
        return _linalg.solve_linear(gram, rhs)

    xi = tuple(represent((i,)) for i in range(k))
    mats = []
    for i in range(k):
        cols = [represent((i,) + b) for b in basis]
        rows = tuple(tuple(cols[j][a] for j in range(dim)) for a in range(dim))
        mats.append(rows)
    lam = tuple(_psi_value(psi, (i,)) for i in range(k))
    spec = LevySpec(k, dim, xi, tuple(mats), lam, gram if dim else None)
    # compression of a symmetric operator: exact Gram-symmetry must hold
    for mat in spec.T:
        gm = _linalg.mat_mul(gram, mat) if dim else ()
        if dim and not _linalg.is_symmetric(gm):
            raise AssertionError("reconstructed multiplication is not Gram-symmetric")
    info = {"dim": dim, "basis": basis}
    return spec, info
