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
w^rnest weights, one factor of s per block.  The cumulants sit on the top
row and the bar row has value 1, so every such sum here runs on the
open-arc state DP :func:`diagfock.partitions.subword_sums`, one pass over the
trie of the words: for word moments a chain is the row vector
xi_{u1}^T G T_{u2} ... of an open block, and for the functional transforms
its open subword.  The inverse is one such pass too: after each level p
it takes the cumulant of each word of length p as its moment minus the sum
there, its one block over the whole word still unknown, and the pass goes
on from the moment.  The stochastic limit's bar factor is the same
product of deformed integers along the roles of pi,
:func:`diagfock.partitions.unit_bar_sum`.  The
operator model realizes the same numbers on the doubled Fock space over
step functions with the standard inner product: an annihilator on interval
i pairs by lengths[i] G xi_u (G the gram, if any), so the step functions'
inner product lives in its vector; tests compare the two routes exactly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import _guards, _linalg
from .partitions import (
    DiagonalPartition,
    SetPartition,
    diagonal_partitions,
    subword_sums,
    unit_bar_sum,
    _read,
)
from .scalars import DeformationParams, Poly, _cleared, _cleared_array, _denominator, _over

Word = Tuple[int, ...]

_PAIR_ORDER = 12  # tau moments m_0..m_11 of brownian_pair and poisson_pair


class LevySpec(NamedTuple):
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
            if len(g) != d or any(len(row) != d for row in g):
                raise ValueError(f"gram must be {d} x {d}, the dimension of xi")
            if not _linalg.is_symmetric(g):
                raise ValueError("gram must be symmetric")
        return cls(len(xi_t), d, xi_t, T_t, lam_t, g)

    def pair(self, x: Sequence, y: Sequence) -> Fraction:
        if self.gram is None:
            return _linalg.dot(x, y)
        return _linalg.dot(x, _linalg.mat_vec(self.gram, y))


def _check_coordinates(spec: LevySpec, coordinates) -> None:
    for u in coordinates:
        if not (isinstance(u, int) and 0 <= u < spec.k):
            raise ValueError(f"word uses an unknown coordinate {u!r}, but k = {spec.k}")


def levy_cumulant(spec: LevySpec, word: Word, s: Fraction = Fraction(1)) -> Fraction:
    """Single-block cumulant of a word at time s."""
    s = Fraction(s)
    n = len(word)
    if n == 0:
        raise ValueError("cumulant of the empty word is undefined")
    _check_coordinates(spec, word)
    if n == 1:
        return s * spec.lam[word[0]]
    chain = spec.xi[word[-1]]
    for u in reversed(word[1:-1]):
        chain = _linalg.mat_vec(spec.T[u], chain)
    return s * spec.pair(spec.xi[word[0]], chain)


# no sum reads this cache; perfbench/tracer.py reads and clears it by name
@lru_cache(maxsize=_guards.MAX_DIAGONAL_N + 1)  # one entry per n the guard admits
def _diag_partitions_list(n: int) -> Tuple[DiagonalPartition, ...]:
    return tuple(diagonal_partitions(n))


def _subword(word: Word, block: Sequence[int]) -> Word:
    return tuple(word[i - 1] for i in block)


def _vector_chain(starts: Sequence[Sequence], gauges: Sequence[Optional[_linalg.Matrix]] = (), singles=(), ends=None):
    """((single, open_, close, extend), scale): the callbacks of an open-arc
    DP for blocks valued by a vector chain: singles[i] for a singleton {i};
    a block's chain is the row vector starts[b1]^T G_{b2} ... of its points
    so far, a Middle at i multiplying it by gauges[i] (no Middle where that
    is None), and closing at i takes its dot product with ends[i] (starts[i]
    by default).  Every datum comes times one int scale D, the lcm of their
    denominators, so a block of j points carries D^j, and D goes to the
    pass, which returns the scale by which each word's sum is divided.  The
    Wick sums and the Levy moments share it."""
    matrices = (row for g in gauges if g is not None for row in g)
    scale = _denominator(itertools.chain(*starts, *(ends or ()), *matrices, singles))
    starts = [_cleared_array(v, scale) for v in starts]  # a chain is a tuple: the DP hashes it
    ends = starts if ends is None else [_cleared_array(v, scale) for v in ends]
    cols = [None if g is None else _linalg.transpose(_cleared_array(g, scale)) for g in gauges]
    singles = _cleared_array(singles, scale)
    callbacks = (singles.__getitem__, starts.__getitem__, lambda row, i: _linalg.dot(row, ends[i]),
                 lambda row, i: None if cols[i] is None else _linalg.mat_vec(cols[i], row))
    return callbacks, scale


def _chain_values(single, open_, close, extend):
    """The value of the block over each subword u (of letters or of points)
    by the callbacks of :func:`_vector_chain`, for
    :func:`diagfock.partitions.subword_sums`: each open subword's row vector
    is built once per pass, from its prefix's."""
    rows: Dict[tuple, object] = {}

    def row(u):
        vec = rows.get(u)
        if vec is None:
            vec = rows[u] = open_(u[0]) if len(u) == 1 else extend(row(u[:-1]), u[-1])
        return vec

    return lambda u: single(u[0]) if len(u) == 1 else close(row(u[:-1]), u[-1])


def _spec_sums(spec: LevySpec, letters: Sequence[Sequence[int]], params: DeformationParams, s: Fraction, graded=False):
    """The moments of the words over ``letters`` (by block count when
    graded) by one open-arc DP with the cumulants of ``spec`` at time s: a
    chain is the row vector s xi_{u1}^T G T_{u2} ... T_{uk} of its open block
    (G the gram, if any), and closing at u takes its dot product with xi_u."""
    _guards.check_size("the length of a moment word", len(letters), _guards.MAX_DIAGONAL_N)
    _check_coordinates(spec, (u for alphabet in letters for u in alphabet))
    gram_t = None if spec.gram is None else _linalg.transpose(spec.gram)
    starts = [tuple(s * x for x in (xi if gram_t is None else _linalg.mat_vec(gram_t, xi))) for xi in spec.xi]
    chain, scale = _vector_chain(starts, spec.T, [s * lam for lam in spec.lam], ends=spec.xi)
    return _read(*subword_sums(letters, params, _chain_values(*chain), graded=graded, scale=scale))


def levy_moment(spec: LevySpec, word: Word, params: DeformationParams, s: Fraction = Fraction(1)):
    """Moment of a word at time s: diagonal-partition sum of cumulant products."""
    return _spec_sums(spec, [(u,) for u in word], params, Fraction(s))[tuple(word)]


def levy_moment_s_poly(spec: LevySpec, word: Word, params: DeformationParams) -> Dict[int, Fraction]:
    """The moment as a polynomial in the time s: degree (= block count) -> coefficient.

    Each block carries one factor of s, so the DP at s = 1 keeps the block
    count in its state.  The linear coefficient is the single-block cumulant
    at s = 1, which is the generator of the convolution semigroup on this word.
    """
    by_blocks = _spec_sums(spec, [(u,) for u in word], params, Fraction(1), graded=True)[tuple(word)]
    return {k: v for k, v in sorted(by_blocks.items()) if v != 0}


# -- operator model over step functions ---------------------------------------------


def fock_levy_oracle(
    spec: LevySpec,
    tokens: Sequence[Tuple[int, int]],
    lengths: Sequence[Fraction],
    params: DeformationParams,
) -> Fraction:
    """Vacuum moment of a product of process increments, computed on the
    operator model, plus the point's zero: a Poly at the symbolic point, as
    :func:`levy_moment` gives.

    ``tokens`` lists (coordinate u, interval index i); interval i carries the
    rational length lengths[i].  The top one-particle space is the step
    functions, d coordinates per interval, with the inner product
    diag(lengths) (x) gram; the bar space is one-dimensional.  Each token acts
    as creation by xi_u on interval i + annihilation + gauge (T_u cut to its
    interval) + lambda_u * length scalar.  The annihilator pairs through that
    inner product, a symmetric matrix, so it is the standard annihilator by
    lengths[i] gram xi_u on interval i (lengths[i] xi_u with no gram).
    """
    # imported here, so that loading levy does not load fock
    from .fock import ANNIHILATE, CREATE, GAUGE, SCALAR, GaugePair, VectorPair, _vacuum_moment

    _guards.check_size("the length of an operator word", len(tokens), _guards.MAX_DIAGONAL_N)
    lengths = [Fraction(x) for x in lengths]
    _check_coordinates(spec, (u for u, _ in tokens))
    bad = next((i for _, i in tokens if not 0 <= i < len(lengths)), None)
    if bad is not None:
        raise ValueError(f"interval index out of range: {bad}, but the interval count is {len(lengths)}")
    d, size, one = spec.d, len(lengths) * spec.d, (Fraction(1),)

    def on_interval(vec: Sequence, i: int) -> VectorPair:
        coords = [0] * size
        coords[i * d : (i + 1) * d] = vec
        return VectorPair(tuple(coords), one)

    def fock_tokens(u: int, i: int):
        paired = spec.xi[u] if spec.gram is None else _linalg.mat_vec(spec.gram, spec.xi[u])
        gauge = [[0] * size for _ in range(size)]
        for a, row in enumerate(spec.T[u]):
            gauge[i * d + a][i * d : (i + 1) * d] = row
        lam = spec.lam[u] * lengths[i]
        return [
            (CREATE, on_interval(spec.xi[u], i)),
            (ANNIHILATE, on_interval([lengths[i] * x for x in paired], i)),
            (GAUGE, GaugePair(tuple(map(tuple, gauge)), (one,))),
        ] + ([(SCALAR, lam)] if lam != 0 else [])

    shared = {token: fock_tokens(*token) for token in {(u, i) for u, i in tokens}}  # one list per distinct (u, i)
    return _vacuum_moment([shared[u, i] for u, i in tokens], params) + params.q * 0


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

    The intervals have equal lengths, so relabelling them leaves each
    moment unchanged, and an interval no block uses plays no part in it.
    Every one of the (n_intervals)_(|pi|) assignments therefore has the
    moment of block i on interval i of |pi| intervals: one operator-model
    call times the falling factorial.
    """
    n = len(word)
    if pi.n != n:
        raise ValueError("partition size must match the word length")
    _check_coordinates(spec, word)
    if n_intervals < 1:
        raise ValueError(f"stochastic measures need n_intervals >= 1, got {n_intervals}")
    s = Fraction(s)
    assignments = math.perm(n_intervals, len(pi.blocks))
    if assignments == 0:
        return params.q * Fraction(0)  # the point's zero: a Poly at the symbolic point
    interval_of = {pos: i for i, block in enumerate(pi.blocks) for pos in block}
    tokens = [(word[pos - 1], interval_of[pos]) for pos in range(1, n + 1)]
    return assignments * fock_levy_oracle(spec, tokens, [s / n_intervals] * len(pi.blocks), params)


def stochastic_limit(
    spec: LevySpec, word: Word, pi: SetPartition, s: Fraction, params: DeformationParams
) -> Fraction:
    """Refinement limit of :func:`stochastic_measure`: the sum over diagonal
    partitions whose top row equals pi of weight times cumulant products: the
    top weight of pi times its cumulants times the bar row sum of its class,
    which is a product of deformed integers along pi's roles."""
    n = len(word)
    if pi.n != n:
        raise ValueError("partition size must match the word length")
    s = Fraction(s)
    bar = unit_bar_sum(pi.roles(), params.v, params.w)
    total = (params.q ** pi.restricted_crossings()) * (params.t ** pi.restricted_nestings()) * bar
    for block in pi.blocks:
        total = total * levy_cumulant(spec, _subword(word, block), s)
    return total


# -- moment functionals, products, convolution ----------------------------------------

Functional = Dict[Word, Fraction]


def functional_from_spec(spec: LevySpec, params: DeformationParams, maxlen: int, s: Fraction = Fraction(1)) -> Functional:
    """Moment functional of a spec on all words up to maxlen, by one DP pass
    over the trie of the words."""
    _guards.check_size("the word length maxlen of a functional", maxlen, _guards.MAX_DIAGONAL_N)
    return _spec_sums(spec, [range(spec.k)] * maxlen, params, Fraction(s))


def _check_functional(k: int, maxlen: int) -> None:
    """The guard of the functionals (:func:`functional_from_spec` applies
    the second check too) and of the one-variable transforms."""
    _guards.check_size("the letter count k of a functional", k, math.inf)
    _guards.check_size("the word length maxlen of a functional", maxlen, _guards.MAX_DIAGONAL_N)


def _functional_sums(value, k: int, params: DeformationParams, maxlen: int, scale: int,
                     after_level=None) -> Tuple[Dict[Word, object], int]:
    """The open-arc DP over every word of length 1..maxlen on k letters with
    the block over a subword u valued ``value(u)``, cleared by scale^|u|:
    the (sums, scale) of :func:`diagfock.partitions.subword_sums`, the
    moment of the cumulants on a word of m points being its sum over
    scale^m."""
    return subword_sums([range(k)] * maxlen, params, value, scale=scale, after_level=after_level)


def _window(functional: Functional, k: int, maxlen: int) -> List:
    """The values of a functional on every word of length 1..maxlen over
    the k letters, shortest first, refused at the first word it misses or
    values by anything but an int, Fraction or Poly."""
    values = []
    for word in _iter_words(k, maxlen):
        x = _defined(functional, word)
        if not isinstance(x, (int, Fraction, Poly)):
            raise ValueError(f"functional value on word {word} is {x!r}, not an int, Fraction or Poly")
        values.append(x)
    return values


def cumulant_functional(phi: Functional, k: int, params: DeformationParams, maxlen: int) -> Functional:
    """Invert the moment formula word by word:

        Psi(u) = Phi(u) - S'(u),

    S'(u) the forward sum over the diagonal partitions of u but the one
    block over all of u (alone in its role class, with weight 1), by one
    forward pass up to maxlen.  A block that closes at point p covers at
    most p points, and only the block over the whole prefix covers p, so
    the pass reads that block as not known yet (None) during level p and
    the empty state of a word u of length p then holds S'(u).  After level
    p, Psi(u) = Phi(u) - S'(u), and Phi(u), cleared in the weights' ring,
    takes the place of S'(u) there, so that longer words see the block
    over the whole prefix (``after_level`` of
    :func:`diagfock.partitions.subword_sums`).

    The pass clears Psi by one scale fixed before it, D = D_phi (E F)^h,
    h = ceil((maxlen - 1) / 2) = maxlen // 2, D_phi the lcm of the
    denominators of Phi and E, F those of (q, t) and (v, w).  Lemma:
    Psi(u) D_phi^n (E F)^C(n,2) is an int (a Poly of denominator 1 at the
    symbolic point), n = |u|.  Ending arc j of k open arcs adds k - 1 to
    rc + rn, and (E F)^(k - 1) clears its weight.  Each of those k - 1
    counts pairs the arc that ends at p with an arc open over p, opened at
    a point i < p of another block; charged to {i, p}, no pair of points is
    charged twice, so rc + rn <= C(n,2) - sum of C(|B|,2) over the blocks B.
    By induction on n, every term of S'(u), and so Psi(u), is then cleared
    by D_phi^n (E F)^C(n,2).  Since C(j,2) <= j h for j <= maxlen, a block
    of j points is cleared by D^j, as the pass needs.  Psi(u) is a Fraction
    at a rational point and a Poly at the symbolic point.
    """
    _check_functional(k, maxlen)
    lift = _denominator(params[:2]) * _denominator(params[2:])
    scale = _denominator(_window(phi, k, maxlen)) * lift ** (maxlen // 2)
    psi: Functional = {}

    def value(sub):
        x = psi.get(sub)
        return None if x is None else _cleared(x, scale ** len(sub))

    def after_level(sums, pass_scale, zero):
        for u, rest in sums.items():
            unit = pass_scale ** len(u)
            psi[u] = phi[u] - _over(zero if rest is None else rest, unit)
            moment = zero + _cleared(phi[u], unit)
            sums[u] = None if moment == 0 else moment

    _functional_sums(value, k, params, maxlen, scale, after_level)
    return psi


def moment_functional(psi: Functional, k: int, params: DeformationParams, maxlen: int) -> Functional:
    """Expand cumulants back into moments over all diagonal partitions."""
    _check_functional(k, maxlen)
    scale = _denominator(_window(psi, k, maxlen))
    value = lambda sub: _cleared(psi[sub], scale ** len(sub))
    return _read(*_functional_sums(value, k, params, maxlen, scale))


def cumulants_to_moments(r: Sequence, params: DeformationParams) -> List:
    """m_n = sum over diagonal partitions of weight * product of r_{block size}.

    ``r`` lists r_1..r_N; returns m_1..m_N.  This is :func:`moment_functional`
    on one coordinate, r_n being the cumulant of the word 0^n: one pass of
    the open-arc DP gives every m_n.
    """
    words = [(0,) * n for n in range(1, len(r) + 1)]
    phi = moment_functional(dict(zip(words, r)), 1, params, len(r))
    return [phi[w] for w in words]


def moments_to_cumulants(m: Sequence, params: DeformationParams) -> List:
    """Triangular inversion of :func:`cumulants_to_moments`: the
    :func:`cumulant_functional` of one coordinate, r_n being m_n minus the
    forward sum at n with r_n still 0."""
    words = [(0,) * n for n in range(1, len(m) + 1)]
    psi = cumulant_functional(dict(zip(words, m)), 1, params, len(m))
    return [psi[w] for w in words]


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


class GeneratorPair(NamedTuple):
    """A one-variable generator: drift-type scalar lam and the moment sequence
    tau_moments = (m_0(tau), m_1(tau), ...) of a finite positive measure.

    Cumulants: r_1 = lam, r_n = m_{n-2}(tau) for n >= 2."""

    lam: Fraction
    tau_moments: Tuple[Fraction, ...]

    @classmethod
    def of(cls, lam, tau_moments: Sequence) -> "GeneratorPair":
        return cls(Fraction(lam), tuple(Fraction(x) for x in tau_moments))

    def cumulants(self, nmax: int) -> List[Fraction]:
        """r_1..r_nmax."""
        _guards.check_size("the cumulant count nmax", nmax, math.inf)
        if len(self.tau_moments) < nmax - 1:
            raise ValueError(f"need tau moments up to order {nmax - 2}")
        return [self.lam, *self.tau_moments][:nmax]


def brownian_pair(s=1) -> GeneratorPair:
    """Gaussian-type generator at time s: lam = 0, tau = s * (unit mass at 0),
    with _PAIR_ORDER tau moments."""
    s = Fraction(s)
    return GeneratorPair(Fraction(0), (s,) + tuple(Fraction(0) for _ in range(_PAIR_ORDER - 1)))


def poisson_pair(s=1) -> GeneratorPair:
    """Poisson-type generator at time s: lam = s, tau = s * (unit mass at 1),
    with _PAIR_ORDER tau moments."""
    s = Fraction(s)
    return GeneratorPair(s, tuple(s for _ in range(_PAIR_ORDER)))


def convolve_pairs(a: GeneratorPair, b: GeneratorPair) -> GeneratorPair:
    """Convolution adds generators: lam and tau moments add componentwise."""
    order = min(len(a.tau_moments), len(b.tau_moments))
    return GeneratorPair(
        a.lam + b.lam,
        tuple(a.tau_moments[i] + b.tau_moments[i] for i in range(order)),
    )


def pair_to_moments(p: GeneratorPair, params: DeformationParams, nmax: int) -> List[Fraction]:
    return cumulants_to_moments(p.cumulants(nmax), params)


def moments_to_pair(m: Sequence, params: DeformationParams) -> GeneratorPair:
    r = moments_to_cumulants(list(m), params)
    if not r:
        raise ValueError("need at least the first moment")
    return GeneratorPair(r[0], tuple(r[1:]))


def hankel_psd_check(tau_moments: Sequence) -> Tuple[str, int]:
    """(verdict, kernel) of the s x s Hankel matrix [m_(i+j)] of a moment
    sequence m_0, m_1, ..., exact by LDL^T, with s = (len - 1) // 2 + 1.

    It reads m_0..m_(2(s-1)), so the last moment of an even-length sequence
    is not read; the empty sequence gives ("zero", 0)."""
    m = [Fraction(x) for x in tau_moments]
    size = (len(m) - 1) // 2 + 1
    rows = tuple(tuple(m[i + j] for j in range(size)) for i in range(size))
    return _linalg._ldlt(rows)[:2]


# -- conditional positivity and reconstruction -----------------------------------------


def _iter_words(k: int, maxlen: int) -> Iterator[Word]:
    """Words over 0..k-1 of length 1..maxlen, shortest first, lazily."""
    return itertools.chain.from_iterable(itertools.product(range(k), repeat=n) for n in range(1, maxlen + 1))


def _defined(psi: Functional, word: Word):
    """psi(word), refused where psi misses the word."""
    if word not in psi:
        raise ValueError(f"functional not defined on word {word}")
    return psi[word]


def _psi_value(psi: Functional, word: Word) -> Fraction:
    x = _defined(psi, word)
    return x if type(x) is Fraction else Fraction(x)


def _check_window(psi: Functional, k: int, longest: int, inside: int) -> None:
    """Raise at the first word of length 1..longest over the k letters that
    psi misses, ``inside`` of them in psi.  The window is counted only as
    far as len(psi), so a psi too short for it fails within len(psi) + 1
    listed words, before a word list of the window is built."""
    size, n = 0, 0
    while n < longest and size <= len(psi):
        n += 1
        size += k ** n
    if inside < size:
        for word in _iter_words(k, longest):
            _psi_value(psi, word)


def gns_reconstruct(psi: Functional, k: int, maxlen: int) -> Tuple[LevySpec, Dict[str, object]]:
    """Reconstruct coordinate data (xi, T, lam, gram) from a cumulant
    functional psi, presented on words up to length 2 * maxlen + 2.

    The space is the span of word classes of length 1..maxlen under the
    kernel psi(reverse(u) v), which must be positive semidefinite there
    (psi conditionally positive).  One LDL^T of its Gram matrix, in the
    words' order, gives both that verdict and a greedy maximal independent
    family of word classes, its pivots.  Left multiplication by a coordinate
    is compressed onto the span (a second LDL^T, of the basis rows, solves
    for every target word at once), and lam_i = psi(x_i).  For
    reversal-symmetric psi, which is validated, each compression T is
    exactly Gram-symmetric: gram T is the matrix [psi(reverse(b) i b')].

    The round trip (single-block cumulants of the result) reproduces psi on
    all words of length <= maxlen + 1; longer words see the compression.
    """
    _guards.check_size("the letter count k of a functional", k, math.inf)
    _guards.check_size("the word length maxlen of the reconstruction", maxlen, math.inf)
    letters, longest = range(k), max(1, 2 * maxlen)
    keys = [w for w in psi if isinstance(w, tuple) and 1 <= len(w) <= 2 * maxlen + 2 and all(map(letters.__contains__, w))]
    for w in keys:  # each pair {w, reversed(w)} once, from its smaller word; a palindrome is its own pair
        rev = w[::-1]
        if w < rev and rev in psi and psi[w] != psi[rev]:
            raise ValueError("functional is not reversal-symmetric")
    _check_window(psi, k, longest, sum(len(w) <= longest for w in keys))  # each coordinate, each word of length 2..2*maxlen
    words = list(_iter_words(k, maxlen))
    gram_full = tuple(tuple(_psi_value(psi, tuple(reversed(u)) + v) for v in words) for u in words)
    verdict, _, chosen, _ = _linalg._ldlt(gram_full)
    if verdict not in ("positive_definite", "positive_semidefinite", "zero"):
        raise ValueError("functional is not conditionally positive on this window")
    basis = [words[i] for i in chosen]
    dim = len(basis)
    gram = tuple(tuple(gram_full[i][j] for j in chosen) for i in chosen)
    # every coordinate, then every coordinate times every basis class, in basis coordinates
    targets = [(i,) for i in range(k)] + [(i,) + b for i in range(k) for b in basis]
    coords = _linalg._ldlt(gram, [[_psi_value(psi, tuple(reversed(b)) + w) for w in targets] for b in basis])[3]
    xi = tuple(tuple(row[i] for row in coords) for i in range(k))
    mats = tuple(tuple(row[k + i * dim : k + (i + 1) * dim] for row in coords) for i in range(k))
    lam = tuple(_psi_value(psi, (i,)) for i in range(k))
    return LevySpec(k, dim, xi, mats, lam, gram if dim else None), {"dim": dim, "basis": basis}
