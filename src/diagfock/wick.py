"""Moment formulas: Wick sums over diagonally paired partitions.

Three layers, all exact:

  * ``gaussian_wick``: vacuum moments of field operators (creation plus
    annihilation) as a sum over diagonal pair partitions, weighted by
    q^cr t^nest on the top row and v^cr w^nest on the bar row, with inner
    products of the paired vectors.
  * ``word_vacuum_formula``: the vector obtained by applying an arbitrary
    creation/annihilation word to the vacuum, as a sum over compatible
    pairs-plus-singletons partitions with crossing/covering corrections and a
    residual tensor of the surviving creator vectors.
  * ``full_wick``: vacuum moments of general operators (field + gauge +
    scalar) as a sum over all diagonal partitions, with restricted crossing
    and nesting weights and matrix-chain block factors.

The same partition weights drive the scalar moment/cumulant transforms,
which are the word functionals of :mod:`diagfock.levy` on one letter: r_n is
the cumulant of the word 0^n.  The Gaussian and general sums go through the
role-class kernel of :mod:`diagfock.partitions` (its docstring states the
factorisation): both rows carry block values, so they sum T(R) * B(R) over
the Bell(n) rows.  The word expansion factorises into a top-row expansion
tensored with a bar-row expansion.  Every formula here has an operator-side
counterpart in :mod:`diagfock.fock`; tests hold the two routes against each
other.  The two moment oracles keep only the terms that can still return to
the vacuum; the word oracle returns the whole vector.  Every function here
refuses entries whose xi or eta dimension differs from entry 0's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from .levy import cumulant_functional, moment_functional
from .partitions import Block, SetPartition, _walk, diagonal_sum
from .scalars import DeformationParams, ResourceLimitError
from .fock import (
    ANNIHILATE,
    CREATE,
    FockVector,
    GaugePair,
    VectorPair,
    _quadrabasic_parts,
    _vacuum_moment,
    annihilation_apply,
    creation_apply,
)

MAX_WICK_N = 10


@dataclass(frozen=True)
class QuadrabasicOp:
    """One general operator: field part x, gauge pair g, scalars lam, lambar."""

    vector: VectorPair
    gauge: Optional[GaugePair]
    lam: Fraction = Fraction(0)
    lambar: Fraction = Fraction(0)

    def __post_init__(self):
        g, x = self.gauge, self.vector
        for name, mat, d in () if g is None else (("T", g.top, len(x.xi)), ("Tbar", g.bar, len(x.eta))):
            if len(mat) != d or any(len(row) != d for row in mat):
                raise ValueError(f"gauge {name} must be {d} x {d} to act on a {d}-dimensional vector")

    @property
    def scalar(self) -> Fraction:
        return self.lam * self.lambar


def _same_dims(pairs: Sequence[VectorPair], key: str) -> None:
    """Name the first entry whose xi (or eta) dimension differs from entry 0's."""
    for i, x in enumerate(pairs):
        for side in ("xi", "eta"):
            dim, first = len(getattr(x, side)), len(getattr(pairs[0], side))
            if dim != first:
                raise ValueError(f"{key}[{i}]: {side} has dimension {dim}, but {key}[0] has {first}")


def gaussian_wick(xs: Sequence[VectorPair], params: DeformationParams):
    """Vacuum moment of field operators G(x_1) ... G(x_n).

    Sum over diagonal pair partitions: the top row pairs (l, r) contribute
    <xi_l, xi_r>, the bar row pairs <eta_l, eta_r>, and the partition weight
    is q^cr t^nest (top) times v^cr w^nest (bar).  Odd n gives 0.  This is
    :func:`full_wick` with no gauge and zero scalars, where only pair blocks
    have a nonzero value.
    """
    _same_dims(xs, "vectors")
    n = len(xs)
    if n > MAX_WICK_N:
        raise ResourceLimitError(f"wick sum guarded at n <= {MAX_WICK_N}")
    if n % 2:
        return Fraction(0)
    no_gauge, zeros = [None] * n, [Fraction(0)] * n
    top = _chain_value([x.xi for x in xs], no_gauge, zeros)
    bar = _chain_value([x.eta for x in xs], no_gauge, zeros)
    return diagonal_sum(n, params, top, bar)


def gaussian_fock_oracle(xs: Sequence[VectorPair], params: DeformationParams):
    """The same moment by applying the operators to the vacuum (independent route)."""
    _same_dims(xs, "vectors")
    return _vacuum_moment([_quadrabasic_parts(x, None, 0, params, None) for x in xs])


# -- creation/annihilation word expansion ------------------------------------------


def word_vacuum_formula(tokens: Sequence[Tuple[str, VectorPair]], params: DeformationParams) -> FockVector:
    """The vector (token_1 ... token_n) vacuum as a combinatorial sum.

    Tokens are ('create', x) or ('annihilate', x), position 1 leftmost (acting
    last).  The sum runs over pairs of pairs-plus-singletons partitions whose
    rows share the annihilator positions as pair openers; each row weight is
    q^(cr + covered singletons) t^(nest + pairs-left-of-singleton) for the top
    (v, w for the bar), each pair (i, j) contributes the inner product of the
    annihilator vector at i with the creator vector at j, and the surviving
    creator vectors form the residual tensor, in position order.

    Every row pairs each annihilator with a later creator, so all rows share
    one opener set and the sum is the top-row expansion tensored with the
    bar-row expansion.  The rows are the open-arc walk with annihilators
    opening arcs and creators closing one or standing alone.
    """
    _same_dims([x for _, x in tokens], "tokens")
    n = len(tokens)
    if n > MAX_WICK_N:
        raise ResourceLimitError(f"word expansion guarded at n <= {MAX_WICK_N}")
    if any(kind not in (CREATE, ANNIHILATE) for kind, _ in tokens):
        raise ValueError("word_vacuum_formula tokens must be create/annihilate only")
    letters = ["O" if kind == ANNIHILATE else "CS" for kind, _ in tokens]
    rows = [(SetPartition._canonical(n, blocks), rc, rn) for _, rc, rn, blocks in _walk(n, letters)]
    top = _word_row([x.xi for _, x in tokens], rows, params.q, params.t)
    bar = _word_row([x.eta for _, x in tokens], rows, params.v, params.w)
    out = FockVector()
    for top_word, top_coeff in top.items():
        for bar_word, bar_coeff in bar.items():
            out.add_term((top_word, bar_word), top_coeff * bar_coeff)
    return out


def _word_row(vectors: Sequence[Sequence], rows, a, b) -> Dict[Tuple[int, ...], object]:
    """One row of the word expansion as {residual word: coefficient}: each row
    partition's weight times the inner products of its pairs times the tensor
    of its singletons' vectors, expanded in basis words.  ``rows`` holds
    (partition, crossings, nestings) triples."""
    out: Dict[Tuple[int, ...], object] = {}
    for row, rc, rn in rows:
        scalar = Fraction(1)
        for i, j in row.pair_blocks():
            scalar = scalar * _linalg.dot(vectors[i - 1], vectors[j - 1])
        if scalar == 0:
            continue
        coeff = (a ** (rc + row.covered_singletons())) * (b ** (rn + row.singletons_after_pairs())) * scalar
        expansions = [[(c, x) for c, x in enumerate(vectors[s - 1]) if x != 0] for s in row.singletons()]
        for choice in itertools.product(*expansions):
            val = coeff
            for _, x in choice:
                val = val * x
            word = tuple(c for c, _ in choice)
            out[word] = out.get(word, 0) + val
    return out


def word_fock_oracle(tokens: Sequence[Tuple[str, VectorPair]], params: DeformationParams) -> FockVector:
    """The same vector by direct operator application, kept whole."""
    _same_dims([x for _, x in tokens], "tokens")
    f = FockVector.vacuum()
    for kind, x in reversed(tokens):
        if kind == CREATE:
            f = creation_apply(x, f)
        elif kind == ANNIHILATE:
            f = annihilation_apply(x, f, params)
        else:
            raise ValueError(f"bad token kind {kind!r}")
    return f


# -- general Wick formula ------------------------------------------------------------


def _chain_value(vectors: Sequence[Sequence], gauges: Sequence[Optional[_linalg.Matrix]], scalars: Sequence):
    """Block value on one row of the general Wick formula: scalars[i] for a
    singleton {i}; otherwise the vector of the least element paired with the
    gauges of the middle positions applied to the vector of the greatest
    (0 when a middle position has no gauge)."""

    def value(block: Block):
        if len(block) == 1:
            return scalars[block[0] - 1]
        chain = vectors[block[-1] - 1]
        for idx in reversed(block[1:-1]):
            mat = gauges[idx - 1]
            if mat is None:
                return Fraction(0)
            chain = _linalg.mat_vec(mat, chain)
        return _linalg.dot(vectors[block[0] - 1], chain)

    return value


def full_wick(ops: Sequence[QuadrabasicOp], params: DeformationParams):
    """Vacuum moment of general operators as a diagonal-partition sum.

    Weight: q^rc t^rnest over the top row arcs, v^rc w^rnest over the bar row,
    with restricted (cross-block) crossing/nesting counts.  A top block's
    value is the chain of :func:`_chain_value` over (xi, T, lam), a bar
    block's over (eta, T-bar, lam-bar).
    """
    _same_dims([op.vector for op in ops], "operators")
    n = len(ops)
    if n > MAX_WICK_N:
        raise ResourceLimitError(f"wick sum guarded at n <= {MAX_WICK_N}")
    if n == 0:
        return Fraction(1)
    gauges = [op.gauge for op in ops]
    top = _chain_value([op.vector.xi for op in ops], [g and g.top for g in gauges], [op.lam for op in ops])
    bar = _chain_value([op.vector.eta for op in ops], [g and g.bar for g in gauges], [op.lambar for op in ops])
    return diagonal_sum(n, params, top, bar)


def full_fock_oracle(ops: Sequence[QuadrabasicOp], params: DeformationParams):
    """The same moment by operator application (independent route)."""
    _same_dims([op.vector for op in ops], "operators")
    return _vacuum_moment([_quadrabasic_parts(op.vector, op.gauge, op.scalar, params, None) for op in ops])


# -- scalar moment/cumulant transforms -------------------------------------------------


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
    :func:`cumulant_functional` of one coordinate, which fills each r_n in
    during the same pass."""
    words = [(0,) * n for n in range(1, len(m) + 1)]
    psi = cumulant_functional(dict(zip(words, m)), 1, params, len(m))
    return [psi[w] for w in words]
