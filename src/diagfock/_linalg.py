"""Small exact linear algebra helpers over Fraction (and generic scalars).

Matrices are tuples of tuples (rows).  Every product is built from the one
inner-product loop :func:`dot`, which refuses sequences of unequal length, so
:func:`mat_vec` refuses mismatched dimensions alike.  The one elimination is
the LDL^T :func:`_ldlt`, in index order and fraction-free (Bareiss) on
integers: a matrix and its right-hand sides are cleared once by
:func:`diagfock.scalars._cleared_array`, and no step pays a Fraction's gcd on
every entry.  It gives the verdict and kernel of the Levy Hankel check
:func:`diagfock.levy.hankel_psd_check` and, for the GNS reconstruction, the
verdict and basis of one elimination and the solve on that basis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .scalars import _cleared_array

Matrix = Tuple[Tuple, ...]


def mat_vec(a: Matrix, x: Sequence) -> Tuple:
    return tuple(dot(row, x) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def dot(x: Sequence, y: Sequence):
    s = None
    for a, b in zip(x, y, strict=True):
        term = a * b
        s = term if s is None else s + term
    return s if s is not None else Fraction(0)


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def _ldlt(a: Sequence[Sequence], b: Optional[Sequence[Sequence]] = None) -> Tuple[str, int, List[int], Matrix]:
    """(verdict, kernel, pivots, x) of a symmetric rational matrix a by
    LDL^T, each pivot the first nonzero diagonal entry of the Schur
    complement; x solves a[p][p] x = b[p] on the pivots p, as Fraction rows,
    one per pivot, for the right-hand sides b, one row per row of a (x is ()
    when b is None).

    If the remaining diagonal is all zero but an entry m_ij survives, the
    congruence e_i -> e_i + e_j puts 2 m_ij on the diagonal and the
    elimination goes on; by Sylvester's law neither the verdict nor the
    kernel depends on the congruence or on the pivot order.  In a positive
    semidefinite matrix a zero Schur diagonal entry has a zero row, which
    stays zero, so the pivots are the greedy maximal independent family of
    the vectors whose Gram matrix it is; the pivots and x of other
    matrices are unspecified.

    Fraction-free (Bareiss): a and b are cleared by one scale, and after k
    pivots every active entry is an integer bordered minor M (linear in each
    row, so a congruence keeps it one), whose Schur complement entry is
    M / M_k for the k-th pivot minor M_k; pivot k has the sign of
    M_k * M_(k-1).  Each pivot row, kept with its columns, is one equation
    of a triangular system on the pivots, solved by back substitution on
    D x, an integer by Cramer's rule for the last pivot minor D.
    """
    n = len(a)
    m = [list(row) for row in _cleared_array(a if b is None else [(*r, *s) for r, s in zip(a, b, strict=True)])]
    active = list(range(n))  # the original index of each active row and column
    pivots: List[int] = []
    kept = []  # (pivot, the active columns left, the pivot row on them and on b), one per pivot
    prev = 1
    neg = 0
    while m:
        size = len(m)
        k = next((i for i in range(size) if m[i][i] != 0), None)
        if k is None:
            pair = next(((i, j) for i in range(size) for j in range(i + 1, size) if m[i][j] != 0), None)
            if pair is None:
                break
            k, j = pair
            m[k] = [x + y for x, y in zip(m[k], m[j])]
            for row in m:
                row[k] += row[j]
        piv = m[k][k]
        neg += (piv > 0) != (prev > 0)
        pivots.append(active.pop(k))
        pivot_row = m.pop(k)
        del pivot_row[k]
        kept.append((piv, tuple(active), pivot_row))
        col = [row.pop(k) for row in m]
        m = [[(x * piv - f * y) // prev for x, y in zip(row, pivot_row)] for row, f in zip(m, col)]
        prev = piv
    verdict = _verdict(len(pivots) > neg, neg > 0, n - len(pivots)) + (pivots,)
    if b is None:
        return verdict + ((),)
    scaled = {}  # prev times the solution, by original index
    for index, (piv, cols, row) in zip(reversed(pivots), reversed(kept)):
        acc = [prev * c for c in row[len(cols):]]
        for j, u in zip(cols, row):
            if u and j in scaled:
                acc = [s - u * t for s, t in zip(acc, scaled[j])]
        scaled[index] = [s // piv for s in acc]
    return verdict + (tuple(tuple(Fraction(s, prev) for s in scaled[i]) for i in pivots),)


def _verdict(pos: bool, neg: bool, kernel: int) -> Tuple[str, int]:
    """The verdict of a matrix with positive and/or negative pivots and a kernel."""
    if pos and neg:
        return ("indefinite", kernel)
    if pos:
        return ("positive_definite" if kernel == 0 else "positive_semidefinite", kernel)
    if neg:
        return ("negative_definite" if kernel == 0 else "negative_semidefinite", kernel)
    return ("zero", kernel)
