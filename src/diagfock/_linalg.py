"""Small exact linear algebra helpers over Fraction (and generic scalars).

Matrices are tuples of tuples (rows).  Every product is built from the one
inner-product loop :func:`dot`, which refuses sequences of unequal length, so
:func:`mat_vec` and :func:`mat_mul` refuse mismatched dimensions alike.
Both eliminations run fraction-free (Bareiss) on integers: a matrix is
cleared once by :func:`diagfock.scalars._cleared_array`, and no step pays a
Fraction's gcd on every entry.  The Gauss-Jordan :func:`_reduce` serves the
solves (every right-hand side of a system in one pass, as the columns of a
matrix, each entry divided once at the end) and the ranks.  The LDL^T
:func:`_ldlt`, in index order, gives the definiteness verdicts of
:func:`ldlt_classify` (the Levy Hankel check) and, in one elimination, the
verdict and the basis of the GNS reconstruction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .scalars import _cleared_array

Matrix = Tuple[Tuple, ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if any(len(row) != len(b) for row in a):  # no dot runs when b has no columns
        raise ValueError(f"mat_mul needs a row length of a equal to the {len(b)} rows of b")
    cols = transpose(b)
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


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


def solve_linear(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B exactly for square nonsingular A, each column of B one
    right-hand side: Gauss-Jordan on the augmented rows [A | B], which must
    pivot in each column of A and in none of B's.  X comes as rows, like B."""
    n = len(a)
    width = len(b[0]) if b else 0
    if any(len(row) != n for row in a) or len(b) != n or any(len(row) != width for row in b):
        raise ValueError(f"solve_linear needs an n x n matrix and n rows of right-hand sides, got {n} rows and {len(b)}")
    rows, pivots, d = _reduce([tuple(row) + tuple(rhs) for row, rhs in zip(a, b)])
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in rows)


def ldlt_classify(a: Matrix) -> Tuple[str, int]:
    """Classify a symmetric rational matrix by exact LDL^T with symmetric pivoting.

    Returns (verdict, kernel_dim) where verdict is one of
    'positive_definite', 'positive_semidefinite', 'indefinite',
    'negative_semidefinite', 'negative_definite', 'zero'.

    The matrix is block diagonal up to order over the connected components
    of its nonzero pattern (i ~ j when a[i][j] != 0).  Each component is
    eliminated on its own by :func:`_ldlt` and the verdicts combine by
    :func:`block_diagonal_classify`, so the elimination of one block never
    carries the pivots of another.
    """
    if not is_symmetric(a):
        raise ValueError("ldlt_classify needs a symmetric matrix")
    return block_diagonal_classify(_ldlt([[a[i][j] for j in comp] for i in comp])[:2] for comp in _components(a))


def _components(a: Matrix) -> List[List[int]]:
    """The connected components of the nonzero pattern of a symmetric matrix,
    each as its sorted indices."""
    n = len(a)
    seen = [False] * n
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp, stack = [], [root]
        while stack:
            i = stack.pop()
            comp.append(i)
            for j, x in enumerate(a[i]):
                if x != 0 and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _ldlt(a: Sequence[Sequence]) -> Tuple[str, int, List[int]]:
    """(verdict, kernel, pivots) of a symmetric rational matrix by LDL^T,
    each pivot the first nonzero diagonal entry of the Schur complement.

    If the remaining diagonal is all zero but an off-diagonal entry
    survives, the matrix is indefinite (a symmetric matrix with zero
    diagonal and a nonzero entry has eigenvalues of both signs), with the
    kernel of the remaining block.  By Sylvester's law the verdict does not
    depend on the pivot order.  In a positive semidefinite matrix a zero
    Schur diagonal entry has a zero row, which stays zero, so the pivots are
    the greedy maximal independent family of the vectors whose Gram matrix
    it is; ((0, 1), (1, 0)), outside that contract, is indefinite.

    Fraction-free (Bareiss): after k pivots every active entry is an integer
    bordered minor M, whose Schur complement entry is M / M_k for the k-th
    pivot minor M_k, and pivot k has the sign of M_k * M_(k-1).
    """
    m = [list(row) for row in _cleared_array(a)]
    active = list(range(len(m)))  # the original index of each active row and column
    pivots: List[int] = []
    prev = 1
    neg = 0
    while m:
        k = next((i for i in range(len(m)) if m[i][i] != 0), None)
        if k is None:
            if any(map(any, m)):
                return ("indefinite", len(m) - _rank(m), pivots)
            break
        piv = m[k][k]
        neg += (piv > 0) != (prev > 0)
        pivots.append(active.pop(k))
        pivot_row = m.pop(k)
        del pivot_row[k]
        col = [row.pop(k) for row in m]
        m = [[(x * piv - f * y) // prev for x, y in zip(row, pivot_row)] for row, f in zip(m, col)]
        prev = piv
    return _verdict(len(pivots) > neg, neg > 0, len(a) - len(pivots)) + (pivots,)


def _verdict(pos: bool, neg: bool, kernel: int) -> Tuple[str, int]:
    """The verdict of a matrix with positive and/or negative pivots and a kernel."""
    if pos and neg:
        return ("indefinite", kernel)
    if pos:
        return ("positive_definite" if kernel == 0 else "positive_semidefinite", kernel)
    if neg:
        return ("negative_definite" if kernel == 0 else "negative_semidefinite", kernel)
    return ("zero", kernel)


def block_diagonal_classify(blocks: Iterable[Tuple[str, int]]) -> Tuple[str, int]:
    """Classify a block-diagonal matrix from the (verdict, kernel) of each
    block.  Inertia adds over blocks: the matrix is indefinite when a block
    is, or when one block has a positive pivot and another a negative one,
    and the kernels add."""
    pos = neg = False
    kernel = 0
    for verdict, k in blocks:
        pos = pos or verdict in ("positive_definite", "positive_semidefinite", "indefinite")
        neg = neg or verdict in ("negative_definite", "negative_semidefinite", "indefinite")
        kernel += k
    return _verdict(pos, neg, kernel)


def _rank(rows: Sequence[Sequence]) -> int:
    return len(_reduce(rows)[1])


def _reduce(rows: Sequence[Sequence]) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free Gauss-Jordan elimination: (d times the reduced rows, the
    pivot columns, d).

    The rows are cleared to integers by one scale.  Column by column, the
    first remaining row with a nonzero entry is the pivot row, and every
    other row is cleared by it (Bareiss).  After pivot p each row is p times
    its state over Fraction, its entries integer minors (by Cramer's rule
    above the pivot), so the division by the previous pivot is exact.
    """
    m = [list(row) for row in _cleared_array(rows)]
    pivots: List[int] = []
    d = 1
    for col in range(len(m[0]) if m else 0):
        row = len(pivots)
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        top = m[row]
        p = top[col]
        for r, other in enumerate(m):
            if r != row:
                f = other[col]
                m[r] = [(x * p - f * y) // d for x, y in zip(other, top)]
        d = p
        pivots.append(col)
    return m, pivots, d
