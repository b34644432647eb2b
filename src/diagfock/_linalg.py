"""Small exact linear algebra helpers over Fraction (and generic scalars).

Matrices are tuples of tuples (rows).  Every product is built from the one
inner-product loop :func:`dot`, which refuses sequences of unequal length, so
:func:`mat_vec` and :func:`mat_mul` refuse mismatched dimensions alike.
Sizes stay in the tens-to-hundreds, so one Gauss-Jordan elimination over
exact rationals, :func:`_reduce`, serves the solves (every right-hand side of
a system in one pass, as the columns of a matrix), the ranks and the
independent subsets.
:func:`ldlt_classify`, which classifies the Gram matrices of the Levy
Hankel, conditional-positivity and GNS checks, eliminates fraction-free over
integers instead: their denominators are cleared once, and no step pays a
Fraction's gcd on every entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

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
    rows, pivots = _reduce([list(row) + list(rhs) for row, rhs in zip(a, b)])
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return tuple(tuple(row[n:]) for row in rows)


def ldlt_classify(a: Matrix) -> Tuple[str, int]:
    """Classify a symmetric rational matrix by exact LDL^T with symmetric pivoting.

    Returns (verdict, kernel_dim) where verdict is one of
    'positive_definite', 'positive_semidefinite', 'indefinite',
    'negative_semidefinite', 'negative_definite', 'zero'.

    The matrix is block diagonal up to order over the connected components
    of its nonzero pattern (i ~ j when a[i][j] != 0).  Each component is
    eliminated on its own and the verdicts combine by
    :func:`block_diagonal_classify`, so the elimination of one block never
    carries the pivots of another.
    """
    if not is_symmetric(a):
        raise ValueError("ldlt_classify needs a symmetric matrix")
    return block_diagonal_classify(_classify_block([[a[i][j] for j in comp] for i in comp]) for comp in _components(a))


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


def _classify_block(a: Sequence[Sequence]) -> Tuple[str, int]:
    """:func:`ldlt_classify` on one symmetric block.

    At each step the largest-|value| nonzero diagonal entry of the Schur
    complement is the pivot.  If the remaining diagonal is all zero but an
    off-diagonal entry survives, the matrix is indefinite (a symmetric matrix
    with zero diagonal and a nonzero entry has eigenvalues of both signs),
    and the kernel is that of the remaining block.

    The elimination is fraction-free (Bareiss): the denominators are cleared
    once, and after k pivots every active entry is an integer bordered minor
    M, whose Schur complement entry is M / M_k for the k-th pivot minor M_k.
    Dividing every diagonal entry by the same |M_k| keeps their order by
    absolute value, so the largest-|diagonal| rule picks the same pivots as
    an elimination over Fraction, and pivot k has the sign of M_k * M_(k-1).
    """
    n = len(a)
    rows = [[Fraction(x) for x in row] for row in a]
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    # the active block, rows and columns in their original order
    m = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    prev = 1
    pos = neg = 0
    while m:
        k = max(range(len(m)), key=lambda i: abs(m[i][i]))
        piv = m[k][k]
        if piv == 0:
            if any(map(any, m)):
                rank = _rank([[Fraction(x) for x in row] for row in m])
                return ("indefinite", len(m) - rank)
            break
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        pivot_row = m.pop(k)
        del pivot_row[k]
        col = [row.pop(k) for row in m]
        m = [[(x * piv - f * y) // prev for x, y in zip(row, pivot_row)] for row, f in zip(m, col)]
        prev = piv
    return _verdict(pos > 0, neg > 0, n - pos - neg)


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


def independent_subset(gram: Matrix) -> List[int]:
    """Indices of a maximal linearly independent family, judged through its
    Gram matrix, which must be positive semidefinite: the pivot columns of
    one elimination.

    For such a G, G c = 0 exactly when c^T G c, the squared norm of
    sum_i c_i v_i, is 0, so a column depends on the columns before it exactly
    when its vector depends on theirs: the pivots are the greedy choice.  An
    indefinite matrix falls outside this: ((0, 1), (1, 0)) gives [0, 1],
    though each of its vectors has norm 0."""
    return _reduce(gram)[1]


def _rank(rows: List[List[Fraction]]) -> int:
    return len(_reduce(rows)[1])


def _reduce(rows: Sequence[Sequence]) -> Tuple[List[List], List[int]]:
    """Gauss-Jordan elimination: (the reduced rows, the pivot columns).

    Column by column, the first remaining row with a nonzero entry is the
    pivot row; it is scaled to a leading 1 and cleared from every other row.
    """
    m = [list(r) for r in rows]
    pivots: List[int] = []
    for col in range(len(m[0]) if m else 0):
        row = len(pivots)
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        d = m[row][col]
        m[row] = [x / d for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    return m, pivots
