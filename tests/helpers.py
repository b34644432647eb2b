"""Shared test utilities: seeded rational data and independent slow oracles.

Everything here is deliberately written from first principles (no calls into
the library's own combinatorics) so tests compare two genuinely different
routes to the same numbers.  The last section is the exception: routes built
on the library's own parts that nothing in the library calls, kept here for
the tests that use them as checks of their own.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Dict, List, Sequence, Tuple

from diagfock import _linalg, fock, levy
from diagfock.orthopoly import polys_from_jacobi, quadrature_rule
from diagfock.partitions import SetPartition
from diagfock.scalars import _cleared_array, _cleared_point, _over


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_frac(r: random.Random, num: int = 3, den: int = 4) -> Fraction:
    return Fraction(r.randint(-num, num), r.randint(1, den))


def rand_vec(r: random.Random, d: int) -> Tuple[Fraction, ...]:
    return tuple(rand_frac(r) for _ in range(d))


def rand_mat(r: random.Random, d: int) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(tuple(rand_frac(r, 2, 3) for _ in range(d)) for _ in range(d))


def rand_sym_mat(r: random.Random, d: int) -> Tuple[Tuple[Fraction, ...], ...]:
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            m[i][j] = m[j][i] = rand_frac(r, 2, 3)
    return tuple(tuple(row) for row in m)


# a rational rotation of the plane (columns are orthonormal)
ROTATION_2D = (
    (Fraction(3, 5), Fraction(-4, 5)),
    (Fraction(4, 5), Fraction(3, 5)),
)


def apply_mat(m: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    return tuple(sum(m[i][j] * x[j] for j in range(len(x))) for i in range(len(m)))


# -- slow, library-independent symmetrizer ---------------------------------------------


def sym_inner_brute(u: Sequence[int], x: Sequence[int], a, b):
    """<e_u, P^(n)_{a,b} e_x> from the definition as a sum over all n! permutations:

        sum over sigma with u_i = x_sigma(i) for every i of a^inv(sigma) b^(C(n,2) - inv(sigma)).
    """
    n = len(u)
    if n != len(x):
        return Fraction(0)
    total = Fraction(0)
    for sigma in itertools.permutations(range(n)):
        if any(u[i] != x[sigma[i]] for i in range(n)):
            continue
        inv = sum(1 for i, j in itertools.combinations(range(n), 2) if sigma[i] > sigma[j])
        total = total + (a**inv) * (b ** (n * (n - 1) // 2 - inv))
    return total


def sym_inner_recursive(u: Sequence[int], x: Sequence[int], a, b, memo: Dict) -> Fraction:
    """<e_u, P_n e_x> on the data as given, by P_n = (1 (x) P_(n-1)) R_n
    read from u's side: the first letter of u meets letter k of x with
    weight a^(k-1) b^(n-k).  A zero entry is Fraction(0), as the library
    prunes it, and the empty word's is Fraction(1).  ``memo`` keeps (u, x)
    pairs for one point."""
    key = (tuple(u), tuple(x))
    if key in memo:
        return memo[key]
    n = len(u)
    if n != len(x):
        return Fraction(0)
    if n == 0:
        val = Fraction(1)
    else:
        val = Fraction(0)
        for k in range(n):
            if x[k] == u[0]:
                val += a**k * b ** (n - 1 - k) * sym_inner_recursive(u[1:], x[:k] + x[k + 1 :], a, b, memo)
        if val == 0:
            val = Fraction(0)
    memo[key] = val
    return val


def deformed_inner_pairs(f, h, params):
    """The deformed inner product term pair by term pair on the data as
    given: fc hc <e_ft, P e_ht>_{q,t} <e_fb, P e_hb>_{v,w} summed from
    Fraction(0) over the pairs whose two pairings are nonzero."""
    top_memo, bar_memo = {}, {}
    total = Fraction(0)
    for (ft, fb), fc in f.terms.items():
        for (ht, hb), hc in h.terms.items():
            top = sym_inner_recursive(ft, ht, params.q, params.t, top_memo)
            bar = sym_inner_recursive(fb, hb, params.v, params.w, bar_memo)
            if top != 0 and bar != 0:
                total = total + fc * hc * top * bar
    return total


# -- reference elimination and stochastic measure ---------------------------------------


def rank_brute(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def reduce_fraction(rows: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Gauss-Jordan elimination over Fraction: (the reduced rows, the pivot
    columns).  Column by column, the first remaining row with a nonzero
    entry is the pivot row; it is scaled to a leading 1 and cleared from
    every other row."""
    m = [[Fraction(x) for x in row] for row in rows]
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


def solve_fraction(a: Sequence[Sequence], b: Sequence[Sequence]) -> Tuple[Tuple[Fraction, ...], ...]:
    """X with a X = b for a nonsingular square a, each column of b one
    right-hand side: Gauss-Jordan over Fraction on the rows [a | b]."""
    n = len(a)
    rows, pivots = reduce_fraction([tuple(row) + tuple(rhs) for row, rhs in zip(a, b, strict=True)])
    assert pivots == list(range(n)), "singular system"
    return tuple(tuple(row[n:]) for row in rows)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Tuple[Tuple, ...]:
    """The product of two matrices given as rows, each entry a Fraction sum."""
    cols = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col, strict=True)), Fraction(0)) for col in cols) for row in a)


def ldlt_classify_fraction(a: Sequence[Sequence[Fraction]]) -> Tuple[str, int]:
    """(verdict, kernel) of a symmetric rational matrix by LDL^T over Fraction:
    the pivot is the first largest-|value| nonzero diagonal entry of the Schur
    complement; a zero diagonal with a nonzero entry left is indefinite, with
    the kernel of that remaining block."""
    m = [[Fraction(x) for x in row] for row in a]
    active = list(range(len(m)))
    pos = neg = 0
    kernel = None
    while active:
        p = None
        for i in active:
            if m[i][i] != 0 and (p is None or abs(m[i][i]) > abs(m[p][p])):
                p = i
        if p is None:
            if any(m[i][j] != 0 for i in active for j in active):
                pos = neg = 1
                kernel = len(active) - rank_brute([[m[i][j] for j in active] for i in active])
            break
        pos, neg = (pos + 1, neg) if m[p][p] > 0 else (pos, neg + 1)
        active.remove(p)
        for i in active:
            f = m[i][p] / m[p][p]
            for j in active:
                m[i][j] -= f * m[p][j]
    if kernel is None:
        kernel = len(m) - pos - neg
    if pos and neg:
        return ("indefinite", kernel)
    if pos:
        return ("positive_definite" if kernel == 0 else "positive_semidefinite", kernel)
    if neg:
        return ("negative_definite" if kernel == 0 else "negative_semidefinite", kernel)
    return ("zero", kernel)


def stochastic_measure_brute(moment, word: Sequence[int], blocks: Sequence[Sequence[int]], s, n_intervals: int):
    """The stochastic measure from its definition: [0, s) cut into n_intervals
    equal pieces, the sum over every injective assignment of the blocks
    (1-based positions) to pieces of moment(tokens, lengths), where tokens
    lists (letter, piece) position by position."""
    lengths = [Fraction(s) / n_intervals] * n_intervals
    total = Fraction(0)
    for assignment in itertools.permutations(range(n_intervals), len(blocks)):
        piece = {pos: iv for block, iv in zip(blocks, assignment) for pos in block}
        total += moment([(word[pos - 1], piece[pos]) for pos in range(1, len(word) + 1)], lengths)
    return total


# -- slow, library-independent partition machinery -----------------------------------


def ladder_max(q: Fraction, t: Fraction, count: int) -> Fraction:
    """The exact maximum of [1]_{q,t}, ..., [count]_{q,t}.  With q = a/e and
    t = b/e, the int ladder r_1 = 1, r_n = a r_(n-1) + b^(n-1) gives
    r_n = e^(n-1) [n]_{q,t}, and the best rung so far is carried at the
    scale of the current level, so no Fraction is reduced on the way."""
    e = math.lcm(q.denominator, t.denominator)
    a, b = int(q * e), int(t * e)
    rung = b_pow = best = best_n = scaled = 1
    for n in range(2, count + 1):
        b_pow *= b
        rung = a * rung + b_pow
        scaled *= e
        if rung > scaled:
            best, best_n, scaled = rung, n, rung
    return Fraction(best, e ** (best_n - 1))


def all_partitions_brute(n: int) -> List[Tuple[Tuple[int, ...], ...]]:
    """Every set partition of {1..n} as a tuple of min-sorted blocks."""
    if n == 0:
        return [()]
    out = []
    for smaller in all_partitions_brute(n - 1):
        blocks = [tuple(b) for b in smaller]
        for i in range(len(blocks)):
            out.append(tuple(blocks[:i] + [blocks[i] + (n,)] + blocks[i + 1 :]))
        out.append(tuple(blocks + [(n,)]))
    return [tuple(sorted((tuple(sorted(b)) for b in p), key=lambda b: b[0])) for p in out]


def satisfies_diagonal_conditions(top, bar) -> bool:
    """Literal transcription of the pairing conditions of two partitions of
    [n] (objects with ``n`` and sorted ``blocks``), the oracle of the
    role-vector rule:

      * blocks of size >= 2 start at the same points in both rows,
      * arcs start at the same points in both rows,
      * singletons sit at the same points in both rows.
    """
    def shape(p):
        openers = sorted(b[0] for b in p.blocks if len(b) >= 2)
        arc_starts = sorted(x for b in p.blocks for x in b[:-1])
        singletons = sorted(b[0] for b in p.blocks if len(b) == 1)
        return p.n, openers, arc_starts, singletons

    return shape(top) == shape(bar)


def roles_brute(blocks: Sequence[Sequence[int]], n: int) -> Tuple[str, ...]:
    role = [""] * (n + 1)
    for b in blocks:
        if len(b) == 1:
            role[b[0]] = "S"
        else:
            for x in b:
                if x == min(b):
                    role[x] = "O"
                elif x == max(b):
                    role[x] = "C"
                else:
                    role[x] = "M"
    return tuple(role[1:])


def restricted_counts_brute(blocks: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(crossings, nestings) of the arcs (consecutive points of a block) of
    distinct blocks, each pair of arcs compared once."""
    arcs = [(b[i], b[i + 1], bi) for bi, b in enumerate(blocks) for i in range(len(b) - 1)]
    rc = rn = 0
    for (a, b, i), (c, d, j) in itertools.combinations(arcs, 2):
        if i == j:
            continue
        if a < c < b < d or c < a < d < b:
            rc += 1
        elif (a < c and d < b) or (c < a and b < d):
            rn += 1
    return rc, rn


def kernel_values(result) -> Dict[tuple, object]:
    """The values of an ``arc_sums`` or ``role_sums`` pass (sums, scale):
    the sum of a word of m points over the int scale^m, a dict by block
    count entrywise."""
    sums, scale = result
    assert type(scale) is int and scale >= 1
    out = {}
    for word, total in sums.items():
        u = Fraction(1, scale ** len(word))
        out[word] = {k: x * u for k, x in total.items()} if isinstance(total, dict) else total * u
    return out


def brute_class_sums(n: int, params, top, bar) -> Dict[Tuple[str, ...], object]:
    """The diagonal sum grouped by role class: over every pair (top row, bar
    row) of brute set partitions of [n] with equal role vectors, q^rc t^rn
    v^rc' w^rn' (pairwise arc counts) times ``top`` of each top block times
    ``bar`` of each bar block.  The rows of a class pair freely, so its sum
    is the top rows' sum times the bar rows' sum."""
    out: Dict[Tuple[str, ...], list] = {}
    for blocks in all_partitions_brute(n):
        rc, rn = restricted_counts_brute(blocks)
        top_term, bar_term = params.q**rc * params.t**rn, params.v**rc * params.w**rn
        for block in blocks:
            top_term, bar_term = top_term * top(block), bar_term * bar(block)
        sums = out.setdefault(roles_brute(blocks, n), [Fraction(0), Fraction(0)])
        sums[0], sums[1] = sums[0] + top_term, sums[1] + bar_term
    return {roles: t * b for roles, (t, b) in out.items()}


def chain_value(vectors, gauges, scalars):
    """A block's value on one row of the general Wick formula, from the
    right: the last point's vector through the middle points' gauges (0
    without one), paired with the first point's vector; a singleton's is its
    scalar."""

    def value(block):
        if len(block) == 1:
            return scalars[block[0] - 1]
        vec = vectors[block[-1] - 1]
        for i in reversed(block[1:-1]):
            if gauges[i - 1] is None:
                return Fraction(0)
            vec = apply_mat(gauges[i - 1], vec)
        return sum((a * b for a, b in zip(vectors[block[0] - 1], vec)), Fraction(0))

    return value


def brute_full_wick(ops, params):
    n = len(ops)
    gauges = [op.gauge for op in ops]
    top = chain_value([op.vector.xi for op in ops], [g and g.top for g in gauges], [op.lam for op in ops])
    bar = chain_value([op.vector.eta for op in ops], [g and g.bar for g in gauges], [op.lambar for op in ops])
    return sum(brute_class_sums(n, params, top, bar).values(), Fraction(0))


def pair_partitions_brute(n: int) -> List[Tuple[Tuple[int, int], ...]]:
    if n % 2:
        return []
    if n == 0:
        return [()]
    points = list(range(1, n + 1))

    def rec(rest: Tuple[int, ...]):
        if not rest:
            yield ()
            return
        first = rest[0]
        for idx in range(1, len(rest)):
            partner = rest[idx]
            remaining = rest[1:idx] + rest[idx + 1 :]
            for tail in rec(remaining):
                yield ((first, partner),) + tail

    return [tuple(sorted(m)) for m in rec(tuple(points))]


def crossings_pairs(pairs: Sequence[Tuple[int, int]]) -> int:
    c = 0
    for (a, b), (x, y) in itertools.combinations(pairs, 2):
        lo, hi = (a, b), (x, y)
        if lo[0] > hi[0]:
            lo, hi = hi, lo
        if lo[0] < hi[0] < lo[1] < hi[1]:
            c += 1
    return c


def nestings_pairs(pairs: Sequence[Tuple[int, int]]) -> int:
    c = 0
    for (a, b), (x, y) in itertools.combinations(pairs, 2):
        lo, hi = (a, b), (x, y)
        if lo[0] > hi[0]:
            lo, hi = hi, lo
        if lo[0] < hi[0] and hi[1] < lo[1]:
            c += 1
    return c


def word_rows_brute(kinds: Sequence[str]) -> List[Tuple[Tuple[int, ...], ...]]:
    """Rows of the word expansion for a word of 'a' (annihilator) and 'c'
    (creator) letters: every injective map sending each annihilator to a later
    creator, as min-sorted blocks (the pairs plus the unmatched creators)."""
    anns = [i for i, k in enumerate(kinds, start=1) if k == "a"]
    creators = [i for i, k in enumerate(kinds, start=1) if k == "c"]

    def rec(rest: Sequence[int], free: Tuple[int, ...]):
        if not rest:
            yield ()
            return
        head = rest[0]
        for j in free:
            if j > head:
                for tail in rec(rest[1:], tuple(c for c in free if c != j)):
                    yield ((head, j),) + tail

    out = []
    for pairs in rec(anns, tuple(creators)):
        used = {j for _, j in pairs}
        blocks = list(pairs) + [(c,) for c in creators if c not in used]
        out.append(tuple(sorted(blocks)))
    return out


def word_row_brute(kinds: Sequence[str], vectors: Sequence[Sequence], a, b) -> Dict[Tuple[int, ...], object]:
    """One row of the word expansion as {residual word: coefficient}, row by
    row over :func:`word_rows_brute`: a^(cr + covered singletons)
    b^(nest + singletons after a pair) times the inner products of the pairs
    times the tensor of the singletons' vectors, expanded in basis words."""
    out: Dict[Tuple[int, ...], object] = {}
    for blocks in word_rows_brute(kinds):
        pairs = [blk for blk in blocks if len(blk) == 2]
        singles = [blk[0] for blk in blocks if len(blk) == 1]
        scalar = Fraction(1)
        for i, j in pairs:
            scalar = scalar * sum(x * y for x, y in zip(vectors[i - 1], vectors[j - 1]))
        if scalar == 0:
            continue
        covered = sum(1 for s in singles for i, j in pairs if i < s < j)
        after = sum(1 for s in singles for _, j in pairs if j < s)
        coeff = (a ** (crossings_pairs(pairs) + covered)) * (b ** (nestings_pairs(pairs) + after)) * scalar
        expansions = [[(c, x) for c, x in enumerate(vectors[s - 1]) if x != 0] for s in singles]
        for choice in itertools.product(*expansions):
            val = coeff
            for _, x in choice:
                val = val * x
            word = tuple(c for c, _ in choice)
            out[word] = out.get(word, 0) + val
    return out


def word_expansion_brute(kinds: Sequence[str], tops, bars, params) -> Dict[tuple, object]:
    """The word applied to the vacuum as {(top word, bar word): coefficient}
    without zero terms: the top row's expansion at (q, t) tensored with the
    bar row's at (v, w)."""
    top = word_row_brute(kinds, tops, params.q, params.t)
    bar = word_row_brute(kinds, bars, params.v, params.w)
    terms = (((tw, bw), tc * bc) for tw, tc in top.items() for bw, bc in bar.items())
    return {key: val for key, val in terms if val != 0}


def noncrossing_partitions_brute(n: int) -> List[Tuple[Tuple[int, ...], ...]]:
    """Noncrossing set partitions: no block separates part of another block."""
    return _nc_filter(n)


def _nc_filter(n: int) -> List[Tuple[Tuple[int, ...], ...]]:
    good = []
    for p in all_partitions_brute(n):
        crossing = False
        for b1, b2 in itertools.combinations(p, 2):
            for a, c in itertools.combinations(b1, 2):
                inside = [x for x in b2 if a < x < c]
                outside = [x for x in b2 if x < a or x > c]
                if inside and outside:
                    crossing = True
                    break
            if crossing:
                break
        if not crossing:
            good.append(p)
    return good


def free_cumulants_to_moments(r: Sequence[Fraction], nmax: int) -> List[Fraction]:
    """Moments from free cumulants by summing over noncrossing partitions.

    r[k-1] is the k-th free cumulant; returns [m_1, ..., m_nmax].
    """
    out = []
    for n in range(1, nmax + 1):
        total = Fraction(0)
        for p in _nc_filter(n):
            prod = Fraction(1)
            for b in p:
                prod *= r[len(b) - 1]
            total += prod
        out.append(total)
    return out


def moments_of_atoms(atoms: Sequence[Tuple[Fraction, Fraction]], nmax: int) -> List[Fraction]:
    """[m_0..m_nmax] of a finite atomic measure given as (weight, position)."""
    return [sum(w * x**n for w, x in atoms) for n in range(nmax + 1)]


# -- the Fraction-dict polynomial ------------------------------------------------------

_VAR_NAMES = ("q", "t", "v", "w")
_ZERO4 = (0, 0, 0, 0)


class FractionPoly:
    """The reference for :class:`diagfock.scalars.Poly`: a dict mapping
    exponent 4-tuples (degrees of q, t, v, w) to nonzero Fractions, every
    operation done term by term on Fractions, with no bound on a degree.
    It mixes with ints and Fractions as Poly does, and prints the same text
    and repr."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {tuple(e): Fraction(c) for e, c in (terms or {}).items() if c != 0}

    @staticmethod
    def _coerce(other):
        if isinstance(other, FractionPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPoly({_ZERO4: other})
        return None

    def constant_term(self) -> Fraction:
        return self._terms.get(_ZERO4, Fraction(0))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for exp, c in o._terms.items():
            out[exp] = out.get(exp, 0) + c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly({exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: Dict[tuple, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in o._terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = FractionPoly({_ZERO4: 1})
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._terms == o._terms

    def __hash__(self):
        if self._terms.keys() <= {_ZERO4}:
            return hash(self.constant_term())
        return hash(frozenset(self._terms.items()))

    def evaluate(self, q, t, v, w) -> Fraction:
        vals = (Fraction(q), Fraction(t), Fraction(v), Fraction(w))
        return sum((c * math.prod(x ** e for x, e in zip(vals, exp)) for exp, c in self._terms.items()), Fraction(0))

    def sorted_terms(self):
        """Terms by total degree, then q-heavy first (q before t before v before w)."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))

    def __str__(self) -> str:
        chunks = []
        for exp, coeff in self.sorted_terms():
            mono = "".join(name if e == 1 else f"{name}^{e}" for name, e in zip(_VAR_NAMES, exp) if e)
            body = str(abs(coeff)) if not mono else mono if abs(coeff) == 1 else f"{abs(coeff)} {mono}"
            sign = ("" if coeff > 0 else "-") if not chunks else ("+ " if coeff > 0 else "- ")
            chunks.append(sign + body)
        return " ".join(chunks) or "0"

    def __repr__(self) -> str:
        return f"Poly({dict(self.sorted_terms())!r})"


# -- dense Jacobi-matrix powers -------------------------------------------------------


def moments_by_matrix_powers(beta: Sequence, gamma: Sequence, nmax: int) -> List:
    """[m_1..m_nmax] as the top-left entries (A^k)[0][0] of the dense
    (floor(nmax/2)+1)-square Jacobi matrix A: beta on the diagonal, gamma
    above it, 1 below it, 0 elsewhere.

    Row 0 of A^k is row 0 of A^(k-1) times A, which is how a full matrix
    product computes it, so only that row is carried.  Every product of the
    row with a column is summed in full, zero entries included, starting
    from the first term, so each entry's type is the one the dense product
    gives (a Fraction stays a Fraction; anything added to a Poly is a Poly).
    """
    if nmax < 1:
        return []
    size = nmax // 2 + 1
    a = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        a[i][i] = beta[i]
        if i + 1 < size:
            a[i][i + 1] = gamma[i]
            a[i + 1][i] = Fraction(1)
    row = list(a[0])
    out = []
    for _ in range(nmax):
        out.append(row[0])
        row = [reduce(add, (row[m] * a[m][j] for m in range(size))) for j in range(size)]
    return out


def moments_by_row_walk(beta: Sequence, gamma: Sequence, nmax: int) -> List:
    """[m_1..m_nmax] by the walk r_{k+1}[l] = r_k[l-1] gamma_{l-1} +
    r_k[l] beta_l + r_k[l+1] on the entries as given, from r_0 = [1] (an
    int), each row one level longer than the last up to level nmax // 2.
    Every walk back to 0 is summed, none cleared, so a moment's type is the
    one that arithmetic gives on the entries its walks meet."""
    top = nmax // 2
    row: List = [1]
    out = []
    for _ in range(nmax):
        nxt = []
        for lvl in range(min(len(row) + 1, top + 1)):
            terms = []
            if lvl:
                terms.append(row[lvl - 1] * gamma[lvl - 1])
            if lvl < len(row):
                terms.append(row[lvl] * beta[lvl])
            if lvl + 1 < len(row):
                terms.append(row[lvl + 1])
            nxt.append(reduce(add, terms))
        row = nxt
        out.append(row[0])
    return out


def polys_by_recurrence(beta: Sequence, gamma: Sequence, nmax: int) -> List[List]:
    """P_0..P_nmax by P_(n+1) = (x - beta_n) P_n - gamma_(n-1) P_(n-1) on the
    entries as given, from P_0 = 1 and P_1 = x - beta_0 in the ring of
    beta_0 (1 a Fraction, or a Poly when beta_0 is one)."""
    zero = beta[0] * 0
    one = Fraction(1) + zero
    polys: List[List] = [[one], [-beta[0], one]][: nmax + 1]
    for n in range(1, nmax):
        nxt = [zero] + polys[n]
        for i, c in enumerate(polys[n]):
            nxt[i] = nxt[i] - beta[n] * c
        for i, c in enumerate(polys[n - 1]):
            nxt[i] = nxt[i] - gamma[n - 1] * c
        polys.append(nxt)
    return polys


# -- Meixner-Pollaczek density as printed: six complex products ------------------------


def mp_density_products(x: float, q: float, alpha: float, variant: str = "corrected") -> float:
    """The Meixner-Pollaczek-type density in the form of the source formula:

        (q; q)_inf (-alpha; q)_inf / (2 pi sqrt(r^2 - x^2))
        * g(1) g(-1) g(sqrt q) g(-sqrt q) / (g(i beta) g(-i beta)),

    with g(b) = prod_k (1 - c b x q^k + b^2 q^(2k)), beta = sqrt(-alpha)
    taken in the complex plane, r = 2 / sqrt(1 - q), and c = sqrt(1 - q)
    ('corrected') or 4 / sqrt(1 - q) ('printed').  Each g is multiplied
    out factor by factor in complex arithmetic until q^k < 1e-20.
    """
    coeff = math.sqrt(1.0 - q) if variant == "corrected" else 4.0 / math.sqrt(1.0 - q)
    r = 2.0 / math.sqrt(1.0 - q)
    if not -r < x < r:
        return 0.0

    def poch(a: float) -> float:
        prod, ak = 1.0, a
        while abs(ak) > 1e-16:
            prod *= 1.0 - ak
            ak *= q
        return prod

    def g(b: complex) -> complex:
        prod, qk = complex(1.0), 1.0
        while True:
            prod *= 1.0 - coeff * b * x * qk + b * b * qk * qk
            qk *= q
            if qk < 1e-20:
                return prod

    beta = cmath.sqrt(complex(-alpha, 0.0))
    pref = poch(q) * poch(-alpha) / (2.0 * math.pi * math.sqrt((r - x) * (x + r)))
    num = g(1.0) * g(-1.0) * g(math.sqrt(q)) * g(-math.sqrt(q))
    return (pref * num / (g(1j * beta) * g(-1j * beta))).real


# -- routes on the library's own parts that only the tests call ------------------------


def quadrabasic_sum(x, g, lam, f, params):
    """(creation + annihilation + gauge + lam) applied to f as the sum of the
    separate actions, with no gauge for g = None: the field operator is
    g = None, lam = 0.  The library applies the same sum in one pass."""
    out = fock.creation_apply(x, f) + fock.annihilation_apply(x, f, params)
    if g is not None:
        out = out + fock.gauge_apply(g, f, params)
    return out + f.scale(lam)


def _apply_ops(ops, terms):
    """(sum over ops of top (x) bar) applied to {(top word, bar word): coeff}
    terms in one pass: each term expands into the products of its top and
    bar images, keyed by the pair.  The library keys its terms by bar word,
    then top word."""
    acc = {}
    for (top, bar), c in terms.items():
        for top_op, bar_op in ops:
            for wt, ct in top_op(top):
                for wb, cb in bar_op(bar):
                    acc[(wt, wb)] = acc.get((wt, wb), 0) + c * ct * cb
    return {key: val for key, val in acc.items() if val != 0}


def _apply_steps(steps, params):
    """The vacuum under a product of steps, each the parts of one operator,
    by one pass per step over the (top, bar) pair terms, on the data as
    given: every term kept, and nothing cleared."""
    (top, _, _), (bar, _, _) = fock._rows([part for step in steps for part in step], params, len(steps), clear=False)
    terms = {((), ()): Fraction(1)}
    for step in reversed(steps):
        terms = _apply_ops([(top[id(t)], bar[id(b)]) for t, b in step], terms)
    out = fock.FockVector()
    out.terms = terms
    return out


def apply_word_pairs(tokens, params):
    """A product of tokens applied to the vacuum on (top, bar) pairs: every
    token expands each pair term into the products of its top and bar images.
    The library runs each row on its own, on cleared ints, and tensors the
    rows once."""
    return _apply_steps([[fock._token_part(token)] for token in tokens], params)


def vacuum_moment_pairs(steps, params):
    """The value of ``fock._vacuum_moment(steps, params)`` on the data as
    given, with no room bound: the vacuum coefficient of the whole vector
    (``Fraction(0)`` where no term returns)."""
    return _apply_steps(steps, params).vacuum_coefficient()


def check_commutation_single(xi1, xi2, a, b, d: int, maxlevel: int = 3) -> bool:
    """Verify the single-row relation on every basis word up to maxlevel:

        a(xi1) a*(xi2) - a a*(xi2) a(xi1)  =  <xi1, xi2> b^n   on level n,

    the twisted ladder relation with twist a and a b^N multiplier that fixes
    the vacuum (b^0 = 1).  The relation maps level n to level n, so the check
    is exact on every level; maxlevel only bounds the basis swept.
    """
    xi1 = tuple(Fraction(x) for x in xi1)
    xi2 = tuple(Fraction(x) for x in xi2)
    inner = _linalg.dot(xi1, xi2)
    create, annihilate = fock._row_create(xi2, (1,) * (maxlevel + 1)), fock._row_annihilate(xi1, fock._Row(a, b))
    for n in range(0, maxlevel + 1):
        for word in itertools.product(range(d), repeat=n):
            f = {word: Fraction(1)}
            lhs = fock._row_apply(annihilate, fock._row_apply(create, f))
            twist = fock._row_apply(create, fock._row_apply(annihilate, f))
            terms = itertools.chain(lhs.items(), ((w, -a * c) for w, c in twist.items()), [(word, -inner * b ** n)])
            if fock._collect(terms):
                return False
    return True


def symmetrizer_matrix(n: int, a, b, d: int):
    """Matrix of P^(n)_{a,b} on words of length n over a d-letter basis (lex
    order), the whole matrix that :func:`ldlt_classify` checks
    ``fock.positivity_check`` against: the library's columns at (E a, E b),
    each entry divided by E^C(n,2), after the library's guard on d^n."""
    fock._check_words(n, d)
    words = list(itertools.product(range(d), repeat=n))
    a, b, e = _cleared_point(a, b)
    scale, row = e ** math.comb(n, 2), fock._Row(a, b)
    # P is symmetric (inv(sigma) = inv(sigma^-1)), so each column serves as a row
    rows = []
    for x in words:
        col = fock._sym_column(x, row)
        rows.append(tuple(_over(col.get(u, 0), scale) for u in words))
    return tuple(rows)


def ldlt_classify(a: Sequence[Sequence]) -> Tuple[str, int]:
    """(verdict, kernel) of a symmetric rational matrix, the tests' whole-matrix
    oracle.

    The matrix is block diagonal up to order over the connected components
    of its nonzero pattern (i ~ j when a[i][j] != 0).  Each component is
    eliminated on its own by ``_linalg._ldlt`` and the verdicts combine by
    :func:`block_diagonal_classify`, so the elimination of one block never
    carries the pivots of another: a symmetrizer matrix splits into many
    small blocks, which one elimination of the whole would carry along.
    """
    if not _linalg.is_symmetric(a):
        raise ValueError("ldlt_classify needs a symmetric matrix")
    return block_diagonal_classify(_linalg._ldlt([[a[i][j] for j in comp] for i in comp])[:2] for comp in _components(a))


def _components(a: Sequence[Sequence]) -> List[List[int]]:
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


def block_diagonal_classify(blocks) -> Tuple[str, int]:
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
    return _linalg._verdict(pos, neg, kernel)


def diagonal_measure_spec(spec, u: int, n: int):
    """Coordinate data of the n-th diagonal measure of coordinate u:

        xi' = T_u^(n-1) xi_u,   T' = T_u^n,   lambda' = <xi_u, T_u^(n-2) xi_u>

    (n >= 2; n = 1 returns the coordinate itself)."""
    levy._check_coordinates(spec, (u,))
    if n < 1:
        raise ValueError("diagonal measure needs n >= 1")
    if n == 1:
        return levy.LevySpec(1, spec.d, (spec.xi[u],), (spec.T[u],), (spec.lam[u],), spec.gram)
    mat = spec.T[u]
    power = tuple(tuple(Fraction(int(i == j)) for j in range(spec.d)) for i in range(spec.d))  # the identity
    for _ in range(n - 1):
        power = mat_mul(power, mat)
    xi_new = _linalg.mat_vec(power, spec.xi[u])  # T^(n-1) xi
    t_new = mat_mul(power, mat)  # T^n
    return levy.LevySpec(1, spec.d, (tuple(xi_new),), (t_new,), (levy.levy_cumulant(spec, (u,) * n),), spec.gram)


def _poly_eval(coeffs: Sequence, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


def orthogonality_residual(j, max_degree: int) -> float:
    """Largest |<P_a, P_b>| for a < b <= max_degree under the
    (max_degree + 2)-point Gauss rule."""
    nodes, weights = quadrature_rule(j, max_degree + 2)
    values = [[_poly_eval(p, x) for x in nodes] for p in polys_from_jacobi(j, max_degree)]
    worst = 0.0
    for a in range(max_degree + 1):
        for b in range(a + 1, max_degree + 1):
            inner = math.fsum(w * u * v for w, u, v in zip(weights, values[a], values[b]))
            worst = max(worst, abs(inner))
    return worst


def kernel_partition(values: Sequence) -> SetPartition:
    """The kernel of a tuple: positions grouped by equal values.

    kernel((5, 2, 5)) partitions [3] into {1,3} | {2}.
    """
    groups: Dict[object, List[int]] = {}
    for pos, val in enumerate(values, start=1):
        groups.setdefault(val, []).append(pos)
    return SetPartition(len(values), list(groups.values()))


def commutation_by_pairs(x1, x2, params, d: int, dbar: int, maxlevel: int = 3) -> bool:
    """The doubled commutation relation of ``fock.check_commutation_tensor``
    checked on every pair (top word, bar word) of each level: both sides of
    the relation applied to the basis pair and collected, at the same
    cleared scales and through the same row operators."""
    q, t, top_e = _cleared_point(params.q, params.t)
    v, w, bar_e = _cleared_point(params.v, params.w)
    xi1, xi2 = _cleared_array((x1.xi, x2.xi))
    eta1, eta2 = _cleared_array((x1.eta, x2.eta))
    inner_top, inner_bar = _linalg.dot(xi1, xi2), _linalg.dot(eta1, eta2)
    unlifted = (1,) * (maxlevel + 1)
    create_top, annihilate_top = fock._row_create(xi2, unlifted), fock._row_annihilate(xi1, fock._Row(q, t))
    create_bar, annihilate_bar = fock._row_create(eta2, unlifted), fock._row_annihilate(eta1, fock._Row(v, w))

    def row_images(create, annihilate, size: int, n: int, lhs_scale, rhs_scale):
        # (word, a c e_word, lhs_scale c a e_word, -rhs_scale c a e_word) for each level-n word
        for word in itertools.product(range(size), repeat=n):
            moved = fock._row_apply(create, fock._row_apply(annihilate, {word: 1})).items()
            ac = fock._row_apply(annihilate, fock._row_apply(create, {word: 1})).items()
            yield word, ac, [(u, lhs_scale * c) for u, c in moved], [(u, -rhs_scale * c) for u, c in moved]

    for n in range(0, maxlevel + 1):
        identity = -(inner_top * inner_bar * (top_e * bar_e) ** n)
        bars = list(row_images(create_bar, annihilate_bar, dbar, n, 1, v * inner_top * top_e**n))
        tops = row_images(create_top, annihilate_top, d, n, -(q * v), q * inner_bar * bar_e**n)
        for top, ac_top, moved_top, rhs_top in tops:
            for bar, ac_bar, moved_bar, rhs_bar in bars:
                # the terms of lhs - rhs, which sum to zero where the relation holds
                difference = itertools.chain(
                    (((wt, wb), ct * cb) for wt, ct in ac_top for wb, cb in ac_bar),
                    (((wt, wb), ct * cb) for wt, ct in moved_top for wb, cb in moved_bar),
                    (((word, bar), c) for word, c in rhs_top),
                    (((top, word), c) for word, c in rhs_bar),
                    [((top, bar), identity)],
                )
                if fock._collect(difference):
                    return False
    return True


def adjoint_by_pairs(g, params, d: int, dbar: int, maxlevel: int = 3) -> bool:
    """The relation of ``fock.gauge_adjoint_check`` checked on every pair of
    basis pairs of each level: <p e_x (x) e_x', e_y (x) e_y'> against
    <e_x (x) e_x', p' e_y (x) e_y'>, each side one top-row pairing times one
    bar-row pairing, at the same cleared scales and through the same row
    operators and columns.  P is symmetric, so <T e_x, e_y>_P pairs T e_x
    with the column P e_y, and <e_x, T' e_y>_P pairs T' e_y with P e_x."""
    (q, t, _), (v, w, _) = _cleared_point(params.q, params.t), _cleared_point(params.v, params.w)

    def row_pairs(mat, row, size: int, n: int):
        words = list(itertools.product(range(size), repeat=n))
        cols = [fock._sym_column(z, row) for z in words]
        unlifted = (1,) * (n + 1)
        gauge, gauge_adj = fock._row_gauge(mat, row, unlifted), fock._row_gauge(_linalg.transpose(mat), row, unlifted)
        images, images_adj = [gauge(z) for z in words], [gauge_adj(z) for z in words]

        def pair(terms, col):
            return sum((c * col[w] for w, c in terms if w in col), 0)

        indices = range(len(words))
        return [(pair(images[x], cols[y]), pair(images_adj[y], cols[x])) for x in indices for y in indices]

    top, bar = _cleared_array(g.top), _cleared_array(g.bar)
    top_row, bar_row = fock._Row(q, t), fock._Row(v, w)
    for n in range(1, maxlevel + 1):
        bars = row_pairs(bar, bar_row, dbar, n)
        for lt, rt in row_pairs(top, top_row, d, n):
            if any(lt * lb != rt * rb for lb, rb in bars):
                return False
    return True


def cumulant_functional_by_length(phi, k: int, params, maxlen: int):
    """The inversion of the moment formula by one forward pass per word
    length, the oracle of ``levy.cumulant_functional``'s one pass: for
    n = 1..maxlen, ``levy.moment_functional`` of psi with psi 0 on every
    word of length n gives on each such word u the sum over the diagonal
    partitions of u but the one block over all of u, and psi(u) is phi(u)
    minus that sum."""
    psi = {}
    for n in range(1, maxlen + 1):
        words = list(itertools.product(range(k), repeat=n))
        psi.update(dict.fromkeys(words, 0))  # the one block over a whole word, 0 in this pass
        sums = levy.moment_functional(psi, k, params, n)
        for u in words:
            psi[u] = phi[u] - sums[u]
    return psi
