"""Job kinds of the three workloads, their seeded inputs and their output checks.

A job is one timed call into the library.  Each job kind has a fixed size and
the seed changes only the rational values, chosen so that the sums visit the
same terms whatever the seed (see "seeded rationals" below).  The library
receives only the generated inputs.

Each job carries an untimed check against a route independent of the timed
call (the inverse transform, the operator model, a closed form, or a small
evaluator written here), and a canonical form of its exact output for the
run's digest.

The in-process kinds import :mod:`diagfock` lazily; the ``cli-cold`` kinds
never import it, they only build argument vectors and JSON inputs.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Sequence

WORKLOADS = ("cli-cold", "formula-sums", "operator-model")

# A run does round(seconds / NOMINAL_ROUND_S) rounds (one job of every kind
# each), at least one, so its job count depends only on --seconds and a faster
# commit does the same work.  At --seconds 10 that is 2, 4 and 4 rounds: a
# round takes about 5, 3.5 and 2.4 s at the reference speed (see CAL_REF_S),
# and formula-sums gets an extra round because its median and tail jobs are
# the ones whose cost depends most on the seeded values.
NOMINAL_ROUND_S = {"cli-cold": 4.7, "formula-sums": 2.5, "operator-model": 2.4}

# The machine the benchmark was tuned on is shared: for seconds to minutes at a
# time the same Python code runs up to 1.8x slower, in CPU time as well as
# wall time.  Every time the benchmark reports is therefore scaled to the
# speed of a fixed piece of work timed next to it: reported = measured *
# reference / calibration.  In-process times use a stdlib loop; CLI jobs,
# which are mostly process start and imports, use a process that imports a
# few stdlib modules (the loop follows them worse than no scaling at all).
# The references are the calibrations' times when that machine was quiet;
# the raw times are kept in the run's record.
CAL_REF_S = 0.0075
CAL_PROCESS_REF_S = 0.05


def calibrate() -> float:
    """Seconds for a fixed piece of stdlib work: Fraction arithmetic and
    tuple-keyed dict updates, what the library spends its time on."""
    start = perf_counter()
    x, acc, counts = Fraction(1), Fraction(0), {}
    step, shift = Fraction(3, 7), Fraction(1, 3)
    for i in range(1500):
        x = Fraction(1) if i % 40 == 0 else x * step + shift
        acc += x
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
    return perf_counter() - start


def calibrate_process() -> float:
    """Seconds to start a Python process that imports a few stdlib modules."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, fractions, json, typing"], check=True)
    return perf_counter() - start


class Job(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    canon: Callable[[object], str]


# -- seeded rationals ------------------------------------------------------------------
# Small rationals as in tests/helpers.py, with a fixed denominator per use
# (5 for vector entries, 3 for matrix entries, 7 for the deformation point) so
# the seed changes numerators only and every value has the same size.  Vector
# and matrix entries and the points are positive: no inner product, block
# factor or weight can cancel to zero and prune a branch of a sum, so a job
# does the same work whatever the seed.  Cumulant-type inputs are signed and
# never zero.


def rand_frac(r: random.Random, den: int = 5) -> Fraction:
    return Fraction(r.choice((-1, 1)) * r.randint(1, den - 1), den)


def rand_pos(r: random.Random, den: int = 5) -> Fraction:
    return Fraction(r.randint(1, den - 1), den)


def rand_vec(r: random.Random, d: int) -> List[Fraction]:
    return [rand_pos(r) for _ in range(d)]


def rand_mat(r: random.Random, d: int) -> List[List[Fraction]]:
    return [[rand_pos(r, 3) for _ in range(d)] for _ in range(d)]


def rand_sym_mat(r: random.Random, d: int) -> List[List[Fraction]]:
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            m[i][j] = m[j][i] = rand_pos(r, 3)
    return m


def rand_point(r: random.Random, unit_t: bool = False):
    """A strictly admissible point, in sevenths: 0 < q < t <= 1 and
    0 < v < w <= 1, with t = w = 1 when unit_t."""
    t = Fraction(1) if unit_t else Fraction(r.randint(4, 6), 7)
    w = Fraction(1) if unit_t else Fraction(r.randint(4, 6), 7)
    return Fraction(r.randint(1, 3), 7), t, Fraction(r.randint(1, 3), 7), w


def job_rng(seed: int, kind: str, index: int) -> random.Random:
    """One generator per job, so adding a kind leaves the others' inputs alone."""
    return random.Random(f"{seed}:{kind}:{index}")


# -- independent evaluators -------------------------------------------------------


def qt_int(n: int, a, b):
    """[n]_{a,b} = sum_{i=1..n} a^(i-1) b^(n-i)."""
    return sum((a ** (i - 1) * b ** (n - i) for i in range(1, n + 1)), Fraction(0))


def walk_moments(beta: Sequence, gamma: Sequence, nmax: int) -> List[Fraction]:
    """m_1..m_nmax of a Jacobi matrix by iterating J on e_0 (Motzkin path sums),
    not by matrix powers as the library does."""
    size = nmax // 2 + 1
    u = [Fraction(1)] + [Fraction(0)] * (size - 1)
    out = []
    for _ in range(nmax):
        u = [
            beta[i] * u[i]
            + (gamma[i] * u[i + 1] if i + 1 < size else 0)
            + (u[i - 1] if i > 0 else 0)
            for i in range(size)
        ]
        out.append(u[0])
    return out


def chain_cumulant(xi, T, lam, word, gram=None) -> Fraction:
    """R(u) = lam_{u1} for one letter, else <xi_{u1}, T_{u2} ... T_{u(n-1)} xi_{un}>."""
    if len(word) == 1:
        return Fraction(lam[word[0]])
    vec = list(xi[word[-1]])
    for u in reversed(word[1:-1]):
        vec = [sum((T[u][i][j] * vec[j] for j in range(len(vec))), Fraction(0)) for i in range(len(vec))]
    if gram is not None:
        vec = [sum((gram[i][j] * vec[j] for j in range(len(vec))), Fraction(0)) for i in range(len(vec))]
    return sum((a * b for a, b in zip(xi[word[0]], vec)), Fraction(0))


def sym_inner_recursive(u, x, a, b, memo) -> Fraction:
    """<e_u, P_n e_x> by the factorisation P_n = (1 (x) P_(n-1)) R_n: the first
    letter of u meets letter k of x with weight a^(k-1) b^(n-k)."""
    key = (u, x)
    if key in memo:
        return memo[key]
    n = len(u)
    if n == 0:
        val = Fraction(1)
    else:
        val = Fraction(0)
        for k in range(n):
            if x[k] == u[0]:
                val += a ** k * b ** (n - 1 - k) * sym_inner_recursive(u[1:], x[:k] + x[k + 1:], a, b, memo)
    memo[key] = val
    return val


def canon(x) -> str:
    """Canonical text of an exact output: Fractions and Polys print canonically;
    containers and Fock vectors are written in sorted key order."""
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in sorted(x.items())) + "}"
    if type(x).__name__ == "FockVector":
        return "F" + canon(x.terms)
    return str(x)  # Fraction, Poly, bool, verdict strings


# -- formula-sums ---------------------------------------------------------------------


def _formula_kinds(toy: bool) -> Dict[str, Callable[[random.Random], Job]]:
    from diagfock import levy as L
    from diagfock import orthopoly as O
    from diagfock import wick as W
    from diagfock.fock import VectorPair
    from diagfock.scalars import DeformationParams, Poly

    SYM = DeformationParams.symbolic()

    def point(r):
        return DeformationParams.from_rationals(*rand_point(r))

    def at(p, x):
        return x.evaluate(p.q, p.t, p.v, p.w) if isinstance(x, Poly) else Fraction(x)

    def roundtrip(n):
        def make(r):
            p, cum = point(r), [rand_frac(r) for _ in range(n)]

            def run():
                m = W.cumulants_to_moments(cum, p)
                return m, W.moments_to_cumulants(m, p)

            return Job("", run, lambda out: out[1] == cum, canon)
        return make

    def c2m_sym(n):
        def make(r):
            p, cum = point(r), [rand_frac(r) for _ in range(n)]
            return Job(
                "",
                lambda: W.cumulants_to_moments(cum, SYM),
                lambda out: [at(p, x) for x in out] == W.cumulants_to_moments(cum, p),
                canon,
            )
        return make

    def gaussian(n, symbolic):
        def make(r):
            p = point(r)
            xs = [VectorPair.of(rand_vec(r, 2), rand_vec(r, 1)) for _ in range(n)]
            return Job(
                "",
                lambda: W.gaussian_wick(xs, SYM if symbolic else p),
                lambda out: at(p, out) == W.gaussian_fock_oracle(xs, p),
                canon,
            )
        return make

    def full(n):
        def make(r):
            p, ops = point(r), rand_ops(r, n)
            return Job("", lambda: W.full_wick(ops, p), lambda out: out == W.full_fock_oracle(ops, p), canon)
        return make

    def word(pattern):
        def make(r):
            p, tokens = point(r), rand_tokens(r, pattern)
            return Job(
                "",
                lambda: W.word_vacuum_formula(tokens, p),
                lambda out: out == W.word_fock_oracle(tokens, p),
                canon,
            )
        return make

    def levy_moment(word_):
        def make(r):
            p, spec, s = point(r), rand_spec(r, 2, 2), rand_pos(r)
            tokens = [(u, 0) for u in word_]
            return Job(
                "",
                lambda: L.levy_moment(spec, word_, p, s),
                lambda out: out == L.fock_levy_oracle(spec, tokens, [s], p),
                canon,
            )
        return make

    def levy_s_poly(word_):
        def make(r):
            p, spec, s = point(r), rand_spec(r, 2, 2), rand_pos(r)
            tokens = [(u, 0) for u in word_]

            def check(out):
                linear = chain_cumulant(spec.xi, spec.T, spec.lam, word_)
                value = sum((c * s ** k for k, c in out.items()), Fraction(0))
                return out.get(1, Fraction(0)) == linear and value == L.fock_levy_oracle(spec, tokens, [s], p)

            return Job("", lambda: L.levy_moment_s_poly(spec, word_, p), check, canon)
        return make

    def functionals(k, maxlen):
        def make(r):
            p = point(r)
            phi = {(): Fraction(1)}
            for n in range(1, maxlen + 1):
                for w in itertools.product(range(k), repeat=n):
                    phi[w] = rand_frac(r)

            def run():
                psi = L.cumulant_functional(phi, k, p, maxlen)
                return psi, L.moment_functional(psi, k, p, maxlen)

            return Job("", run, lambda out: out[1] == phi, canon)
        return make

    def jacobi(family, nmax, symbolic):
        # One fixed point: the matrix powers cost up to 1.5x more at some seeded
        # points than at others, and this kind sits at the run's median.
        def make(r):
            q, t, v, w = Fraction(2, 7), Fraction(5, 7), Fraction(1, 7), Fraction(6, 7)
            p = DeformationParams.from_rationals(q, t, v, w)
            depth = nmax // 2 + 1
            jac = O.jacobi_poisson if family == "poisson" else O.jacobi_hermite
            nn = [qt_int(n, q, t) * qt_int(n, v, w) for n in range(1, depth)]
            beta = [Fraction(0)] + (nn if family == "poisson" else [Fraction(0)] * (depth - 1))
            return Job(
                "",
                lambda: O.moments_from_jacobi(jac(SYM if symbolic else p, depth), nmax),
                lambda out: [at(p, x) for x in out] == walk_moments(beta, nn, nmax),
                canon,
            )
        return make

    if toy:
        return {
            "transform_roundtrip_n5": roundtrip(5),
            "c2m_sym_n4": c2m_sym(4),
            "gaussian_wick_n4": gaussian(4, False),
            "gaussian_wick_sym_n4": gaussian(4, True),
            "full_wick_n4": full(4),
            "word_formula_n4": word("acac"),
            "levy_moment_len4": levy_moment((0, 1, 1, 0)),
            "levy_s_poly_len4": levy_s_poly((0, 1, 1, 0)),
            "functional_roundtrip_k2_len3": functionals(2, 3),
            "jacobi_poisson_n8": jacobi("poisson", 8, False),
            "jacobi_hermite_sym_n4": jacobi("hermite", 4, True),
        }
    return {
        "transform_roundtrip_n8": roundtrip(8),
        "c2m_sym_n7": c2m_sym(7),
        "gaussian_wick_n8": gaussian(8, False),
        "gaussian_wick_sym_n8": gaussian(8, True),
        "full_wick_n6": full(6),
        "full_wick_n7": full(7),
        "word_formula_n8": word(WORD_PATTERN),
        "levy_moment_len6": levy_moment((0, 1, 0, 1, 1, 0)),
        "levy_moment_len7": levy_moment((0, 1, 1, 0, 1, 0, 0)),
        "levy_s_poly_len7": levy_s_poly((1, 0, 0, 1, 0, 1, 1)),
        "functional_roundtrip_k2_len5": functionals(2, 5),
        "jacobi_poisson_n24": jacobi("poisson", 24, False),
        "jacobi_hermite_sym_n6": jacobi("hermite", 6, True),
    }


# word_vacuum_formula / word_fock_oracle: annihilators ('a') pair with later
# creators ('c'); this pattern keeps both routes near 0.1 s at d = 2.
WORD_PATTERN = "aacccacc"


def rand_tokens(r, pattern):
    from diagfock.fock import ANNIHILATE, CREATE, VectorPair

    kinds = {"a": ANNIHILATE, "c": CREATE}
    return [(kinds[ch], VectorPair.of(rand_vec(r, 2), rand_vec(r, 2))) for ch in pattern]


def rand_ops(r, n):
    """n general operators: top d = 2, bar d = 1, with gauges and scalars."""
    from diagfock.fock import GaugePair, VectorPair
    from diagfock.wick import QuadrabasicOp

    return [
        QuadrabasicOp(
            VectorPair.of(rand_vec(r, 2), rand_vec(r, 1)),
            GaugePair.of(rand_mat(r, 2), rand_mat(r, 1)),
            rand_frac(r),
            rand_frac(r),
        )
        for _ in range(n)
    ]


def rand_spec(r, k, d):
    from diagfock.levy import LevySpec

    return LevySpec.of([rand_vec(r, d) for _ in range(k)], [rand_sym_mat(r, d) for _ in range(k)], rand_vec(r, k))


# -- operator-model -------------------------------------------------------------------


def _operator_kinds(toy: bool) -> Dict[str, Callable[[random.Random], Job]]:
    from diagfock import fock as F
    from diagfock import levy as L
    from diagfock import wick as W
    from diagfock.fock import FockVector, GaugePair, VectorPair
    from diagfock.partitions import SetPartition
    from diagfock.scalars import DeformationParams

    def point(r, unit_t=False):
        return DeformationParams.from_rationals(*rand_point(r, unit_t))

    def gaussian(n):
        def make(r):
            p = point(r)
            xs = [VectorPair.of(rand_vec(r, 2), rand_vec(r, 1)) for _ in range(n)]
            return Job("", lambda: W.gaussian_fock_oracle(xs, p), lambda out: out == W.gaussian_wick(xs, p), canon)
        return make

    def full(n):
        def make(r):
            p, ops = point(r), rand_ops(r, n)
            return Job("", lambda: W.full_fock_oracle(ops, p), lambda out: out == W.full_wick(ops, p), canon)
        return make

    def word(pattern):
        def make(r):
            p, tokens = point(r), rand_tokens(r, pattern)
            return Job(
                "",
                lambda: W.word_fock_oracle(tokens, p),
                lambda out: out == W.word_vacuum_formula(tokens, p),
                canon,
            )
        return make

    def levy_oracle(word_):
        # two intervals; the word lives on the second, so the moment is the
        # one-interval moment at time = that interval's length
        def make(r):
            p, spec = point(r), rand_spec(r, 2, 2)
            lengths = [rand_pos(r), rand_pos(r)]
            tokens = [(u, 1) for u in word_]
            return Job(
                "",
                lambda: L.fock_levy_oracle(spec, tokens, lengths, p),
                lambda out: out == L.levy_moment(spec, word_, p, lengths[1]),
                canon,
            )
        return make

    def inner(level, d, nterms):
        # a fixed set of basis pairs; the seed changes only the coefficients
        words = list(itertools.product(range(d), repeat=level))
        keys = [(top, bar) for top in words for bar in words]
        keys = random.Random(f"keys:{level}:{d}").sample(keys, nterms)

        def make(r):
            p = point(r)
            f = FockVector({key: rand_frac(r) for key in keys})
            h = FockVector({key: rand_frac(r) for key in keys})

            def check(out):
                top_memo, bar_memo = {}, {}
                total = Fraction(0)
                for (ft, fb), fc in f.terms.items():
                    for (ht, hb), hc in h.terms.items():
                        total += (
                            fc * hc
                            * sym_inner_recursive(ft, ht, p.q, p.t, top_memo)
                            * sym_inner_recursive(fb, hb, p.v, p.w, bar_memo)
                        )
                return out == total

            return Job("", lambda: F.deformed_inner(f, h, p), check, canon)
        return make

    def adjoint(maxlevel):
        # top d = 2, bar d = 1: the sweep over all basis pairs at d = 2 on both
        # rows is 16x the work (2.6 s), longer than a calibration can follow
        def make(r):
            p, g = point(r), GaugePair.of(rand_mat(r, 2), rand_mat(r, 1))
            return Job("", lambda: F.gauge_adjoint_check(g, p, 2, 1, maxlevel), lambda out: out is True, canon)
        return make

    def positivity(n, d):
        # |a| < b <= 1: the symmetrizer is positive definite at every level
        def make(r):
            q, t, _, _ = rand_point(r)
            return Job(
                "", lambda: F.positivity_check(n, q, t, d), lambda out: out == ("positive_definite", 0), canon
            )
        return make

    def commutation(maxlevel):
        def make(r):
            p = point(r, unit_t=True)
            x1 = VectorPair.of(rand_vec(r, 2), rand_vec(r, 2))
            x2 = VectorPair.of(rand_vec(r, 2), rand_vec(r, 2))
            return Job(
                "", lambda: F.check_commutation_tensor(x1, x2, p, 2, 2, maxlevel), lambda out: out is True, canon
            )
        return make

    def stochastic(n_int):
        # two single blocks on [0, s) cut into n_int pieces: the measure falls
        # short of its limit (s lam)^2 by exactly lam^2 s^2 / n_int
        def make(r):
            p, spec, s = point(r), rand_spec(r, 1, 2), rand_pos(r)
            singles = SetPartition(2, [(1,), (2,)])
            expect = (s * spec.lam[0]) ** 2 * (1 - Fraction(1, n_int))
            return Job(
                "", lambda: L.stochastic_measure(spec, (0, 0), singles, s, n_int, p), lambda out: out == expect, canon
            )
        return make

    def gns_hankel(k, maxlen, atoms):
        def make(r):
            xi = [rand_vec(r, 2) for _ in range(k)]
            T = [rand_sym_mat(r, 2) for _ in range(k)]
            lam = rand_vec(r, k)
            psi = {
                w: chain_cumulant(xi, T, lam, w)
                for n in range(1, 2 * maxlen + 3)
                for w in itertools.product(range(k), repeat=n)
            }
            weights = [rand_pos(r) for _ in range(atoms)]
            nodes = [i + rand_pos(r) for i in range(atoms)]
            tau = [sum((wt * x ** m for wt, x in zip(weights, nodes)), Fraction(0)) for m in range(2 * atoms + 3)]
            size = atoms + 2

            def run():
                spec, info = L.gns_reconstruct(psi, k, maxlen)
                return spec, info["dim"], L.hankel_psd_check(tau)

            def check(out):
                spec, _, verdict = out
                words = [w for w in psi if len(w) <= maxlen + 1]
                same = all(chain_cumulant(spec.xi, spec.T, spec.lam, w, spec.gram) == psi[w] for w in words)
                return same and verdict == ("positive_semidefinite", size - atoms)

            return Job("", run, check, lambda out: canon(((out[0].xi, out[0].T, out[0].lam, out[0].gram), out[1], out[2])))
        return make

    if toy:
        return {
            "gaussian_oracle_n4": gaussian(4),
            "full_oracle_n4": full(4),
            "word_oracle_n4": word("acac"),
            "levy_oracle_len3": levy_oracle((0, 1, 0)),
            "deformed_inner_l2": inner(2, 2, 8),
            "gauge_adjoint_l1": adjoint(1),
            "positivity_n3_d2": positivity(3, 2),
            "commutation_l2": commutation(2),
            "stochastic_measure_i3": stochastic(3),
            "gns_hankel_k1": gns_hankel(1, 1, 2),
        }
    return {
        "gaussian_oracle_n8": gaussian(8),
        "full_oracle_n6": full(6),
        "word_oracle_n8": word(WORD_PATTERN),
        "levy_oracle_len6": levy_oracle((0, 1, 0, 1, 1, 0)),
        "deformed_inner_l4": inner(4, 2, 64),
        "gauge_adjoint_l4": adjoint(4),
        "positivity_n4_d2": positivity(4, 2),
        "positivity_n5_d2": positivity(5, 2),
        "positivity_n6_d2": positivity(6, 2),
        "positivity_n4_d3": positivity(4, 3),
        "commutation_l3": commutation(3),
        "stochastic_measure_i8": stochastic(8),
        "gns_hankel_k2": gns_hankel(2, 2, 3),
    }


# -- cli-cold -------------------------------------------------------------------------


def frac_text(x: Fraction) -> str:
    return str(Fraction(x))


def parse_frac(text) -> Fraction:
    return Fraction(str(text))


def _point_flags(point) -> List[str]:
    return [f"--{name}={frac_text(x)}" for name, x in zip("qtvw", point)]


class CliJob(NamedTuple):
    kind: str
    argv: List[str]
    inputs: Dict[str, object]
    check: Callable[[str], bool]
    canon: Callable[[str], str]


def _json_canon(out: str) -> str:
    data = json.loads(out)
    data.pop("seconds", None)  # wall time reported by `euler`
    return json.dumps(data, sort_keys=True)


def _cli_kinds(toy: bool) -> Dict[str, Callable[[random.Random], CliJob]]:
    def job(argv, check, inputs=None, canon_=_json_canon):
        return CliJob("", argv, inputs or {}, check, canon_)

    def euler(nmax, expect):
        def make(r):
            return job(
                ["euler", "--nmax", str(nmax)],
                lambda out: json.loads(out)["pairs_on_2n"] == {str(i + 1): c for i, c in enumerate(expect)},
            )
        return make

    def partitions(n, count):
        def make(r):
            def check(out):
                data = json.loads(out)
                return data["count"] == len(data["items"]) == count
            return job(["partitions", "--n", str(n)], check)
        return make

    def verify(r):
        return job(["verify"], lambda out: out.rstrip().endswith("6 of 6 checks passed"), canon_=lambda out: out)

    def moments_poisson(nmax):
        def make(r):
            q, t, v, w = rand_point(r)
            nn = [qt_int(n, q, t) * qt_int(n, v, w) for n in range(1, nmax // 2 + 1)]
            expect = [Fraction(1)] + walk_moments([Fraction(0)] + nn, nn, nmax)

            def check(out):
                got = json.loads(out)["moments_from_order_zero"]
                return [parse_frac(x) for x in got] == expect

            return job(["moments", "--family", "poisson", "--nmax", str(nmax)] + _point_flags((q, t, v, w)), check)
        return make

    def polys(nmax):
        def make(r):
            q, t, v, w = rand_point(r)
            gam = [qt_int(n, q, t) * qt_int(n, v, w) for n in range(1, nmax)]
            expect = [[Fraction(1)], [Fraction(0), Fraction(1)]]
            for n in range(1, nmax):
                nxt = [Fraction(0)] + expect[n]
                for i, c in enumerate(expect[n - 1]):
                    nxt[i] -= gam[n - 1] * c
                expect.append(nxt)

            def check(out):
                got = json.loads(out)["monic_coefficients_ascending"]
                return [[parse_frac(c) for c in p] for p in got] == expect

            return job(["polys", "--family", "hermite", "--nmax", str(nmax)] + _point_flags((q, t, v, w)), check)
        return make

    def cauchy(depth):
        def make(r):
            im = float(rand_pos(r)) + 0.5

            def check(out):  # Herglotz: Im z > 0 maps to Im G < 0
                return json.loads(out)["value"]["im"] < 0
            return job(
                ["cauchy", "--family", "hermite", "--depth", str(depth), "--re", str(float(rand_frac(r))),
                 "--im", str(im)] + _point_flags(rand_point(r)),
                check,
            )
        return make

    def density(r):
        q = Fraction(r.randint(2, 4), 7)
        alpha = rand_frac(r, 7)
        return job(
            ["density", "--kind", "qmp", f"--q={q}", f"--alpha={alpha}", "--mass"],
            lambda out: abs(json.loads(out)["mass"] - 1.0) < 1e-6,
        )

    def vec_json(v):
        return [frac_text(x) for x in v]

    def wick_gaussian(n):
        def make(r):
            vectors = [{"xi": vec_json(rand_vec(r, 2)), "eta": vec_json(rand_vec(r, 1))} for _ in range(n)]
            return job(
                ["wick", "--input", "{in}"] + _point_flags(rand_point(r)),
                lambda out: json.loads(out)["match"] is True,
                {"kind": "gaussian", "vectors": vectors},
            )
        return make

    def levy(word_):
        def make(r):
            spec = {
                "xi": [vec_json(rand_vec(r, 2)) for _ in range(2)],
                "T": [[vec_json(row) for row in rand_sym_mat(r, 2)] for _ in range(2)],
                "lam": vec_json(rand_vec(r, 2)),
            }
            s = rand_pos(r)

            def check(out):
                data = json.loads(out)
                poly = {int(k): parse_frac(c) for k, c in data["s_polynomial"].items()}
                value = sum((c * s ** k for k, c in poly.items()), Fraction(0))
                return value == parse_frac(data["moment"]) and parse_frac(data["cumulant"]) == s * poly.get(1, 0)

            return job(
                ["levy", "--input", "{in}"] + _point_flags(rand_point(r)),
                check,
                {"spec": spec, "word": list(word_), "s": frac_text(s)},
            )
        return make

    def convolve(nmax):
        def make(r):
            def pair():
                weights = [rand_pos(r) for _ in range(2)]
                nodes = [rand_pos(r) for _ in range(2)]
                tau = [sum((wt * x ** m for wt, x in zip(weights, nodes)), Fraction(0)) for m in range(nmax)]
                return rand_frac(r), tau

            (la, ta), (lb, tb) = pair(), pair()

            def check(out):
                data = json.loads(out)
                return (
                    parse_frac(data["convolution_lam"]) == la + lb
                    and [parse_frac(x) for x in data["convolution_tau"]] == [x + y for x, y in zip(ta, tb)]
                    and len(data["convolution_moments"]) == nmax
                )

            payload = {
                "a": {"lam": frac_text(la), "tau": vec_json(ta)},
                "b": {"lam": frac_text(lb), "tau": vec_json(tb)},
                "nmax": nmax,
            }
            return job(["convolve", "--input", "{in}"] + _point_flags(rand_point(r)), check, payload)
        return make

    def gns(k, maxlen):
        def make(r):
            xi = [rand_vec(r, 2) for _ in range(k)]
            T = [rand_sym_mat(r, 2) for _ in range(k)]
            lam = rand_vec(r, k)
            psi = {
                " ".join(map(str, w)): frac_text(chain_cumulant(xi, T, lam, w))
                for n in range(1, 2 * maxlen + 3)
                for w in itertools.product(range(k), repeat=n)
            }
            return job(
                ["gns", "--input", "{in}"],
                lambda out: json.loads(out)["roundtrip_ok"] is True,
                {"k": k, "maxlen": maxlen, "psi": psi},
            )
        return make

    if toy:
        return {
            "euler_n3": euler(3, [1, 5, 61]),
            "moments_poisson_n6": moments_poisson(6),
            "verify": verify,
            "wick_gaussian_n4": wick_gaussian(4),
            "gns_k1": gns(1, 1),
        }
    return {
        "euler_n5": euler(5, [1, 5, 61, 1385, 50521]),
        "partitions_n6": partitions(6, 461),
        "verify": verify,
        "moments_poisson_n24": moments_poisson(24),
        "polys_hermite_n16": polys(16),
        "cauchy_d200": cauchy(200),
        "density_mass": density,
        "wick_gaussian_n8": wick_gaussian(8),
        "levy_len6": levy((0, 1, 0, 1, 1, 0)),
        "convolve_n7": convolve(7),
        "gns_k2": gns(2, 2),
    }


# -- assembly --------------------------------------------------------------------------


def kinds(workload: str, toy: bool = False):
    if workload == "formula-sums":
        return _formula_kinds(toy)
    if workload == "operator-model":
        return _operator_kinds(toy)
    if workload == "cli-cold":
        return _cli_kinds(toy)
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, rounds: int, toy: bool = False):
    """(warm-up jobs, timed jobs): one warm-up job per kind, then `rounds`
    rounds of one job per kind, each with its own seeded inputs."""
    table = kinds(workload, toy)

    def make(kind, index):
        return table[kind](job_rng(seed, kind, index))._replace(kind=kind)

    warm = [make(kind, 0) for kind in table]
    timed = [make(kind, 1 + i) for i in range(rounds) for kind in table]
    return warm, timed
