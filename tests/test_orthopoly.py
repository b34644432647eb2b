import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import diagfock
import helpers
from diagfock import partitions
from diagfock.scalars import DeformationParams, Poly, Q, T, V, W, _qt_ladder, _qt_row, qt_number
from diagfock.fock import GaugePair, VectorPair
from diagfock.wick import QuadrabasicOp, full_fock_oracle, full_wick, gaussian_wick
from diagfock.orthopoly import (
    JacobiData,
    _integrate,
    _legendre_rule,
    cauchy_transform,
    jacobi_discrete_qhermite,
    jacobi_hermite,
    jacobi_poisson,
    jacobi_qmp,
    jacobi_sech,
    moments_from_jacobi,
    mp_density,
    mp_moment_quad,
    mp_normalization,
    norm_squares_from_jacobi,
    polys_from_jacobi,
    quadrature_rule,
    sech_density,
    sech_moment_quad,
)

SYM = DeformationParams.symbolic()


def params_rat(q, t, v, w):
    return DeformationParams.from_rationals(Fraction(q), Fraction(t), Fraction(v), Fraction(w))


def motzkin_moment(beta, gamma, n):
    """Independent oracle: sum over lattice walks of length n from level 0 to 0
    with up steps weighted 1, flat steps beta[l], down steps gamma[l-1]."""

    def walk(level, steps):
        if level > steps:
            return Fraction(0)  # cannot return to the ground level in time
        if steps == 0:
            return Fraction(1) if level == 0 else Fraction(0)
        total = Fraction(0)
        total += walk(level + 1, steps - 1)  # up: weight 1 (monic)
        total += beta[level] * walk(level, steps - 1)
        if level > 0:
            total += gamma[level - 1] * walk(level - 1, steps - 1)
        return total

    return walk(0, n)


def test_transfer_moments_match_walk_oracle():
    r = helpers.rng(51)
    for _ in range(4):
        beta = [helpers.rand_frac(r) for _ in range(5)]
        gamma = [abs(helpers.rand_frac(r)) + 1 for _ in range(4)]
        jac = JacobiData(tuple(beta), tuple(gamma))
        got = moments_from_jacobi(jac, 8)
        assert got == [motzkin_moment(beta, gamma, n) for n in range(1, 9)]


def typed(xs):
    return [(type(x), x) for x in xs]


def test_moments_from_jacobi_matches_matrix_powers():
    r = helpers.rng(52)
    for depth in range(1, 9):
        for _ in range(6):
            beta = tuple(r.choice([Fraction(0), helpers.rand_frac(r)]) for _ in range(depth))
            gamma = tuple(r.choice([Fraction(0), helpers.rand_frac(r)]) for _ in range(depth - 1))
            jac = JacobiData(beta, gamma)
            for nmax in range(2 * depth):
                got = moments_from_jacobi(jac, nmax)
                assert typed(got) == typed(helpers.moments_by_matrix_powers(beta, gamma, nmax))


FAMILY_POINTS = [
    (params_rat(Fraction(1, 2), 1, Fraction(-1, 3), Fraction(2, 3)), Fraction(1, 3), Fraction(-1, 4)),
    (params_rat(Fraction(-2, 5), Fraction(3, 4), 0, 1), Fraction(-3, 5), Fraction(5, 2)),
]


@pytest.mark.parametrize("params, q, alpha", FAMILY_POINTS)
def test_family_moments_match_matrix_powers(params, q, alpha):
    depth = 8
    families = [
        jacobi_hermite(params, depth),
        jacobi_poisson(params, depth),
        jacobi_qmp(q, alpha, depth),
        jacobi_sech(depth),
        jacobi_discrete_qhermite(q, depth),
    ]
    for jac in families:
        for nmax in range(2 * depth - 1):
            want = helpers.moments_by_matrix_powers(jac.beta, jac.gamma, nmax)
            assert typed(moments_from_jacobi(jac, nmax)) == typed(want)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(1, 2), Fraction(5, 3)])
def test_family_data_match_closed_forms(q):
    # plain powers, not the [n+1] = a [n] + b^n ladder the families run on
    def q_number(n):
        return sum((q**i for i in range(n)), Fraction(0))

    for depth in range(1, 21):
        zeros = typed([Fraction(0)] * depth)
        ns = range(1, depth)
        cases = [
            (jacobi_sech(depth), [Fraction(n) ** 2 for n in ns]),
            (jacobi_discrete_qhermite(q, depth), [q_number(n) * q ** (n - 1) for n in ns]),
        ] + [
            (jacobi_qmp(q, alpha, depth), [q_number(n) * (1 + alpha * q ** (n - 1)) for n in ns])
            for alpha in (Fraction(0), Fraction(-1, 4), Fraction(1), Fraction(7, 2))
        ]
        for jac, gamma in cases:
            assert typed(jac.beta) == zeros
            assert typed(jac.gamma) == typed(gamma), (q, depth)


@pytest.mark.parametrize("family", [jacobi_hermite, jacobi_poisson])
def test_symbolic_family_moments_match_matrix_powers(family):
    jac = family(SYM, 5)
    got = moments_from_jacobi(jac, 8)
    want = helpers.moments_by_matrix_powers(jac.beta, jac.gamma, 8)
    assert typed(got) == typed(want)
    assert [str(x) for x in got] == [str(x) for x in want]
    # moments to order 16 and polynomials to degree 8 on the cleared recurrences, against the rational point;
    # at order 24 the symbolic moments run 10**5 terms and more, and P_24 far more: those take seconds
    point = (Fraction(1, 7), Fraction(4, 7), Fraction(2, 7), Fraction(5, 7))
    at = DeformationParams.from_rationals(*point)
    got = moments_from_jacobi(family(SYM, 9), 16)
    assert all(type(m) is Poly for m in got)
    assert [m.evaluate(*point) for m in got] == moments_from_jacobi(family(at, 9), 16)
    got = polys_from_jacobi(family(SYM, 8), 8)
    assert [[c.evaluate(*point) for c in p] for p in got] == polys_from_jacobi(family(at, 8), 8)


def jacobi_cases(kind, r, depth):
    """(beta, gamma) of the given depth with entries of one kind: all ints;
    ints and Fractions (Fraction(0) and integral Fractions among them);
    Polys; or Polys mixed with ints and Fractions."""
    def entry():
        pick = r.choice({"int": "i", "mixed": "ifzn", "symbolic": "p", "mixed symbolic": "ifp"}[kind])
        if pick == "i":
            return r.randint(-3, 3)
        if pick == "z":
            return Fraction(0)
        if pick == "n":
            return Fraction(r.randint(-3, 3))
        if pick == "f":
            return helpers.rand_frac(r, 4, 6)
        return r.choice([Q, T, W]) * helpers.rand_frac(r, 2, 3) + helpers.rand_frac(r)

    return tuple(entry() for _ in range(depth)), tuple(entry() for _ in range(depth - 1))


@pytest.mark.parametrize("kind", ["int", "mixed", "symbolic", "mixed symbolic"])
def test_cleared_walk_keeps_the_value_and_type_of_the_walk_on_the_entries(kind):
    # at the exact depth nmax // 2 + 1 (moments) and nmax (polynomials), nmax = 0, 1, 2 included
    r = helpers.rng(61)
    for nmax in range(11):
        for _ in range(4):
            beta, gamma = jacobi_cases(kind, r, nmax // 2 + 1)
            got = moments_from_jacobi(JacobiData(beta, gamma), nmax)
            assert typed(got) == typed(helpers.moments_by_row_walk(beta, gamma, nmax)), (beta, gamma, nmax)
            if kind == "int":
                assert all(type(m) is int for m in got)
            beta, gamma = jacobi_cases(kind, r, max(nmax, 1))
            got = polys_from_jacobi(JacobiData(beta, gamma), nmax)
            want = helpers.polys_by_recurrence(beta, gamma, nmax)
            assert [typed(p) for p in got] == [typed(p) for p in want], (beta, gamma, nmax)


def test_cleared_walk_types_at_the_edges():
    # all ints: int moments, and P_1[0] = -beta_0 the one int coefficient
    jac = JacobiData((2, 3), (5,))
    assert typed(moments_from_jacobi(jac, 0)) == []
    assert typed(moments_from_jacobi(jac, 1)) == [(int, 2)]
    assert typed(moments_from_jacobi(jac, 2)) == [(int, 2), (int, 9)]
    assert typed(moments_from_jacobi(jac, 3)) == [(int, 2), (int, 9), (int, 43)]
    assert [typed(p) for p in polys_from_jacobi(jac, 2)] == [
        [(Fraction, 1)],
        [(int, -2), (Fraction, 1)],
        [(Fraction, 1), (Fraction, -5), (Fraction, 1)],
    ]
    # a Fraction reached first by the walks of length 3: m_1 and m_2 stay ints
    jac = JacobiData((2, Fraction(1, 2)), (5,))
    assert typed(moments_from_jacobi(jac, 3)) == [(int, 2), (int, 9), (Fraction, Fraction(61, 2))]
    # an integral Fraction makes the moments from its step on Fractions
    jac = JacobiData((2, 3), (Fraction(5),))
    assert typed(moments_from_jacobi(jac, 2)) == [(int, 2), (Fraction, 9)]
    with pytest.raises(ValueError, match="depth >= 2"):
        moments_from_jacobi(JacobiData((2,), ()), 2)


@pytest.mark.parametrize(
    "a, b",
    [
        (Fraction(1, 2), Fraction(-2, 3)),
        (Fraction(0), Fraction(0)),
        (Fraction(3), 1),
        (Q, Fraction(1, 3)),
        (Fraction(-1, 2), W),
        (Q, T),
        (2, -3),
        (-1, 0),
    ],
)
def test_qt_numbers_match_definition(a, b):
    # the ladder, qt_number and the summand row against the literal power sum
    def power_sum(n):
        terms = [a ** (i - 1) * b ** (n - i) for i in range(1, n + 1)]
        return sum(terms[1:], terms[0]) if terms else Fraction(0)

    want = [power_sum(n) for n in range(10)]
    assert typed([qt_number(n, a, b) for n in range(10)]) == typed(want)
    assert typed(list(_qt_ladder(a, b, 9))) == typed(want[1:])
    for n in range(10):
        row = _qt_row(n, a, b)
        assert len(row) == n and sum(row, Fraction(0)) == want[n]
        if n:
            # read reversed, the row is the step weight of ending the j-th of n open arcs
            expect = sum((x * V**j for j, x in enumerate(reversed(row))), Fraction(0))
            assert row_through_kernel(a, b, n, V) == expect * math.prod(want[1:n])


def row_through_kernel(a, b, n, v):
    """The step weights of ending one of n open arcs at the point (a, b, 1, 0),
    as the kernel builds them: n openers, a closer valuing arc j by v^j and
    n - 1 more closers sum to sum_j w_j v^j [1] ... [n - 1]."""
    letters = [(("O", j),) for j in range(n)] + [("V",)] + [("C",)] * (n - 1)
    sums, scale = partitions.arc_sums(
        letters, (a, b, 1, 0), lambda x: 0, lambda x: x[1] if x[0] == "O" else None,
        lambda j, x: v**j if x == "V" else int(x == "C"), lambda j, x: None,
    )
    # a word with no state (at a = b = 0, n >= 3) is left out: its sum is 0
    return partitions._read(sums, scale).get(tuple(x for x, in letters), 0)


def test_row_weights_keep_the_type_of_their_point():
    # 3 == Fraction(3) with equal hashes, so step weights kept by value alone
    # would hand the entries of whichever point came first to the other; the
    # kernel's weights at the int point and the equal Fraction point give the
    # same Fraction in either order (v = 10 reads each of the three weights)
    points = [(Fraction(3), Fraction(1)), (3, 1)]
    for order in (points, points[::-1]):
        for a, b in order:
            expect = sum(x * 10**j for j, x in enumerate(reversed(_qt_row(3, a, b)))) * qt_number(2, a, b)
            assert typed([row_through_kernel(a, b, 3, 10)]) == typed([Fraction(expect)])


COLD_IMPORT = """
import json, sys
import diagfock, diagfock.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
from diagfock.orthopoly import jacobi_hermite, mp_normalization, quadrature_rule, sech_moment_quad
from helpers import orthogonality_residual
from diagfock.scalars import DeformationParams
jac = jacobi_hermite(DeformationParams.from_rationals(0, 1, 0, 1), 6)
nodes, weights = quadrature_rule(jac, 5)
orthogonality_residual(jac, 3)
sech_moment_quad(2)
mp_normalization(0.5, -0.25)
print(json.dumps({
    "loaded_cold": loaded,
    "loaded_after": sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"}),
    "nodes": [float(x) for x in nodes],
    "weights": [float(x) for x in weights],
}))
"""


def test_cold_import_loads_no_numpy_or_scipy():
    # neither a plain import nor any float path loads numpy or scipy
    src = os.path.dirname(os.path.dirname(diagfock.__file__))
    paths = [src, os.path.dirname(helpers.__file__), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env, capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    assert out["loaded_cold"] == []
    assert out["loaded_after"] == []
    # gamma = 1 (the semicircle): the Gauss nodes are the zeros 2 cos(k pi / 6)
    # of U_5, with weights (1/3) sin^2(k pi / 6)
    angles = [k * math.pi / 6 for k in range(5, 0, -1)]
    assert out["nodes"] == pytest.approx([2 * math.cos(x) for x in angles], abs=1e-12)
    assert out["weights"] == pytest.approx([math.sin(x) ** 2 / 3 for x in angles], abs=1e-12)


def test_hermite_family_reproduces_pair_partition_moments():
    x = VectorPair.of([1], [1])
    jac = jacobi_hermite(SYM, 5)
    got = moments_from_jacobi(jac, 8)
    expect = [gaussian_wick([x] * n, SYM) for n in range(1, 9)]
    assert got == expect


def test_hermite_specializations():
    def even_moments(params):
        jac = jacobi_hermite(params, 5)
        ms = moments_from_jacobi(jac, 8)
        return ms[1::2]

    assert even_moments(params_rat(1, 1, 0, 1)) == [1, 3, 15, 105]
    assert even_moments(params_rat(0, 1, 0, 1)) == [1, 2, 5, 14]
    assert even_moments(params_rat(1, 1, 1, 1)) == [1, 5, 61, 1385]


D1_OPERATORS = {
    # (xi, eta, tau, taubar, lam, lambar) of one operator on d = 1
    "hermite": (1, 1, 0, 0, 0, 0),
    "poisson": (1, 1, 1, 1, 0, 0),
    "generic": (Fraction(2, 3), Fraction(-3, 5), Fraction(1, 2), Fraction(5, 7), Fraction(-1, 3), Fraction(3, 2)),
}


@pytest.mark.parametrize("case", D1_OPERATORS)
def test_one_dimensional_operator_is_a_jacobi_matrix(case):
    # level n is one word pair, on which X = A + A* + p(tau, taubar) + lam lambar
    # is tridiagonal: beta_n = tau taubar [n]_{q,t} [n]_{v,w} + lam lambar and
    # gamma_(n-1) = (xi eta)^2 [n]_{q,t} [n]_{v,w}
    xi, eta, tau, taubar, lam, lambar = D1_OPERATORS[case]
    gauge = GaugePair.of([[tau]], [[taubar]]) if tau * taubar else None
    op = QuadrabasicOp(VectorPair.of([xi], [eta]), gauge, Fraction(lam), Fraction(lambar))
    point = params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 4))
    for params, oracle_n, formula_n in ((point, 10, 8), (SYM, 6, 6)):
        depth = oracle_n // 2 + 1
        nn = [qt_number(n, params.q, params.t) * qt_number(n, params.v, params.w) for n in range(depth)]
        jac = JacobiData(tuple(tau * taubar * x + lam * lambar for x in nn), tuple((xi * eta) ** 2 * x for x in nn[1:]))
        ms = moments_from_jacobi(jac, oracle_n)
        for n in range(1, oracle_n + 1):
            assert full_fock_oracle([op] * n, params) == ms[n - 1], (params, n)
        for n in range(1, formula_n + 1):
            assert full_wick([op] * n, params) == ms[n - 1], (params, n)
        family = {"hermite": jacobi_hermite, "poisson": jacobi_poisson}.get(case)
        if family is not None:
            assert jac == family(params, depth)


def test_poisson_free_specialization():
    ms = moments_from_jacobi(jacobi_poisson(params_rat(0, 1, 0, 1), 3), 4)
    assert ms == [0, 1, 1, 3]


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_polynomials_are_orthogonal_with_product_norms():
    r = helpers.rng(52)
    beta = [helpers.rand_frac(r) for _ in range(5)]
    gamma = [abs(helpers.rand_frac(r)) + 1 for _ in range(4)]
    jac = JacobiData(tuple(beta), tuple(gamma))
    nmax = 4
    polys = polys_from_jacobi(jac, nmax)
    ms = [Fraction(1)] + moments_from_jacobi(jac, 2 * nmax)
    norms = norm_squares_from_jacobi(jac, nmax)

    def pair(p1, p2):
        prod = poly_mul(p1, p2)
        return sum(c * ms[k] for k, c in enumerate(prod))

    for i in range(nmax + 1):
        for j in range(nmax + 1):
            val = pair(polys[i], polys[j])
            if i != j:
                assert val == 0, (i, j)
            else:
                assert val == norms[i]


def test_norm_squares_are_gamma_products():
    jac = jacobi_hermite(params_rat(Fraction(1, 2), 1, Fraction(1, 3), 1), 5)
    norms = norm_squares_from_jacobi(jac, 4)
    acc = Fraction(1)
    expect = [Fraction(1)]
    for g in jac.gamma[:4]:
        acc *= g
        expect.append(acc)
    assert norms == expect
    assert len(norms) == 5  # P_0 through P_4


def test_cauchy_transform_semicircle_closed_form():
    # constant gamma = 1 gives G(z) = (z - sqrt(z^2 - 4)) / 2
    jac = jacobi_hermite(params_rat(0, 1, 0, 1), 200)
    for z in (complex(3.0, 0.0), complex(0.0, 2.0), complex(1.5, 0.5)):
        got = cauchy_transform(jac, z, 200)
        import cmath

        expect = (z - cmath.sqrt(z * z - 4)) / 2
        assert abs(got - expect) < 1e-10


def test_cauchy_transform_matches_quadrature_sum():
    # evaluation points well away from the support so both routes converge
    jac = jacobi_poisson(params_rat(Fraction(1, 2), 1, Fraction(1, 3), 1), 80)
    nodes, weights = quadrature_rule(jac, 60)
    for z in (complex(0.0, 6.0), complex(14.0, 0.5)):
        direct = sum(w / (z - x) for x, w in zip(nodes, weights))
        assert abs(cauchy_transform(jac, z, 80) - direct) < 1e-8


def test_quadrature_integrates_moments():
    jac = jacobi_hermite(params_rat(Fraction(1, 2), 1, Fraction(1, 3), 1), 30)
    nodes, weights = quadrature_rule(jac, 20)
    exact = [Fraction(1)] + moments_from_jacobi(jac, 10)
    for n in range(11):
        quad = sum(w * x**n for x, w in zip(nodes, weights))
        assert abs(quad - float(exact[n])) < 1e-9 * max(1.0, abs(float(exact[n])))


def test_orthogonality_residual_small():
    jac = jacobi_poisson(params_rat(Fraction(1, 3), 1, Fraction(1, 4), 1), 20)
    assert helpers.orthogonality_residual(jac, 6) < 1e-9


def test_sech_moments_exact_and_by_quadrature():
    jac = jacobi_sech(6)
    ms = moments_from_jacobi(jac, 10)
    assert ms[1::2] == [1, 5, 61, 1385, 50521]
    assert ms[0::2] == [0, 0, 0, 0, 0]
    total = sech_moment_quad(0)
    assert abs(total - 1.0) < 1e-10
    for k, expect in ((2, 1.0), (4, 5.0), (6, 61.0)):
        assert abs(sech_moment_quad(k) - expect) < 1e-8 * expect
    assert abs(sech_moment_quad(8) - 1385.0) < 1e-6 * 1385.0


def test_sech_density_values():
    assert abs(sech_density(0.0) - 0.5) < 1e-15
    assert sech_density(3.0) < sech_density(0.0)


def test_sech_density_past_the_overflow_of_cosh_is_its_tail():
    # cosh(pi x / 2) overflows past |x| ~ 452, where the density used to raise
    # OverflowError; below, the value is the plain formula's, bit for bit
    for x in (500.0, -500.0, 1e300, -1e300):
        assert sech_density(x) == 0.0, x
    for x in (0.0, 0.5, -3.0, 100.0, 452.0, -452.0):
        assert sech_density(x) == 1.0 / (2.0 * math.cosh(math.pi * x / 2.0)), x
    # 2 cosh passes the largest float first, so the density falls to 0.0 before
    # cosh overflows, and stays there
    values = [sech_density(x) for x in (451.0, 452.0, 452.4, 500.0)]
    assert values[0] > 0.0 and values[1:] == [0.0] * 3


def test_qmp_scaling_identity_exact():
    # at alpha = -q the recurrence weights are (1-q) times the squared
    # one-parameter ladder, so even moments scale by (1-q)^(n/2) exactly
    for q in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
        qmp = moments_from_jacobi(jacobi_qmp(q, -q, 6), 10)
        herm = moments_from_jacobi(jacobi_hermite(params_rat(q, 1, q, 1), 6), 10)
        for n in range(1, 11):
            if n % 2:
                assert qmp[n - 1] == 0 and herm[n - 1] == 0
            else:
                assert qmp[n - 1] == (1 - q) ** (n // 2) * herm[n - 1]


def test_mp_density_corrected_matches_recurrence_moments():
    q, alpha = 0.5, -0.25
    exact = moments_from_jacobi(jacobi_qmp(Fraction(1, 2), Fraction(-1, 4), 5), 8)
    assert abs(mp_normalization(q, alpha, variant="corrected") - 1.0) < 1e-8
    for n in (2, 4, 6):
        got = mp_moment_quad(n, q, alpha, variant="corrected")
        assert abs(got - float(exact[n - 1])) < 1e-6 * max(1.0, float(exact[n - 1]))


def test_mp_density_printed_variant_mass_is_off():
    # the printed prefactor does not normalize; the corrected one does
    mass = mp_normalization(0.5, -0.25, variant="printed")
    assert abs(mass - 1.0) > 0.5


def mp_condition(x, q, alpha, variant):
    """Largest (1 + s)^2 / |(1 + s)^2 - c^2 x^2 s| over the real factors of the
    density (s = q^j, alpha q^2k): about 1 away from a zero or pole of a
    factor, and the factor by which any float evaluation loses digits near
    one."""
    c2 = 1.0 - q if variant == "corrected" else 16.0 / (1.0 - q)
    worst, qk = 1.0, 1.0
    while qk >= 1e-20:
        for s in (qk, q * qk, alpha * qk):
            worst = max(worst, (1.0 + s) ** 2 / abs((1.0 + s) ** 2 - c2 * x * x * s))
        qk *= q * q
    return worst


@pytest.mark.parametrize("variant", ["corrected", "printed"])
def test_mp_density_real_pairs_match_complex_products(variant):
    r = helpers.rng(29)
    for i in range(1000):
        q = r.uniform(0.1, 0.9)
        alpha = (-1) ** i * r.uniform(0.0, 0.9)
        edge = 2.0 / math.sqrt(1.0 - q)
        x = r.uniform(-edge, edge)
        ref = helpers.mp_density_products(x, q, alpha, variant)
        got = mp_density(x, q, alpha, variant)
        assert abs(got - ref) <= 1e-11 * mp_condition(x, q, alpha, variant) * abs(ref), (x, q, alpha)
    assert mp_density(3.0, 0.5, 0.25) == helpers.mp_density_products(3.0, 0.5, 0.25) == 0.0


@pytest.mark.parametrize("q, alpha", [(0.5, -1.0), (1.0, 0.0), (0.5, -2.0), (0.0, 0.25)])
def test_mp_density_refuses_points_outside_its_domain(q, alpha):
    with pytest.raises(ValueError, match="Meixner-Pollaczek density needs"):
        mp_density(0.1, q, alpha)
    with pytest.raises(ValueError, match="Meixner-Pollaczek density needs"):
        mp_normalization(q, alpha)


def test_legendre_rule_integrates_monomials():
    nodes, weights = _legendre_rule(20)
    assert list(nodes) == sorted(nodes) and len(nodes) == 20
    for k in range(40):
        got = math.fsum(w * x**k for x, w in zip(nodes, weights))
        assert got == pytest.approx(0.0 if k % 2 else 2.0 / (k + 1), abs=1e-14), k


def test_integrate_converges_quietly_and_warns_at_its_depth_cap():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _integrate(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
    # a panel holding a jump never meets the tolerance: bisection stops at the cap
    with pytest.warns(RuntimeWarning, match="depth cap"):
        got = _integrate(lambda x: 1.0 if x > 1.0 / 3.0 else 0.0, 0.0, 1.0)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_largest_chebyshev_node_is_cos_pi_over_2n():
    # the monic Chebyshev-T recurrence: the zeros of T_n, cos((2k - 1) pi / 2n),
    # are the n-point Gauss nodes, the largest being cos(pi / 2n)
    for n in range(1, 13):
        jac = JacobiData((Fraction(0),) * n, ((Fraction(1, 2),) + (Fraction(1, 4),) * n)[: n - 1])
        nodes, _ = quadrature_rule(jac, n)
        assert max(nodes) == pytest.approx(math.cos(math.pi / (2 * n)), abs=1e-12), n
        zeros = sorted(math.cos((2 * k - 1) * math.pi / (2 * n)) for k in range(1, n + 1))
        assert list(nodes) == pytest.approx(zeros, abs=1e-12), n


def test_a_negative_gamma_refuses_the_rule_that_reads_it():
    # at (-1/2, 1/4, 1/3, 1/2), gamma_1 = [2]_{q,t} [2]_{v,w} = (-1/4)(5/6) < 0
    jac = jacobi_hermite(params_rat(Fraction(-1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)), 4)
    assert jac.gamma[1] == Fraction(-5, 24)
    with pytest.raises(ValueError, match=r"gamma_1 = -5/24 is negative"):
        quadrature_rule(jac, 3)
    nodes, weights = quadrature_rule(jac, 2)  # reads gamma_0 = 1 only
    assert list(nodes) == pytest.approx([-1.0, 1.0]) and list(weights) == pytest.approx([0.5, 0.5])
    # a zero gamma truncates the measure and is allowed
    nodes, weights = quadrature_rule(JacobiData((Fraction(0),) * 3, (Fraction(1), Fraction(0))), 3)
    assert sum(weights) == pytest.approx(1.0)


def test_discrete_qhermite_classical_limit():
    ms = moments_from_jacobi(jacobi_discrete_qhermite(Fraction(1), 5), 8)
    assert ms[1::2] == [1, 3, 15, 105]


def test_support_and_roots():
    q = v = Fraction(1, 2)
    edge = 2 / math.sqrt((1 - q) * (1 - v))  # the support of the (q, 1, v, 1) law is [-edge, edge]
    assert abs(edge - 4.0) < 1e-12
    jac = jacobi_hermite(params_rat(q, 1, v, 1), 12)
    # the zeros of P_n are the n-point Gauss nodes
    top = max(map(abs, quadrature_rule(jac, 10)[0]))
    assert 2.0 < top < edge
    # root spread grows with the degree toward the support edge
    assert max(map(abs, quadrature_rule(jac, 4)[0])) < top
