import itertools
import math
import re
from fractions import Fraction

import pytest

import helpers
from diagfock._guards import ResourceLimitError
from diagfock.scalars import DeformationParams, Poly, Q, T, V, W, qt_number
from diagfock import _guards, _linalg, fock, levy
from diagfock.fock import (
    ANNIHILATE,
    CREATE,
    GAUGE,
    SCALAR,
    FockVector,
    GaugePair,
    VectorPair,
    annihilation_apply,
    apply_word,
    check_commutation_tensor,
    creation_apply,
    creation_norm_squared,
    deformed_inner,
    gauge_adjoint_check,
    gauge_apply,
    positivity_check,
    vacuum_expectation,
)

SYM = DeformationParams.symbolic()
FREE = DeformationParams.from_rationals(0, 1, 0, 1)
POINT = (Fraction(1, 7), Fraction(4, 7), Fraction(2, 7), Fraction(5, 7))
AT = DeformationParams.from_rationals(*POINT)
# a gauge that is not symmetric on either row
SKEWED = GaugePair.of([["1/2", "2"], ["-1", "1/3"]], [["-4", "1"], ["2/3", "-1/5"]])


def params_rat(q, t, v, w):
    return DeformationParams.from_rationals(Fraction(q), Fraction(t), Fraction(v), Fraction(w))


def tensor_power(x: VectorPair, n: int) -> FockVector:
    f = FockVector.vacuum()
    for _ in range(n):
        f = creation_apply(x, f)
    return f


def test_creation_on_vacuum():
    x = VectorPair.of([2, 3], [1, -1])
    f = creation_apply(x, FockVector.vacuum())
    assert f.terms == {
        ((0,), (0,)): Fraction(2),
        ((0,), (1,)): Fraction(-2),
        ((1,), (0,)): Fraction(3),
        ((1,), (1,)): Fraction(-3),
    }


def test_annihilation_on_vacuum_and_level_one():
    x = VectorPair.of([1, 2], [3])
    y = VectorPair.of([2, -1], [1])
    assert annihilation_apply(x, FockVector.vacuum(), SYM) == FockVector.zero()
    f = annihilation_apply(x, creation_apply(y, FockVector.vacuum()), SYM)
    # <xi_x, xi_y> <eta_x, eta_y> = (2 - 2) * 3 = 0
    assert f == FockVector.zero()
    z = VectorPair.of([1, 1], [2])
    f = annihilation_apply(x, creation_apply(z, FockVector.vacuum()), SYM)
    assert f.vacuum_coefficient() == Fraction(18)


def test_annihilation_eigenrelation_on_powers():
    # a(x) x^n = [n]_{q,t} [n]_{v,w} x^(n-1) for a unit vector, symbolically
    x = VectorPair.of([1], [1])
    for n in range(1, 5):
        lhs = annihilation_apply(x, tensor_power(x, n), SYM)
        expect = tensor_power(x, n - 1).scale(qt_number(n, Q, T) * qt_number(n, V, W))
        assert lhs == expect


def test_annihilation_weights_level_two_by_hand():
    # a(e1) on e1 e2 (x) e1 e1 picks position 1 with weight t on top,
    # and positions 1,2 with weights w and v on the bar row
    x = VectorPair.of([1, 0], [1])
    f = FockVector({((0, 1), (0, 0)): Fraction(1)})
    out = annihilation_apply(x, f, SYM)
    assert out.terms == {((1,), (0,)): T * W + T * V}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: VectorPair.of([], [1]), "xi is a zero-length vector"),
        (lambda: VectorPair.of([1], []), "eta is a zero-length vector"),
        (lambda: GaugePair.of([], [[1]]), "gauge T is a 0 x 0 matrix"),
        (lambda: GaugePair.of([[1]], []), "gauge Tbar is a 0 x 0 matrix"),
        (lambda: GaugePair.of([["1", "0"]], [[1]]), "gauge T is 1 x 2, not a square matrix"),
        (lambda: GaugePair.of([[1]], [["1"], ["2"]]), "gauge Tbar is 2 x 1, not a square matrix"),
        (lambda: GaugePair.of([[1, 0], [1]], [[1]]), "gauge T is ragged, rows of lengths 2, 1, not a square matrix"),
    ],
    ids=["xi", "eta", "T", "Tbar", "T-1x2", "Tbar-2x1", "T-ragged"],
)
def test_zero_dimensional_input_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_gauge_kills_vacuum_and_acts_scalar_at_d1():
    g = GaugePair.of([[Fraction(5)]], [[Fraction(7)]])
    assert gauge_apply(g, FockVector.vacuum(), SYM) == FockVector.zero()
    x = VectorPair.of([1], [1])
    for n in (1, 2, 3):
        f = tensor_power(x, n)
        expect = f.scale(35 * qt_number(n, Q, T) * qt_number(n, V, W))
        assert gauge_apply(g, f, SYM) == expect


def test_identity_gauge_is_number_operator_on_powers():
    # p_{I (x) I} = [n][n] id on elementary tensor powers, any dimension
    x = VectorPair.of([2, -1], [1, 3])
    g = GaugePair.of([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    for n in (1, 2, 3):
        f = tensor_power(x, n)
        assert gauge_apply(g, f, SYM) == f.scale(qt_number(n, Q, T) * qt_number(n, V, W))


def test_gauge_moves_letter_to_front():
    # top matrix M on word (0, 1): i=1 gives t M(e0) prefix (1), i=2 gives q M(e1) prefix (0)
    m = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))  # swap matrix
    g = GaugePair.of(m, [[1]])
    f = FockVector({((0, 1), (0, 0)): Fraction(1)})
    out = gauge_apply(g, f, SYM)
    # bar row: identity on (0,0) gives weights w + v combined with each top term
    assert out.terms == {
        ((1, 1), (0, 0)): T * (V + W),
        ((0, 0), (0, 0)): Q * (V + W),
    }


def test_field_vacuum_moments_symbolic():
    x = VectorPair.of([1], [1])
    f = FockVector.vacuum()
    powers = [f]
    for _ in range(6):
        powers.append(helpers.quadrabasic_sum(x, None, 0, powers[-1], SYM))
    assert powers[2].vacuum_coefficient() == Poly.const(1)
    m4 = powers[4].vacuum_coefficient()
    assert m4 == 1 + Q * V + Q * W + T * V + T * W
    assert powers[1].vacuum_coefficient() == Poly.zero()
    assert powers[3].vacuum_coefficient() == Poly.zero()
    assert powers[5].vacuum_coefficient() == Poly.zero()


def test_one_pass_sums_equal_separate_actions():
    # the field and general operators apply all their tokens in one pass over f;
    # each must equal the sum of the separate actions, on a vector spread over
    # levels 0-3
    r = helpers.rng(17)
    d, dbar = 2, 2
    f = FockVector(
        {
            (tuple(r.randrange(d) for _ in range(n)), tuple(r.randrange(dbar) for _ in range(n))): helpers.rand_frac(r)
            for n in range(4)
            for _ in range(3)
        }
    )
    assert f.levels() == (0, 1, 2, 3)
    x = VectorPair.of(helpers.rand_vec(r, d), helpers.rand_vec(r, dbar))
    g = GaugePair.of(helpers.rand_mat(r, d), helpers.rand_mat(r, dbar))
    rational = params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(3, 4))
    for params in (rational, SYM):
        for gauge in (None, g):
            for lam in (Fraction(0), Fraction(-5, 3)):
                one_pass = fock._apply_tokens(fock._quadrabasic_tokens(x, gauge, lam), f, params)
                assert one_pass == helpers.quadrabasic_sum(x, gauge, lam, f, params)


def test_apply_word_token_kinds():
    x = VectorPair.of([1], [1])
    g = GaugePair.of([[2]], [[1]])
    tokens = [(SCALAR, Fraction(3)), (GAUGE, g), (CREATE, x)]
    out = apply_word(tokens, SYM)
    # gauge on level 1 gives 2 * [1][1] = 2, then scalar 3
    assert out.terms == {((0,), (0,)): Poly.const(6)}
    assert vacuum_expectation([(ANNIHILATE, x), (CREATE, x)], SYM) == Poly.const(1)
    with pytest.raises(ResourceLimitError):
        vacuum_expectation([(CREATE, x)] * 20, SYM)


def test_apply_word_is_capped_like_the_vacuum_expectation(monkeypatch):
    # apply_word keeps d^n words per row and had no cap; now both refuse one
    # token past MAX_OPERATOR_WORD, with one message, before reading a token
    def parsed(tokens):
        raise AssertionError("a token was read before the word was refused")

    monkeypatch.setattr(fock, "_check_tokens", parsed)
    cap = _guards.MAX_OPERATOR_WORD
    tokens = [(CREATE, VectorPair.of([1], [1]))] * (cap + 1)
    messages = []
    for route in (apply_word, vacuum_expectation):
        with pytest.raises(ResourceLimitError) as refused:
            route(tokens, SYM)
        messages.append(str(refused.value))
    assert messages == [f"the length of an operator word is {cap + 1}, but is guarded at <= {cap}"] * 2


def test_apply_word_matches_the_pair_route():
    # the row route against the pair route it replaced, in values and types:
    # every word over the four kinds up to length 3 and sampled words up to 6,
    # at a rational and the symbolic point
    r = helpers.rng(37)
    kinds = (CREATE, ANNIHILATE, GAUGE, SCALAR)
    words = [w for n in range(4) for w in itertools.product(kinds, repeat=n)]
    words += [tuple(r.choice(kinds) for _ in range(n)) for n in range(4, 7) for _ in range(6)]
    nonzero = 0
    for params in (params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(3, 4)), SYM):
        for word in words:
            tokens = [_random_token(r, kind, 2, 2) for kind in word]
            got = apply_word(tokens, params).terms
            want = helpers.apply_word_pairs(tokens, params).terms
            assert got == want, (word, params)
            assert all(type(got[key]) is type(c) for key, c in want.items()), (word, params)
            nonzero += bool(got)
    assert 2 * nonzero > len(words)  # over the two points, more than a quarter of the runs leave a nonzero vector


def _returnable_kinds(r, n):
    """n token kinds that can take the vacuum back to itself: read from the
    right, no kind leaves more levels than operators left to come down, and
    gauges act only above the vacuum, which they kill."""
    shift = {CREATE: 1, ANNIHILATE: -1, GAUGE: 0, SCALAR: 0}
    kinds, level = [], 0
    for left in range(n - 1, -1, -1):
        options = [k for k, s in shift.items() if 0 <= level + s <= left and (k != GAUGE or level > 0)]
        kinds.append(r.choice(options))
        level += shift[kinds[-1]]
    return kinds[::-1]


def _random_token(r, kind, d, dbar):
    if kind in (CREATE, ANNIHILATE):
        return kind, VectorPair.of(helpers.rand_vec(r, d), helpers.rand_vec(r, dbar))
    if kind == GAUGE:
        return kind, GaugePair.of(helpers.rand_mat(r, d), helpers.rand_mat(r, dbar))
    return kind, helpers.rand_frac(r) or Fraction(1, 2)


def test_vacuum_expectation_matches_the_whole_vector():
    # the room-pruned route against apply_word, which keeps every term: every
    # word over the four kinds up to length 3, and sampled words up to 6 (most
    # of them able to return to the vacuum)
    r = helpers.rng(31)
    kinds = (CREATE, ANNIHILATE, GAUGE, SCALAR)
    points = (params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(3, 4)),
              params_rat(Fraction(-2, 5), 1, Fraction(1, 3), Fraction(1, 7)), SYM)
    words = [w for n in range(4) for w in itertools.product(kinds, repeat=n)]
    words += [tuple(r.choice(kinds) for _ in range(n)) for n in range(4, 7) for _ in range(4)]
    returnable = [tuple(_returnable_kinds(r, n)) for n in range(1, 7) for _ in range(6)]
    words += returnable
    for params in points:
        nonzero = 0
        for word in words:
            tokens = [_random_token(r, kind, 2, 2) for kind in word]
            got = vacuum_expectation(tokens, params)
            want = apply_word(tokens, params).vacuum_coefficient()
            assert got == want and type(got) is type(want), (word, params)
            nonzero += got != 0
        assert nonzero > 3 * len(returnable) // 4  # most words that can return do


def test_vacuum_moment_needs_a_term_at_level_equal_to_the_room():
    # after the two creators of a a c c the only term sits at level 2 with two
    # operators left: the bound l <= r is tight
    x = VectorPair.of([1], [1])
    word = [(ANNIHILATE, x), (ANNIHILATE, x), (CREATE, x), (CREATE, x)]
    assert vacuum_expectation(word, SYM) == (Q + T) * (V + W)
    params = params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 4))
    assert vacuum_expectation(word, params) == Fraction(91, 72)


# the points of the driver's cleared routes: int, Fraction, mixed int and
# Fraction, q = t, v = -w and symbolic
MOMENT_POINTS = {
    "int": DeformationParams(2, 3, -1, 2),
    "fraction": params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(3, 4)),
    "mixed": DeformationParams(2, Fraction(2, 3), -1, Fraction(3, 4)),
    "q=t": params_rat(Fraction(2, 5), Fraction(2, 5), Fraction(1, 3), Fraction(3, 4)),
    "v=-w": params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(1, 3)),
    "symbolic": SYM,
}


def _moment_data(r, kind, d):
    """A random vector and gauge matrix over d letters, of ints, of
    Fractions or of both mixed."""
    pick = {"int": lambda: r.randint(-3, 3), "mixed": lambda: r.choice([r.randint(-3, 3), helpers.rand_frac(r)])}
    entry = pick.get(kind, lambda: helpers.rand_frac(r))
    return tuple(entry() for _ in range(d)), tuple(tuple(entry() for _ in range(d)) for _ in range(d))


@pytest.mark.parametrize("kind", list(MOMENT_POINTS))
@pytest.mark.parametrize("d, dbar", [(2, 2), (2, 1), (1, 2), (1, 1), (3, 1), (1, 3), (3, 3)])
def test_the_vacuum_moment_matches_the_pair_route(kind, d, dbar):
    # the cleared driver on one row table per row against every term kept on
    # the data as given, in value and type: general operators with gauges
    # and nonzero scalars, some of their steps repeated; the data are ints
    # at the int point, ints and Fractions at the mixed one.  At d = dbar = 3
    # the pair route would keep 3^12 pairs on level 6, so n stops at 4 there
    params = MOMENT_POINTS[kind]
    r = helpers.rng(41 + 3 * d + dbar)
    nonzero = 0
    for n in range(6 if d * dbar < 9 else 5):
        steps = []
        for _ in range(n):
            (xi, top), (eta, bar) = _moment_data(r, kind, d), _moment_data(r, kind, dbar)
            lam = helpers.rand_frac(r) or Fraction(1, 2)
            steps.append(fock._quadrabasic_tokens(VectorPair(xi, eta), GaugePair(top, bar), lam))
        steps += steps[: n // 3]
        got, want = fock._vacuum_moment(steps, params), helpers.vacuum_moment_pairs(steps, params)
        assert got == want and type(got) is type(want), (n, got, want)
        nonzero += got != 0
    assert nonzero >= 4


def test_a_vacuum_moment_moves_each_word_to_the_front_once_per_row(monkeypatch):
    # one vector, gauge and scalar on every step, each step its own spec
    # objects: the annihilations and gauges of all steps ask for the same
    # words, and each (row, word) front move is computed once per call
    x = VectorPair.of([1, Fraction(1, 2)], [Fraction(2, 3), 1])
    g = GaugePair.of([[Fraction(1, 2), 1], [-1, Fraction(1, 3)]], [[2, Fraction(-1, 5)], [1, 1]])
    params = params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(3, 4))
    steps = [fock._quadrabasic_tokens(x, g, Fraction(3, 2)) for _ in range(6)]
    want = helpers.vacuum_moment_pairs(steps, params)
    moves, misses, asked = [], [], []
    front_runs, missing = fock._front_runs, fock._Row.__missing__
    monkeypatch.setattr(fock, "_front_runs", lambda word, weights: moves.append(word) or front_runs(word, weights))
    monkeypatch.setattr(fock._Row, "__missing__", lambda row, word: misses.append((id(row), word)) or missing(row, word))
    for name in ("_row_annihilate", "_row_gauge"):
        def counted(*args, make=getattr(fock, name)):
            op = make(*args)
            return lambda word: asked.append(word) or op(word)
        monkeypatch.setattr(fock, name, counted)
    assert fock._vacuum_moment(steps, params) == want != 0
    assert len(moves) == len(misses) == len(set(misses))  # every front move a table miss, each (row, word) once
    assert len({row for row, _ in misses}) == 2  # the top row and the bar row
    assert 2 * len(misses) < len(asked)  # the operators asked for more than twice as many


def test_a_vacuum_moment_builds_each_image_once_per_step(monkeypatch):
    # top d = 2 and bar d = 1, so each level holds one bar word under many
    # top words: within a step, each (token, bar word) image and each
    # (token, top word) image is built once, and the bar images, fewer than
    # the top ones, serve every top word under their bar word
    x = VectorPair.of([1, Fraction(1, 2)], [Fraction(2, 3)])
    g = GaugePair.of([[Fraction(1, 2), 1], [-1, Fraction(1, 3)]], [[2]])
    params = params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(3, 4))
    steps = [fock._quadrabasic_tokens(x, g, Fraction(3, 2)) for _ in range(8)]
    want = helpers.vacuum_moment_pairs(steps, params)
    log = []
    rows, apply_step = fock._rows, fock._apply_step

    def counted_rows(*args, **kwargs):
        out = rows(*args, **kwargs)
        for side, (ops, _, _) in enumerate(out):
            for key, op in ops.items():
                ops[key] = lambda word, op=op, key=(side, key): log.append((key, word)) or op(word)
        return out

    monkeypatch.setattr(fock, "_rows", counted_rows)
    monkeypatch.setattr(fock, "_apply_step", lambda *args, **kwargs: log.append(None) or apply_step(*args, **kwargs))
    assert fock._vacuum_moment(steps, params) == want != 0
    assert log.count(None) == len(steps)
    per_step = [list(calls) for mark, calls in itertools.groupby(log, lambda call: call is None) if not mark]
    assert all(len(calls) == len(set(calls)) for calls in per_step)  # each (row, token, word) image once per step
    bar_images = sum(side for calls in per_step for (side, _), _ in calls)
    top_images = sum(len(calls) for calls in per_step) - bar_images
    assert 0 < 2 * bar_images < top_images


def test_a_letter_past_an_operator_dimension_is_refused():
    p = params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(3, 4))
    x1, x2 = VectorPair.of([1], [1]), VectorPair.of([1, 2], [3])
    with pytest.raises(ValueError, match=r"^a top word has letter 1, but the annihilate operator has dimension 1$"):
        annihilation_apply(x1, FockVector({((1, 0), (0, 0)): 1}), p)
    with pytest.raises(ValueError, match=r"^a bar word has letter 2, but the gauge operator has dimension 2$"):
        gauge_apply(GaugePair.of([[1]], [[1, 0], [0, 1]]), FockVector({((0,), (2,)): 1}), p)
    # a negative letter would index from the end of the data, and one that
    # is no int would not index it at all: both are refused by name
    x = VectorPair.of([1, 2], [5])
    cases = [
        (((-1,), (0,)), "a top word has letter -1, but the annihilate operator has dimension 2"),
        (((0, -1), (0, 0)), "a top word has letter -1, but the annihilate operator has dimension 2"),
        ((("a",), (0,)), "a top word has letter 'a', but the annihilate operator has dimension 2"),
        (((0,), (1.0,)), "a bar word has letter 1.0, but the annihilate operator has dimension 1"),
    ]
    for key, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            annihilation_apply(x, FockVector({key: 1}), p)
    with pytest.raises(ValueError, match=r"^a bar word has letter -2, but the gauge operator has dimension 2$"):
        gauge_apply(GaugePair.of([[1]], [[1, 0], [0, 1]]), FockVector({((0,), (-2,)): 1}), p)
    # creation reads no letter; the vacuum has none
    assert creation_apply(x1, FockVector({((3,), (4,)): 1})).terms == {((0, 3), (0, 4)): 1}
    assert annihilation_apply(x1, FockVector.vacuum(), p) == FockVector()
    # the tokens of one word share their dimensions on each row, as the Wick formulas' entries do
    cases = [
        ([(ANNIHILATE, x1), (CREATE, x2)], "tokens[1]: its top row has dimension 2, but tokens[0] has 1"),
        ([(ANNIHILATE, x2), (CREATE, x1)], "tokens[1]: its top row has dimension 1, but tokens[0] has 2"),
        ([(SCALAR, 2), (CREATE, x1), (ANNIHILATE, VectorPair.of([1], [1, 1]))], "tokens[2]: its bar row has dimension 2, but tokens[1] has 1"),
        ([(GAUGE, GaugePair.of([[1]], [[1]])), (CREATE, x2)], "tokens[1]: its top row has dimension 2, but tokens[0] has 1"),
    ]
    for tokens, message in cases:
        for route in (vacuum_expectation, apply_word):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                route(tokens, p)


X1, G1 = VectorPair.of([1], [1]), GaugePair.of([[1]], [[1]])


@pytest.mark.parametrize(
    "call, message",
    [
        # a scalar token used to return its payload as the moment, here ((1, 2), (3,))
        (lambda: vacuum_expectation([(SCALAR, VectorPair.of([1, 2], [3]))], AT),
         "tokens[0]: a token of kind 'scalar' takes a payload of type int/Fraction/Poly, not VectorPair"),
        (lambda: vacuum_expectation([(ANNIHILATE, X1), (SCALAR, 0.5), (CREATE, X1)], AT),
         "tokens[1]: a token of kind 'scalar' takes a payload of type int/Fraction/Poly, not float"),
        (lambda: apply_word([(CREATE, X1), (GAUGE, X1)], AT),
         "tokens[1]: a token of kind 'gauge' takes a payload of type GaugePair, not VectorPair"),
        (lambda: apply_word([(ANNIHILATE, G1)], AT),
         "tokens[0]: a token of kind 'annihilate' takes a payload of type VectorPair, not GaugePair"),
        (lambda: creation_apply(G1, FockVector.vacuum()),
         "tokens[0]: a token of kind 'create' takes a payload of type VectorPair, not GaugePair"),
        (lambda: annihilation_apply(Fraction(1), FockVector.vacuum(), AT),
         "tokens[0]: a token of kind 'annihilate' takes a payload of type VectorPair, not Fraction"),
        (lambda: gauge_apply(X1, FockVector.vacuum(), AT),
         "tokens[0]: a token of kind 'gauge' takes a payload of type GaugePair, not VectorPair"),
        (lambda: vacuum_expectation([(CREATE, X1), ("bogus", X1)], AT), "tokens[1]: unknown token kind 'bogus'"),
        (lambda: apply_word([("bogus", X1)], AT), "tokens[0]: unknown token kind 'bogus'"),
        (lambda: apply_word([(["create"], X1)], AT), "tokens[0]: unknown token kind ['create']"),
    ],
    ids=["vacuum-scalar-vector", "vacuum-scalar-float", "word-gauge-vector", "word-annihilate-gauge",
         "creation-gauge", "annihilation-fraction", "gauge-vector", "vacuum-unknown-kind", "word-unknown-kind",
         "word-unhashable-kind"],
)
def test_a_wrong_token_is_refused_by_name_before_any_row_is_built(monkeypatch, call, message):
    # the builders' attribute reads were the only type check: a wrong payload
    # failed with an AttributeError, or passed, and an unknown kind was untested
    monkeypatch.setattr(fock, "_rows", lambda *args, **kwargs: pytest.fail("_rows ran before the token check"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_creation_annihilation_adjoint_via_inner():
    # <C(x) f, h> = <f, A(x) h> under the deformed pairing, symbolic parameters
    r = helpers.rng(7)
    x = VectorPair.of(helpers.rand_vec(r, 2), helpers.rand_vec(r, 2))
    y1 = VectorPair.of(helpers.rand_vec(r, 2), helpers.rand_vec(r, 2))
    y2 = VectorPair.of(helpers.rand_vec(r, 2), helpers.rand_vec(r, 2))
    y3 = VectorPair.of(helpers.rand_vec(r, 2), helpers.rand_vec(r, 2))
    f = tensor_power(y1, 1) + creation_apply(y2, tensor_power(y3, 1))
    h = creation_apply(y3, creation_apply(y1, tensor_power(y2, 1)))
    lhs = deformed_inner(creation_apply(x, f), h, SYM)
    rhs = deformed_inner(f, annihilation_apply(x, h, SYM), SYM)
    assert lhs == rhs


def test_deformed_inner_level_pairing_and_values():
    x = VectorPair.of([1, 2], [1])
    y = VectorPair.of([0, 1], [2])
    one = tensor_power(x, 1)
    two = tensor_power(y, 2)
    assert deformed_inner(one, two, SYM) == Poly.zero()
    assert deformed_inner(one, tensor_power(y, 1), SYM) == Poly.const(4)
    # level-2 pairing: distinct top letters give t (aligned) or q (swapped);
    # the repeated bar letter contributes v + w either way
    f = FockVector({((0, 1), (0, 0)): Fraction(1)})
    h = FockVector({((1, 0), (0, 0)): Fraction(1)})
    assert deformed_inner(f, f, SYM) == T * (V + W)
    assert deformed_inner(f, h, SYM) == Q * (V + W)
    # on level 3 over two letters, against the rational point
    words = list(itertools.product(range(2), repeat=3))
    pairs = list(itertools.product(words, words))
    f = FockVector({pair: Fraction(i + 1, 3) for i, pair in enumerate(pairs) if i % 3 == 0})
    h = FockVector({pair: Fraction(2 - i, 5) for i, pair in enumerate(pairs) if i % 4 == 1})
    symbolic = deformed_inner(f, h, SYM)
    assert type(symbolic) is Poly and symbolic.evaluate(*POINT) == deformed_inner(f, h, AT)


def test_deformed_inner_rotation_invariance():
    # simultaneous rotation of all top letters by an exact orthogonal matrix
    r = helpers.rng(11)
    rot = helpers.ROTATION_2D
    vecs = [VectorPair.of(helpers.rand_vec(r, 2), helpers.rand_vec(r, 2)) for _ in range(4)]

    def rotated(v: VectorPair) -> VectorPair:
        return VectorPair.of(helpers.apply_mat(rot, v.xi), v.eta)

    def build(vs):
        f = FockVector.vacuum()
        for v in vs:
            f = creation_apply(v, f)
        return f

    f, h = build(vecs[:2]), build(vecs[2:])
    fr, hr = build([rotated(v) for v in vecs[:2]]), build([rotated(v) for v in vecs[2:]])
    assert deformed_inner(f, h, SYM) == deformed_inner(fr, hr, SYM)


def test_metric_pairing_on_level_one():
    # the Levy oracle pairs an annihilator through diag(lengths) (x) gram:
    # on one letter, <e_a, e_b> = length * G[a][b], and letters on different
    # intervals are orthogonal; annihilating by the folded vector G x agrees
    gram = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)))
    x = VectorPair.of([1, 0], [1])
    y = VectorPair.of([0, 1], [1])
    folded = VectorPair.of(_linalg.mat_vec(gram, x.xi), x.eta)
    f = annihilation_apply(folded, creation_apply(y, FockVector.vacuum()), SYM)
    assert f.vacuum_coefficient() == Poly.const(1)  # G[0][1]
    spec = levy.LevySpec.of([[1, 0], [0, 1]], [[[0, 0], [0, 0]]] * 2, [0, 0], gram)
    lengths = [Fraction(1, 5), Fraction(3, 2)]
    for a, b in itertools.product(range(2), repeat=2):
        for i in range(2):
            got = levy.fock_levy_oracle(spec, [(a, i), (b, i)], lengths, SYM)
            assert got == Poly.const(lengths[i] * gram[a][b]), (a, b, i)
        assert levy.fock_levy_oracle(spec, [(a, 0), (b, 1)], lengths, SYM) == Poly.const(0)


def test_symmetrizer_matrix_level_two():
    mat = helpers.symmetrizer_matrix(2, Fraction(1, 2), Fraction(1), 1)
    assert mat == ((Fraction(3, 2),),)
    mat = helpers.symmetrizer_matrix(2, Fraction(1, 2), Fraction(1), 2)
    # basis e00, e01, e10, e11
    assert mat[0][0] == Fraction(3, 2) and mat[3][3] == Fraction(3, 2)
    assert mat[1][1] == Fraction(1) and mat[1][2] == Fraction(1, 2)
    with pytest.raises(ResourceLimitError):
        helpers.symmetrizer_matrix(12, Fraction(1, 2), Fraction(1), 3)


# a = -1, b = 1 is the alternating symmetrizer: entries cancel to 0 on repeated letters
SYM_POINTS = [(Fraction(-1), Fraction(1)), (Fraction(-1, 2), Fraction(2, 3)), (Fraction(1, 3), Fraction(1, 2))]


def test_symmetrizer_matrix_matches_permutation_sum():
    for n, d in [(0, 2), (1, 3), (2, 3), (3, 3), (4, 2), (5, 2)]:
        words = list(itertools.product(range(d), repeat=n))
        # the n = 5 oracle costs 120 terms per entry: one point with a < 0 there
        for a, b in SYM_POINTS if n < 5 else SYM_POINTS[1:2]:
            mat = helpers.symmetrizer_matrix(n, a, b, d)
            assert mat == tuple(zip(*mat))
            for i, u in enumerate(words):
                for j, x in enumerate(words):
                    assert mat[i][j] == helpers.sym_inner_brute(u, x, a, b)


def test_sym_inner_words_matches_permutation_sum():
    # the symmetrizer inner product <u, x> of two words, read as the entry of
    # symmetrizer_matrix, sampled to level 6: a word u against a rearrangement
    # x of it (0 at a = -b on a repeated letter) and against a random word y,
    # and at the symbolic point against x to level 5, and at level 6 over one
    # letter; the 729 x 729 matrix of level 6 over three letters at one point
    r = helpers.rng(13)
    zeros = 0
    for n in range(7):
        for d in (1, 2, 3):
            index = {word: i for i, word in enumerate(itertools.product(range(d), repeat=n))}
            samples = []
            for _ in range(3):
                u = tuple(r.randrange(d) for _ in range(n))
                samples.append((u, tuple(r.sample(u, n)), tuple(r.randrange(d) for _ in range(n))))
            if (n, d) == (6, 3):
                points = SYM_POINTS[1:2]
            else:
                points = SYM_POINTS + [(SYM.q, SYM.t)] * (n <= 5 or d == 1)
            for a, b in points:
                mat = helpers.symmetrizer_matrix(n, a, b, d)
                for u, x, y in samples:
                    for target in (x,) if a is SYM.q else (x, y):
                        expect = helpers.sym_inner_brute(u, target, a, b)
                        assert mat[index[u]][index[target]] == expect
                        zeros += expect == 0 and target == x and n >= 2
    assert zeros > 0


def test_positivity_verdicts():
    assert positivity_check(2, Fraction(1, 2), Fraction(2, 3), 2)[0] == "positive_definite"
    assert positivity_check(3, Fraction(1, 2), Fraction(2, 3), 2)[0] == "positive_definite"
    # q = t boundary: strictly positive semidefinite with kernel
    verdict, kernel = positivity_check(2, Fraction(1), Fraction(1), 2)
    assert verdict == "positive_semidefinite" and kernel == 1  # antisymmetric part
    verdict, kernel = positivity_check(2, Fraction(-1), Fraction(1), 2)
    assert verdict == "positive_semidefinite" and kernel == 3  # symmetric part
    # |q| > t breaks positivity
    assert positivity_check(2, Fraction(2), Fraction(1), 2)[0] == "indefinite"


# q = t, q = -t, q = t = 1, q = t < 0, t = 0, q > t, q < -t, and two admissible points
POSITIVITY_POINTS = [
    (Fraction(2, 3), Fraction(2, 3)), (Fraction(-1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1)),
    (Fraction(-1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(0)), (Fraction(2), Fraction(1)),
    (Fraction(-3, 2), Fraction(1)), (Fraction(1, 2), Fraction(2, 3)), (Fraction(-1, 3), Fraction(1, 2)),
]


def test_positivity_closed_form_matches_the_whole_symmetrizer():
    sizes = [(n, d) for d in range(6) for n in range(8) if d ** n <= 243]
    verdicts = set()
    for n, d in sizes:
        for a, b in POSITIVITY_POINTS:
            got = positivity_check(n, a, b, d)
            assert got == helpers.ldlt_classify(helpers.symmetrizer_matrix(n, a, b, d)), (n, d, a, b)
            verdicts.add(got[0])
    assert verdicts == {
        "positive_definite", "positive_semidefinite", "indefinite", "negative_semidefinite", "negative_definite", "zero"
    }
    with pytest.raises(ResourceLimitError):
        positivity_check(7, Fraction(1, 2), Fraction(2, 3), 3)


# zero, both signs, |a| = |b|, |a| on either side of |b| and of 1, and N = C(n,2) of either parity
POSITIVITY_GRID = [Fraction(x) for x in ("0", "1", "-1", "2", "-2", "1/2", "-1/2", "2/7", "5/7", "-3/4", "7/3")]


def test_positivity_closed_form_on_a_grid_of_points():
    for n, d in [(n, d) for d in range(5) for n in range(8) if d ** n <= 64]:
        for a, b in itertools.product(POSITIVITY_GRID, repeat=2):
            whole = helpers.ldlt_classify(helpers.symmetrizer_matrix(n, a, b, d))
            assert positivity_check(n, a, b, d) == whole, (n, d, a, b)


def test_the_symmetrizer_commutes_with_word_reversal():
    # inv(w0 sigma w0) = inv(sigma), so J P J = P for the reversal J of positions:
    # the closed form of positivity_check for |a| > |b| rests on it
    for n, d in [(n, d) for d in range(1, 4) for n in range(6)]:
        words = list(itertools.product(range(d), repeat=n))
        index = {x: i for i, x in enumerate(words)}
        rev = [index[x[::-1]] for x in words]
        for a, b in POSITIVITY_POINTS:
            mat = helpers.symmetrizer_matrix(n, a, b, d)
            assert tuple(tuple(mat[i][j] for j in rev) for i in rev) == mat, (n, d, a, b)


def test_positivity_builds_no_column_and_eliminates_nothing(monkeypatch):
    def ran(*args):
        raise AssertionError("positivity_check built a matrix")

    monkeypatch.setattr(fock, "_sym_column", ran)
    monkeypatch.setattr(_linalg, "_ldlt", ran)
    assert positivity_check(6, Fraction(2, 7), Fraction(5, 7), 3) == ("positive_definite", 0)
    assert positivity_check(3, Fraction(-1, 2), Fraction(-1, 2), 4) == ("negative_semidefinite", 64 - 20)
    assert positivity_check(7, Fraction(7, 3), Fraction(-2), 2) == ("indefinite", 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: positivity_check(3, Fraction(1, 2), 1, -1), "the letter count d of the symmetrizer is -1"),
        (lambda: positivity_check(-1, Fraction(1, 2), 1, 2), "the level n of the symmetrizer is -1"),
        (lambda: positivity_check(0, Fraction(1, 2), 1, -1), "the letter count d of the symmetrizer is -1"),
        (lambda: helpers.symmetrizer_matrix(3, Fraction(1, 2), 1, -1), "the letter count d of the symmetrizer is -1"),
    ],
    ids=["positivity-d-negative", "positivity-n-negative", "positivity-level-zero-d-negative", "symmetrizer-d-negative"],
)
def test_negative_levels_and_letter_counts_are_bad_input(call, message):
    # no empty space is reported for a size below 0
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "n, d, a, b",
    [(7, 2, "2/3", "2/3"), (7, 2, "-1/2", "1/2"), (7, 2, "2", "1"), (7, 2, "2/7", "5/7"),
     (6, 3, "2/7", "5/7"), (6, 3, "2", "1")],
)
def test_positivity_closed_form_matches_the_whole_symmetrizer_at_the_cap(n, d, a, b):
    a, b = Fraction(a), Fraction(b)
    assert positivity_check(n, a, b, d) == helpers.ldlt_classify(helpers.symmetrizer_matrix(n, a, b, d))


def test_positivity_at_level_six_over_three_letters():
    assert positivity_check(6, Fraction(2, 7), Fraction(5, 7), 3) == ("positive_definite", 0)
    # one letter: a single word, whatever n
    assert positivity_check(40, Fraction(2, 7), Fraction(5, 7), 1) == ("positive_definite", 0)
    # past the whole-matrix sweep: at (1, 1) P_n is n! times the projection onto
    # the symmetric tensors, of rank C(n+d-1, n), and at (-1, 1) n! times the
    # one onto the antisymmetric tensors, of rank C(d, n), none for n > d
    for n, d in [(6, 3), (7, 2), (9, 2), (4, 5), (3, 4)]:
        symmetric, antisymmetric = math.comb(n + d - 1, n), math.comb(d, n)
        assert positivity_check(n, Fraction(1), Fraction(1), d) == ("positive_semidefinite", d**n - symmetric)
        verdict = "positive_semidefinite" if antisymmetric else "zero"
        assert positivity_check(n, Fraction(-1), Fraction(1), d) == (verdict, d**n - antisymmetric)


def test_commutation_single_parameter_sweep():
    r = helpers.rng(3)
    cases = [(Fraction(1, 2), Fraction(2, 3)), (Fraction(-1, 3), Fraction(1, 2)),
             (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(3, 4), Fraction(1))]
    for q, t in cases:
        for _ in range(4):
            xi1 = helpers.rand_vec(r, 2)
            xi2 = helpers.rand_vec(r, 2)
            assert helpers.check_commutation_single(xi1, xi2, q, t, 2, maxlevel=3)


def test_commutation_tensor_requires_unit_scale():
    p = params_rat(Fraction(1, 2), 1, Fraction(1, 3), 1)
    r = helpers.rng(5)
    for _ in range(5):
        x1 = VectorPair.of(helpers.rand_vec(r, 2), helpers.rand_vec(r, 2))
        x2 = VectorPair.of(helpers.rand_vec(r, 2), helpers.rand_vec(r, 2))
        assert check_commutation_tensor(x1, x2, p, 2, 2, maxlevel=2)
    with pytest.raises(ValueError):
        check_commutation_tensor(
            VectorPair.of([1, 0], [1, 0]),
            VectorPair.of([0, 1], [0, 1]),
            params_rat(Fraction(1, 2), Fraction(2, 3), 0, 1),
            2,
            2,
        )


def test_gauge_adjoint_sweep():
    r = helpers.rng(9)
    p = params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 4), Fraction(1, 2))
    for _ in range(4):
        g = GaugePair.of(helpers.rand_mat(r, 2), helpers.rand_mat(r, 2))
        assert gauge_adjoint_check(g, p, 2, 2, maxlevel=3)


def test_commutation_tensor_fails_with_swapped_annihilation_weights(monkeypatch):
    # annihilation weighting position i by t^(i-1) q^(n-i) breaks the relation from level 1 on
    p = params_rat(Fraction(1, 2), 1, Fraction(1, 3), 1)
    x1 = VectorPair.of([1, Fraction(1, 2)], [Fraction(2, 3), 1])
    x2 = VectorPair.of([Fraction(-1, 3), 2], [1, Fraction(3, 4)])
    # t = w = 1, so q, v and the vectors of the two rows take pairwise
    # different denominators, each row's above the other's scale (cleared
    # by a wrong scale, the bar vectors would vanish and pass); at q = t = 1
    # the swap leaves the top row as it is and breaks only the bar
    distinct = params_rat(Fraction(2, 5), 1, Fraction(-3, 7), 1)
    only_bar = params_rat(1, 1, Fraction(-3, 7), 1)
    x3 = VectorPair.of([Fraction(1, 2), Fraction(-1, 3)], [Fraction(2, 7), Fraction(3, 11)])
    x4 = VectorPair.of([Fraction(2, 3), 1], [Fraction(-1, 9), Fraction(4, 13)])
    assert check_commutation_tensor(x1, x2, p, 2, 2, maxlevel=2)
    assert check_commutation_tensor(x3, x4, distinct, 2, 2, maxlevel=3)
    assert check_commutation_tensor(x3, x4, only_bar, 2, 2, maxlevel=3)
    # and at maxlevel 8
    unit_scale = params_rat(Fraction(1, 7), 1, Fraction(2, 7), 1)
    x5, x6 = VectorPair.of(["1", "-1/2"], ["1/3", "2"]), VectorPair.of(["2/3", "3"], ["-1", "1/5"])
    assert check_commutation_tensor(x5, x6, unit_scale, 2, 2, maxlevel=8)
    monkeypatch.setattr(fock, "_row_annihilate", _swapped_annihilation(fock._row_annihilate))
    assert check_commutation_tensor(x1, x2, p, 2, 2, maxlevel=0)
    assert not check_commutation_tensor(x1, x2, p, 2, 2, maxlevel=2)
    assert not check_commutation_tensor(x3, x4, distinct, 2, 2, maxlevel=3)
    assert not check_commutation_tensor(x3, x4, only_bar, 2, 2, maxlevel=3)
    assert not check_commutation_tensor(x5, x6, unit_scale, 2, 2, maxlevel=8)


def _swapped_annihilation(row_annihilate):
    """_row_annihilate weighing position i by b^(i-1) a^(n-i): on a row
    table of its own at the swapped point (b, a)."""
    return lambda vec, row: row_annihilate(vec, fock._Row(row.b, row.a))


def _perturbed_creation(row_create):
    """_row_create with one coefficient off by one: the first letter it
    prefixes to a word of length 1."""
    def make(vec, lift):
        op = row_create(vec, lift)
        return lambda word: [(w, c + (len(word) == 1 and i == 0)) for i, (w, c) in enumerate(op(word))]

    return make


@pytest.mark.parametrize("mutation", ["none", "swapped-annihilation-weights", "perturbed-creation"])
@pytest.mark.parametrize("d, dbar", [(2, 2), (3, 1), (1, 3), (0, 2), (2, 0)])
def test_commutation_gram_check_matches_the_pair_sweep(monkeypatch, d, dbar, mutation):
    # the Gram test against the per-pair sweep it replaced, on the relation
    # and on two broken ones; a row of no letters has no basis pair past
    # level 0 (level 0 is the vacuum, which neither mutation reaches)
    if mutation == "swapped-annihilation-weights":
        monkeypatch.setattr(fock, "_row_annihilate", _swapped_annihilation(fock._row_annihilate))
    elif mutation == "perturbed-creation":
        monkeypatch.setattr(fock, "_row_create", _perturbed_creation(fock._row_create))
    r = helpers.rng(17 + 5 * d + dbar)
    verdicts = []
    for _ in range(4):
        p = params_rat(helpers.rand_frac(r), 1, helpers.rand_frac(r), 1)
        x1 = VectorPair.of(helpers.rand_vec(r, max(d, 1)), helpers.rand_vec(r, max(dbar, 1)))
        x2 = VectorPair.of(helpers.rand_vec(r, max(d, 1)), helpers.rand_vec(r, max(dbar, 1)))
        for maxlevel in range(4):
            got = check_commutation_tensor(x1, x2, p, d, dbar, maxlevel)
            assert got is helpers.commutation_by_pairs(x1, x2, p, d, dbar, maxlevel), (p, x1, x2, maxlevel)
            verdicts.append(got)
    if mutation == "none" or 0 in (d, dbar):
        assert all(verdicts)
    else:
        assert not all(verdicts)


def test_gauge_adjoint_fails_without_the_transpose(monkeypatch):
    # a non-symmetric matrix is not its own adjoint, on either row; the
    # first gauge of each pair breaks only the bar row
    p = params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 4), Fraction(1, 2))
    symmetric, skewed = [[1, 2], [2, Fraction(1, 3)]], [[Fraction(1, 2), 1], [Fraction(-1, 3), 2]]
    gauges = [GaugePair.of(symmetric, skewed), GaugePair.of(skewed, symmetric)]
    # q, t, v and w of pairwise different denominators, and a skewed matrix
    # whose denominators pass the symmetric one's (cleared by a wrong scale,
    # it would vanish and pass)
    distinct = params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 5), Fraction(3, 7))
    halves, sevenths = [[Fraction(1, 2), 1], [1, Fraction(3, 2)]], [[Fraction(1, 3), Fraction(1, 5)], [Fraction(-1, 7), Fraction(2, 9)]]
    distinct_gauges = [GaugePair.of(halves, sevenths), GaugePair.of(sevenths, halves)]
    assert all(gauge_adjoint_check(g, p, 2, 2, maxlevel=2) for g in gauges)
    assert all(gauge_adjoint_check(g, distinct, 2, 2, maxlevel=3) for g in distinct_gauges)
    assert gauge_adjoint_check(SKEWED, AT, 2, 2, maxlevel=7)
    monkeypatch.setattr(_linalg, "transpose", lambda m: m)
    assert gauge_adjoint_check(GaugePair.of(symmetric, symmetric), p, 2, 2, maxlevel=2)
    assert gauge_adjoint_check(GaugePair.of(halves, halves), distinct, 2, 2, maxlevel=3)
    assert not any(gauge_adjoint_check(g, p, 2, 2, maxlevel=2) for g in gauges)
    assert not any(gauge_adjoint_check(g, distinct, 2, 2, maxlevel=3) for g in distinct_gauges)
    assert not gauge_adjoint_check(SKEWED, AT, 2, 2, maxlevel=7)


ADJOINT_SHAPES = [(2, 2), (2, 1), (1, 2), (3, 1), (0, 2)]


@pytest.mark.parametrize("transpose", ["kept", "patched-to-identity"])
@pytest.mark.parametrize("d, dbar", ADJOINT_SHAPES, ids=[f"{d}/{dbar}" for d, dbar in ADJOINT_SHAPES])
def test_gauge_adjoint_gram_check_matches_the_pair_sweep(monkeypatch, d, dbar, transpose):
    # the Gram test against the per-pair sweep it replaced; 3 x 3 matrices,
    # so a row of fewer letters also has images off its basis, which pair
    # with nothing; a row of no letters has no basis pair past level 0
    if transpose == "patched-to-identity":
        monkeypatch.setattr(_linalg, "transpose", lambda m: m)
    r = helpers.rng(41 + 5 * d + dbar)
    verdicts = []
    for _ in range(3):
        p = params_rat(*(helpers.rand_frac(r) for _ in range(4)))
        g = GaugePair.of(helpers.rand_mat(r, 3), helpers.rand_mat(r, 3))
        for maxlevel in range(4):
            got = gauge_adjoint_check(g, p, d, dbar, maxlevel)
            assert got is helpers.adjoint_by_pairs(g, p, d, dbar, maxlevel), (p, g, maxlevel)
            verdicts.append(got)
    assert all(verdicts) is (transpose == "kept" or d == 0)


@pytest.mark.parametrize("transpose", ["kept", "patched-to-identity"])
def test_gauge_adjoint_gram_check_at_the_symbolic_point(monkeypatch, transpose):
    if transpose == "patched-to-identity":
        monkeypatch.setattr(_linalg, "transpose", lambda m: m)
    r = helpers.rng(43)
    for d, dbar, maxlevel in ((2, 1, 3), (1, 2, 3), (2, 2, 2)):
        g = GaugePair.of(helpers.rand_mat(r, 2), helpers.rand_mat(r, 2))
        got = gauge_adjoint_check(g, SYM, d, dbar, maxlevel)
        assert got is helpers.adjoint_by_pairs(g, SYM, d, dbar, maxlevel) is (transpose == "kept"), (d, dbar)
    assert gauge_adjoint_check(SKEWED, SYM, 2, 2, maxlevel=3) is (transpose == "kept")


# the front move's run weights a^i b^(n-1-i) + ... add up at a = b, cancel in
# pairs at a = -b and vanish past the first position at a = 0
RUN_POINTS = [(3, 3), (-2, 2), (0, 3), (Q, T)]
RUN_IDS = ["a=b", "a=-b", "a=0", "symbolic"]


@pytest.mark.parametrize("a, b", RUN_POINTS, ids=RUN_IDS)
@pytest.mark.parametrize("d", [2, 3])
def test_sym_column_matches_the_permutation_sum_on_every_word(d, a, b):
    # P_n preserves content, so a column's entries lie on the rearrangements of its word
    row = fock._Row(a, b)
    for n in range(6):
        for x in itertools.product(range(d), repeat=n):
            entries = {u: helpers.sym_inner_brute(u, x, a, b) for u in set(itertools.permutations(x))}
            assert fock._sym_column(x, row) == {u: c for u, c in entries.items() if c != 0}, x


@pytest.mark.parametrize("a, b", RUN_POINTS, ids=RUN_IDS)
@pytest.mark.parametrize("d", [2, 3])
def test_front_move_by_runs_matches_the_expansion_by_positions(d, a, b):
    # annihilation and gauge images, collected, against one term per position
    vec = [Fraction(2 * l - 3, l + 2) for l in range(d)]
    mat = [[Fraction(r - 2 * l, 3) for l in range(d)] for r in range(d)]
    row = fock._Row(a, b)
    annihilate, gauge = fock._row_annihilate(vec, row), fock._row_gauge(mat, row, (1,) * 6)
    for n in range(1, 6):
        weights = [a**i * b ** (n - 1 - i) for i in range(n)]
        for x in itertools.product(range(d), repeat=n):
            rests = [(x[i], weights[i], x[:i] + x[i + 1 :]) for i in range(n)]
            by_position = [(rest, w * vec[l]) for l, w, rest in rests]
            assert fock._collect(annihilate(x)) == fock._collect(by_position), x
            by_position = [((r,) + rest, w * mat[r][l]) for l, w, rest in rests for r in range(d)]
            assert fock._collect(gauge(x)) == fock._collect(by_position), x


def test_add_term_refuses_words_of_different_lengths():
    # the constructor's check: such a key used to be kept, and deformed_inner
    # then paired it as if it were a level-1 vector
    f = FockVector()
    with pytest.raises(ValueError, match="top and bar words must have equal length"):
        f.add_term(((0,), ()), 1)
    assert f == FockVector()
    with pytest.raises(ValueError, match="top and bar words must have equal length"):
        FockVector({((0,), ()): 1})
    f.add_term(((0,), (1,)), Fraction(1, 2))
    assert f.terms == {((0,), (1,)): Fraction(1, 2)}


def test_creation_norm_pinned_points():
    cases = {
        (Fraction(-1, 3), Fraction(1, 2)): ("nonpositive_twist", 1),
        (Fraction(0), Fraction(1)): ("nonpositive_twist", 1),
        (Fraction(1, 2), Fraction(1)): ("geometric", 2),
        (Fraction(1, 2), Fraction(1, 2)): ("equal_parameters", 1),
        (Fraction(2, 3), Fraction(2, 3)): ("equal_parameters", Fraction(4, 3)),  # 3 t^2 at level 3
        (Fraction(1, 3), Fraction(1, 2)): ("mixed", 1),
        (Fraction(1, 2), Fraction(3, 4)): ("mixed", Fraction(5, 4)),  # q + t at level 2
    }
    for (q, t), (branch, value) in cases.items():
        got = creation_norm_squared(q, t)
        assert got == (value, branch) and type(got[0]) is Fraction, (q, t, got)


def test_creation_norm_is_exact_where_the_float_sweep_failed():
    # a float formula checked against 200 float levels called both of these
    # wrong: at t = 1 the sup 1/(1 - q) is a limit that no level reaches, and
    # at (999/1000, 9999/10000) the peak is level 2558
    assert creation_norm_squared(Fraction(9, 10), 1) == (10, "geometric")
    q, t = Fraction(999, 1000), Fraction(9999, 10000)
    value, branch = creation_norm_squared(q, t)
    assert branch == "mixed" and value == helpers.ladder_max(q, t, 4000) == helpers.ladder_max(q, t, 2558)
    assert value > helpers.ladder_max(q, t, 2557)


def test_creation_norm_at_t_one_is_the_limit_of_the_ladder():
    for q in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10), Fraction(999, 1000)):
        value, branch = creation_norm_squared(q, 1)
        assert (value, branch) == (1 / (1 - q), "geometric")
        for n in range(1, 41):
            rung = qt_number(n, q, 1)
            assert rung < value and value - rung == q**n / (1 - q)


def test_creation_norm_wide_sweep():
    # the sup of the exact ladder on the 1/7, 1/8 and 1/16 grids, -t <= q <= t <= 1
    points = 0
    for m in (7, 8, 16):
        for t in (Fraction(k, m) for k in range(1, m + 1)):
            for q in (Fraction(k, m) for k in range(-m, m + 1)):
                if abs(q) > t or q == t == 1:
                    continue
                points += 1
                value, _ = creation_norm_squared(q, t)
                if t == 1 and q > 0:
                    assert value == 1 / (1 - q) > helpers.ladder_max(q, t, 200), (q, t)
                else:
                    assert value == helpers.ladder_max(q, t, 200), (q, t)
    assert points == 428


def test_creation_norm_domain_errors():
    for q, t in [(1, 1), (Fraction(9, 10), Fraction(1, 2)), (Fraction(-3, 4), Fraction(1, 2)), (0, 0), (Fraction(1, 2), 2)]:
        with pytest.raises(ValueError):
            creation_norm_squared(q, t)


def test_fock_vector_algebra():
    x = VectorPair.of([1], [1])
    f = tensor_power(x, 1)
    assert (f + f).terms == {((0,), (0,)): Fraction(2)}
    assert (f - f) == FockVector.zero()
    assert f.scale(0) == FockVector.zero()
    assert f.levels() == (1,)
    with pytest.raises(ValueError):
        FockVector({((0, 1), (0,)): Fraction(1)})
