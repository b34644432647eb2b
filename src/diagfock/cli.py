"""Command-line interface.

Subcommands expose the main computations as JSON-in/JSON-out tools:

    euler       counts of diagonal pair partitions
    partitions  enumerate diagonal partitions with their weights
    moments     moment sequences of the built-in recurrence families
    polys       monic orthogonal polynomial coefficients
    cauchy      Cauchy transform of a family at a complex point
    density     density evaluation (deformed MP family or sech)
    wick        moment formulas vs operator model on explicit input
    levy        process moments/cumulants for a coordinate spec
    convolve    convolution of one-variable laws via generator pairs
    gns         reconstruct coordinate data from a cumulant functional
    verify      built-in cross-check battery

Exit codes: 0 success, 1 verification mismatch, 2 bad input, 3 resource guard.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction
from types import ModuleType
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

# orthopoly, fock, wick and levy are imported inside the commands that run
# them, so that the other commands do not load them
from . import _guards
from .scalars import DeformationParams, Poly, _float, _qt_ladder, parse_rational, render_rational
from .partitions import (
    _diagonal_classes,
    count_diagonal_pair_partitions,
    count_diagonal_partitions,
    render_partition,
)

if TYPE_CHECKING:
    from .orthopoly import JacobiData


def _json_value(x):
    """The JSON form of the values json does not know: a Fraction as 'p/q',
    a Poly as its text and a complex as {"re", "im"}."""
    if isinstance(x, Fraction):
        return render_rational(x)
    if isinstance(x, Poly):
        return str(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _emit(payload, path: Optional[str]) -> None:
    """Write payload as indented JSON with sorted keys.  Dict keys must be
    strings: json sorts int keys as numbers, so 10 would follow 9."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_value)
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


class _Fields(dict):
    """A JSON object of the input, whose missing field is bad input that
    names the field."""

    def __missing__(self, key):
        raise ValueError(f"missing field {key!r}")


def _read_input(path: str) -> dict:
    with contextlib.nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        return _check(json.load(fh, object_pairs_hook=_Fields), dict, "a JSON object")


def _params_from(args) -> DeformationParams:
    if getattr(args, "symbolic", False):
        return DeformationParams.symbolic()
    return DeformationParams.from_rationals(
        parse_rational(args.q), parse_rational(args.t), parse_rational(args.v), parse_rational(args.w)
    )


def _add_output_flags(sp, point: bool = True, symbolic_ok: bool = True) -> None:
    """--output, then the point flags --q --t --v --w (and --symbolic) of a
    command that reads a point."""
    sp.add_argument("--output", default=None)
    if not point:
        return
    sp.add_argument("--q", default="0", help="twist parameter q (rational, default 0)")
    sp.add_argument("--t", default="1", help="twist parameter t (rational, default 1)")
    sp.add_argument("--v", default="0", help="bar twist parameter v (rational, default 0)")
    sp.add_argument("--w", default="1", help="bar twist parameter w (rational, default 1)")
    if symbolic_ok:
        sp.add_argument("--symbolic", action="store_true", help="use polynomial coefficients instead of numbers")


def _check(data, kind: type, what: str):
    if not isinstance(data, kind):
        raise ValueError(f"expected {what}, got {data!r}")
    return data


def _int(data, what: str, least: Optional[int] = None) -> int:
    """A JSON integer, at least `least` when given; bools, floats and lists
    are refused, naming the field."""
    if isinstance(data, bool) or not isinstance(data, int):
        raise ValueError(f"expected {what} to be an integer, got {data!r}")
    if least is not None and data < least:
        raise ValueError(f"expected {what} to be an integer >= {least}, got {data!r}")
    return data


def _rational(data, what: str) -> Fraction:
    """A JSON number or string such as "1/3"; a null, bool, list or object is refused by name."""
    if data is None or isinstance(data, (bool, list, dict)):
        raise ValueError(f"expected {what} to be a rational, got {data!r}")
    return parse_rational(str(data))


def _finite(x: float, what: str) -> float:
    """A float flag that is a number: nan and inf are refused, naming the flag."""
    if not math.isfinite(x):
        raise ValueError(f"expected {what} to be a finite number, got {x!r}")
    return x


def _vec(data) -> List[Fraction]:
    return [parse_rational(str(x)) for x in _check(data, list, "a list of rationals")]


def _mat(data, what: str = "a list of rows") -> List[List[Fraction]]:
    return [_vec(row) for row in _check(data, list, what)]


def _entries(data, key: str) -> List[dict]:
    """The list data[key] of JSON objects."""
    entries = _check(data[key], list, f"{key} to be a list")
    return [_check(e, dict, f"{key} entries to be objects") for e in entries]


# -- subcommand handlers -----------------------------------------------------------


def cmd_euler(args) -> int:
    from .orthopoly import jacobi_sech, moments_from_jacobi

    nmax = _guards.check_size("--nmax", _int(args.nmax, "--nmax"), _guards.MAX_FAMILY_NMAX // 2, least=1)
    moments = moments_from_jacobi(jacobi_sech(nmax + 1), 2 * nmax)  # m_2n counts the pairs on 2n points
    counts = {str(n): int(moments[2 * n - 1]) for n in range(1, nmax + 1)}
    _emit({"pairs_on_2n": counts}, args.output)
    return 0


def cmd_partitions(args) -> int:
    m = _int(args.min_block_size, "--min-block-size", least=1)
    if args.pairs:
        if m > 2:
            raise ValueError(f"--pairs with --min-block-size {m}: the blocks of a matching have 2 points")
        if args.n % 2:
            raise ValueError("pair partitions need an even number of points")
        count = count_diagonal_pair_partitions(args.n)
    else:
        count = count_diagonal_partitions(args.n, m)
    _guards.check_size(f"the item count of --n {args.n}", count, _guards.MAX_PARTITION_ITEMS)
    rows = []
    weights: Dict[Tuple[int, int, int, int], str] = {}  # few distinct exponents among many items
    for members in _diagonal_classes(args.n, m, args.pairs):
        # each row is rendered once, with its walk counts (rc, rn) for the weight
        shown = [(render_partition(p), rc, rn) for p, rc, rn in members]
        for top, a, b in shown:
            for bar, c, d in shown:
                weight = weights.get((a, b, c, d))
                if weight is None:
                    weight = weights[a, b, c, d] = str(Poly.monomial(1, (a, b, c, d)))
                rows.append({"top": top, "bar": bar, "weight": weight})
    _emit({"n": args.n, "count": len(rows), "items": rows}, args.output)
    return 0


# the Jacobi data of each --family of moments, polys and cauchy, from orthopoly, the flags and a depth
_FAMILIES: Dict[str, Callable[[ModuleType, argparse.Namespace, int], JacobiData]] = {
    "hermite": lambda o, args, depth: o.jacobi_hermite(_params_from(args), depth),
    "poisson": lambda o, args, depth: o.jacobi_poisson(_params_from(args), depth),
    "qmp": lambda o, args, depth: o.jacobi_qmp(parse_rational(args.q), parse_rational(args.alpha), depth),
    "sech": lambda o, args, depth: o.jacobi_sech(depth),
    "dqhermite": lambda o, args, depth: o.jacobi_discrete_qhermite(parse_rational(args.q), depth),
}


_POINT_FAMILIES = ("hermite", "poisson")  # the families read at the point --q --t --v --w, which may be --symbolic


def _family(args, depth: int) -> JacobiData:
    from . import orthopoly

    return _FAMILIES[args.family](orthopoly, args, depth)


def _nmax(args, symbolic_cap: int) -> int:
    """--nmax of moments or polys.  With --symbolic, a family with no point
    is refused first, and --nmax is capped at symbolic_cap: the Poly entries
    grow far faster with nmax than rational ones do."""
    nmax = _int(args.nmax, "--nmax")
    if not args.symbolic:
        return _guards.check_size("--nmax", nmax, _guards.MAX_FAMILY_NMAX, least=1)
    if args.family not in _POINT_FAMILIES:
        only = " and ".join(_POINT_FAMILIES)
        raise ValueError(f"--family {args.family} has no symbolic point: --symbolic applies to {only} only")
    return _guards.check_size("--nmax with --symbolic", nmax, symbolic_cap, least=1)


def cmd_moments(args) -> int:
    from .orthopoly import moments_from_jacobi

    if args.symbolic and args.mode == "float":
        raise ValueError("--mode float needs a rational point, not --symbolic")
    _nmax(args, _guards.MAX_SYMBOLIC_MOMENTS_NMAX)
    depth = args.nmax // 2 + 1
    jac = _family(args, depth)
    moments = [Fraction(1)] + moments_from_jacobi(jac, args.nmax)
    if args.mode == "float":
        moments = [_float(m, f"the moment m_{k}") for k, m in enumerate(moments)]
    _emit({"family": args.family, "moments_from_order_zero": moments}, args.output)
    return 0


def cmd_polys(args) -> int:
    from .orthopoly import polys_from_jacobi

    _nmax(args, _guards.MAX_SYMBOLIC_POLYS_NMAX)
    jac = _family(args, args.nmax)
    polys = polys_from_jacobi(jac, args.nmax)
    _emit(
        {
            "family": args.family,
            "beta": list(jac.beta[: args.nmax]),
            "gamma": list(jac.gamma[: max(args.nmax - 1, 0)]),
            "monic_coefficients_ascending": polys,
        },
        args.output,
    )
    return 0


def cmd_cauchy(args) -> int:
    from .orthopoly import cauchy_transform

    _guards.check_size("--depth", _int(args.depth, "--depth"), _guards.MAX_CF_DEPTH, least=1)
    z = complex(_finite(args.re, "--re"), _finite(args.im, "--im"))
    jac = _family(args, args.depth)
    val = cauchy_transform(jac, z, args.depth)
    _emit({"family": args.family, "z": z, "value": val}, args.output)
    return 0


def cmd_density(args) -> int:
    from .orthopoly import mp_density, mp_normalization, sech_density, sech_moment_quad

    if args.x is None and not args.mass:
        raise ValueError("need --x (a point) or --mass (the normalization integral)")
    payload = {"kind": args.kind}
    if args.kind == "sech":
        density, mass = sech_density, lambda: sech_moment_quad(0)
    else:
        q = _float(parse_rational(args.q), "--q")
        alpha = _float(parse_rational(args.alpha), "--alpha")
        payload["variant"] = args.variant
        density = lambda x: mp_density(x, q, alpha, variant=args.variant)
        mass = lambda: mp_normalization(q, alpha, variant=args.variant)
    if args.x is not None:
        payload["x"] = _finite(args.x, "--x")
        payload["value"] = density(args.x)
    if args.mass:
        payload["mass"] = mass()
    _emit(payload, args.output)
    return 0


def _fock_terms(f) -> List[dict]:
    rows = []
    for (top, bar), coeff in sorted(f.terms.items()):
        rows.append({"top": list(top), "bar": list(bar), "coeff": coeff})
    return rows


def _vector_pair(e: dict):
    from .fock import VectorPair

    return VectorPair.of(_vec(e["xi"]), _vec(e["eta"]))


def _operator(e: dict):
    from .fock import GaugePair
    from .wick import QuadrabasicOp

    vec, gauge = _vector_pair(e), None
    if e.get("T") is not None or e.get("Tbar") is not None:  # both absent or null is no gauge
        gauge = GaugePair.of(*(_mat(e[name], f"{name} to be a list of rows") for name in ("T", "Tbar")))
    return QuadrabasicOp(vec, gauge, _rational(e.get("lam", 0), "lam"), _rational(e.get("lambar", 1), "lambar"))


# each kind of wick input: (the key of its entries, entry parser, formula, oracle, renderer),
# the formula and the oracle by their names in wick
_WICK_KINDS = {
    "gaussian": ("vectors", _vector_pair, "gaussian_wick", "gaussian_fock_oracle", lambda x: x),
    "word": ("tokens", lambda e: (e["kind"], _vector_pair(e)), "word_vacuum_formula", "word_fock_oracle", _fock_terms),
    "full": ("operators", _operator, "full_wick", "full_fock_oracle", lambda x: x),
}


def cmd_wick(args) -> int:
    from . import wick

    data = _read_input(args.input)
    params = _params_from(args)
    kind = data.get("kind", "gaussian")
    if not isinstance(kind, str) or kind not in _WICK_KINDS:
        raise ValueError(f"unknown wick kind {kind!r}")
    key, entry, formula, oracle, render = _WICK_KINDS[kind]
    entries = [entry(e) for e in _entries(data, key)]
    lhs = getattr(wick, formula)(entries, params)
    rhs = getattr(wick, oracle)(entries, params)
    match = lhs == rhs
    _emit({"kind": kind, "formula": render(lhs), "oracle": render(rhs), "match": match}, args.output)
    return 0 if match else 1


def _spec_from_json(data: dict):
    from .levy import LevySpec

    gram = data.get("gram")  # only an absent or null gram is no gram
    if gram is not None:
        try:
            gram = _mat(gram)
        except ValueError as exc:
            raise ValueError(f"gram: {exc}") from None
    return LevySpec.of(
        _mat(data["xi"]), [_mat(m) for m in _check(data["T"], list, "a list of matrices")], _vec(data["lam"]), gram=gram
    )


def cmd_levy(args) -> int:
    from .levy import levy_cumulant, levy_moment, levy_moment_s_poly

    data = _read_input(args.input)
    params = _params_from(args)
    spec = _spec_from_json(_check(data["spec"], dict, "spec to be an object"))
    letters = _check(data["word"], list, "word to be a list of coordinates")
    word = tuple(_int(u, f"word[{i}]") for i, u in enumerate(letters))
    s = _rational(data.get("s", 1), "s")
    payload = {
        "word": list(word),
        "s": s,
        "moment": levy_moment(spec, word, params, s),
        "cumulant": levy_cumulant(spec, word, s),
        "s_polynomial": {str(k): c for k, c in sorted(levy_moment_s_poly(spec, word, params).items())},
    }
    _emit(payload, args.output)
    return 0


def cmd_convolve(args) -> int:
    from .levy import GeneratorPair, convolve_pairs, pair_to_moments

    data = _read_input(args.input)
    params = _params_from(args)
    pairs = {key: _check(data[key], dict, f"{key} to be an object") for key in ("a", "b")}
    a, b = (GeneratorPair.of(_rational(p["lam"], f"{key}.lam"), _vec(p["tau"])) for key, p in pairs.items())
    c = convolve_pairs(a, b)
    nmax = _int(data.get("nmax", 6), "nmax", least=1)
    payload = {
        "a_moments": pair_to_moments(a, params, nmax),
        "b_moments": pair_to_moments(b, params, nmax),
        "convolution_moments": pair_to_moments(c, params, nmax),
        "convolution_lam": c.lam,
        "convolution_tau": list(c.tau_moments),
    }
    _emit(payload, args.output)
    return 0


def _parse_word_key(key: str, k: int):
    """A psi key: a word over the letters 0..k-1 as integers separated by
    spaces ("" is the empty word); any other key is bad input that names the
    key."""
    try:
        word = tuple(int(tok) for tok in key.split())
    except ValueError:
        raise ValueError(f"expected psi keys to be words of integers separated by spaces, got {key!r}") from None
    if any(not 0 <= u < k for u in word):
        raise ValueError(f"expected psi keys to be words over the letters 0..{k - 1} of k = {k}, got {key!r}")
    return word


def cmd_gns(args) -> int:
    from .levy import gns_reconstruct, levy_cumulant

    data = _read_input(args.input)
    k = _int(data["k"], "k", least=1)
    maxlen = _int(data["maxlen"], "maxlen", least=0)
    psi_json = _check(data["psi"], dict, "psi to be an object")
    psi = {_parse_word_key(kk, k): _rational(vv, f"psi[{kk!r}]") for kk, vv in psi_json.items()}
    spec, info = gns_reconstruct(psi, k, maxlen)
    ok = True
    checked = 0
    for word, val in psi.items():
        if 1 <= len(word) <= maxlen + 1:
            checked += 1
            if levy_cumulant(spec, word) != val:
                ok = False
    payload = {
        "dim": info["dim"],
        "basis": [" ".join(map(str, b)) for b in info["basis"]],
        "xi": [list(v) for v in spec.xi],
        "T": [[list(r) for r in m] for m in spec.T],
        "lam": list(spec.lam),
        "gram": [list(r) for r in spec.gram] if spec.gram else None,
        "roundtrip_words_checked": checked,
        "roundtrip_ok": ok,
    }
    _emit(payload, args.output)
    return 0 if ok else 1


def _verify_checks():
    """The built-in battery: yields (name, passed) for each check in turn."""
    from .fock import VectorPair, check_commutation_tensor, creation_norm_squared
    from .orthopoly import jacobi_poisson, moments_from_jacobi
    from .wick import gaussian_fock_oracle, gaussian_wick

    counts = [count_diagonal_pair_partitions(2 * n) for n in range(1, 5)]
    yield "diagonal pair partition counts 1,5,61,1385", counts == [1, 5, 61, 1385]

    sym = DeformationParams.symbolic()
    x = VectorPair.of([1], [1])
    m4 = gaussian_wick([x, x, x, x], sym)
    expected = (
        Poly.const(1)
        + Poly.monomial(1, (1, 0, 1, 0))
        + Poly.monomial(1, (1, 0, 0, 1))
        + Poly.monomial(1, (0, 1, 1, 0))
        + Poly.monomial(1, (0, 1, 0, 1))
    )
    yield "fourth moment equals 1 + qv + qw + tv + tw", m4 == expected

    pr = DeformationParams.from_rationals(Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 4))
    vecs = [
        VectorPair.of([1, 2], [1, -1]),
        VectorPair.of([0, 1], [2, 1]),
        VectorPair.of([1, 1], [1, 0]),
        VectorPair.of([2, -1], [0, 1]),
    ]
    yield (
        "pair-partition moment formula matches operator model (n=4, d=2)",
        gaussian_wick(vecs, pr) == gaussian_fock_oracle(vecs, pr),
    )

    pc = DeformationParams.from_rationals(Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(1))
    yield (
        "twisted commutation relation on levels <= 2",
        check_commutation_tensor(vecs[0], vecs[1], pc, 2, 2, maxlevel=2),
    )

    q, t = Fraction(1, 3), Fraction(1, 2)
    norm, branch = creation_norm_squared(q, t)
    yield f"creation norm branch '{branch}' matches level sweep", norm == max(_qt_ladder(q, t, 64))

    free = DeformationParams.from_rationals(Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    ms = moments_from_jacobi(jacobi_poisson(free, 3), 4)
    yield "centered free Poisson moments 0,1,1,3", ms == [0, 1, 1, 3]


def cmd_verify(args) -> int:
    passed = []
    for name, ok in _verify_checks():
        print(f"{'ok  ' if ok else 'FAIL'}  {name}")
        passed.append(ok)
    print(f"{sum(passed)} of {len(passed)} checks passed")
    return 0 if all(passed) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="diagfock", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("euler", help="count diagonal pair partitions of 2n points")
    sp.add_argument("--nmax", type=int, default=5)
    _add_output_flags(sp, point=False)
    sp.set_defaults(func=cmd_euler)

    sp = sub.add_parser("partitions", help="enumerate diagonal partitions with weights")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--pairs", action="store_true", help="pair partitions only")
    sp.add_argument("--min-block-size", type=int, default=1)
    _add_output_flags(sp, point=False)
    sp.set_defaults(func=cmd_partitions)

    for name, handler in (("moments", cmd_moments), ("polys", cmd_polys)):
        sp = sub.add_parser(name, help=f"orthogonal polynomial family {name}")
        sp.add_argument("--family", required=True, choices=list(_FAMILIES))
        sp.add_argument("--nmax", type=int, default=8)
        sp.add_argument("--alpha", default="0", help="qmp shape parameter (rational)")
        if name == "moments":
            sp.add_argument("--mode", choices=["exact", "float"], default="exact")
        _add_output_flags(sp)
        sp.set_defaults(func=handler)

    sp = sub.add_parser("cauchy", help="Cauchy transform at a complex point")
    sp.add_argument("--family", required=True, choices=list(_FAMILIES))
    sp.add_argument("--re", type=float, default=0.0)
    sp.add_argument("--im", type=float, default=1.0)
    sp.add_argument("--depth", type=int, default=120)
    sp.add_argument("--alpha", default="0")
    _add_output_flags(sp, symbolic_ok=False)
    sp.set_defaults(func=cmd_cauchy)

    sp = sub.add_parser("density", help="evaluate a density")
    sp.add_argument("--kind", choices=["qmp", "sech"], required=True)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--q", default="0")
    sp.add_argument("--alpha", default="0")
    sp.add_argument("--variant", choices=["corrected", "printed"], default="corrected")
    sp.add_argument("--mass", action="store_true", help="also report total mass over the support")
    _add_output_flags(sp, point=False)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("wick", help="moment formulas vs operator model from JSON input")
    sp.add_argument("--input", required=True, help="JSON file or - for stdin")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_wick)

    sp = sub.add_parser("levy", help="process moment/cumulant of a word")
    sp.add_argument("--input", required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_levy)

    sp = sub.add_parser("convolve", help="convolve one-variable laws via generator pairs")
    sp.add_argument("--input", required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_convolve)

    sp = sub.add_parser("gns", help="reconstruct coordinates from a cumulant functional")
    sp.add_argument("--input", required=True)
    _add_output_flags(sp, point=False)
    sp.set_defaults(func=cmd_gns)

    sp = sub.add_parser("verify", help="run the built-in cross-check battery")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _guards.ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
