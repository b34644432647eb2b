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
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

from . import _linalg
from .scalars import DeformationParams, Poly, ResourceLimitError, parse_rational, render_rational
from .partitions import (
    SetPartition,
    count_diagonal_pair_partitions,
    diagonal_pair_partitions,
    diagonal_partitions,
    render_partition,
)
from .fock import (
    GaugePair,
    VectorPair,
    check_commutation_tensor,
    creation_norm_check,
)
from .wick import (
    QuadrabasicOp,
    full_fock_oracle,
    full_wick,
    gaussian_fock_oracle,
    gaussian_wick,
    word_fock_oracle,
    word_vacuum_formula,
)
from .orthopoly import (
    JacobiData,
    cauchy_transform,
    jacobi_discrete_qhermite,
    jacobi_hermite,
    jacobi_poisson,
    jacobi_qmp,
    jacobi_sech,
    moments_from_jacobi,
    mp_density,
    mp_normalization,
    polys_from_jacobi,
    sech_density,
)
from .levy import (
    GeneratorPair,
    LevySpec,
    convolve_pairs,
    gns_reconstruct,
    levy_cumulant,
    levy_moment,
    levy_moment_s_poly,
    pair_to_moments,
)


# caps for the open-ended numeric knobs; enumeration commands rely on the
# library guards instead
MAX_FAMILY_NMAX = 64
MAX_CF_DEPTH = 1024


def _ser(x):
    if isinstance(x, Fraction):
        return render_rational(x)
    if isinstance(x, Poly):
        return str(x)
    if isinstance(x, float):
        return float(format(x, ".17g"))
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, dict):
        return {str(k): _ser(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_ser(v) for v in x]
    return x


def _emit(payload, path: Optional[str]) -> None:
    text = json.dumps(_ser(payload), indent=2, sort_keys=True)
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _read_input(path: str) -> dict:
    if path == "-":
        return _check(json.load(sys.stdin), dict, "a JSON object")
    with open(path) as fh:
        return _check(json.load(fh), dict, "a JSON object")


def _params_from(args) -> DeformationParams:
    if getattr(args, "symbolic", False):
        return DeformationParams.symbolic()
    return DeformationParams.from_rationals(
        parse_rational(args.q), parse_rational(args.t), parse_rational(args.v), parse_rational(args.w)
    )


def _add_param_flags(sp, symbolic_ok: bool = True) -> None:
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


def _vec(data) -> List[Fraction]:
    return [parse_rational(str(x)) for x in _check(data, list, "a list of rationals")]


def _mat(data) -> List[List[Fraction]]:
    return [_vec(row) for row in _check(data, list, "a list of rows")]


def _entries(data, key: str) -> List[dict]:
    """The list data[key] of JSON objects."""
    entries = _check(data[key], list, f"{key} to be a list")
    return [_check(e, dict, f"{key} entries to be objects") for e in entries]


def _same_dims(pairs: List[VectorPair], key: str) -> None:
    """Name the first entry whose xi (or eta) dimension differs from entry 0's."""
    for i, x in enumerate(pairs):
        for side in ("xi", "eta"):
            dim, first = len(getattr(x, side)), len(getattr(pairs[0], side))
            if dim != first:
                raise ValueError(f"{key}[{i}]: {side} has dimension {dim}, but {key}[0] has {first}")


# -- subcommand handlers -----------------------------------------------------------


def cmd_euler(args) -> int:
    t0 = time.monotonic()
    counts = {n: count_diagonal_pair_partitions(2 * n) for n in range(1, args.nmax + 1)}
    _emit({"pairs_on_2n": counts, "seconds": time.monotonic() - t0}, args.output)
    return 0


def cmd_partitions(args) -> int:
    if args.pairs:
        if args.n % 2:
            raise ValueError("pair partitions need an even number of points")
        items = list(diagonal_pair_partitions(args.n))
    else:
        items = list(diagonal_partitions(args.n, min_block_size=args.min_block_size))
    rows = []
    for dp in items:
        a, b, c, d = dp.weight_exponents()
        rows.append(
            {
                "top": render_partition(dp.top),
                "bar": render_partition(dp.bar),
                "weight": str(Poly.monomial(1, (a, b, c, d))),
            }
        )
    _emit({"n": args.n, "count": len(rows), "items": rows}, args.output)
    return 0


def _family(args, depth: int) -> JacobiData:
    name = args.family
    if name == "hermite":
        return jacobi_hermite(_params_from(args), depth)
    if name == "poisson":
        return jacobi_poisson(_params_from(args), depth)
    if name == "qmp":
        return jacobi_qmp(parse_rational(args.q), parse_rational(args.alpha), depth)
    if name == "sech":
        return jacobi_sech(depth)
    if name == "dqhermite":
        return jacobi_discrete_qhermite(parse_rational(args.q), depth)
    raise ValueError(f"unknown family {name!r}")


def cmd_moments(args) -> int:
    if not 1 <= args.nmax <= MAX_FAMILY_NMAX:
        raise ResourceLimitError(f"moment order guarded at 1 <= nmax <= {MAX_FAMILY_NMAX}")
    depth = args.nmax // 2 + 1
    jac = _family(args, depth)
    moments = [Fraction(1)] + moments_from_jacobi(jac, args.nmax)
    if args.mode == "float":
        moments = [float(m) for m in moments]
    _emit({"family": args.family, "moments_from_order_zero": moments}, args.output)
    return 0


def cmd_polys(args) -> int:
    if not 1 <= args.nmax <= MAX_FAMILY_NMAX:
        raise ResourceLimitError(f"polynomial degree guarded at 1 <= nmax <= {MAX_FAMILY_NMAX}")
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
    if not 1 <= args.depth <= MAX_CF_DEPTH:
        raise ResourceLimitError(f"continued fraction depth guarded at 1 <= depth <= {MAX_CF_DEPTH}")
    jac = _family(args, args.depth)
    z = complex(args.re, args.im)
    val = cauchy_transform(jac, z, args.depth)
    _emit({"family": args.family, "z": z, "value": val}, args.output)
    return 0


def cmd_density(args) -> int:
    if args.kind == "sech":
        if args.x is None:
            raise ValueError("sech density needs --x")
        _emit({"kind": "sech", "x": args.x, "value": sech_density(args.x)}, args.output)
        return 0
    if args.x is None and not args.mass:
        raise ValueError("need --x (a point) or --mass (the normalization integral)")
    q = float(parse_rational(args.q))
    alpha = float(parse_rational(args.alpha))
    payload = {"kind": "qmp", "variant": args.variant}
    if args.x is not None:
        payload["x"] = args.x
        payload["value"] = mp_density(args.x, q, alpha, variant=args.variant)
    if args.mass:
        payload["mass"] = mp_normalization(q, alpha, variant=args.variant)
    _emit(payload, args.output)
    return 0


def _fock_terms(f) -> List[dict]:
    rows = []
    for (top, bar), coeff in sorted(f.terms.items()):
        rows.append({"top": list(top), "bar": list(bar), "coeff": coeff})
    return rows


def cmd_wick(args) -> int:
    data = _read_input(args.input)
    params = _params_from(args)
    kind = data.get("kind", "gaussian")
    if kind == "gaussian":
        xs = [VectorPair.of(_vec(e["xi"]), _vec(e["eta"])) for e in _entries(data, "vectors")]
        _same_dims(xs, "vectors")
        lhs = gaussian_wick(xs, params)
        rhs = gaussian_fock_oracle(xs, params)
        match = lhs == rhs
        _emit({"kind": kind, "formula": lhs, "oracle": rhs, "match": match}, args.output)
        return 0 if match else 1
    if kind == "word":
        tokens = [(e["kind"], VectorPair.of(_vec(e["xi"]), _vec(e["eta"]))) for e in _entries(data, "tokens")]
        _same_dims([x for _, x in tokens], "tokens")
        lhs = word_vacuum_formula(tokens, params)
        rhs = word_fock_oracle(tokens, params)
        match = lhs == rhs
        _emit(
            {"kind": kind, "formula": _fock_terms(lhs), "oracle": _fock_terms(rhs), "match": match},
            args.output,
        )
        return 0 if match else 1
    if kind == "full":
        ops = []
        for e in _entries(data, "operators"):
            vec = VectorPair.of(_vec(e["xi"]), _vec(e["eta"]))
            gauge = None
            if "T" in e and e["T"] is not None:
                gauge = GaugePair.of(_mat(e["T"]), _mat(e["Tbar"]))
            lam = parse_rational(str(e.get("lam", "0")))
            lambar = parse_rational(str(e.get("lambar", "1")))
            ops.append(QuadrabasicOp(vec, gauge, lam, lambar))
        _same_dims([op.vector for op in ops], "operators")
        lhs = full_wick(ops, params)
        rhs = full_fock_oracle(ops, params)
        match = lhs == rhs
        _emit({"kind": kind, "formula": lhs, "oracle": rhs, "match": match}, args.output)
        return 0 if match else 1
    raise ValueError(f"unknown wick kind {kind!r}")


def _spec_from_json(data: dict) -> LevySpec:
    return LevySpec.of(
        _mat(data["xi"]),
        [_mat(m) for m in _check(data["T"], list, "a list of matrices")],
        _vec(data["lam"]),
        gram=_mat(data["gram"]) if data.get("gram") else None,
    )


def cmd_levy(args) -> int:
    data = _read_input(args.input)
    params = _params_from(args)
    spec = _spec_from_json(_check(data["spec"], dict, "spec to be an object"))
    word = tuple(int(u) for u in _check(data["word"], list, "word to be a list of coordinates"))
    s = parse_rational(str(data.get("s", "1")))
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
    data = _read_input(args.input)
    params = _params_from(args)
    pairs = [_check(data[key], dict, f"{key} to be an object") for key in ("a", "b")]
    a, b = (GeneratorPair.of(parse_rational(str(p["lam"])), _vec(p["tau"])) for p in pairs)
    c = convolve_pairs(a, b)
    nmax = int(data.get("nmax", 6))
    payload = {
        "a_moments": pair_to_moments(a, params, nmax),
        "b_moments": pair_to_moments(b, params, nmax),
        "convolution_moments": pair_to_moments(c, params, nmax),
        "convolution_lam": c.lam,
        "convolution_tau": list(c.tau_moments),
    }
    _emit(payload, args.output)
    return 0


def _parse_word_key(key: str):
    key = key.strip()
    if not key:
        return ()
    return tuple(int(tok) for tok in key.split())


def cmd_gns(args) -> int:
    data = _read_input(args.input)
    k = int(data["k"])
    maxlen = int(data["maxlen"])
    psi_json = _check(data["psi"], dict, "psi to be an object")
    psi = {_parse_word_key(kk): parse_rational(str(vv)) for kk, vv in psi_json.items()}
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


def cmd_verify(args) -> int:
    failures = 0

    def report(name: str, ok: bool) -> None:
        nonlocal failures
        line = f"{'ok  ' if ok else 'FAIL'}  {name}"
        print(line)
        if not ok:
            failures += 1

    counts = [count_diagonal_pair_partitions(2 * n) for n in range(1, 5)]
    report("diagonal pair partition counts 1,5,61,1385", counts == [1, 5, 61, 1385])

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
    report("fourth moment equals 1 + qv + qw + tv + tw", m4 == expected)

    pr = DeformationParams.from_rationals(Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 4))
    vecs = [
        VectorPair.of([1, 2], [1, -1]),
        VectorPair.of([0, 1], [2, 1]),
        VectorPair.of([1, 1], [1, 0]),
        VectorPair.of([2, -1], [0, 1]),
    ]
    report(
        "pair-partition moment formula matches operator model (n=4, d=2)",
        gaussian_wick(vecs, pr) == gaussian_fock_oracle(vecs, pr),
    )

    pc = DeformationParams.from_rationals(Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(1))
    report(
        "twisted commutation relation on levels <= 2",
        check_commutation_tensor(vecs[0], vecs[1], pc, 2, 2, maxlevel=2),
    )

    ok_norm, emp, val, branch = creation_norm_check(Fraction(1, 3), Fraction(1, 2))
    report(f"creation norm branch '{branch}' matches level sweep", ok_norm)

    free = DeformationParams.from_rationals(Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    ms = moments_from_jacobi(jacobi_poisson(free, 3), 4)
    report("centered free Poisson moments 0,1,1,3", ms == [0, 1, 1, 3])

    print(f"{6 - failures} of 6 checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="diagfock", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("euler", help="count diagonal pair partitions of 2n points")
    sp.add_argument("--nmax", type=int, default=5)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_euler)

    sp = sub.add_parser("partitions", help="enumerate diagonal partitions with weights")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--pairs", action="store_true", help="pair partitions only")
    sp.add_argument("--min-block-size", type=int, default=1)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_partitions)

    for name, handler in (("moments", cmd_moments), ("polys", cmd_polys)):
        sp = sub.add_parser(name, help=f"orthogonal polynomial family {name}")
        sp.add_argument("--family", required=True, choices=["hermite", "poisson", "qmp", "sech", "dqhermite"])
        sp.add_argument("--nmax", type=int, default=8)
        sp.add_argument("--alpha", default="0", help="qmp shape parameter (rational)")
        sp.add_argument("--mode", choices=["exact", "float"], default="exact")
        sp.add_argument("--output", default=None)
        _add_param_flags(sp)
        sp.set_defaults(func=handler)

    sp = sub.add_parser("cauchy", help="Cauchy transform at a complex point")
    sp.add_argument("--family", required=True, choices=["hermite", "poisson", "qmp", "sech", "dqhermite"])
    sp.add_argument("--re", type=float, default=0.0)
    sp.add_argument("--im", type=float, default=1.0)
    sp.add_argument("--depth", type=int, default=120)
    sp.add_argument("--alpha", default="0")
    sp.add_argument("--output", default=None)
    _add_param_flags(sp, symbolic_ok=False)
    sp.set_defaults(func=cmd_cauchy)

    sp = sub.add_parser("density", help="evaluate a density")
    sp.add_argument("--kind", choices=["qmp", "sech"], required=True)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--q", default="0")
    sp.add_argument("--alpha", default="0")
    sp.add_argument("--variant", choices=["corrected", "printed"], default="corrected")
    sp.add_argument("--mass", action="store_true", help="also report total mass over the support")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("wick", help="moment formulas vs operator model from JSON input")
    sp.add_argument("--input", required=True, help="JSON file or - for stdin")
    sp.add_argument("--output", default=None)
    _add_param_flags(sp)
    sp.set_defaults(func=cmd_wick)

    sp = sub.add_parser("levy", help="process moment/cumulant of a word")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", default=None)
    _add_param_flags(sp)
    sp.set_defaults(func=cmd_levy)

    sp = sub.add_parser("convolve", help="convolve one-variable laws via generator pairs")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", default=None)
    _add_param_flags(sp)
    sp.set_defaults(func=cmd_convolve)

    sp = sub.add_parser("gns", help="reconstruct coordinates from a cumulant functional")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_gns)

    sp = sub.add_parser("verify", help="run the built-in cross-check battery")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
