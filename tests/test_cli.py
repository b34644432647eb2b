import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from diagfock import _guards, cli
from diagfock.cli import main
from diagfock.partitions import (
    count_diagonal_pair_partitions,
    diagonal_partitions,
    render_partition,
)
from diagfock.levy import LevySpec, fock_levy_oracle
from diagfock.scalars import DeformationParams, Poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def invoke(capsys, tmp_path, argv, job=None):
    """main(argv), with the JSON job, if any, as its --input: (exit code, stdout, stderr)."""
    if job is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        argv = [*argv, "--input", str(path)]
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


POINT = ["--q", "1/7", "--t", "4/7", "--v", "2/7", "--w", "5/7"]
EULER = [1, 5, 61, 1385, 50521]


def test_euler_counts(capsys, tmp_path):
    # E_2n three ways: the pair counts, the sech moments and the Wick sum on 2n unit d = 1 vectors
    code, data = run_json(capsys, "euler", "--nmax", "5")
    assert code == 0
    assert data["pairs_on_2n"] == {str(n): e for n, e in enumerate(EULER, 1)}
    code, data = run_json(capsys, "moments", "--family", "sech", "--nmax", "10")
    assert code == 0 and data["moments_from_order_zero"][2::2] == [str(e) for e in EULER]
    for n, e in enumerate(EULER, 1):
        job = {"kind": "gaussian", "vectors": [{"xi": ["1"], "eta": ["1"]}] * (2 * n)}
        code, out, err = invoke(capsys, tmp_path, ["wick", "--q", "1", "--v", "1"], job)
        assert code == 0, err
        assert json.loads(out)["formula"] == str(e) and json.loads(out)["match"] is True


def test_euler_lists_its_keys_in_text_order(capsys):
    code, out = run(capsys, "euler", "--nmax", "12")
    assert code == 0
    keys = re.findall(r'^    "(\d+)": ', out, re.M)
    assert keys == ["1", "10", "11", "12", "2", "3", "4", "5", "6", "7", "8", "9"]


EMITTED = """{
  "empty": {},
  "flag": true,
  "float": 0.1,
  "nested": {
    "a": {
      "z": {
        "im": 1.0,
        "re": 0.0
      }
    },
    "b": [
      1.0,
      false
    ]
  },
  "nothing": null,
  "pair": [
    "1/3",
    2
  ],
  "poly": "-1/2 + 3 qw^2",
  "rational": "-3/4",
  "whole": "2",
  "z": {
    "im": -2.0,
    "re": 1.5
  }
}
"""


def test_emit_writes_one_json_format(tmp_path, capsys):
    payload = {
        "poly": Poly.const(Fraction(-1, 2)) + Poly.monomial(3, (1, 0, 0, 2)),
        "rational": Fraction(-3, 4),
        "whole": Fraction(6, 3),
        "z": complex(1.5, -2),
        "float": 0.1,
        "flag": True,
        "nothing": None,
        "pair": (Fraction(1, 3), 2),
        "nested": {"b": [1.0, False], "a": {"z": 1j}},
        "empty": {},
    }
    cli._emit(payload, None)
    assert capsys.readouterr().out == EMITTED
    target = tmp_path / "out.json"
    cli._emit(payload, str(target))
    assert target.read_text() == EMITTED and not capsys.readouterr().out


def test_moments_free_hermite(capsys):
    code, data = run_json(
        capsys, "moments", "--family", "hermite", "--nmax", "6", "--q", "0", "--t", "1"
    )
    assert code == 0
    assert data["moments_from_order_zero"] == ["1", "0", "1", "0", "2", "0", "5"]


def test_moments_symbolic(capsys):
    code, data = run_json(capsys, "moments", "--family", "hermite", "--nmax", "4", "--symbolic")
    assert code == 0
    assert data["moments_from_order_zero"][4] == "1 + qv + qw + tv + tw"


def test_moments_float_mode_gives_the_floats_of_the_exact_moments(capsys):
    argv = ["moments", "--family", "hermite", "--nmax", "8", "--q", "1/2", "--t", "2/3", "--v", "1/3", "--w", "3/4"]
    code, exact = run_json(capsys, *argv)
    assert code == 0
    code, floats = run_json(capsys, *argv, "--mode", "float")
    assert code == 0
    got = floats["moments_from_order_zero"]
    assert all(isinstance(x, float) for x in got)
    assert got == [float(Fraction(m)) for m in exact["moments_from_order_zero"]]


def test_polys_has_no_mode_flag(capsys):
    # polys prints exact coefficients only, so a float mode is an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["polys", "--family", "sech", "--nmax", "2", "--mode", "float"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


def test_partitions_listing(capsys):
    code, data = run_json(capsys, "partitions", "--n", "2")
    assert code == 0
    assert data["count"] == 2
    tops = {item["top"] for item in data["items"]}
    assert tops == {"1 2", "1 | 2"}


def test_partitions_resource_guard(capsys):
    code = main(["partitions", "--n", "99"])
    capsys.readouterr()
    assert code == 3


def test_partitions_item_cap(capsys):
    code = main(["partitions", "--n", "9"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("resource guard:") and not captured.out
    code, data = run_json(capsys, "partitions", "--n", "8")
    assert code == 0
    assert data["count"] == len(data["items"]) == 31134


@pytest.mark.parametrize("flags", [[], ["--min-block-size", "2"], ["--min-block-size", "3"], ["--pairs"]])
def test_partitions_item_count_is_predicted_exactly(monkeypatch, capsys, flags):
    # the cap admits a listing exactly when its predicted length is within it
    for n in range(0, 7, 2 if "--pairs" in flags else 1):
        code, data = run_json(capsys, "partitions", "--n", str(n), *flags)
        assert code == 0
        monkeypatch.setattr(_guards, "MAX_PARTITION_ITEMS", data["count"])
        assert run(capsys, "partitions", "--n", str(n), *flags)[0] == 0
        monkeypatch.setattr(_guards, "MAX_PARTITION_ITEMS", data["count"] - 1)
        assert run(capsys, "partitions", "--n", str(n), *flags)[0] == 3
        monkeypatch.undo()


@pytest.mark.parametrize("flags", [["--min-block-size", "1"], ["--min-block-size", "2"], ["--min-block-size", "3"], ["--pairs"]])
def test_partitions_items_match_the_pairwise_listing(capsys, flags):
    # the listing reads each row's (rc, rn) off the walk; the library pairs counted arc by arc are its oracle
    pairs = "--pairs" in flags
    for n in range(0, 10, 2) if pairs else range(8):
        code, data = run_json(capsys, "partitions", "--n", str(n), *flags)
        assert code == 0
        listed = diagonal_partitions(n, 1 if pairs else int(flags[1]))
        expect = [
            {"top": render_partition(dp.top), "bar": render_partition(dp.bar),
             "weight": str(Poly.monomial(1, dp.weight_exponents()))}
            for dp in listed
            if not pairs or all(len(b) == 2 for b in dp.top.blocks)
        ]
        if pairs:
            # the matchings, classed by opener set, come in another order
            items = [tuple(sorted(item.items())) for item in data["items"]]
            assert len(items) == len(set(items)) == count_diagonal_pair_partitions(n), n
            assert set(items) == {tuple(sorted(item.items())) for item in expect}, n
        else:
            assert data["items"] == expect, n


def test_partitions_count_refuses_n_ten_without_listing(monkeypatch, capsys):
    # 4 365 673 diagonal partitions of [10]: the count prices them, no row is built
    def unlisted(*args, **kwargs):
        raise AssertionError("the listing was started")

    monkeypatch.setattr(cli, "_diagonal_classes", unlisted)
    code = main(["partitions", "--n", "10"])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert captured.err.startswith("resource guard:") and "4365673" in captured.err


def test_euler_counts_run_to_the_sech_moment_cap(capsys):
    # the count is a continued fraction, capped like moments --family sech at 2 nmax <= 64
    code, data = run_json(capsys, "euler", "--nmax", "32")
    assert code == 0
    assert data["pairs_on_2n"]["8"] == 19391512145 and len(data["pairs_on_2n"]) == 32
    # one continued fraction gives every count, each the depth-n one of the library count
    assert data["pairs_on_2n"] == {str(n): count_diagonal_pair_partitions(2 * n) for n in range(1, 33)}
    code, moments = run_json(capsys, "moments", "--family", "sech", "--nmax", "64")
    assert str(data["pairs_on_2n"]["32"]) == moments["moments_from_order_zero"][64]


def test_partitions_negative_size_is_bad_input(capsys):
    code = main(["partitions", "--n", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and not captured.out


def test_wick_gaussian_roundtrip(tmp_path, capsys):
    payload = {
        "kind": "gaussian",
        "vectors": [
            {"xi": ["1", "0"], "eta": ["1"]},
            {"xi": ["1", "1"], "eta": ["2"]},
            {"xi": ["0", "1"], "eta": ["1"]},
            {"xi": ["1", "-1"], "eta": ["1/2"]},
        ],
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code, data = run_json(capsys, "wick", "--input", str(path), "--q", "1/2", "--v", "1/3")
    assert code == 0
    assert data["match"] is True
    assert data["formula"] == data["oracle"]


def test_wick_word_kind(tmp_path, capsys):
    payload = {
        "kind": "word",
        "tokens": [
            {"kind": "annihilate", "xi": ["1", "0"], "eta": ["1"]},
            {"kind": "create", "xi": ["1", "2"], "eta": ["3"]},
            {"kind": "create", "xi": ["0", "1"], "eta": ["1"]},
        ],
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code, data = run_json(capsys, "wick", "--input", str(path), "--q", "1/2", "--t", "2/3")
    assert code == 0
    assert data["match"] is True
    assert len(data["formula"]) > 0


def wick_entry(i, d_top=2, d_bar=2):
    return {"xi": [str(i + 1), "-1/2"][:d_top], "eta": ["1/3", str(2 - i)][:d_bar]}


def wick_operator(i, d_top=2, d_bar=2):
    # a gauge and both scalars on every operator, its top row cut to d_top entries and its bar row to d_bar
    T, Tbar = [["1/2", str(i % 3)], ["-1", "1/3"]], [[str(i - 4), "1"], ["2/3", "-1/5"]]
    return {**wick_entry(i, d_top, d_bar), "T": [row[:d_top] for row in T[:d_top]],
            "Tbar": [row[:d_bar] for row in Tbar[:d_bar]], "lam": str(2 * i - 7), "lambar": f"1/{i + 2}"}


# n = 10, d = 2 on both rows; the Gaussian and full sums also with a one-dimensional row
WICK_AT_THE_GUARD = {
    "gaussian": {"kind": "gaussian", "vectors": [wick_entry(i) for i in range(10)]},
    "gaussian-2/1": {"kind": "gaussian", "vectors": [wick_entry(i, d_bar=1) for i in range(10)]},
    "gaussian-1/2": {"kind": "gaussian", "vectors": [wick_entry(i, d_top=1) for i in range(10)]},
    "full": {"kind": "full", "operators": [wick_operator(i) for i in range(10)]},
    "full-2/1": {"kind": "full", "operators": [wick_operator(i, d_bar=1) for i in range(10)]},
    "full-1/2": {"kind": "full", "operators": [wick_operator(i, d_top=1) for i in range(10)]},
    "word": {"kind": "word", "tokens": [dict(wick_entry(i), kind="annihilate" if ch == "a" else "create")
                                        for i, ch in enumerate("aacccacccc")]},
}


@pytest.mark.parametrize("job", list(WICK_AT_THE_GUARD.values()), ids=list(WICK_AT_THE_GUARD))
def test_wick_formulas_match_the_operator_model_at_the_guard_size(capsys, tmp_path, job):
    code, out, err = invoke(capsys, tmp_path, ["wick", *POINT], job)
    assert code == 0, err
    assert json.loads(out)["match"] is True


def test_wick_rejects_mixed_dimensions(tmp_path, capsys):
    payload = {"kind": "gaussian", "vectors": [{"xi": ["1", "1"], "eta": ["1"]}, {"xi": ["1"], "eta": ["1"]}]}
    code, out, err = invoke(capsys, tmp_path, ["wick"], payload)
    assert code == 2
    assert err.startswith("error:") and not out


@pytest.mark.parametrize("xi", [5, "12", {"0": 1}])
def test_wick_rejects_vector_that_is_not_a_list(tmp_path, capsys, xi):
    payload = {"kind": "gaussian", "vectors": [{"xi": xi, "eta": ["1"]}, {"xi": ["1"], "eta": ["1"]}]}
    code, out, err = invoke(capsys, tmp_path, ["wick"], payload)
    assert code == 2
    assert err.startswith("error:") and not out


SPEC_1D = {"xi": [["1"]], "T": [[["1"]]], "lam": ["1"]}
CONVOLVE_PAIRS = {"a": {"lam": "0", "tau": ["1"]}, "b": {"lam": "1", "tau": ["1"]}}


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("levy", {"spec": {**SPEC_1D, "xi": 5}, "word": [0]}, ""),
        ("levy", {"spec": SPEC_1D, "word": 5}, "word"),
        ("convolve", {"a": {"lam": "0", "tau": 5}, "b": {"lam": "1", "tau": ["1"]}}, ""),
        ("gns", {"k": 1, "maxlen": 1, "psi": []}, "psi"),
        ("wick", {"kind": "gaussian", "vectors": 5}, "vectors"),
        ("gns", {"k": [1], "maxlen": 1, "psi": {}}, "k"),
        ("gns", {"k": 1, "maxlen": True, "psi": {}}, "maxlen"),
        ("convolve", {**CONVOLVE_PAIRS, "nmax": [3]}, "nmax"),
        ("convolve", {**CONVOLVE_PAIRS, "nmax": 6.9}, "nmax"),
        ("levy", {"spec": SPEC_1D, "word": [0.7]}, "word[0]"),
        ("levy", {"spec": SPEC_1D, "word": [0, "0"]}, "word[1]"),
        ("convolve", {**CONVOLVE_PAIRS, "nmax": -3}, "nmax"),
        ("convolve", {**CONVOLVE_PAIRS, "nmax": 0}, "nmax"),
        ("gns", {"k": 1, "maxlen": -2, "psi": {}}, "maxlen"),
        ("gns", {"k": -1, "maxlen": 1, "psi": {}}, "k"),
    ],
    ids=[
        "levy-xi", "levy-word", "convolve-tau", "gns-psi", "wick-vectors",
        "gns-k-list", "gns-maxlen-bool", "convolve-nmax-list", "convolve-nmax-float",
        "levy-word-float", "levy-word-text", "convolve-nmax-negative", "convolve-nmax-zero",
        "gns-maxlen-negative", "gns-k-negative",
    ],
)
def test_malformed_json_exits_2(tmp_path, capsys, command, payload, field):
    code, out, err = invoke(capsys, tmp_path, [command], payload)
    assert code == 2
    assert err.startswith(f"error: expected {field}") and not out


@pytest.mark.parametrize(
    "kind, key, entries, message",
    [
        ("gaussian", "vectors", [{"xi": ["1"], "eta": ["1"]}, {"xi": ["1"], "eta": ["1", "2"]}],
         "vectors[1]: eta has dimension 2, but vectors[0] has 1"),
        ("word", "tokens", [{"kind": "annihilate", "xi": ["1", "0"], "eta": ["1"]},
                            {"kind": "create", "xi": ["1", "0"], "eta": ["1"]},
                            {"kind": "create", "xi": ["1"], "eta": ["1"]}],
         "tokens[2]: xi has dimension 1, but tokens[0] has 2"),
        ("full", "operators", [{"xi": ["1"], "eta": ["1"]}, {"xi": ["1", "1"], "eta": ["1"]}],
         "operators[1]: xi has dimension 2, but operators[0] has 1"),
    ],
)
def test_wick_names_first_entry_of_another_dimension(tmp_path, capsys, kind, key, entries, message):
    code, out, err = invoke(capsys, tmp_path, ["wick"], {"kind": kind, key: entries})
    assert code == 2
    assert err == f"error: {message}\n" and not out


def test_wick_rejects_gauge_of_another_dimension(tmp_path, capsys):
    op = {"xi": ["1", "2"], "eta": ["1"], "T": [["1"]], "Tbar": [["1"]]}
    code, out, err = invoke(capsys, tmp_path, ["wick"], {"kind": "full", "operators": [op, op]})
    assert code == 2
    assert err.startswith("error: gauge T must be 2 x 2") and not out


@pytest.mark.parametrize(
    "kind, key, entry, message",
    [
        ("gaussian", "vectors", {"xi": [], "eta": []}, "xi is a zero-length vector"),
        ("gaussian", "vectors", {"xi": ["1"], "eta": []}, "eta is a zero-length vector"),
        ("full", "operators", {"xi": ["1"], "eta": ["1"], "T": [], "Tbar": [["1"]]}, "gauge T is a 0 x 0 matrix"),
        ("full", "operators", {"xi": ["1"], "eta": ["1"], "T": [["1"]], "Tbar": []}, "gauge Tbar is a 0 x 0 matrix"),
    ],
    ids=["xi", "eta", "T", "Tbar"],
)
def test_wick_refuses_zero_dimensional_input(tmp_path, capsys, kind, key, entry, message):
    # a job on 0-dimensional spaces would print "match": true about nothing
    code, out, err = invoke(capsys, tmp_path, ["wick"], {"kind": kind, key: [entry, entry]})
    assert code == 2
    assert err == f"error: {message}\n" and not out


@pytest.mark.parametrize("gauge", [3, ["12", "34"]])
def test_wick_rejects_matrix_that_is_not_a_list_of_lists(tmp_path, capsys, gauge):
    op = {"xi": ["1"], "eta": ["1"], "T": gauge, "Tbar": [["1"]]}
    code, out, err = invoke(capsys, tmp_path, ["wick"], {"kind": "full", "operators": [op, op]})
    assert code == 2
    assert err.startswith("error:") and not out


def test_levy_command_matches_library(tmp_path, capsys):
    from diagfock.levy import LevySpec, levy_moment
    from diagfock.scalars import DeformationParams

    payload = {
        "spec": {
            "xi": [["1", "0"], ["1", "1"]],
            "T": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
            "lam": ["1/2", "0"],
        },
        "word": [0, 1, 0],
        "s": "2",
    }
    path = tmp_path / "levy.json"
    path.write_text(json.dumps(payload))
    code, data = run_json(capsys, "levy", "--input", str(path), "--q", "1/2")
    assert code == 0
    spec = LevySpec.of([[1, 0], [1, 1]], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [Fraction(1, 2), 0])
    params = DeformationParams.from_rationals(Fraction(1, 2), 1, 0, 1)
    expect = levy_moment(spec, (0, 1, 0), params, Fraction(2))
    assert data["moment"] == str(expect)


def test_convolve_command(tmp_path, capsys):
    payload = {
        "a": {"lam": "0", "tau": ["1", "0", "0", "0", "0"]},
        "b": {"lam": "1", "tau": ["1", "1", "1", "1", "1"]},
        "nmax": 4,
    }
    path = tmp_path / "conv.json"
    path.write_text(json.dumps(payload))
    code, data = run_json(capsys, "convolve", "--input", str(path))
    assert code == 0
    assert data["a_moments"] == ["0", "1", "0", "2"]
    assert data["b_moments"] == ["1", "2", "5", "14"]
    assert data["convolution_lam"] == "1"


def test_gns_command(tmp_path, capsys):
    psi = {"0": "0", "0 0": "1"}
    for n in range(3, 7):
        psi[" ".join(["0"] * n)] = "0"
    payload = {"k": 1, "maxlen": 2, "psi": psi}
    path = tmp_path / "gns.json"
    path.write_text(json.dumps(payload))
    code, data = run_json(capsys, "gns", "--input", str(path))
    assert code == 0
    assert data["roundtrip_ok"] is True
    assert data["dim"] == 1


def test_gns_short_functional_exits_2_at_once(tmp_path, capsys):
    code, out, err = invoke(capsys, tmp_path, ["gns"], {"k": 2, "maxlen": 30, "psi": {"0": "1"}})
    assert code == 2
    assert err == "error: functional not defined on word (1,)\n" and not out


@pytest.mark.parametrize("key", ["x y", "0.5", "0 x", "0,1"])
def test_gns_malformed_psi_key_exits_2_naming_the_key(tmp_path, capsys, key):
    # int() used to fail first, with "invalid literal for int() with base 10: 'x'"
    code, out, err = invoke(capsys, tmp_path, ["gns"], {"k": 1, "maxlen": 1, "psi": {"0": "1", key: "2"}})
    assert code == 2 and not out
    assert err == f"error: expected psi keys to be words of integers separated by spaces, got {key!r}\n"


LEVY_AT_THE_CAP = {"xi": [["1", "-1/2"], ["1/3", "2"]], "lam": ["1/2", "-1"], "gram": [["2", "1"], ["1", "3"]],
                   "T": [[["1/2", "1"], ["1", "-1/3"]], [["0", "2/3"], ["2/3", "1"]]]}


def test_levy_word_at_the_cap_matches_the_operator_model_and_one_letter_more_is_refused(capsys, tmp_path):
    word = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0]
    job = {"spec": LEVY_AT_THE_CAP, "word": word, "s": "2/3"}
    code, out, err = invoke(capsys, tmp_path, ["levy", *POINT], job)
    assert code == 0, err
    data = json.loads(out)
    s, moment, cumulant = (Fraction(data[key]) for key in ("s", "moment", "cumulant"))
    poly = {int(k): Fraction(c) for k, c in data["s_polynomial"].items()}
    assert sum(c * s**k for k, c in poly.items()) == moment and poly.get(1, 0) * s == cumulant
    # the word on the second of two intervals, of lengths 1/5 and s: each annihilator pairs by s gram xi_u
    spec = LevySpec.of(*(LEVY_AT_THE_CAP[key] for key in ("xi", "T", "lam", "gram")))
    point = DeformationParams.from_rationals(Fraction(1, 7), Fraction(4, 7), Fraction(2, 7), Fraction(5, 7))
    assert fock_levy_oracle(spec, [(u, 1) for u in word], [Fraction(1, 5), s], point) == moment
    code, out, err = invoke(capsys, tmp_path, ["levy", *POINT], {**job, "word": word + [1]})
    assert code == 3 and err.startswith("resource guard:") and not out


@pytest.mark.parametrize("family, x", [("hermite", 0), ("poisson", 1)])
def test_convolved_pairs_at_the_cap_match_the_continued_fraction(capsys, tmp_path, family, x):
    # lam = 0 and tau = delta_x / 2 on each pair: x = 0 adds up to the Gaussian, x = 1 to the centred Poisson
    half = {"lam": "0", "tau": [str(Fraction(x**m, 2)) for m in range(9)]}
    code, out, err = invoke(capsys, tmp_path, ["convolve", *POINT], {"a": half, "b": half, "nmax": 10})
    assert code == 0, err
    code, expect = run_json(capsys, "moments", "--family", family, "--nmax", "10", *POINT)
    assert code == 0
    got = json.loads(out)["convolution_moments"]
    assert [Fraction(m) for m in got] == [Fraction(m) for m in expect["moments_from_order_zero"][1:]]


def test_density_variants(capsys):
    code, data = run_json(
        capsys, "density", "--kind", "qmp", "--q", "1/2", "--alpha=-1/4", "--x", "0.25", "--mass"
    )
    assert code == 0
    assert abs(data["mass"] - 1.0) < 1e-6
    code, data = run_json(
        capsys,
        "density", "--kind", "qmp", "--q", "1/2", "--alpha=-1/4", "--x", "0.25",
        "--variant", "printed", "--mass",
    )
    assert code == 0
    assert abs(data["mass"] - 1.0) > 0.5
    # mass alone, no evaluation point
    code, data = run_json(capsys, "density", "--kind", "qmp", "--q", "1/4", "--alpha=-1/4", "--mass")
    assert code == 0
    assert "value" not in data and abs(data["mass"] - 1.0) < 1e-6
    code = main(["density", "--kind", "qmp", "--q", "1/4", "--alpha=-1/4"])
    capsys.readouterr()
    assert code == 2


def test_density_sech_reports_its_mass(capsys):
    # the sech law has total mass 1; --mass was once dropped for sech
    code, data = run_json(capsys, "density", "--kind", "sech", "--x", "0.5", "--mass")
    assert code == 0 and abs(data["mass"] - 1.0) < 1e-9
    assert data["x"] == 0.5 and abs(data["value"] - 0.5 / math.cosh(math.pi / 4)) < 1e-12
    # mass alone, no evaluation point, as for qmp
    code, data = run_json(capsys, "density", "--kind", "sech", "--mass")
    assert code == 0 and set(data) == {"kind", "mass"} and abs(data["mass"] - 1.0) < 1e-9
    code = main(["density", "--kind", "sech"])
    captured = capsys.readouterr()
    assert code == 2 and "--x" in captured.err and not captured.out


@pytest.mark.parametrize(
    "q, alpha, bound",
    [
        ("1/2", "-1", "alpha > -1"),
        ("1", "0", "0 < q < 1"),
        ("1/2", "-2", "alpha > -1"),
        ("1/2", "3/2", "alpha <= 1"),
        ("1/2", "5", "alpha <= 1"),
    ],
)
def test_density_outside_its_domain_exits_2(capsys, q, alpha, bound):
    code = main(["density", "--kind", "qmp", f"--q={q}", f"--alpha={alpha}", "--mass"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and bound in captured.err and not captured.out


@pytest.mark.parametrize("alpha", ["1", "-1/4"])
def test_density_at_the_ends_of_its_alpha_domain_has_mass_one(capsys, alpha):
    code, data = run_json(capsys, "density", "--kind", "qmp", "--q=1/2", f"--alpha={alpha}", "--mass")
    assert code == 0 and abs(data["mass"] - 1.0) < 1e-9


def test_qmp_jacobi_data_accept_any_alpha(capsys):
    for command in (["moments", "--nmax", "4"], ["cauchy", "--re", "0", "--im", "2", "--depth", "6"]):
        code, _ = run_json(capsys, *command, "--family", "qmp", "--q=1/2", "--alpha=5")
        assert code == 0


@pytest.mark.parametrize(
    "gram, message",
    [([["1", "2"], ["0", "1"]], "gram must be symmetric"), ([["1", "0"]], "gram must be 2 x 2")],
    ids=["asymmetric", "not-d-by-d"],
)
def test_levy_refuses_bad_gram(tmp_path, capsys, gram, message):
    spec = {"xi": [["1", "0"]], "T": [[["1", "0"], ["0", "1"]]], "lam": ["1"], "gram": gram}
    code, out, err = invoke(capsys, tmp_path, ["levy"], {"spec": spec, "word": [0, 0]})
    assert code == 2
    assert err.startswith(f"error: {message}") and not out


@pytest.mark.parametrize("gram", [0, [], False], ids=["zero", "empty-list", "false"])
def test_levy_refuses_a_falsy_gram(tmp_path, capsys, gram):
    spec = {"xi": [["1", "0"]], "T": [[["1", "0"], ["0", "1"]]], "lam": ["1"], "gram": gram}
    code, out, err = invoke(capsys, tmp_path, ["levy"], {"spec": spec, "word": [0, 0]})
    assert code == 2
    assert err.startswith("error: ") and "gram" in err and not out


def test_levy_takes_a_null_gram_as_no_gram(tmp_path, capsys):
    spec = {"xi": [["1", "1/2"]], "T": [[["1", "0"], ["0", "2"]]], "lam": ["1/3"]}
    outputs = []
    for extra in ({}, {"gram": None}):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"spec": {**spec, **extra}, "word": [0, 0, 0]}))
        outputs.append(run(capsys, "levy", "--input", str(path)))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_wick_takes_a_null_gauge_pair_as_no_gauge(tmp_path, capsys):
    entry = {"xi": ["1", "1/2"], "eta": ["2"], "lam": "1/3", "lambar": "2"}
    outputs = []
    for extra in ({}, {"T": None, "Tbar": None}):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"kind": "full", "operators": [{**entry, **extra}] * 4}))
        outputs.append(run(capsys, "wick", "--input", str(path)))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


@pytest.mark.parametrize("command", ["moments", "polys"])
@pytest.mark.parametrize("family", ["sech", "qmp", "dqhermite"])
def test_symbolic_is_refused_for_a_family_without_a_point(monkeypatch, capsys, command, family):
    def built(args, depth):
        raise AssertionError("the family was built before --symbolic was refused")

    monkeypatch.setitem(cli._FAMILIES, family, built)
    code = main([command, "--family", family, "--nmax", "4", "--symbolic"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and not captured.out
    assert f"--family {family}" in captured.err and "--symbolic" in captured.err


@pytest.mark.parametrize("command", ["moments", "polys"])
@pytest.mark.parametrize("family", ["hermite", "poisson"])
def test_symbolic_is_taken_for_the_families_at_a_point(capsys, command, family):
    code, data = run_json(capsys, command, "--family", family, "--nmax", "4", "--symbolic")
    assert code == 0
    key = "moments_from_order_zero" if command == "moments" else "gamma"
    assert any(re.search(r"[qtvw]", x) for x in data[key])


@pytest.mark.parametrize(
    "argv, name",
    [
        (["cauchy", "--family", "hermite", "--q", "1e400", "--depth", "5"], "the recurrence coefficient gamma_1"),
        (["moments", "--family", "hermite", "--q", "1e400", "--nmax", "4", "--mode", "float"], "the moment m_4"),
        (["density", "--kind", "qmp", "--q", "1e400", "--alpha", "0", "--x", "0"], "--q"),
        (["density", "--kind", "qmp", "--q", "1/2", "--alpha", "1e400", "--mass"], "--alpha"),
    ],
    ids=["cauchy-jacobi-entry", "moments-float-mode", "density-qmp-q", "density-qmp-alpha"],
)
def test_an_exact_value_too_large_for_a_float_exits_2(capsys, argv, name):
    # each used to raise OverflowError, a traceback and exit code 1
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == f"error: {name} is too large for a float\n"


@pytest.mark.parametrize("x", ["500", "-500", "1e300", "-1e300"])
def test_the_sech_density_far_in_its_tail_exits_0_with_0(capsys, x):
    # cosh overflowed there: a traceback and exit code 1
    code, data = run_json(capsys, "density", "--kind", "sech", f"--x={x}", "--mass")
    assert code == 0 and data["value"] == 0.0 and data["x"] == float(x) and abs(data["mass"] - 1.0) < 1e-9


@pytest.mark.parametrize(
    "command, cap", [("moments", _guards.MAX_SYMBOLIC_MOMENTS_NMAX), ("polys", _guards.MAX_SYMBOLIC_POLYS_NMAX)]
)
@pytest.mark.parametrize("family", ["hermite", "poisson"])
def test_symbolic_nmax_past_its_cap_exits_3(monkeypatch, capsys, command, cap, family):
    # --symbolic took the rational cap of 64, where Poisson's polys never finish
    def built(args, depth):
        raise AssertionError("the family was built before --nmax was refused")

    monkeypatch.setitem(cli._FAMILIES, family, built)
    code = main([command, "--family", family, "--nmax", str(cap + 1), "--symbolic"])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert captured.err == f"resource guard: --nmax with --symbolic is {cap + 1}, but is guarded at <= {cap}\n"
    assert cap < _guards.MAX_FAMILY_NMAX


def test_moments_and_cauchy_guards(capsys):
    for argv in (
        ["moments", "--family", "hermite", "--nmax", "99999"],
        ["polys", "--family", "hermite", "--nmax", "4096"],
        ["cauchy", "--family", "hermite", "--depth", "999999"],
        ["euler", "--nmax", "33"],
    ):
        code = main(argv)
        capsys.readouterr()
        assert code == 3, argv


def test_convolve_order_guard(tmp_path, capsys):
    # the transforms stay capped at MAX_DIAGONAL_N = 10 moments
    tau = ["1"] * 12
    for nmax, expect in ((10, 0), (11, 3)):
        path = tmp_path / "conv.json"
        path.write_text(json.dumps({"a": {"lam": "0", "tau": tau}, "b": {"lam": "1", "tau": tau}, "nmax": nmax}))
        code = main(["convolve", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == expect, nmax
        assert (captured.err.startswith("resource guard: ") and not captured.out) if expect else not captured.err


def test_cauchy_structure(capsys):
    code, data = run_json(capsys, "cauchy", "--family", "sech", "--re", "0", "--im", "2")
    assert code == 0
    assert data["value"]["im"] < 0  # Herglotz: maps upper half plane down


def test_verify_battery(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    assert out.count("ok  ") == 6
    assert "FAIL" not in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["euler", "--nmax", "2", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["pairs_on_2n"]["2"] == 5


def test_euler_prints_the_same_bytes_every_run(tmp_path, capsys):
    outs = [run(capsys, "euler", "--nmax", "3") for _ in range(2)]
    assert outs[0] == outs[1] == (0, '{\n  "pairs_on_2n": {\n    "1": 1,\n    "2": 5,\n    "3": 61\n  }\n}\n')
    files = [tmp_path / "a.json", tmp_path / "b.json"]
    for target in files:
        assert main(["euler", "--nmax", "3", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert files[0].read_bytes() == files[1].read_bytes() == outs[0][1].encode()


def test_bad_input_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["wick", "--input", str(bad)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["euler", "--nmax", "0"], "--nmax"),
        (["euler", "--nmax", "-3"], "--nmax"),
        (["moments", "--family", "hermite", "--nmax", "0"], "--nmax"),
        (["polys", "--family", "hermite", "--nmax", "0"], "--nmax"),
        (["cauchy", "--family", "hermite", "--depth", "0"], "--depth"),
        (["cauchy", "--family", "sech", "--re", "0", "--im", "0"], "continued fraction denominator vanished"),
        (["cauchy", "--family", "sech", "--re", "nan"], "--re"),
        (["cauchy", "--family", "sech", "--im", "inf"], "--im"),
        (["density", "--kind", "sech", "--x", "nan"], "--x"),
        (["density", "--kind", "qmp", "--q=1/2", "--x=-inf"], "--x"),
        (["partitions", "--n", "-1"], "is -1, but must be >= 0"),
        (["partitions", "--pairs", "--n", "-2"], "is -2, but must be >= 0"),
        (["partitions", "--n", "3", "--min-block-size", "0"], "--min-block-size"),
        (["partitions", "--n", "3", "--min-block-size", "-2"], "--min-block-size"),
        (["partitions", "--n", "4", "--pairs", "--min-block-size", "3"], "--pairs with --min-block-size 3"),
        (["moments", "--family", "hermite", "--nmax", "3", "--symbolic", "--mode", "float"],
         "--mode float needs a rational point, not --symbolic"),
    ],
    ids=[
        "euler-nmax-zero", "euler-nmax-negative", "moments-nmax-zero", "polys-nmax-zero", "cauchy-depth-zero",
        "cauchy-pole", "cauchy-re-nan", "cauchy-im-inf", "density-sech-x-nan", "density-qmp-x-inf",
        "partitions-n-negative", "partitions-pairs-n-negative",
        "partitions-min-block-size-zero", "partitions-min-block-size-negative", "partitions-pairs-min-block-size-three",
        "moments-symbolic-float-mode",
    ],
)
def test_sizes_below_range_and_non_finite_points_exit_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err and not captured.out
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("wick", {"kind": "gaussian", "vectors": [{"xi": ["1"]}]}, "eta"),
        ("wick", {"kind": "word", "tokens": [{"xi": ["1"], "eta": ["1"]}]}, "kind"),
        ("wick", {"kind": "full", "operators": [{"xi": ["1"], "eta": ["1"], "T": [["2"]]}]}, "Tbar"),
        # a Tbar with no T is refused, not dropped with the gauge
        ("wick", {"kind": "full", "operators": [{"xi": ["1"], "eta": ["1"], "Tbar": [["5"]], "lam": "1", "lambar": "1"},
                                                {"xi": ["1"], "eta": ["1"]}]}, "T"),
        ("levy", {"spec": {"xi": [["1"]], "T": [[["1"]]]}, "word": [0]}, "lam"),
        ("convolve", {"a": {"lam": "0"}, "b": {"lam": "1", "tau": ["1"]}}, "tau"),
        ("gns", {"k": 1, "psi": {}}, "maxlen"),
    ],
    ids=["wick-gaussian", "wick-word", "wick-full", "wick-full-no-T", "levy", "convolve", "gns"],
)
def test_missing_field_is_named(tmp_path, capsys, command, payload, field):
    code, out, err = invoke(capsys, tmp_path, [command], payload)
    assert code == 2
    assert err == f"error: missing field '{field}'\n" and not out


@pytest.mark.parametrize(
    "argv, job, fragment, code",
    [
        # the pair listing is guarded by the count of diagonal pair partitions, a sech moment of order <= 64
        (["partitions", "--pairs", "--n", "66"], None, "is 66, but is guarded at <= 64", 3),
        (["moments", "--family", "hermite", "--q", "oops"], None, "'oops'", 2),
        (["wick"], {"kind": "bogus", "vectors": []}, "unknown wick kind 'bogus'", 2),
        (["gns"], {"k": 1, "maxlen": 2, "psi": {"0": "1", "0 0": "2"}}, "functional not defined on word (0, 0, 0)", 2),
        # a negative pivot, and a zero diagonal with a nonzero row
        (["gns"], {"k": 1, "maxlen": 1, "psi": {"0": "0", "0 0": "-1"}},
         "error: functional is not conditionally positive on this window", 2),
        (["gns"], {"k": 2, "maxlen": 1, "psi": {"0": "0", "1": "0", "0 0": "0", "0 1": "1", "1 0": "1", "1 1": "0"}},
         "error: functional is not conditionally positive on this window", 2),
        # a letter outside 0..k-1 is named with its key before the reconstruction runs
        (["gns"], {"k": 1, "maxlen": 1, "psi": {"0": "1", "0 0": "2", "0 0 0": "1", "0 0 0 0": "3", "1": "5"}},
         "expected psi keys to be words over the letters 0..0 of k = 1, got '1'", 2),
        (["gns"], {"k": 2, "maxlen": 0, "psi": {"0": "1", "-1 0": "2"}},
         "expected psi keys to be words over the letters 0..1 of k = 2, got '-1 0'", 2),
        (["levy"], {"spec": {"xi": [["1"]], "T": [[["1"]]], "lam": ["1"]}, "word": [0, 3]},
         "error: word uses an unknown coordinate 3, but k = 1", 2),
        # a JSON null is refused by its field's name, as a missing field is
        (["wick"], {"kind": "full", "operators": [{"xi": ["1"], "eta": ["1"], "T": None, "Tbar": [["1"]]}]},
         "error: expected T to be a list of rows, got None", 2),
        (["wick"], {"kind": "full", "operators": [{"xi": ["1"], "eta": ["1"], "T": [["1"]], "Tbar": None}]},
         "error: expected Tbar to be a list of rows, got None", 2),
        (["wick"], {"kind": "full", "operators": [{"xi": ["1"], "eta": ["1"], "lam": None}]},
         "error: expected lam to be a rational, got None", 2),
        (["wick"], {"kind": "full", "operators": [{"xi": ["1"], "eta": ["1"], "lambar": None}]},
         "error: expected lambar to be a rational, got None", 2),
        (["levy"], {"spec": {"xi": [["1"]], "T": [[["1"]]], "lam": ["1"]}, "word": [0], "s": None},
         "error: expected s to be a rational, got None", 2),
        (["convolve"], {"a": {"lam": None, "tau": ["1"]}, "b": {"lam": "1", "tau": ["1"]}},
         "error: expected a.lam to be a rational, got None", 2),
        (["gns"], {"k": 1, "maxlen": 1, "psi": {"0": "1", "0 0": None}},
         "error: expected psi['0 0'] to be a rational, got None", 2),
        # a gauge matrix that is not square is named with its shape
        (["wick"], {"kind": "full", "operators": [{"xi": ["1"], "eta": ["1"], "T": [["1", "0"]], "Tbar": [["1"]]}]},
         "error: gauge T is 1 x 2, not a square matrix", 2),
        (["wick"], {"kind": "full", "operators": [{"xi": ["1"], "eta": ["1"], "T": [["1"]], "Tbar": [["1"], ["2"]]}]},
         "error: gauge Tbar is 2 x 1, not a square matrix", 2),
    ],
    ids=[
        "pairs-n-66", "moments-q-not-a-number", "wick-kind-bogus",
        "gns-word-missing", "gns-negative-pivot", "gns-zero-diagonal", "gns-letter-past-k", "gns-letter-negative",
        "levy-letter-past-k",
        "wick-T-null", "wick-Tbar-null", "wick-lam-null", "wick-lambar-null", "levy-s-null", "convolve-lam-null",
        "gns-psi-null", "wick-T-not-square", "wick-Tbar-not-square",
    ],
)
def test_a_bad_invocation_exits_2_and_an_oversized_one_3_naming_the_fault(capsys, tmp_path, argv, job, fragment, code):
    got, out, err = invoke(capsys, tmp_path, argv, job)
    assert got == code and not out
    assert err.startswith("error:" if code == 2 else "resource guard:") and fragment in err and err.count("\n") == 1


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_the_workflow_runs_no_inline_python_but_its_environment_check():
    # a claim checked by an inline script runs in CI alone: it belongs in this suite
    steps = re.split(r"\n\s*- ", WORKFLOW.read_text())
    inline = [step.splitlines()[0] for step in steps if re.search(r"python3? (-c|- <<)", step)]
    assert inline == ["name: the float paths run without numpy and scipy"]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(id, argv, JSON input or None) for every `diagfock` command line in a
    code block of README.md, and every JSON input of a json block, run by the
    command named last before that block."""
    text = README.read_text()
    examples = []
    for block in re.finditer(r"```(\w*)\n(.*?)```", text, re.S):
        lang, body = block.groups()
        if lang == "json":
            command = re.findall(r"`diagfock (\w+)", text[: block.start()])[-1]
            decoder, rest = json.JSONDecoder(), body.strip()
            while rest:
                job, end = decoder.raw_decode(rest)
                examples.append((f"{command}-{job.get('kind', 'job')}", [command], job))
                rest = rest[end:].lstrip()
        else:
            for line in body.splitlines():
                if line.startswith("diagfock "):
                    examples.append((line, shlex.split(line)[1:], None))
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("argv, job", [e[1:] for e in README_EXAMPLES], ids=[e[0] for e in README_EXAMPLES])
def test_readme_examples_exit_0(capsys, tmp_path, argv, job):
    if job is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        argv = argv + ["--input", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
