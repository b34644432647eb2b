import json
from fractions import Fraction

import pytest

from diagfock.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_euler_counts(capsys):
    code, data = run_json(capsys, "euler", "--nmax", "4")
    assert code == 0
    assert data["pairs_on_2n"] == {"1": 1, "2": 5, "3": 61, "4": 1385}


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


def test_wick_rejects_mixed_dimensions(tmp_path, capsys):
    payload = {"kind": "gaussian", "vectors": [{"xi": ["1", "1"], "eta": ["1"]}, {"xi": ["1"], "eta": ["1"]}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main(["wick", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and not captured.out


@pytest.mark.parametrize("xi", [5, "12", {"0": 1}])
def test_wick_rejects_vector_that_is_not_a_list(tmp_path, capsys, xi):
    payload = {"kind": "gaussian", "vectors": [{"xi": xi, "eta": ["1"]}, {"xi": ["1"], "eta": ["1"]}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main(["wick", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and not captured.out


SPEC_1D = {"xi": [["1"]], "T": [[["1"]]], "lam": ["1"]}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("levy", {"spec": {**SPEC_1D, "xi": 5}, "word": [0]}),
        ("levy", {"spec": SPEC_1D, "word": 5}),
        ("convolve", {"a": {"lam": "0", "tau": 5}, "b": {"lam": "1", "tau": ["1"]}}),
        ("gns", {"k": 1, "maxlen": 1, "psi": []}),
        ("wick", {"kind": "gaussian", "vectors": 5}),
    ],
    ids=["levy-xi", "levy-word", "convolve-tau", "gns-psi", "wick-vectors"],
)
def test_malformed_json_exits_2(tmp_path, capsys, command, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and not captured.out


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
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"kind": kind, key: entries}))
    code = main(["wick", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n" and not captured.out


def test_wick_rejects_gauge_of_another_dimension(tmp_path, capsys):
    op = {"xi": ["1", "2"], "eta": ["1"], "T": [["1"]], "Tbar": [["1"]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"kind": "full", "operators": [op, op]}))
    code = main(["wick", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: gauge T must be 2 x 2") and not captured.out


@pytest.mark.parametrize("gauge", [3, ["12", "34"]])
def test_wick_rejects_matrix_that_is_not_a_list_of_lists(tmp_path, capsys, gauge):
    op = {"xi": ["1"], "eta": ["1"], "T": gauge, "Tbar": [["1"]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"kind": "full", "operators": [op, op]}))
    code = main(["wick", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and not captured.out


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


def test_moments_and_cauchy_guards(capsys):
    for argv in (
        ["moments", "--family", "hermite", "--nmax", "99999"],
        ["polys", "--family", "hermite", "--nmax", "4096"],
        ["cauchy", "--family", "hermite", "--depth", "999999"],
        ["euler", "--nmax", "9"],
    ):
        code = main(argv)
        capsys.readouterr()
        assert code == 3, argv


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


def test_bad_input_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["wick", "--input", str(bad)])
    capsys.readouterr()
    assert code == 2
    code = main(["moments", "--family", "hermite", "--nmax", "4", "--q", "oops"])
    capsys.readouterr()
    assert code == 2
