"""End-to-end runs of the command line front end, in process."""

import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chordnoise.cli
from chordnoise import (
    TorusGeometry,
    cat_state,
    channel_spectrum,
    density_from_pure,
    line_points,
    make_phase_damping_line,
    wigner_function,
)
from chordnoise.cli import main


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: ") :])
    parsed = list(csv.reader(lines[1:]))
    return config, parsed[0], [[float(x) for x in r] for r in parsed[1:]]


def test_channel_spectrum_depolarizing_csv(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(
        ["channel-spectrum", "--n", "8", "--family", "depolarizing", "--epsilon", "0.4", "--out", str(out)]
    )
    assert rc == 0
    config, columns, rows = _read_csv(out)
    assert columns == ["q", "p", "re", "im"]
    assert config["family"] == "depolarizing" and config["n"] == 8
    assert len(rows) == 64
    table = {(int(r[0]), int(r[1])): complex(r[2], r[3]) for r in rows}
    assert table[0, 0] == pytest.approx(1.0)
    others = [v for k, v in table.items() if k != (0, 0)]
    assert max(abs(v - 0.6) for v in others) < 1e-12


def test_channel_spectrum_line_json(tmp_path):
    out = tmp_path / "spec.json"
    rc = main(
        ["channel-spectrum", "--n", "32", "--family", "pdc-line", "--line", "1,2,2",
         "--epsilon", "0.5", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["q", "p", "re", "im"]
    assert doc["config"]["line"] == "1,2,2"
    assert len(doc["rows"]) == 1024
    vals = np.array([complex(r[2], r[3]) for r in doc["rows"]])
    assert (np.abs(vals - 0.5) > 1e-12).sum() == 32  # only the partner line leaves the base point


def test_gaussian_requires_sigma(tmp_path, capsys):
    rc = main(["channel-spectrum", "--n", "8", "--family", "gaussian", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "--sigma" in capsys.readouterr().err


def test_bad_line_flag(tmp_path, capsys):
    rc = main(
        ["channel-spectrum", "--n", "8", "--family", "pdc-line", "--line", "1,2",
         "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    assert "comma-separated" in capsys.readouterr().err


def test_missing_required_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["channel-spectrum", "--n", "8", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_evolve_identity_at_zero_strength(tmp_path):
    out = tmp_path / "evolve.csv"
    rc = main(["evolve", "--n", "16", "--family", "depolarizing", "--epsilon", "0.0", "--out", str(out)])
    assert rc == 0
    _, columns, rows = _read_csv(out)
    assert columns == ["jq", "jp", "w_in", "w_out"]
    assert len(rows) == 32 * 32
    w_in = np.array([r[2] for r in rows])
    w_out = np.array([r[3] for r in rows])
    assert_allclose(w_out, w_in, atol=1e-13)


def test_evolve_acts_linearly(tmp_path):
    # depolarizing output must be the convex mix of input and the flat state
    out = tmp_path / "evolve.json"
    rc = main(
        ["evolve", "--n", "32", "--family", "depolarizing", "--epsilon", "0.9",
         "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    rows = doc["rows"]
    w_in = np.array([r[2] for r in rows]).reshape(64, 64)
    w_out = np.array([r[3] for r in rows]).reshape(64, 64)
    w_flat = wigner_function(np.eye(32, dtype=complex) / 32)
    assert_allclose(w_out, 0.1 * w_in + 0.9 * w_flat, atol=1e-13)


def test_wigner_matches_library(tmp_path):
    out = tmp_path / "wig.csv"
    rc = main(["wigner", "--n", "16", "--centers", "0.4,0.25,0.6,0.75", "--out", str(out)])
    assert rc == 0
    _, columns, rows = _read_csv(out)
    assert columns == ["jq", "jp", "w"]
    grid = np.array([r[2] for r in rows]).reshape(32, 32)
    g = TorusGeometry(16)
    expected = wigner_function(density_from_pure(cat_state(g, (0.4, 0.25), (0.6, 0.75))))
    assert_allclose(grid, expected, atol=1e-13)


def test_propagator_and_stability_roundtrip(tmp_path, capsys):
    f1, f2 = tmp_path / "a28.csv", tmp_path / "a48.json"
    assert main(["propagator-spectrum", "--a-coeff", "2.8", "--out", str(f1)]) == 0
    assert main(["propagator-spectrum", "--a-coeff", "4.8", "--format", "json", "--out", str(f2)]) == 0

    config, columns, rows = _read_csv(f1)
    assert columns == ["re", "im", "modulus", "phase", "neg_log_modulus"]
    assert config["dim"] == 196 and len(rows) == 196
    mods = [r[2] for r in rows]
    assert mods == sorted(mods, reverse=True)
    assert mods[0] == pytest.approx(1.0, abs=1e-10)

    assert main(["stability", "--inputs", str(f1), str(f2), "--count", "20"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("max deviation over top 20:")
    assert float(line.rsplit(":", 1)[1]) < 1e-3


def test_propagator_count_flag(tmp_path):
    out = tmp_path / "few.csv"
    rc = main(
        ["propagator-spectrum", "--n", "20", "--sigma", "0.3", "--a-coeff", "4.0",
         "--count", "5", "--out", str(out)]
    )
    assert rc == 0
    _, _, rows = _read_csv(out)
    assert len(rows) == 5


def test_negative_count_is_an_error(tmp_path, capsys):
    small = ["--n", "20", "--sigma", "0.3", "--a-coeff", "4.0"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["propagator-spectrum", *small, "--count", "-1", "--out", str(f1)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["propagator-spectrum", *small, "--count", "0", "--out", str(f1)]) == 0
    assert len(_read_csv(f1)[2]) == 16  # 0 means all
    assert main(["propagator-spectrum", *small, "--out", str(f2)]) == 0
    assert main(["stability", "--inputs", str(f1), str(f2), "--count", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_negative_count_refused_before_build(tmp_path, capsys, monkeypatch):
    def build(*args):
        raise AssertionError("propagator built for a count that is refused anyway")

    monkeypatch.setattr(chordnoise.cli, "build_noisy_propagator", build)
    rc = main(["propagator-spectrum", "--a-coeff", "4.8", "--count", "-1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error: --count" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_flags_are_errors(tmp_path, capsys, bad):
    out = str(tmp_path / "x.csv")
    small = ["propagator-spectrum", "--n", "20", "--sigma", "0.3", "--out", out]
    for argv in (
        ["evolve", "--n", "8", "--family", "depolarizing", "--centers", f"{bad},0.2,0.3,0.4", "--out", out],
        ["wigner", "--n", "8", "--centers", f"0.1,0.2,0.3,{bad}", "--out", out],
        small + ["--k", bad],
        small + ["--a-coeff", bad],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err, err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_text_format_pinned(tmp_path, fmt):
    # index columns print as integers and every value round-trips exactly
    def table(argv):
        out = tmp_path / f"t.{fmt}"
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
        if fmt == "json":
            rows = json.loads(out.read_text())["rows"]
            assert all(type(r[0]) is int and type(r[1]) is int for r in rows)
            return np.array(rows)
        rows = list(csv.reader(out.read_text().splitlines()[2:]))
        assert all(r[0] == str(int(r[0])) and r[1] == str(int(r[1])) for r in rows)
        return np.array(rows, dtype=float)

    g = TorusGeometry(8)
    rows = table(["wigner", "--n", "8"])
    w = wigner_function(density_from_pure(cat_state(g, (0.4, 0.25), (0.6, 0.75))))
    assert np.array_equal(rows[:, :2], np.indices(w.shape).reshape(2, -1).T)
    assert np.array_equal(rows[:, 2], w.ravel())

    rows = table(["channel-spectrum", "--n", "8", "--family", "pdc-line", "--line", "1,2,1", "--epsilon", "0.3"])
    vals = channel_spectrum(make_phase_damping_line(g, line_points(g, 1, 2, 1), 0.3)).values
    assert np.abs(vals.imag).max() > 0.1
    assert np.array_equal(rows[:, :2], np.indices(vals.shape).reshape(2, -1).T)
    assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], vals.ravel())


def test_propagator_header_holds_every_flag(tmp_path):
    out = tmp_path / "p.csv"
    argv = ["--n", "20", "--sigma", "0.3", "--k", "0.05", "--map", "2,1,1,1", "--a-coeff", "4.0", "--count", "3"]
    assert main(["propagator-spectrum", *argv, "--out", str(out)]) == 0
    config, _, _ = _read_csv(out)
    assert config == {"command": "propagator-spectrum", "n": 20, "sigma": 0.3, "k": 0.05, "map": "2,1,1,1",
                      "a_coeff": 4.0, "count": 3, "dim": 16}


def test_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 8, "family": "depolarizing", "epsilon": 0.4}))
    out = tmp_path / "spec.csv"
    rc = main(["channel-spectrum", "--config", str(cfg), "--epsilon", "0.2", "--out", str(out)])
    assert rc == 0
    config, _, rows = _read_csv(out)
    assert config["n"] == 8
    assert config["epsilon"] == 0.2  # explicit flag beats the config file
    vals = {(int(r[0]), int(r[1])): r[2] for r in rows}
    assert vals[1, 0] == pytest.approx(0.8)

    # keys may also be written as argparse dests, with underscores
    cfg.write_text(json.dumps({"n": 20, "sigma": 0.3, "a_coeff": 4.0}))
    rc = main(["propagator-spectrum", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    config, _, _ = _read_csv(out)
    assert config["a_coeff"] == 4.0 and config["dim"] == 16


def test_output_is_deterministic(tmp_path):
    args = ["wigner", "--n", "8", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
