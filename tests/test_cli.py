"""End-to-end runs of the command line front end, in process."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chordnoise.cli
from chordnoise import (
    KickedMap,
    LinearMapSpec,
    TorusGeometry,
    apply_channel,
    build_noisy_propagator,
    cat_state,
    channel_spectrum,
    density_from_pure,
    leading_spectrum,
    make_gaussian,
    make_phase_damping_line,
    nonlinear_kick,
    quantize_linear_map,
    wigner_function,
)
from chordnoise.cli import _grid_columns, _write_table, main


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


def test_pdc_line_requires_line(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["evolve", "--n", "8", "--family", "pdc-line", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --line is required for --family pdc-line\n"
    assert not out.exists()


@pytest.mark.parametrize("family, flags, named", [
    ("depolarizing", ["--line", "1,2,3"], "--line"),
    ("gaussian", ["--sigma", "0.3", "--line", "0,1,0"], "--line"),
    ("depolarizing", ["--sigma", "0.3"], "--sigma"),
    ("pdc-line", ["--line", "0,1,0", "--sigma", "0.3"], "--sigma"),
    ("gaussian", ["--sigma", "0.2", "--epsilon", "0.5"], "--epsilon"),
])
def test_channel_flag_the_family_does_not_read(tmp_path, capsys, family, flags, named):
    out = tmp_path / "x.csv"
    assert main(["channel-spectrum", "--n", "8", "--family", family, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()
    # the gaussian family's own epsilon, 1, is accepted
    if family == "gaussian":
        assert main(["channel-spectrum", "--n", "8", "--family", family, "--sigma", "0.2",
                     "--epsilon", "1", "--out", str(out)]) == 0


def test_second_config_refused(tmp_path, capsys):
    c1, c2, out = tmp_path / "c1.json", tmp_path / "c2.json", tmp_path / "r.csv"
    c1.write_text(json.dumps({"n": 8, "family": "depolarizing", "epsilon": 0.4}))
    c2.write_text(json.dumps({"epsilon": 0.2}))
    for argv in (["--config", str(c1), "--config", str(c2)], ["--config", str(c1), f"--config={c2}"]):
        assert main(["channel-spectrum", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --config")
    c1.write_text(json.dumps({"n": 8, "family": "depolarizing", "config": str(c2)}))
    assert main(["channel-spectrum", "--config", str(c1), "--out", str(out)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_bad_line_flag(tmp_path, capsys):
    # every comma-separated number flag refuses a malformed list the same way
    for argv, flag in (
        (["channel-spectrum", "--n", "8", "--family", "pdc-line", "--line", "1,2"], "--line"),
        (["propagator-spectrum", "--n", "20", "--sigma", "0.3", "--map", "1,1,1"], "--map"),
        (["wigner", "--n", "8", "--centers", "0.4,x,0.6,0.75"], "--centers"),
    ):
        rc = main([*argv, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "comma-separated" in err
        assert err.startswith("error: ") and flag in err


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


def test_a_refused_call_leaves_the_next_unchanged(tmp_path, monkeypatch):
    # main reuses one parser per process; a refusal must not carry into the next call
    valid = ["wigner", "--n", "16", "--centers", "0.4,0.25,0.6,0.75", "--out"]
    lone, after = tmp_path / "lone.csv", tmp_path / "after.csv"
    monkeypatch.setattr(chordnoise.cli, "_parser", None)
    assert main([*valid, str(lone)]) == 0
    monkeypatch.setattr(chordnoise.cli, "_parser", None)
    with pytest.raises(SystemExit) as exc:  # refused by argparse
        main(["wigner", "--n", "8", "--centers", "0.1,0.1,0.2,0.2", "--format", "xml", "--out", str(after)])
    assert exc.value.code == 2
    assert main(["wigner", "--n", "8", "--centers", "0.1,0.2", "--out", str(after)]) == 2  # refused by main
    assert main([*valid, str(after)]) == 0
    assert after.read_bytes() == lone.read_bytes()


def test_dense_solve_past_the_cap_is_refused(tmp_path, capsys, monkeypatch):
    # sigma 1e-310 covers the N=100 grid (dim 10,000), and --count 0 asks for all of it
    def never(a):
        raise AssertionError("dense eigvals ran")

    monkeypatch.setattr(np.linalg, "eigvals", never)
    out = tmp_path / "s.csv"
    assert main(["propagator-spectrum", "--n", "100", "--sigma", "1e-310", "--count", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dim 10000 > 4096") and "--count" in err


def test_memory_error_is_reported_not_raised(tmp_path, capsys, monkeypatch):
    # stands in for `wigner --n 100000`, whose 149 GiB table is not allocated here
    def oom(rho):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(chordnoise.cli, "wigner_function", oom)
    assert main(["wigner", "--n", "8", "--out", str(tmp_path / "w.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate 149. GiB")


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    fresh, built = chordnoise.cli.build_parser, []

    def counting():
        built.append(1)
        return fresh()

    monkeypatch.setattr(chordnoise.cli, "_parser", None)
    monkeypatch.setattr(chordnoise.cli, "build_parser", counting)
    assert main(["wigner", "--n", "8", "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["wigner", "--n", "8", "--format", "json", "--out", str(tmp_path / "b.json")]) == 0
    assert len(built) == 1
    assert fresh() is not fresh()  # build_parser itself still returns a new parser


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


def test_stability_reads_blank_lines_and_refuses_malformed_tables(tmp_path, capsys):
    small = ["--n", "20", "--sigma", "0.3", "--a-coeff", "4.0", "--count", "5"]
    good, blank, short, bare = (tmp_path / name for name in ("good.csv", "blank.csv", "short.csv", "bare.json"))
    assert main(["propagator-spectrum", *small, "--out", str(good)]) == 0
    text = good.read_text()
    blank.write_text(text + "\r\n\n")
    assert main(["stability", "--inputs", str(good), str(blank), "--count", "5"]) == 0
    assert capsys.readouterr().out.strip() == "max deviation over top 5: 0.000000e+00"
    lines = text.splitlines(keepends=True)
    short.write_text("".join(lines[:3]) + lines[3].rsplit(",", 1)[0] + "\r\n" + "".join(lines[4:]))
    bare.write_text(json.dumps({"config": {}, "columns": ["re", "im"]}))
    # json rows that are not a list, a row that is null, a value that is null
    columns = ["re", "im"]
    not_a_list, null_row, null_value = (tmp_path / f"{name}.json" for name in ("rows5", "nullrow", "nullvalue"))
    not_a_list.write_text(json.dumps({"columns": columns, "rows": 5}))
    null_row.write_text(json.dumps({"columns": columns, "rows": [[1.0, 0.0], None]}))
    null_value.write_text(json.dumps({"columns": columns, "rows": [[1.0, 0.0], [0.5, None]]}))
    for bad in (short, bare, not_a_list, null_row, null_value):
        assert main(["stability", "--inputs", str(good), str(bad), "--count", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err


def test_stability_refuses_a_table_without_re_and_im(tmp_path, capsys):
    spec, grid = tmp_path / "s.csv", tmp_path / "e.csv"
    assert main(["propagator-spectrum", "--n", "20", "--sigma", "0.3", "--count", "3", "--out", str(spec)]) == 0
    assert main(["evolve", "--n", "4", "--family", "depolarizing", "--out", str(grid)]) == 0
    assert main(["stability", "--inputs", str(spec), str(grid), "--count", "3"]) == 2
    assert capsys.readouterr().err == f"error: {grid} has no re/im columns\n"


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_stability_refuses_non_finite_eigenvalues(tmp_path, capsys, bad):
    good, broken = tmp_path / "good.csv", tmp_path / "broken.csv"
    good.write_text("re,im\r\n1.0,0.0\r\n0.2,0.0\r\n0.5,0.0\r\n")
    broken.write_text(f"re,im\r\n1.0,0.0\r\n{bad},0.0\r\n0.5,0.0\r\n")
    for pair in ((good, broken), (broken, good)):
        assert main(["stability", "--inputs", *map(str, pair), "--count", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "finite" in err


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


@pytest.mark.parametrize("argv, dim, count", [
    (["propagator-spectrum", "--n", "8", "--sigma", "1e-310"], 64, 64),
    (["propagator-spectrum", "--n", "8", "--sigma", "0.14", "--a-coeff", "1.7e308"], 64, 64),
    (["channel-spectrum", "--n", "8", "--family", "gaussian", "--sigma", "1e200"], None, 8 * 8),
    (["evolve", "--n", "8", "--family", "gaussian", "--sigma", "1e200"], None, 16 * 16),
])
def test_flags_past_the_float_range_run(tmp_path, argv, dim, count):
    # a/(2 pi sigma) is inf in both windows (0.13 is the narrowest Gaussian sigma
    # at N = 8), which cover the grid; sigma**2 overflows at sigma = 1e200
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 0
    config, _, rows = _read_csv(out)
    assert config.get("dim") == dim
    assert len(rows) == count and np.isfinite(rows).all()


@pytest.mark.parametrize("flags, message", [
    (["--k", "1e308"], "error: kick strength 1e+308 at N=8"),
    (["--sigma", "1e200"], "error: window floor(a/(2 pi sigma)) = 0 keeps no modes"),
])
def test_flags_past_the_float_range_are_errors(tmp_path, capsys, flags, message):
    # k N overflows at --k 1e308, which would make the kick phases NaN
    out = tmp_path / "x.csv"
    assert main(["propagator-spectrum", "--n", "8", "--sigma", "0.3", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


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
    vals = channel_spectrum(make_phase_damping_line(g, (1, 2, 1), 0.3)).values
    assert np.abs(vals.imag).max() > 0.1
    assert np.array_equal(rows[:, :2], np.indices(vals.shape).reshape(2, -1).T)
    assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], vals.ravel())


def test_evolve_takes_centers_outside_the_unit_square(tmp_path):
    out, ref = tmp_path / "far.csv", tmp_path / "near.csv"
    flags = ["evolve", "--n", "32", "--family", "depolarizing", "--epsilon", "0.3"]
    assert main(flags + ["--centers", "10.4,0.25,0.6,-3.25", "--out", str(out)]) == 0
    assert main(flags + ["--out", str(ref)]) == 0
    assert np.abs(np.array(_read_csv(out)[2]) - np.array(_read_csv(ref)[2])).max() < 1e-12


def test_cli_top_eigenvalues_match_the_dense_build(tmp_path):
    # The cli builds from KickedMap; the dense-u build is the reference. Their
    # entries differ by 4e-14, and eigenvalues 2 and 3 (condition ~4.5e7) by
    # 4.9e-10 (2.4e-9 while the dense build computed every block instead of
    # filling half from their mirrors): against the same window evaluated in
    # extended precision, the dense-u entries are off by 4e-14, the KickedMap
    # entries by 2e-16. So the bound is the 1e-8 within which the benchmark
    # counts an eigenvalue as converged.
    out = tmp_path / "top.csv"
    assert main(["propagator-spectrum", "--a-coeff", "2.8", "--count", "3", "--out", str(out)]) == 0
    rows = np.array(_read_csv(out)[2])
    g = TorusGeometry(100)
    u = quantize_linear_map(g, LinearMapSpec(1, 1, 1, 2)) @ nonlinear_kick(g, 0.02)
    dense = leading_spectrum(build_noisy_propagator(make_gaussian(g, 0.063), u, 2.8), 3).eigenvalues
    top = rows[:, 0] + 1j * rows[:, 1]
    assert abs(top[0] - dense[0]) < 1e-14
    assert np.abs(top - dense).max() < 1e-8


def test_oversized_window_is_an_error(tmp_path, capsys):
    # W = 328 at N = 1000: dim 430,336, whose kicked window would hold up to 4.5 GB
    tracemalloc.start()
    try:
        rc = main(["propagator-spectrum", "--n", "1000", "--a-coeff", "130", "--out", str(tmp_path / "x.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dim-430336" in err and "4,520,249,344 bytes" in err
    assert peak < 64e6  # the channel's N x N tables, no window
    assert not (tmp_path / "x.csv").exists()


def test_wide_kicked_window_runs(tmp_path):
    # W = 65 at N = 1000: dim 16,900, whose dense matrix (4.6 GB) was once priced and refused;
    # its in-window terms hold at most 35 MB, and the top 6 pass the Krylov check
    out = tmp_path / "s.csv"
    assert main(["propagator-spectrum", "--n", "1000", "--sigma", "0.063", "--a-coeff", "25.8", "--count", "6", "--out", str(out)]) == 0
    config, columns, rows = _read_csv(out)
    assert config["dim"] == 16900 and len(rows) == 6 and rows[0][columns.index("modulus")] == pytest.approx(1.0)


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


@pytest.mark.parametrize("one_token", [False, True])
def test_config_flag_in_either_form(tmp_path, one_token):
    cfg, a, b = tmp_path / "c.json", tmp_path / "a.csv", tmp_path / "b.csv"
    flag = [f"--config={cfg}"] if one_token else ["--config", str(cfg)]

    cfg.write_text(json.dumps({"n": 8, "family": "depolarizing", "epsilon": 0.4}))
    assert main(["channel-spectrum", *flag, "--out", str(a)]) == 0
    assert main(["channel-spectrum", "--n", "8", "--family", "depolarizing", "--epsilon", "0.4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    cfg.write_text(json.dumps({"centers": "0.3,0.2,0.7,0.8"}))
    assert main(["wigner", *flag, "--n", "4", "--out", str(a)]) == 0
    assert main(["wigner", "--n", "4", "--centers", "0.3,0.2,0.7,0.8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_output_is_deterministic(tmp_path):
    args = ["wigner", "--n", "8", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _reference_table(path, fmt, config, header, rows):
    """The cli writer as it was: csv.writer and json.dump over row tuples."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        with open(path, "w") as fh:
            json.dump({"config": config, "columns": header, "rows": [list(r) for r in rows]}, fh)
            fh.write("\n")


def _header_config(path):
    text = path.read_text()
    if text.startswith("{"):
        return json.loads(text)["config"]
    return json.loads(text.splitlines()[0][len("# config: ") :])


def _cells(*grids):
    return [(i, j, *(float(g[i, j]) for g in grids)) for i in range(grids[0].shape[0]) for j in range(grids[0].shape[1])]


def _cat(n):
    return density_from_pure(cat_state(TorusGeometry(n), (0.4, 0.25), (0.6, 0.75)))


def _eigen_rows(n, sigma, a):
    g = TorusGeometry(n)
    tp = build_noisy_propagator(make_gaussian(g, sigma), KickedMap(LinearMapSpec(1, 1, 1, 2), 0.02), a)
    return [
        (z.real, z.imag, abs(z), float(np.angle(z)), float(-np.log(abs(z))) if abs(z) > 0 else float("inf"))
        for z in leading_spectrum(tp, tp.dim).eigenvalues
    ]


def _spectrum_cells(ch):
    vals = channel_spectrum(ch).values
    return _cells(vals.real, vals.imag)


# name: (argv, header, rows from the library arrays)
_WRITER_CASES = {
    # 4,096 rows end exactly on a json chunk; 4,356 end part-way through one
    "wigner-32": (["wigner", "--n", "32"], ["jq", "jp", "w"], lambda: _cells(wigner_function(_cat(32)))),
    "wigner-33": (["wigner", "--n", "33"], ["jq", "jp", "w"], lambda: _cells(wigner_function(_cat(33)))),
    "evolve": (
        ["evolve", "--n", "17", "--family", "gaussian", "--sigma", "0.2"],
        ["jq", "jp", "w_in", "w_out"],
        lambda: _cells(
            wigner_function(_cat(17)),
            wigner_function(apply_channel(make_gaussian(TorusGeometry(17), 0.2), _cat(17))),
        ),
    ),
    "channel-spectrum": (
        ["channel-spectrum", "--n", "8", "--family", "pdc-line", "--line", "1,2,1", "--epsilon", "0.3"],
        ["q", "p", "re", "im"],
        lambda: _spectrum_cells(
            make_phase_damping_line(TorusGeometry(8), (1, 2, 1), 0.3)
        ),
    ),
    # np.float64 values; np.abs would differ from abs(z) in 4 of these 16 moduli
    "propagator-spectrum": (
        ["propagator-spectrum", "--n", "20", "--sigma", "0.3", "--a-coeff", "4.0"],
        ["re", "im", "modulus", "phase", "neg_log_modulus"],
        lambda: _eigen_rows(20, 0.3, 4.0),
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(_WRITER_CASES))
def test_writer_bytes_match_csv_writer_and_json_dump(tmp_path, case, fmt):
    argv, header, rows = _WRITER_CASES[case]
    out, ref = tmp_path / f"cli.{fmt}", tmp_path / f"ref.{fmt}"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    _reference_table(ref, fmt, _header_config(out), header, rows())
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_non_finite_and_short_tables(tmp_path, fmt):
    inf, nan = float("inf"), float("nan")
    header = ["i", "a", "b"]
    for columns in (
        [[0, 1, 2], [inf, nan, -inf], [1.5, np.float64(-2.25), np.float64(nan)]],
        [[7], [nan], [-inf]],  # one row
        [[], [], []],  # no rows
    ):
        out, ref = tmp_path / f"t.{fmt}", tmp_path / f"r.{fmt}"
        _write_table(str(out), fmt, {"command": "x", "line": None}, header, columns)
        _reference_table(ref, fmt, {"command": "x", "line": None}, header, list(zip(*columns)))
        assert out.read_bytes() == ref.read_bytes(), columns
    out = tmp_path / f"t.{fmt}"
    _write_table(str(out), fmt, {}, header, [[0], [inf], [nan]])
    text = out.read_bytes().decode()
    assert text.endswith("0,inf,nan\r\n" if fmt == "csv" else '"rows": [[0, Infinity, NaN]]}\n'), text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_signs_and_specials_across_chunks(tmp_path, fmt):
    # the writer formats each distinct magnitude of a chunk once and prefixes the sign
    rows = chordnoise.cli._CHUNK_ROWS + 1000
    ints = np.arange(rows) - rows // 2  # -5 and 5 share the first chunk; -2000 and 2000 do not
    w = np.random.default_rng(5).normal(size=rows)
    w[20], w[rows - 1] = -w[10], -w[30]  # a value and its negative in one chunk, and in two
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1)]
    w[40:46], w[-10:-4] = special, special[::-1]
    columns = [ints, w, ints.tolist(), w.tolist()]
    header = ["i", "w", "i_list", "w_list"]
    out, ref = tmp_path / f"t.{fmt}", tmp_path / f"r.{fmt}"
    _write_table(str(out), fmt, {"rows": rows}, header, columns)
    _reference_table(ref, fmt, {"rows": rows}, header, list(zip(*(np.asarray(c).tolist() for c in columns))))
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_stays_below_file_size(tmp_path, fmt):
    # the table is streamed: neither json.dump (pure Python) nor one json.dumps of the
    # whole document, both of which peaked at about three times the file size
    n = 65536
    columns = [list(range(n)), [j % 256 for j in range(n)], np.random.default_rng(3).normal(size=n).tolist()]
    out = tmp_path / f"big.{fmt}"
    tracemalloc.start()
    try:
        _write_table(str(out), fmt, {"n": n}, ["jq", "jp", "w"], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size, (peak, out.stat().st_size)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_stays_below_file_size_on_a_wigner_table(tmp_path, fmt):
    # a grid's columns repeat magnitudes; their shared text is still held one chunk at a time
    columns = _grid_columns(wigner_function(_cat(128)))
    out = tmp_path / f"wigner.{fmt}"
    tracemalloc.start()
    try:
        _write_table(str(out), fmt, {"n": 128}, ["jq", "jp", "w"], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size, (peak, out.stat().st_size)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_stays_below_file_size_when_every_magnitude_repeats(tmp_path, fmt):
    # the worst case for the held text: each magnitude occurs twice, half a table apart,
    # so the text of every one of them is held until the second half is written
    x = np.random.default_rng(11).normal(size=32768)
    columns = [np.concatenate([x, -x])]
    out = tmp_path / f"pairs.{fmt}"
    tracemalloc.start()
    try:
        _write_table(str(out), fmt, {}, ["w"], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size, (peak, out.stat().st_size)


def test_writer_formats_each_distinct_magnitude_once(tmp_path, monkeypatch):
    # rows q and q + N of the (2N, 2N) grid hold the same magnitudes, half a table apart
    w = wigner_function(_cat(128))
    formatted = []
    text = chordnoise.cli._text

    def counted(values, *args):
        if values.dtype == np.float64:
            formatted.append(len(values))
        return text(values, *args)

    monkeypatch.setattr(chordnoise.cli, "_text", counted)
    for fmt in ("csv", "json"):
        formatted.clear()
        _write_table(str(tmp_path / f"w.{fmt}"), fmt, {}, ["jq", "jp", "w"], _grid_columns(w))
        assert sum(formatted) == len(np.unique(np.abs(w))), fmt


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_int64_edges(tmp_path, fmt):
    lo, hi = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    header = ["i", "x"]
    for columns in ([[lo, 5, hi, lo], [-0.5, 1.0, 2.0, -0.5]], [np.array([hi, lo, 0]), np.array([lo, hi, lo])]):
        out, ref = tmp_path / f"t.{fmt}", tmp_path / f"r.{fmt}"
        _write_table(str(out), fmt, {}, header, columns)
        _reference_table(ref, fmt, {}, header, list(zip(*(np.asarray(c).tolist() for c in columns))))
        assert out.read_bytes() == ref.read_bytes(), columns
        assert str(lo).encode() in out.read_bytes() and b"--" not in out.read_bytes()


_BAD_COLUMNS = {
    "past-int64": [2**63],  # numpy reads it as uint64
    "past-int64-beside-int": [2**63, -1],  # numpy reads it as float64
    "below-int64": [-(2**63) - 1, 1],
    "past-uint64": [2**70],
    "int-beside-float": [1, 2.5],
    "bool-beside-int": [True, 2],
    "bools": [True, False],
    "float32-beside-float": [np.float32(1.5), 2.5],
    "strings": ["1", "2"],
    "none": [1.5, None],
    "2-d": [[1, 2], [3, 4]],
    "uint64-array": np.array([1, 2], dtype=np.uint64),
    "float32-array": np.array([1.5, 2.5], dtype=np.float32),
}


@pytest.mark.parametrize("case", sorted(_BAD_COLUMNS))
def test_writer_refuses_a_column_that_is_not_int64_or_float64(tmp_path, case):
    column = _BAD_COLUMNS[case]
    with pytest.raises(ValueError, match="column 'bad' is not"):
        _write_table(str(tmp_path / "t.csv"), "csv", {}, ["i", "bad"], [list(range(len(column))), column])


_REPLAY_CASES = {
    "channel-spectrum": ["channel-spectrum", "--n", "8", "--family", "pdc-line", "--line", "1,2,1", "--epsilon", "0.3"],
    "channel-spectrum-gaussian": ["channel-spectrum", "--n", "8", "--family", "gaussian", "--sigma", "0.4"],
    "evolve": ["evolve", "--n", "12", "--family", "depolarizing", "--epsilon", "0.7", "--centers", "0.1,0.2,0.7,0.6"],
    # a value that starts with '-' must reach argparse as part of its flag
    "wigner": ["wigner", "--n", "9", "--centers=-0.7,0.35,0.65,0.7"],
    "propagator-spectrum": ["propagator-spectrum", "--n", "20", "--sigma", "0.3", "--k", "-0.05", "--a-coeff", "4.0",
                            "--count", "3"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(_REPLAY_CASES))
def test_header_replays_through_config(tmp_path, case, fmt):
    first, again, cfg = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}", tmp_path / "header.json"
    argv = _REPLAY_CASES[case]
    assert main(argv + ["--format", fmt, "--out", str(first)]) == 0
    cfg.write_text(json.dumps(_header_config(first)))
    assert main([argv[0], "--config", str(cfg), "--format", fmt, "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_config_command_must_match(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "wigner", "n": 8}))
    with pytest.raises(ValueError, match="'wigner', not 'evolve'"):
        chordnoise.cli._expand_config(["evolve", "--config", str(cfg)])
    assert main(["evolve", "--config", str(cfg), "--family", "depolarizing", "--out", str(tmp_path / "x.csv")]) == 2
    assert "error: --config" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_config_needs_a_path_to_a_json_object(tmp_path, capsys):
    out, cfg = tmp_path / "x.csv", tmp_path / "list.json"
    assert main(["wigner", "--n", "8", "--out", str(out), "--config"]) == 2
    assert capsys.readouterr().err == "error: --config needs a file path\n"
    cfg.write_text(json.dumps(["--n", "8"]))
    assert main(["wigner", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --config {cfg} must hold a json object of flags\n"
    assert not out.exists()


def test_config_lists_give_one_argument_per_element(tmp_path, capsys):
    small = ["propagator-spectrum", "--n", "20", "--sigma", "0.3", "--a-coeff", "4.0"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.json"
    assert main(small + ["--out", str(f1)]) == 0
    assert main(small + ["--format", "json", "--out", str(f2)]) == 0
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"inputs": [str(f1), str(f2)], "count": 5}))
    assert main(["stability", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("max deviation over top 5: 0.0")
    assert chordnoise.cli._expand_config(["stability", "--config", str(cfg), "--count", "3"]) == [
        "stability", "--count=5", "--inputs", str(f1), str(f2), "--count", "3"
    ]


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(chordnoise.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "chordnoise", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: chordnoise")
