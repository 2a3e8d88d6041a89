"""The four benchmark workloads: seeded inputs, one timed task each, and checks.

A task is a fixed list of operations (library calls or `chordnoise.cli.main`
calls). `run` is the timed part and stores each operation's result in `out`
as it completes. `check` is untimed: it takes one operation and raises when
its output is wrong, comparing against `reference`, which recomputes every
expected value without chordnoise, or against exact properties.

The seed picks only the cat-state centers and the matrix columns that are
recomputed entry by entry; sizes, and so the work per task, do not depend
on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from types import SimpleNamespace

import numpy as np

import reference as ref

MAP = (1, 1, 1, 2)
COUNT = 20
# eigenvalues closer than this to their partner in the larger window count as converged
CONVERGED_TOL = 1e-8
# the top 3 are well conditioned (condition number 1 to ~5e7) and must always converge
TOP_STABLE = 3
ENTRY_TOL = 1e-12
COLUMNS_CHECKED = 3
SUM_TOL = 1e-10


class CheckFailed(Exception):
    pass


def expect(cond, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


def dense_column(matrix, j: int) -> np.ndarray:
    """Column j as a dense vector; the ROADMAP plans a sparse window matrix."""
    col = matrix[:, j]
    return np.asarray(col.toarray() if hasattr(col, "toarray") else col).ravel()


def check_leading(z: np.ndarray) -> None:
    """Top-COUNT eigenvalues: the fixed identity chord gives exactly 1, the rest lie inside the unit disk."""
    expect(len(z) == COUNT, f"{len(z)} eigenvalues, expected {COUNT}")
    expect(abs(z[0] - 1) <= 1e-12, f"leading eigenvalue {z[0]} is not 1")
    expect(np.all(np.abs(z[1:]) < 1), f"eigenvalue of modulus {np.abs(z[1:]).max()} >= 1 besides the leading one")


def check_entries(tp, p, a_coeff: float, cols, u_ref: np.ndarray) -> int:
    """Window size and labels, then every kept entry of the seed-chosen columns. Returns dim."""
    dim = ref.window_dim(a_coeff, p.sigma)
    labels = ref.window_labels(a_coeff, p.sigma, p.n)
    expect(tp.dim == dim, f"window dim {tp.dim}, expected 4*floor(a/(2 pi sigma))^2 = {dim}")
    expect(np.array_equal(np.asarray(tp.kept_modes).reshape(-1, 2), labels), "kept modes are not the centered window")
    for j in cols:
        err = np.abs(dense_column(tp.matrix, j) - ref.propagator_column(u_ref, p.sigma, labels[j], labels)).max()
        expect(err <= ENTRY_TOL, f"column {j} ({labels[j][0]},{labels[j][1]}) off by {err:.2e}")
    return dim


def check_pairing(e1, e2, reported: float, facts: dict) -> None:
    """Top 3 converge between windows; the reported deviation is the greedy-pairing maximum."""
    dists = ref.greedy_partner_distances(e1, e2, COUNT)
    expect(max(dists[:TOP_STABLE]) <= CONVERGED_TOL, f"top {TOP_STABLE} differ by {max(dists[:TOP_STABLE]):.2e}")
    expect(abs(reported - max(dists)) <= 1e-6 * max(dists) + 1e-15, f"reported {reported:.6e}, pairing gives {max(dists):.6e}")
    facts["converged_eigs"] = int(sum(d <= CONVERGED_TOL for d in dists))


def read_table(path: str):
    """(config, columns, rows) from a chordnoise csv or json output file."""
    with open(path) as fh:
        head = fh.readline()
        if head.startswith("{"):
            fh.seek(0)
            doc = json.load(fh)
            return doc["config"], doc["columns"], np.asarray(doc["rows"], dtype=float)
        expect(head.startswith("# config: "), "csv file lacks its '# config:' line")
        config = json.loads(head[len("# config: ") :])
        columns = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return config, columns, rows


class Workload:
    ops: list
    checks: dict

    def prepare(self) -> None:
        """Untimed, before each task."""

    def run(self, cn, out: dict) -> None:
        raise NotImplementedError

    def check(self, cn, op: str, out: dict, facts: dict) -> None:
        self.checks[op](cn, out, facts)


class LibrarySpectrum(Workload):
    """Channel, kicked cat map, then per window a build and the top 20; stability across two windows."""

    def __init__(self, p, seed: int, workdir: str):
        self.p = p
        rng = np.random.default_rng(seed)
        self.cols = [rng.choice(ref.window_dim(a, p.sigma), COLUMNS_CHECKED, replace=False) for a in p.windows]
        self.ops = ["channel", "map"]
        self.checks = {"channel": self._check_channel, "map": self._check_map}
        for i, a in enumerate(p.windows):
            self.ops += [f"build a={a}", f"eig a={a}"]
            self.checks[f"build a={a}"] = lambda cn, out, facts, i=i: self._check_build(i, out, facts)
            self.checks[f"eig a={a}"] = lambda cn, out, facts, a=a: check_leading(out[f"eig a={a}"].eigenvalues)
        if len(p.windows) == 2:
            self.ops.append("stability")
            self.checks["stability"] = self._check_stability
        self._u_ref = None

    def u_ref(self) -> np.ndarray:
        if self._u_ref is None:
            self._u_ref = ref.kicked_cat_unitary(self.p.n, MAP, self.p.k)
        return self._u_ref

    def run(self, cn, out: dict) -> None:
        p = self.p
        geom = cn.phasespace.TorusGeometry(p.n)
        out["channel"] = ch = cn.channels.make_gaussian(geom, p.sigma)
        out["map"] = u = cn.dynamics.quantize_linear_map(geom, cn.dynamics.LinearMapSpec(*MAP)) @ cn.dynamics.nonlinear_kick(geom, p.k)
        for a in p.windows:
            out[f"build a={a}"] = tp = cn.spectral.build_noisy_propagator(ch, u, a)
            out[f"eig a={a}"] = cn.spectral.leading_spectrum(tp, COUNT)
        if "stability" in self.ops:
            s1, s2 = (out[f"eig a={a}"] for a in p.windows)
            out["stability"] = cn.spectral.stability_report(s1, s2, COUNT)

    def _check_channel(self, cn, out, facts):
        n, sigma = self.p.n, self.p.sigma
        m = np.arange(n)
        err = np.abs(cn.channels.channel_spectrum(out["channel"]).values - ref.gaussian_sigma(m[:, None], m[None, :], n, sigma)).max()
        expect(err <= ENTRY_TOL, f"channel spectrum off the Gaussian by {err:.2e}")

    def _check_map(self, cn, out, facts):
        u, u_ref = out["map"], self.u_ref()
        phase = u[0, 0] / u_ref[0, 0]
        err = np.abs(u - phase * u_ref).max()
        expect(abs(abs(phase) - 1) <= 1e-12 and err <= 1e-10, f"map differs from the kicked cat kernel by {err:.2e}")

    def _check_build(self, i, out, facts):
        a = self.p.windows[i]
        facts.setdefault("dims", []).append(check_entries(out[f"build a={a}"], self.p, a, self.cols[i], self.u_ref()))

    def _check_stability(self, cn, out, facts):
        e1, e2 = (out[f"eig a={a}"].eigenvalues for a in self.p.windows)
        check_pairing(e1, e2, out["stability"], facts)


class CliWorkload(Workload):
    """Each operation is one `chordnoise.cli.main` call; outputs are deleted before every task."""

    calls: list  # (op, argv, output path or None)

    def prepare(self) -> None:
        for _, _, path in self.calls:
            if path is not None and os.path.exists(path):
                os.remove(path)

    def run(self, cn, out: dict) -> None:
        for op, argv, _ in self.calls:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cn.cli.main(list(argv))
            out[op] = (rc, stdout.getvalue(), stderr.getvalue())

    def check(self, cn, op: str, out: dict, facts: dict) -> None:
        rc, _, stderr = out[op]
        expect(rc == 0, f"cli returned {rc}: {stderr.strip()}")
        path = next(path for o, _, path in self.calls if o == op)
        if path is not None:
            expect(os.path.exists(path), "cli returned 0 but wrote no fresh file")
            facts["bytes"] = facts.get("bytes", 0) + os.path.getsize(path)
        self.checks[op](cn, out, facts)


class PaperWindow(CliWorkload):
    """propagator-spectrum at two windows (csv, json), then stability on the two files."""

    def __init__(self, p, seed: int, workdir: str):
        self.p = p
        rng = np.random.default_rng(seed)
        self.cols = rng.choice(ref.window_dim(p.windows[0], p.sigma), COLUMNS_CHECKED, replace=False)
        self.paths = []
        self.calls = []
        self.checks = {}
        for i, (a, fmt) in enumerate(zip(p.windows, ("csv", "json"))):
            path = os.path.join(workdir, f"spectrum-{a}.{fmt}")
            op = f"propagator-spectrum a={a} {fmt}"
            argv = ["propagator-spectrum", "--n", str(p.n), "--sigma", str(p.sigma), "--k", str(p.k),
                    "--map", ",".join(map(str, MAP)), "--a-coeff", str(a), "--count", str(COUNT),
                    "--format", fmt, "--out", path]
            self.calls.append((op, argv, path))
            self.checks[op] = lambda cn, out, facts, i=i: self._check_spectrum(cn, i, facts)
            self.paths.append(path)
        self.calls.append(("stability", ["stability", "--inputs", *self.paths, "--count", str(COUNT)], None))
        self.checks["stability"] = self._check_stability
        self.ops = [op for op, _, _ in self.calls]
        self._checked_build = None

    def _check_spectrum(self, cn, i: int, facts: dict) -> None:
        p, a = self.p, self.p.windows[i]
        config, columns, rows = read_table(self.paths[i])
        dim = ref.window_dim(a, p.sigma)
        expect((config["n"], config["sigma"], config["a_coeff"], config["dim"]) == (p.n, p.sigma, a, dim),
               f"config {config} does not describe N={p.n}, sigma={p.sigma}, a={a}, dim={dim}")
        expect(columns == ["re", "im", "modulus", "phase", "neg_log_modulus"], f"columns {columns}")
        expect(rows.shape == (COUNT, 5), f"{rows.shape[0]} rows, expected {COUNT}")
        z = rows[:, 0] + 1j * rows[:, 1]
        expect(np.allclose(rows[:, 2], np.abs(z), rtol=1e-12, atol=0), "modulus column is not |re + i im|")
        expect(np.allclose(rows[:, 3], np.angle(z), rtol=0, atol=1e-12), "phase column is not arg(re + i im)")
        check_leading(z)
        facts.setdefault("spectra", {})[i] = z
        facts.setdefault("dims", []).append(dim)
        facts["rows"] = facts.get("rows", 0) + len(rows)
        if i == 0:
            top = self.checked_build(cn)
            expect(np.abs(top - z[:TOP_STABLE]).max() <= CONVERGED_TOL, "file's top eigenvalues differ from the checked build's")

    def checked_build(self, cn) -> np.ndarray:
        """Top eigenvalues of a library build of the first window whose entries passed the check.

        The file's numbers carry no matrix, so the same build is made through
        the library, untimed. Its inputs never change, so it is made once per
        process and its verdict, pass or fail, is given again to every task.
        """
        if self._checked_build is None:
            p, a = self.p, self.p.windows[0]
            try:
                geom = cn.phasespace.TorusGeometry(p.n)
                u = cn.dynamics.quantize_linear_map(geom, cn.dynamics.LinearMapSpec(*MAP)) @ cn.dynamics.nonlinear_kick(geom, p.k)
                tp = cn.spectral.build_noisy_propagator(cn.channels.make_gaussian(geom, p.sigma), u, a)
                check_entries(tp, p, a, self.cols, ref.kicked_cat_unitary(p.n, MAP, p.k))
                self._checked_build = cn.spectral.leading_spectrum(tp, TOP_STABLE).eigenvalues
            except Exception as exc:
                self._checked_build = exc
        if isinstance(self._checked_build, Exception):
            raise self._checked_build
        return self._checked_build

    def _check_stability(self, cn, out: dict, facts: dict) -> None:
        spectra = facts.get("spectra", {})
        expect(len(spectra) == 2, "an input spectrum failed its own check")
        line = out["stability"][1].strip()
        prefix = f"max deviation over top {COUNT}: "
        expect(line.startswith(prefix), f"unexpected stability output {line!r}")
        check_pairing(spectra[0], spectra[1], float(line[len(prefix) :]), facts)


class StateExport(CliWorkload):
    """evolve a seeded cat state under three channels (csv), then its Wigner grid (json)."""

    def __init__(self, p, seed: int, workdir: str):
        self.p = p
        rng = np.random.default_rng(seed)
        c = np.round(rng.uniform(0.05, 0.95, 4), 4)
        self.centers = (float(c[0]), float(c[1])), (float(c[2]), float(c[3]))
        centers_arg = ",".join(repr(float(x)) for x in c)
        base = ["--n", str(p.n), "--centers", centers_arg]
        families = {
            "depolarizing": ["--family", "depolarizing", "--epsilon", str(p.eps)],
            "pdc-line": ["--family", "pdc-line", "--line", "0,1,0", "--epsilon", str(p.eps)],
            "gaussian": ["--family", "gaussian", "--sigma", str(p.sigma)],
        }
        self.calls = []
        self.checks = {}
        for family, flags in families.items():
            path = os.path.join(workdir, f"evolve-{family}.csv")
            op = f"evolve {family} csv"
            self.calls.append((op, ["evolve", *base, *flags, "--format", "csv", "--out", path], path))
            self.checks[op] = lambda cn, out, facts, f=family, path=path: self._check_evolve(f, path, facts)
        path = os.path.join(workdir, "wigner.json")
        self.calls.append(("wigner json", ["wigner", *base, "--format", "json", "--out", path], path))
        self.checks["wigner json"] = lambda cn, out, facts: self._check_wigner(path, facts)
        self.ops = [op for op, _, _ in self.calls]
        self.centers_arg = centers_arg
        self._purity = None

    def expected_purity(self) -> dict:
        if self._purity is None:
            psi = ref.cat_state(self.p.n, *self.centers)
            self._purity = {
                "depolarizing": ref.purity_depolarizing(self.p.n, self.p.eps),
                "pdc-line": ref.purity_position_dephasing(psi, self.p.eps),
                "gaussian": ref.purity_gaussian(psi, self.p.sigma),
            }
        return self._purity

    def _grid(self, path: str, columns_expected: list, facts: dict):
        config, columns, rows = read_table(path)
        n = self.p.n
        expect(config["n"] == n and config["centers"] == self.centers_arg, f"config {config}")
        expect(columns == columns_expected, f"columns {columns}")
        expect(rows.shape == (4 * n * n, len(columns_expected)), f"table shape {rows.shape}")
        j = np.arange(2 * n)
        expect(np.array_equal(rows[:, 0], np.repeat(j, 2 * n)) and np.array_equal(rows[:, 1], np.tile(j, 2 * n)),
               "grid index columns are not the row-major 2N x 2N grid")
        facts["rows"] = facts.get("rows", 0) + len(rows)
        return config, rows

    def _check_pure(self, w: np.ndarray, what: str) -> None:
        expect(abs(w.sum() - 1) <= SUM_TOL, f"{what} sums to {w.sum()!r}, not 1")
        purity = self.p.n * float(np.sum(w**2))
        expect(abs(purity - 1) <= SUM_TOL, f"N sum {what}^2 = {purity!r}, not 1 for a pure state")

    def _check_evolve(self, family: str, path: str, facts: dict) -> None:
        config, rows = self._grid(path, ["jq", "jp", "w_in", "w_out"], facts)
        expect(config["family"] == family, f"config family {config['family']}")
        self._check_pure(rows[:, 2], "W_in")
        w_out = rows[:, 3]
        expect(abs(w_out.sum() - 1) <= SUM_TOL, f"W_out sums to {w_out.sum()!r}, not 1")
        purity, want = self.p.n * float(np.sum(w_out**2)), self.expected_purity()[family]
        expect(abs(purity - want) <= SUM_TOL, f"N sum W_out^2 = {purity!r}, closed form gives {want!r}")
        facts["w_in"] = rows[:, 2]

    def _check_wigner(self, path: str, facts: dict) -> None:
        _, rows = self._grid(path, ["jq", "jp", "w"], facts)
        self._check_pure(rows[:, 2], "W")
        if "w_in" in facts:
            err = np.abs(rows[:, 2] - facts["w_in"]).max()
            expect(err <= 1e-14, f"wigner differs from evolve's W_in by {err:.2e}")


WORKLOADS = {
    # name: (kind, full-size parameters, smoke parameters). large-n and
    # state-export are sized to ~3 s and ~1.5 s per task so that a run holds
    # enough tasks for its median to average out the host's task-to-task jitter.
    "paper-window": (
        PaperWindow,
        dict(n=100, sigma=0.063, k=0.02, windows=(2.8, 4.8)),
        dict(n=40, sigma=0.063, k=0.02, windows=(2.0, 2.8)),
    ),
    "large-n": (
        LibrarySpectrum,
        dict(n=400, sigma=0.063, k=0.02, windows=(2.0,)),
        dict(n=64, sigma=0.063, k=0.02, windows=(2.0,)),
    ),
    "narrow-noise": (
        LibrarySpectrum,
        dict(n=100, sigma=0.04, k=0.2, windows=(2.8, 4.8)),
        dict(n=64, sigma=0.04, k=0.2, windows=(2.8, 3.6)),
    ),
    "state-export": (
        StateExport,
        dict(n=128, eps=0.3, sigma=0.02),
        dict(n=64, eps=0.3, sigma=0.04),
    ),
}


def make(name: str, seed: int, workdir: str, smoke: bool) -> Workload:
    kind, full, small = WORKLOADS[name]
    return kind(SimpleNamespace(**(small if smoke else full)), seed, workdir)
