"""Command line front end.

Subcommands build a channel, a state or a propagator from flags, run one
experiment and serialize the result for external plotting. CSV files carry a
leading '# config: ...' comment with the full configuration and a header
naming the columns; JSON files carry the same three pieces as keys. No
plotting here on purpose.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .channels import (
    apply_channel,
    channel_spectrum,
    make_depolarizing,
    make_gaussian,
    make_phase_damping_line,
)
from .dynamics import KickedMap, LinearMapSpec
from .phasespace import TorusGeometry
from .spectral import SpectrumResult, build_noisy_propagator, leading_spectrum, sort_by_modulus, stability_report
from .states import cat_state, density_from_pure, wigner_function

__all__ = ["main"]


# rows per json.dumps call: C-encoder speed with a bounded temporary
_JSON_CHUNK_ROWS = 4096


def _write_table(path: str, fmt: str, config: dict, header: list, columns: list) -> None:
    """Write equal-length columns of ints and floats as a csv or json table.

    The bytes are those that csv.writer (default dialect) and json.dump write
    for the same rows, but every value is formatted in C: csv fields by str,
    json rows by json.dumps, whose C encoder json.dump never uses. json rows
    go out in chunks, so no encoding of the whole table is held at once.
    """
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
            fh.write(",".join(header) + "\r\n")
            fh.writelines(",".join(fields) + "\r\n" for fields in zip(*(map(str, c) for c in columns)))
    else:
        with open(path, "w") as fh:
            head = json.dumps({"config": config, "columns": header, "rows": []})
            fh.write(head[:-2])  # drop the ']}' that closes the empty rows list
            for i in range(0, len(columns[0]), _JSON_CHUNK_ROWS):
                rows = json.dumps(list(zip(*(c[i : i + _JSON_CHUNK_ROWS] for c in columns))))
                fh.write(rows[1:-1] if i == 0 else ", " + rows[1:-1])
            fh.write("]}\n")


def _read_table(path: str) -> tuple[list, list]:
    """The header and float rows of a table _write_table wrote; blank csv lines are skipped."""
    with open(path) as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{":
            doc = json.load(fh)
            if not (isinstance(doc, dict) and {"columns", "rows"} <= doc.keys()):
                raise ValueError(f"{path} is a json table without 'columns' and 'rows'")
            columns, rows = doc["columns"], doc["rows"]
        else:
            lines = list(csv.reader(l for l in fh if l.strip() and not l.startswith("#")))
            columns, rows = (lines[0], lines[1:]) if lines else ([], [])
    for i, row in enumerate(rows, 1):
        if len(row) != len(columns):
            raise ValueError(f"{path}: row {i} has {len(row)} fields, the header {len(columns)}")
    return columns, [[float(x) for x in row] for row in rows]


def _build_channel(args, geom: TorusGeometry):
    if args.family == "depolarizing":
        return make_depolarizing(geom, args.epsilon)
    if args.family == "pdc-line":
        if args.line is None:
            raise ValueError("--line is required for --family pdc-line")
        try:
            n1, n2, n3 = (int(x) for x in args.line.split(","))
        except ValueError:
            raise ValueError(f"--line must be three comma-separated integers, got {args.line!r}") from None
        return make_phase_damping_line(geom, (n1, n2, n3), args.epsilon)
    if args.sigma is None:
        raise ValueError("--sigma is required for --family gaussian")
    return make_gaussian(geom, args.sigma)


def _config(args) -> dict:
    """Every parsed flag of the run, for the output header."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "out", "format", "config")}


def _grid_columns(*grids) -> list:
    """jq, jp and one column per grid over equally shaped 2-D grids, row-major, as Python scalars."""
    index = np.indices(grids[0].shape).reshape(2, -1)
    return [*index.tolist(), *(g.ravel().tolist() for g in grids)]


def _parse_centers(raw: str):
    vals = [float(x) for x in raw.split(",")]
    if len(vals) != 4:
        raise ValueError(f"--centers needs 4 comma-separated reals, got {raw!r}")
    return (vals[0], vals[1]), (vals[2], vals[3])


def cmd_channel_spectrum(args) -> None:
    geom = TorusGeometry(args.n)
    ch = _build_channel(args, geom)
    vals = channel_spectrum(ch).values
    _write_table(args.out, args.format, _config(args), ["q", "p", "re", "im"], _grid_columns(vals.real, vals.imag))


def cmd_evolve(args) -> None:
    geom = TorusGeometry(args.n)
    ch = _build_channel(args, geom)
    c1, c2 = _parse_centers(args.centers)
    rho = density_from_pure(cat_state(geom, c1, c2))
    w_in = wigner_function(rho)
    w_out = wigner_function(apply_channel(ch, rho))
    _write_table(args.out, args.format, _config(args), ["jq", "jp", "w_in", "w_out"], _grid_columns(w_in, w_out))


def cmd_wigner(args) -> None:
    geom = TorusGeometry(args.n)
    c1, c2 = _parse_centers(args.centers)
    w = wigner_function(density_from_pure(cat_state(geom, c1, c2)))
    _write_table(args.out, args.format, _config(args), ["jq", "jp", "w"], _grid_columns(w))


def cmd_propagator_spectrum(args) -> None:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0 (0 = all), got {args.count}")
    geom = TorusGeometry(args.n)
    try:
        a, b, c, d = (int(x) for x in args.map.split(","))
    except ValueError:
        raise ValueError(f"--map must be four comma-separated integers, got {args.map!r}") from None
    evolution = KickedMap(LinearMapSpec(a, b, c, d), args.k)
    tp = build_noisy_propagator(make_gaussian(geom, args.sigma), evolution, args.a_coeff)
    count = args.count if args.count else tp.dim
    spec = leading_spectrum(tp, count)
    # Python abs(z) per value: np.abs on the array differs from it in the last digit
    rows = [
        (z.real, z.imag, abs(z), float(np.angle(z)), float(-np.log(abs(z))) if abs(z) > 0 else float("inf"))
        for z in spec.eigenvalues
    ]
    header = ["re", "im", "modulus", "phase", "neg_log_modulus"]
    _write_table(args.out, args.format, _config(args) | {"dim": tp.dim}, header, list(zip(*rows)))


def cmd_stability(args) -> None:
    specs = []
    for path in args.inputs:
        columns, rows = _read_table(path)
        try:
            ire, iim = columns.index("re"), columns.index("im")
        except ValueError:
            raise ValueError(f"{path} has no re/im columns") from None
        vals = sort_by_modulus(np.array([r[ire] + 1j * r[iim] for r in rows]))
        specs.append(SpectrumResult(vals))
    dev = stability_report(specs[0], specs[1], args.count)
    print(f"max deviation over top {args.count}: {dev:.6e}")


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["depolarizing", "pdc-line", "gaussian"], required=True)
    p.add_argument("--epsilon", type=float, default=1.0, help="noise strength in [0, 1]")
    p.add_argument("--line", help="n1,n2,n3 for pdc-line")
    p.add_argument("--sigma", type=float, help="Gaussian width (gaussian family)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--config", help="JSON file of flag defaults; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chordnoise", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel-spectrum", help="chord-basis spectrum of a noise channel")
    p.add_argument("--n", type=int, required=True)
    _add_channel_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_channel_spectrum)

    p = sub.add_parser("evolve", help="one noise step on a cat state, Wigner in and out")
    p.add_argument("--n", type=int, required=True)
    _add_channel_flags(p)
    p.add_argument("--centers", default="0.4,0.25,0.6,0.75", help="q1,p1,q2,p2 of the two packets")
    _add_output_flags(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("wigner", help="Wigner grid of a cat state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--centers", default="0.4,0.25,0.6,0.75", help="q1,p1,q2,p2 of the two packets")
    _add_output_flags(p)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("propagator-spectrum", help="leading spectrum of noise composed with a map")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--sigma", type=float, default=0.063)
    p.add_argument("--k", type=float, default=0.02, help="kick strength")
    p.add_argument("--map", default="1,1,1,2", help="a,b,c,d of the linear map")
    p.add_argument("--a-coeff", type=float, default=2.0, dest="a_coeff")
    p.add_argument("--count", type=int, default=0, help="eigenvalues to write (0 = all)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_propagator_spectrum)

    p = sub.add_parser("stability", help="compare two propagator-spectrum files")
    p.add_argument("--inputs", nargs=2, required=True, metavar=("FILE1", "FILE2"))
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(func=cmd_stability)

    return parser


def _expand_config(argv: list) -> list:
    """Splice '--config file.json' (or '--config=file.json') into flags right after the subcommand.

    Values from the file come first, so flags typed on the command line
    override them. Keys may be flag names or argparse dests ('a_coeff'), and
    a list gives one argument per element. An output's own header replays:
    its 'command' must name the subcommand being run, and its 'dim' (an
    output, not a flag) and null values (flags left unset) are skipped.
    """
    argv = [t for tok in argv for t in (tok.split("=", 1) if tok.startswith("--config=") else [tok])]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    with open(argv[i + 1]) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"--config {argv[i + 1]} must hold a json object of flags")
    rest = argv[:i] + argv[i + 2 :]
    if "command" in doc and rest[:1] != [doc["command"]]:
        raise ValueError(f"--config {argv[i + 1]} is for {doc['command']!r}, not {' '.join(rest[:1])!r}")
    extra = []
    for key in sorted(doc.keys() - {"command", "dim"}):
        flag, value = "--" + key.replace("_", "-"), doc[key]
        if isinstance(value, list):
            extra += [flag, *map(str, value)]
        elif value is not None:
            extra.append(f"{flag}={value}")  # one token, so a value may start with '-'
    return rest[:1] + extra + rest[1:]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(list(sys.argv[1:] if argv is None else argv)))
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
