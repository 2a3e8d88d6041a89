"""Command line front end.

Subcommands build a channel, a state or a propagator from flags, run one
experiment and serialize the result for external plotting. CSV files carry a
leading '# config: ...' comment with the full configuration and a header
naming the columns; JSON files carry the same three pieces as keys. Every
table goes through one writer, _write_table: its bytes are those of
csv.writer and json.dump, it formats each distinct magnitude of a column
once and assembles rows as bytes in numpy, and on large grids its memory
stays below the file size. No plotting here on purpose.
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


# rows per chunk: a chunk's rows are assembled as one bytes matrix, and no
# encoding of the whole table is held at once
_CHUNK_ROWS = 2048

# the longest str of a float64 magnitude, '1.7976931348623157e+308'
_FLOAT_WIDTH = 23


def _text(values: np.ndarray, fmt: str, width: int) -> np.ndarray:
    """The csv or json text of int64 values or float64 magnitudes, in a bytes array of the given width.

    Each value is formatted by str, one at a time, so no list of its text is
    held. json.dumps writes a float as its repr, which is its str, except
    that it writes inf and nan as Infinity and NaN.
    """
    text = np.fromiter(map(str, values.tolist()), f"S{width}", len(values))
    if fmt == "json" and values.dtype == np.float64:
        text[np.isinf(values)] = b"Infinity"
        text[np.isnan(values)] = b"NaN"
    return text


def _repeats(column, name: str, fmt: str) -> tuple:
    """A column's dtype (int64 or float64), its keys that occur more than once, sorted, and their text.

    A key is an int column's value or a float column's magnitude as its
    int64 bits, so equal keys have equal text: -0.0 and 0.0 are one key, and
    so is each NaN whatever its sign. The text's width is that of the
    column's longest: exact for ints, _FLOAT_WIDTH for floats. The text of a
    key is held only if the key is reused, so a column of distinct values
    holds none.
    """
    keys = np.array(column)  # an owned copy, sorted in place below
    ok = keys.ndim == 1 and (keys.dtype == np.float64 or keys.dtype.kind in "iu" and np.can_cast(keys.dtype, np.int64))
    if ok and not isinstance(column, np.ndarray):
        # numpy reads ints beside a float, or beside an int past int64, as floats, and bools beside ints as ints
        ok = set(map(type, column)) <= ({float, np.float64} if keys.dtype == np.float64 else {int, np.int64})
    if not ok:
        raise ValueError(f"column {name!r} is not a run of only int64 or only float64 values")
    if keys.dtype == np.float64:
        dtype, width = keys.dtype, _FLOAT_WIDTH
        keys = np.abs(keys, out=keys).view(np.int64)
    else:
        keys = keys.astype(np.int64, copy=False)
        dtype, width = keys.dtype, max(len(str(keys.min())), len(str(keys.max()))) if len(keys) else 1
    keys.sort()
    eq = keys[1:] == keys[:-1]
    eq[1:] &= ~eq[:-1]  # the first pair of each run of equal keys
    rep = keys[:-1][eq]
    del keys, eq
    text = np.empty(len(rep), f"S{width}")
    for j in range(0, len(rep), _CHUNK_ROWS):
        text[j : j + _CHUNK_ROWS] = _text(rep[j : j + _CHUNK_ROWS].view(dtype), fmt, width)
    return dtype, rep, text


def _chunk_text(keys: np.ndarray, dtype: np.dtype, rep: np.ndarray, rep_text: np.ndarray, fmt: str) -> np.ndarray:
    """The text of each key of a chunk: a repeated key's from rep_text, any other key's formatted here.

    A key that is not in rep occurs once in its whole column, so no value is
    formatted twice.
    """
    if not len(rep):
        return _text(keys.view(dtype), fmt, rep_text.itemsize)
    pos = np.searchsorted(rep, keys)
    np.minimum(pos, len(rep) - 1, out=pos)
    text = rep_text[pos]
    new = rep[pos] != keys
    text[new] = _text(keys[new].view(dtype), fmt, rep_text.itemsize)
    return text


def _rows(columns: list, prepared: list, start: int, fmt: str) -> np.ndarray:
    """The bytes of rows start to start + _CHUNK_ROWS of the table.

    They are assembled as one uint8 matrix, a line per row: in json a lead
    ', [' (the table's first row drops its ', '), then per column a sign
    byte (float columns only), the column's fixed-width text and a
    separator, '\\r\\n' or ']' after the last. One mask then drops the
    zero padding.
    """
    lead, sep, end = (b"", b",", b"\r\n") if fmt == "csv" else (b", [", b", ", b"]")
    n = min(_CHUNK_ROWS, len(columns[0]) - start)
    slots = sum((d == np.float64) + t.itemsize for d, _, t in prepared)
    m = np.zeros((n, len(lead) + slots + len(sep) * (len(columns) - 1) + len(end)), np.uint8)
    m[:, : len(lead)] = np.frombuffer(lead, np.uint8)
    if lead and start == 0:
        m[0, :2] = 0
    o = len(lead)
    for j, (c, (dtype, rep, rep_text)) in enumerate(zip(columns, prepared)):
        keys = values = np.asarray(c[start : start + n], dtype=dtype)
        if dtype == np.float64:
            m[np.signbit(values) & ~np.isnan(values), o] = ord("-")
            keys = np.abs(values).view(np.int64)
            o += 1
        w = rep_text.itemsize
        m[:, o : o + w] = _chunk_text(keys, dtype, rep, rep_text, fmt).view(np.uint8).reshape(n, w)
        tail = end if j == len(columns) - 1 else sep
        m[:, o + w : o + w + len(tail)] = np.frombuffer(tail, np.uint8)
        o += w + len(tail)
    return m[m != 0]


def _write_table(path: str, fmt: str, config: dict, header: list, columns: list) -> None:
    """Write equal-length columns as a csv or json table.

    The bytes are those that csv.writer (default dialect) and json.dump write
    for the same rows. Each column must be a 1-D run of ints that fit int64
    or of floats: numpy's reading of the whole column fixes which, so a
    column must hold only ints or only floats, and any other column (a
    Python int past int64, a bool, a string) is a ValueError naming it.

    Each column formats each distinct magnitude once per table (an int
    column each distinct value), by str. Before the first row, a sorted copy
    of the column's magnitudes finds those that occur more than once, and
    only their text is held; any other magnitude occurs in one row and is
    formatted there. Rows go out in chunks of _CHUNK_ROWS, each assembled as
    bytes in numpy: a '-' goes before every float whose sign bit is set, NaN
    aside, which is how str and json.dumps write -0.0, -inf and negative
    numbers.

    Memory: besides one chunk's buffers and, while a column is sorted, its
    8-byte keys, the writer holds 8 + _FLOAT_WIDTH bytes (fewer for ints)
    per repeated magnitude, which takes at least twice its text and a
    separator in the file. So the peak stays below the file size on large
    tables whose repeated magnitudes have text of about 15 characters or
    more, such as Wigner grids (tested at 65,536 rows), but not on one of
    many short values that each repeat.
    """
    prepared = [_repeats(c, name, fmt) for c, name in zip(columns, header)]
    with open(path, "wb") as fh:
        if fmt == "csv":
            fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n{','.join(header)}\r\n".encode())
        else:
            head = json.dumps({"config": config, "columns": header, "rows": []})
            fh.write(head[:-2].encode())  # drop the ']}' that closes the empty rows list
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            fh.write(_rows(columns, prepared, start, fmt))
        if fmt == "json":
            fh.write(b"]}\n")


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
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in [columns, *rows]):
                raise ValueError(f"{path}: json 'columns' and each row must be lists")
        else:
            lines = list(csv.reader(l for l in fh if l.strip() and not l.startswith("#")))
            columns, rows = (lines[0], lines[1:]) if lines else ([], [])
    for i, row in enumerate(rows, 1):
        if len(row) != len(columns):
            raise ValueError(f"{path}: row {i} has {len(row)} fields, the header {len(columns)}")
    try:
        return columns, [[float(x) for x in row] for row in rows]
    except (TypeError, ValueError):
        raise ValueError(f"{path} holds a value that is not a number") from None


def _build_channel(args, geom: TorusGeometry):
    """The channel of the --family flags; a flag that the family does not read is refused."""
    for flag, value, family in (("--line", args.line, "pdc-line"), ("--sigma", args.sigma, "gaussian")):
        if value is not None and args.family != family:
            raise ValueError(f"{flag} is read only by --family {family}, not by --family {args.family}")
    if args.family == "gaussian" and args.epsilon != 1:
        raise ValueError(f"--family gaussian has epsilon 1, so --epsilon {args.epsilon} is not read")
    if args.family == "depolarizing":
        return make_depolarizing(geom, args.epsilon)
    if args.family == "pdc-line":
        if args.line is None:
            raise ValueError("--line is required for --family pdc-line")
        return make_phase_damping_line(geom, tuple(_numbers(args.line, "--line", int, 3)), args.epsilon)
    if args.sigma is None:
        raise ValueError("--sigma is required for --family gaussian")
    return make_gaussian(geom, args.sigma)


def _config(args) -> dict:
    """Every parsed flag of the run, for the output header."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "out", "format", "config")}


def _grid_columns(*grids) -> list:
    """jq, jp and one column per grid over equally shaped 2-D grids, row-major, as 1-D arrays."""
    return [*np.indices(grids[0].shape).reshape(2, -1), *(g.ravel() for g in grids)]


def _numbers(raw: str, flag: str, kind: type, count: int) -> list:
    """The `count` values, each of type kind (int or float), of a comma-separated flag."""
    try:
        vals = [kind(x) for x in raw.split(",")]
    except ValueError:
        vals = []
    if len(vals) != count:
        noun = "integers" if kind is int else "reals"
        raise ValueError(f"{flag} must be {count} comma-separated {noun}, got {raw!r}")
    return vals


def _cat_density(args, geom: TorusGeometry) -> np.ndarray:
    """The density of the cat state whose packet centers --centers gives."""
    q1, p1, q2, p2 = _numbers(args.centers, "--centers", float, 4)
    return density_from_pure(cat_state(geom, (q1, p1), (q2, p2)))


def cmd_channel_spectrum(args) -> None:
    geom = TorusGeometry(args.n)
    ch = _build_channel(args, geom)
    vals = channel_spectrum(ch).values
    _write_table(args.out, args.format, _config(args), ["q", "p", "re", "im"], _grid_columns(vals.real, vals.imag))


def cmd_evolve(args) -> None:
    geom = TorusGeometry(args.n)
    ch = _build_channel(args, geom)
    rho = _cat_density(args, geom)
    w_in = wigner_function(rho)
    w_out = wigner_function(apply_channel(ch, rho))
    _write_table(args.out, args.format, _config(args), ["jq", "jp", "w_in", "w_out"], _grid_columns(w_in, w_out))


def cmd_wigner(args) -> None:
    w = wigner_function(_cat_density(args, TorusGeometry(args.n)))
    _write_table(args.out, args.format, _config(args), ["jq", "jp", "w"], _grid_columns(w))


def cmd_propagator_spectrum(args) -> None:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0 (0 = all), got {args.count}")
    geom = TorusGeometry(args.n)
    evolution = KickedMap(LinearMapSpec(*_numbers(args.map, "--map", int, 4)), args.k)
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
    output, not a flag) and null values (flags left unset) are skipped. A
    second --config, typed or as a 'config' key in the file, is refused.
    """
    argv = [t for tok in argv for t in (tok.split("=", 1) if tok.startswith("--config=") else [tok])]
    if "--config" not in argv:
        return argv
    if argv.count("--config") > 1:
        raise ValueError("--config may be given once")
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    with open(argv[i + 1]) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"--config {argv[i + 1]} must hold a json object of flags")
    if "config" in doc:
        raise ValueError(f"--config {argv[i + 1]} names another config file; --config may be given once")
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


# main's parser, built on its first call: parse_args leaves a parser unchanged
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(_expand_config(list(sys.argv[1:] if argv is None else argv)))
        args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
