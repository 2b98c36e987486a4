"""Command-line front end.

Subcommands: coeffs, expand, ortho, simulate, verify, convergence,
exact-verify, taylor.  Each accepts --out, --config and exactly the flags
its handler reads (``_COMMANDS``); any other flag, or an abbreviated one, is
a usage error.  Outputs are CSV (LF line endings, '.' decimal separator,
header row) or JSON (UTF-8, stable key order, the text of
``json.dumps(indent=2)``); floats use the shortest round-trip
representation, so identical configs produce byte-identical artifacts.  The
term tables of coeffs and expand, thousands of tuples over a few hundred
distinct polynomials, render each polynomial once and each entry from one
template.  Output files are written to a temporary sibling and atomically
renamed; error paths never leave partial files.  Errors, usage errors
included, exit 1 with machine-readable JSON on stderr.

LEVY_CHAOS_KMAX sets the order cap of coeffs, expand, verify, convergence,
exact-verify and taylor: an integer in [1, 16], default 12, checked before
any model, path or fixture is built.  It is a CLI setting only; the library
refuses just orders above combinatorics.ORDER_LIMIT where it lists tuples.
ortho --order stays at most 32, and 8 in float mode.  --config keys may be
spelled with '-' or '_' (``dt-list`` or ``dt_list``); a key naming a flag
the command does not read fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii

from . import combinatorics as comb
from .chaos import (
    _expansion_json_head,
    _poly_json,
    _rendered,
    coeff_tables,
    expand,
    expansion_csv_rows,
    jamshidian_expand,
    scalar_to_json,
)
from .errors import ConfigError, FunctionalError, LevyChaosError, OrderError
from .evaluate import (
    diff_csv_rows,
    exact_identity_suite,
    report_to_json_dict,
    verify_grid,
    verify_grid_sweep,
)
from .models import parse_model
from .ortho import expand_h, orthogonalize, ortho_to_json_dict
from .paths import grid_csv_chunks, simulate_batch, simulate_grid
from .taylor import eval_functional, functional_from_json, model_jump_fixtures


def _check_order(n: int, error=OrderError, label: str = "") -> None:
    """Refuse an order above the LEVY_CHAOS_KMAX cap (default 12), before any work."""
    raw = os.environ.get("LEVY_CHAOS_KMAX", "12")
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or not 1 <= cap <= comb.ORDER_LIMIT:
        raise ConfigError(f"LEVY_CHAOS_KMAX must be an integer in [1, {comb.ORDER_LIMIT}], got {raw!r}")
    if n > cap:
        raise error(f"order too large: {label}{n} > cap {cap}")


# Largest ortho --order.  Rational Gram-Schmidt on gamma:a=10,b=20 takes about
# 1.2 s at 32, 22 s at 64 and over 120 s at 128 on a 2-CPU Xeon; the
# library's orthogonalize keeps no cap.
_ORTHO_ORDER_LIMIT = 32


def _atomic_write(path: str, text: str) -> None:
    _atomic_write_chunks(path, (text,))


def _atomic_write_chunks(path: str, chunks: Iterable[str]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".levychaos-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj, /, **tables) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte.

    Each keyword names a term table, ``{tuple: TimePolynomial}``, that the dict
    ``obj`` gains after its own keys as the list
    ``[{"tuple": list(t), "poly": coefficients of p}, ...]``.  A table renders
    each distinct polynomial once; each entry is then one fixed template.
    """
    if not tables:
        return _json_value(obj, 0) + "\n"
    items = [_json_key(k) + ": " + _json_value(v, 1) for k, v in obj.items()]
    items += [_json_key(k) + ": " + _term_table(terms) for k, terms in tables.items()]
    return _json_block(items, 0, "{}") + "\n"


# One term-table entry at depth 2: its tuple's entries and its polynomial at depth 3.
_TERM = '{\n      "tuple": [\n        %s\n      ],\n      "poly": %s\n    }'
# The text of each entry an index tuple may hold: an order in 1..ORDER_LIMIT.
_DIGITS = [str(i) for i in range(comb.ORDER_LIMIT + 1)]


def _term_table(terms: dict) -> str:
    """The JSON list at depth 1 of the nonempty tuples and the polynomials of ``terms``."""
    polys = _rendered(terms.values(), lambda p: _json_value(_poly_json(p), 3))
    entries = [_TERM % (",\n        ".join([_DIGITS[i] for i in t]), polys[id(p)]) for t, p in terms.items()]
    return _json_block(entries, 1, "[]")


def _json_scalar(o) -> str:
    """JSON text of a str, int, float, bool or None, as json.dumps writes it."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_value(o, depth: int) -> str:
    """JSON text of ``o`` at nesting ``depth``."""
    if type(o) is int:  # the bulk of the payloads: integer coefficients
        return int.__repr__(o)
    if isinstance(o, dict):
        return _json_block([_json_key(k) + ": " + _json_value(v, depth + 1) for k, v in o.items()], depth, "{}")
    if isinstance(o, (list, tuple)):
        return _json_block([int.__repr__(v) if type(v) is int else _json_value(v, depth + 1) for v in o], depth, "[]")
    return _json_scalar(o)


def _json_block(items: list[str], depth: int, ends: str) -> str:
    """An array or object at ``depth`` from its ``items``, each already rendered at ``depth + 1``."""
    if not items:
        return ends
    inner = "\n" + "  " * (depth + 1)
    return ends[0] + inner + ("," + inner).join(items) + inner[:-2] + ends[1]


def _json_key(k) -> str:
    """A dict key as json.dumps writes it: a str as is, any other scalar as its JSON text, quoted."""
    return encode_basestring_ascii(k if isinstance(k, str) else _json_scalar(k))


def _read_json_object(path: str, flag: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{flag} file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{flag} must hold a JSON object")
    return data


def _number_list(text: str, conv, flag: str) -> list:
    try:
        return [conv(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of numbers, got {text!r}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_coeffs(args) -> None:
    n = args.n
    _check_order(n)
    c_list, exp = coeff_tables(n, parse_model(args.model), exact=args.mode == "rational")
    if args.format == "json":
        head = {
            "order": n,
            "mode": args.mode,
            "model": args.model,
            "sigma_adjusted": True,
            "c": [_poly_json(p) for p in c_list],
        }
        _emit(_json_text(head, pi=exp.terms), args.out)
    else:
        polys = [*c_list, *exp.terms.values()]
        coeffs = _rendered(polys, lambda p: " ".join(str(scalar_to_json(x)) for x in p.coeffs))
        rows = [["kind", "index", "coeffs"]]
        rows += [["C", str(k), coeffs[id(p)]] for k, p in enumerate(c_list)]
        rows += [["Pi", " ".join(map(str, t)), coeffs[id(p)]] for t, p in exp.terms.items()]
        _emit(_csv_text(rows), args.out)


def _cmd_expand(args) -> None:
    basis = args.basis
    _check_order(args.n)
    if basis == "jamshidian":
        exp = jamshidian_expand(args.n)
    else:
        if args.model is None:
            raise ConfigError("the y and h bases require --model")
        model = parse_model(args.model)
        exp = (expand_h if basis == "h" else expand)(args.n, model, exact=args.mode == "rational")
    if args.format == "csv":
        _emit(_csv_text(expansion_csv_rows(exp)), args.out)
    else:
        _emit(_json_text(_expansion_json_head(exp), terms=exp.terms), args.out)


def _cmd_ortho(args) -> None:
    if args.order > _ORTHO_ORDER_LIMIT:  # before the moments, which a huge order would take long to build
        raise OrderError(f"order too large: {args.order} > ortho limit {_ORTHO_ORDER_LIMIT}")
    model = parse_model(args.model)
    ortho = orthogonalize(model, args.order, exact=args.mode == "rational")
    if args.format == "csv":
        rows = [["array", "row", "entries"]]
        for name, tri in (("a", ortho.a), ("b", ortho.b)):
            for i, row in enumerate(tri, start=1):
                rows.append([name, str(i), " ".join(str(scalar_to_json(x)) for x in row)])
        rows.append(["eta", "", " ".join(str(scalar_to_json(x)) for x in ortho.mu)])
        _emit(_csv_text(rows), args.out)
    else:
        _emit(_json_text(ortho_to_json_dict(ortho)), args.out)


def _cmd_simulate(args) -> None:
    model = parse_model(args.model)
    chunks = grid_csv_chunks(simulate_grid(model, args.t, args.dt, seed=args.seed))
    if args.out:
        _atomic_write_chunks(args.out, chunks)
    else:
        sys.stdout.writelines(chunks)


def _cmd_verify(args) -> None:
    _check_order(args.n)
    model = parse_model(args.model)
    report = verify_grid(model, args.n, args.t0, args.t, args.dt, args.seed)
    if args.out:
        _atomic_write(args.out, _csv_text(diff_csv_rows(report)))
    sys.stdout.write(_json_text(report_to_json_dict(report)))


def _cmd_convergence(args) -> None:
    _check_order(args.n)
    model = parse_model(args.model)
    dts = _number_list(args.dt_list, float, "--dt-list")
    if not dts:
        raise ConfigError("empty --dt-list")
    reports = verify_grid_sweep(model, args.n, args.t0, args.t, dts, args.seed)
    rows = [["dt", "t0_used", "max_abs_diff", "terminal_diff"]]
    for dt, report in zip(dts, reports):
        rows.append([repr(dt), repr(report.t0), repr(report.max_abs_diff), repr(report.terminal_diff)])
    _emit(_csv_text(rows), args.out)


def _cmd_exact_verify(args) -> None:
    _check_order(args.n)
    reports = exact_identity_suite(
        args.count, args.n, args.seed, max_jumps=args.max_jumps, float_mode=args.mode == "float"
    )
    worst = max((abs(r.terminal_diff) for r in reports), default=0)
    payload = {
        "count": args.count,
        "n_max": args.n,
        "mode": args.mode,
        "seed": args.seed,
        "checks": len(reports),
        "max_abs_terminal_diff": scalar_to_json(float(worst) if args.mode == "float" else worst),
        "all_exact_zero": all(r.terminal_diff == 0 for r in reports),
    }
    _emit(_json_text(payload), args.out)


def _cmd_taylor(args) -> None:
    spec_data = _read_json_object(args.spec, "--spec")
    grid = spec_data.get("grid")
    # type(x), not isinstance: JSON true and false are ints to isinstance
    if not (isinstance(grid, list) and grid and all(type(x) in (int, float) and math.isfinite(x) for x in grid)):
        raise ConfigError("--spec needs a nonempty 'grid' list of finite numbers")
    orders = _number_list(args.orders, int, "--orders")
    top = max(orders, default=0)
    _check_order(top, FunctionalError, "D=")
    model = parse_model(args.model)
    rows = [["order", "paths", "substrate", "mean_abs_error", "max_abs_error"]]
    if args.dt is not None:
        batch = simulate_batch(model, grid[-1], args.dt, args.paths, args.seed)
        substrate = "grid"
    else:
        batch = model_jump_fixtures(model, grid[-1], args.paths, args.seed, moment_order=top)
        substrate = "exact"
    spec = functional_from_json({**spec_data, "order": top})
    report = eval_functional(spec, batch)
    for D in orders:
        at_D = report.truncated(D)
        rows.append([str(D), str(args.paths), substrate, repr(at_D.mean_abs_error), repr(at_D.max_abs_error)])
    _emit(_csv_text(rows), args.out)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1 with the JSON error object."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


# Every flag's argparse definition, once.  --out and --config go to every
# command; any other flag goes only to the commands that list it below.
_FLAGS = {
    "out": dict(help="output file (atomic write); stdout if omitted"),
    "config": dict(help="JSON file supplying defaults for the command's options"),
    "model": dict(help="model string, e.g. brownian:sigma=0.01+gamma:a=10,b=20"),
    "mode": dict(choices=["float", "rational"], default="float"),
    "format": dict(choices=["json", "csv"], default="json"),
    "n": dict(type=int, help="expansion order (exact-verify checks all orders 1..n)"),
    "order": dict(type=int),
    "basis": dict(choices=["y", "h", "jamshidian"], default="y"),
    "t0": dict(type=float, default=0.0, help="window start time (grid-aligned)"),
    "t": dict(type=float, help="window end time"),
    "dt": dict(type=float, help="grid step (taylor: use the grid substrate with this step)"),
    "dt-list": dict(help="comma-separated steps, e.g. 1e-2,1e-3,1e-4"),
    "seed": dict(type=int, default=0),
    "count": dict(type=int, default=30),
    "max-jumps": dict(type=int, default=8),
    "spec": dict(help="FunctionalSpec JSON file"),
    "orders": dict(default="2,4,6,8"),
    "paths": dict(type=int, default=32),
}

# name: (handler, help, required flags, optional flags); the flags are exactly
# those the handler reads.
_COMMANDS = {
    "coeffs": (_cmd_coeffs, "constant and integral coefficient tables", "model n", "mode format"),
    "expand": (_cmd_expand, "full expansion in a chosen basis", "n", "model mode format basis"),
    "ortho": (_cmd_ortho, "orthogonalization coefficient tables", "model order", "mode format"),
    "simulate": (_cmd_simulate, "sample one grid path to CSV", "model t dt", "seed"),
    "verify": (_cmd_verify, "grid verification; diff CSV + report JSON", "model n t dt", "t0 seed"),
    "convergence": (_cmd_convergence, "max-diff table over a dt sweep", "model n t dt-list", "t0 seed"),
    "exact-verify": (_cmd_exact_verify, "exact identity on random jump fixtures", "n", "mode count max-jumps seed"),
    "taylor": (_cmd_taylor, "truncation study for a functional spec", "spec model", "orders paths dt seed"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="levychaos",
        description="Chaos-expansion coefficients for powers of Levy increments, with pathwise verification.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, required, optional) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in required.split():
            p.add_argument(f"--{flag}", required=True, **_FLAGS[flag])
        for flag in ["out", "config", *optional.split()]:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)
    sub.choices["exact-verify"].set_defaults(mode="rational")
    return parser


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config file.json into CLI tokens placed before explicit flags.

    Later occurrences win in argparse, so flags given on the command line
    override config values.  A key may name its flag with '_' for '-', as
    the argparse dest does (``dt_list`` for ``--dt-list``).
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or not argv:
        return argv
    data = _read_json_object(path, "--config")
    injected: list[str] = []
    for key, value in data.items():
        injected.extend([f"--{key.replace('_', '-')}", str(value)])
    return [argv[0]] + injected + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(_inject_config(argv))
        args.func(args)
    except LevyChaosError as exc:
        sys.stderr.write(_json_text({"error": exc.code, "message": str(exc)}))
        return 1
    except OSError as exc:
        sys.stderr.write(_json_text({"error": "io", "message": str(exc)}))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
