"""Command-line entry point.

Subcommands: generate, complexity, spectrum, lyapunov, trace-table,
gordon-scan, sparse-check.  Every output embeds the tool version and the
fully resolved configuration: the spec and the analysis parameters the
run reads.  Only gordon-scan draws random numbers, so only it takes
``--seed`` (default: the config's ``[output] seed``) and records it.
Floats in JSON are printed at 17 significant digits so identical runs
produce byte-identical files.
Outputs are written atomically (temp file + rename).

Exit codes: 0 success, 1 validation or usage error, 2 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from typing import Optional

import mpmath as mp
import numpy as np

from . import __version__
from .sequences import (
    CircleMapSpec,
    SparseSpec,
    ToeplitzSpec,
    ValidationError,
    Window,
)
from .config import RunConfig, build_spec, parse_config
from . import cocycle, complexity, gordon, spectrum


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def render_json(obj, indent: int = 0) -> str:
    """JSON text with floats at fixed 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            '%s  %s: %s' % (pad, json.dumps(str(k)), render_json(v, indent + 1))
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n%s}" % pad
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ["%s  %s" % (pad, render_json(v, indent + 1)) for v in seq]
        return "[\n" + ",\n".join(items) + "\n%s]" % pad
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sturmspec-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload: dict, fmt: str, out: Optional[str], csv_rows=None, csv_header=None):
    """Write JSON (default) or CSV with a provenance preamble."""
    if fmt == "json":
        text = render_json(payload) + "\n"
    else:
        lines = ["# sturmspec %s" % payload["version"]]
        for key, val in sorted(payload["config"].items()):
            lines.append("# %s = %s" % (key, val))
        lines.append(",".join(csv_header))
        for row in csv_rows:
            lines.append(
                ",".join(
                    _fmt_float(x) if isinstance(x, float) else str(x) for x in row
                )
            )
        text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _resolved_config(cfg: RunConfig, args: argparse.Namespace, keys) -> dict:
    """Flat provenance record: spec plus the analysis parameters in force."""
    flat = {"spec_kind": cfg.kind}
    for k, v in cfg.spec.items():
        flat["spec.%s" % k] = v
    for key in keys:
        flat[key] = getattr(args, key.replace("-", "_"))
    return flat


def _payload(cfg_flat: dict, result: dict) -> dict:
    return {"version": __version__, "config": cfg_flat, "result": result}


def _load(args) -> tuple:
    cfg = parse_config(args.spec)
    return cfg, build_spec(cfg)


def _make_window(spec, start: int, length: int) -> Window:
    if isinstance(spec, CircleMapSpec):
        return spec.window(start, length, allow_periodic=True)
    return spec.window(start, length)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    cfg, spec = _load(args)
    window = _make_window(spec, args.start, args.len)
    flat = _resolved_config(cfg, args, ("start", "len"))
    vals = window.values()
    symbols = window.symbols  # a property that rebuilds the tuple per read
    rows = [
        (window.start + i, symbols[i], float(vals[i]))
        for i in range(len(window))
    ]
    result = {
        "start": window.start,
        "symbols": list(symbols),
        "values": [float(v) for v in vals],
    }
    _emit(
        _payload(flat, result), args.format, args.out,
        csv_rows=rows, csv_header=("index", "symbol", "value"),
    )
    return 0


def _cmd_complexity(args) -> int:
    cfg, spec = _load(args)
    window = _make_window(spec, args.start, args.window)
    report = complexity.complexity_report(
        window, args.n_max, args.t_max, beam_width=args.beam
    )
    flat = _resolved_config(cfg, args, ("start", "window", "n_max", "t_max", "beam"))
    rows = report.rows()
    _emit(
        _payload(flat, report.as_dict()), args.format, args.out,
        csv_rows=rows, csv_header=("n", "p", "pstar", "template"),
    )
    return 0


def _cmd_spectrum(args) -> int:
    cfg, spec = _load(args)
    if not isinstance(spec, ToeplitzSpec):
        raise ValidationError("spectrum approximants need a toeplitz spec")
    lower, upper = spectrum.band_sets(
        spec, (args.level, args.level + 1), grid=args.grid, tol=args.tol
    )
    approx = lower.union(upper)
    flat = _resolved_config(cfg, args, ("level", "grid", "tol"))
    result = {
        "sigma_k": lower.as_dict(),
        "sigma_k_plus_1": upper.as_dict(),
        "approximant": approx.as_dict(),
    }
    rows = [(a, b) for a, b in approx.intervals]
    _emit(
        _payload(flat, result), args.format, args.out,
        csv_rows=rows, csv_header=("band_lo", "band_hi"),
    )
    return 0


def _energy_list(text: str) -> list:
    """The floats of a comma-separated ``--energies`` list; a bad token raises."""
    out = []
    for tok in text.split(","):
        try:
            out.append(float(tok))
        except ValueError:
            raise ValidationError("--energies: %r is not a number" % tok) from None
    return out


def _cmd_lyapunov(args) -> int:
    cfg, spec = _load(args)
    energies = _energy_list(args.energies)
    # at least one site, so that lyapunov_scan names a bad --n-steps or --samples
    total = max(1, args.n_steps + (args.samples - 1) * cocycle.SAMPLE_STRIDE)
    gam, spread = cocycle.lyapunov_scan(
        _make_window(spec, args.start, total), energies, n_steps=args.n_steps,
        samples=args.samples, start=args.start,
    )
    flat = _resolved_config(cfg, args, ("energies", "n_steps", "samples", "start"))
    rows = list(zip(energies, (float(g) for g in gam), (float(s) for s in spread)))
    result = {
        "energies": energies,
        "gamma": [float(g) for g in gam],
        "spread": [float(s) for s in spread],
    }
    _emit(
        _payload(flat, result), args.format, args.out,
        csv_rows=rows, csv_header=("E", "gamma", "spread"),
    )
    return 0


def _cmd_trace_table(args) -> int:
    cfg, spec = _load(args)
    if not isinstance(spec, ToeplitzSpec):
        raise ValidationError("trace tables need a toeplitz spec")
    table = cocycle.trace_table(spec, args.energy, args.k)
    flat = _resolved_config(cfg, args, ("energy", "k"))

    def digits(x):
        """An mpmath number at 17 significant digits, like the floats."""
        return mp.nstr(x, 17)

    rows = [(k, digits(hd), digits(hr), digits(diff))
            for k, hd, hr, diff in table.rows()]
    result = {
        "energy": table.energy,
        "n_list": list(table.n_list),
        "h_direct": [digits(h) for h in table.h_direct],
        "h_recursion": [digits(h) for h in table.h_recursion],
        "max_rel_diff": table.max_rel_diff(),
    }
    _emit(
        _payload(flat, result), args.format, args.out,
        csv_rows=rows, csv_header=("k", "h_direct", "h_recursion", "abs_diff"),
    )
    return 0


def _cmd_gordon_scan(args) -> int:
    cfg, spec = _load(args)
    if not isinstance(spec, ToeplitzSpec):
        raise ValidationError("repetition scans need a toeplitz spec")
    seed = cfg.seed if args.seed is None else args.seed
    report = gordon.gordon_sweep(
        spec,
        entry_k=args.level,
        n_energies=args.energies,
        n_origins=args.origins,
        energy_level=args.energy_level,
        seed=seed,
        grid=args.grid,
    )
    flat = _resolved_config(
        cfg, args, ("level", "energies", "origins", "energy_level", "grid")
    )
    flat["seed"] = seed
    _emit(_payload(flat, report.as_dict()), "json", args.out)
    return 0 if report.passed else 2


def _cmd_sparse_check(args) -> int:
    cfg, spec = _load(args)
    if not isinstance(spec, SparseSpec):
        raise ValidationError("sparse checks need a sparse spec")
    band, point = spectrum.sparse_essential_spectrum(spec)
    result = {
        "essential_band": list(band),
        "essential_point": point,
    }
    if args.energy is not None:
        cert = spectrum.sparse_no_eigenvalue_certificate(
            spec, args.energy, k_max=args.k_max
        )
        result["certificate"] = cert.as_dict()
    if args.eigs:
        window = spec.window(1, args.n + 64)
        op = spectrum.HalfLineOperator(args.n, window)
        result["top_eigenvalues"] = spectrum.halfline_eigs(op, count=args.eigs)
    flat = _resolved_config(cfg, args, ("energy", "k_max", "n", "eigs"))
    _emit(_payload(flat, result), "json", args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    top = argparse.ArgumentParser(
        prog="sturmspec",
        description=__doc__.split("\n")[0] if __doc__ else "",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--spec", required=True, help="config file with a spec section")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = sub.add_parser(
        "generate",
        help="write a window of the sequence",
        epilog="example: sturmspec generate --spec fib.cfg --start 0 --len 50 --out w.csv",
    )
    common(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--len", type=int, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "complexity",
        help="block and maximal pattern complexity estimates",
        epilog="example: sturmspec complexity --spec fib.cfg --n-max 8 --t-max 100 --window 5000",
    )
    common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--window", type=int, default=5000)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--beam", type=int, default=complexity.DEFAULT_BEAM)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser(
        "spectrum",
        help="band approximants from trace conditions",
        epilog="example: sturmspec spectrum --spec simple3.cfg --level 4 --format json",
    )
    common(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--grid", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "lyapunov",
        help="finite-horizon Lyapunov estimates over energies",
        epilog="example: sturmspec lyapunov --spec simple3.cfg --energies 0.0,0.5 --n-steps 100000",
    )
    common(p)
    p.add_argument("--energies", required=True, help="comma-separated energies")
    p.add_argument("--n-steps", type=int, default=100_000)
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--start", type=int, default=1)
    p.set_defaults(func=_cmd_lyapunov)

    p = sub.add_parser(
        "trace-table",
        help="block traces by direct product and by recursion",
        epilog="example: sturmspec trace-table --spec simple3.cfg --energy 0.0 --k 6",
    )
    common(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_trace_table)

    p = sub.add_parser(
        "gordon-scan",
        help="classify and verify repetition certificates over a sweep",
        epilog="example: sturmspec gordon-scan --spec simple3.cfg --level 2 --energies 10 --origins 50",
    )
    common(p, fmt=False)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--energies", type=int, default=10)
    p.add_argument("--origins", type=int, default=50)
    p.add_argument("--energy-level", type=int, default=None)
    p.add_argument("--grid", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=None, help="default: [output] seed")
    p.set_defaults(func=_cmd_gordon_scan)

    p = sub.add_parser(
        "sparse-check",
        help="essential spectrum, truncation eigenvalues, exclusion certificate",
        epilog="example: sturmspec sparse-check --spec sparse3.cfg --energy 0.0",
    )
    common(p, fmt=False)
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--k-max", type=int, default=15)
    p.add_argument("--n", type=int, default=1024, help="truncation size")
    p.add_argument("--eigs", type=int, default=0, help="how many top eigenvalues")
    p.set_defaults(func=_cmd_sparse_check)

    return top


def _glue_negative_lists(argv: list) -> list:
    """Join ``--energies -1.9,0.5`` into ``--energies=-1.9,0.5``.

    argparse reads a token that starts with '-' as an option unless it is
    a single plain number, so a comma list led by a negative energy would
    otherwise be a usage error.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--energies" and re.match(r"-[0-9.]", tok):
            out[-1] = "--energies=" + tok
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    """Parse arguments and run one subcommand; returns the exit code."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_glue_negative_lists(argv))
    except SystemExit as exc:
        # argparse prints its own message; map usage errors to exit 1
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ValidationError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except AssertionError as exc:
        print("internal invariant failure: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
