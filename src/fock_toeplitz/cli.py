"""Command-line front end.

Every library computation is exposed as a subcommand emitting JSON (or CSV
for tabular data) on stdout, with diagnostics on stderr.  Output is
deterministic: key order is fixed and floats are printed with 17
significant digits, so identical invocations produce byte-identical bytes.

Exit codes: 0 success, 2 usage/parse errors, 3 accuracy errors (a requested
tolerance cannot be certified), 4 domain errors (input outside an
operation's domain, including divergent integrals).
"""
from __future__ import annotations

import argparse
import cmath
import io
import json
import math
import numbers
import os
import re
import sys
from dataclasses import dataclass, replace

from . import symbols
from .algebra import DEFAULT_X_SAMPLES
from .errors import AccuracyError, DomainError, NonFiniteResultError

__all__ = ["main", "RunConfig", "parse_complex", "render_json"]

ENV_TOL = "FOCK_TOEPLITZ_TOL"

# Size limits, checked before anything is allocated (exit 2 above them).
# ``matrix`` builds a dense N x N complex matrix: 16 MB at N = 1024, and its
# JSON takes about 50 MB.  Every ``wick`` point sums a series of N terms.
MAX_DENSE_TRUNCATION = 1024
MAX_WICK_POINTS = 10_000


class UsageError(Exception):
    """Malformed invocation: bad symbol JSON, bad scalar, bad config."""


@dataclass(frozen=True)
class RunConfig:
    truncation: int = 64
    tol: float = 1e-10
    fmt: str = "json"
    output: str | None = None
    x_samples: tuple[float, ...] = DEFAULT_X_SAMPLES

    def __post_init__(self) -> None:
        if self.truncation < 2:
            raise UsageError(f"truncation must be >= 2, got {self.truncation}")
        if not 0 < self.tol < math.inf:
            raise UsageError(f"tol must be positive and finite, got {self.tol}")
        if not all(0 <= x < math.inf for x in self.x_samples):
            raise UsageError(f"x-samples must be finite and >= 0, got {list(self.x_samples)}")
        if self.fmt not in ("json", "csv"):
            raise UsageError(f"format must be json or csv, got {self.fmt!r}")


# ---------------------------------------------------------------------------
# deterministic output rendering


def _fmt_float(x: float) -> str:
    value = float(x)
    if not math.isfinite(value):
        # inf/nan tokens are not JSON; refuse rather than print them
        raise NonFiniteResultError(f"result contains a non-finite value ({value})")
    return f"{value:.17g}"


def render_json(obj) -> str:
    """Fixed-order JSON with floats at 17 significant digits."""
    pieces: list[str] = []
    _render(obj, pieces)
    return "".join(pieces)


def _render(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _render(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    # numpy registers its scalar types with these ABCs; they come last, since
    # a test against an ABC is slower than one against a concrete type
    elif isinstance(obj, numbers.Integral):
        out.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):
        out.append(_fmt_float(obj))
    else:
        raise TypeError(f"cannot render {type(obj).__name__} deterministically")


def _render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in row))
        buf.write("\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# input parsing


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` (or plain ``a``, ``bi``); spaces are tolerated."""
    compact = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(compact)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex scalar {text!r}; expected forms like 1.28+0.96i") from exc
    if not cmath.isfinite(value):
        raise UsageError(f"complex scalar {text!r} is not finite")
    return value


def _load_symbol(spec_text: str) -> symbols.Symbol:
    """Symbol from an inline JSON string or ``@path`` to a JSON file."""
    if spec_text.startswith("@"):
        try:
            with open(spec_text[1:], "r", encoding="utf-8") as fh:
                spec_text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read symbol file {spec_text[1:]!r}: {exc}") from exc
    try:
        return symbols.symbol_from_json(json.loads(spec_text))
    except json.JSONDecodeError as exc:
        raise UsageError(f"symbol is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except RecursionError as exc:
        raise UsageError("symbol JSON is nested too deeply") from exc


def _parse_x_samples(text: str) -> tuple[float, ...]:
    """``--x-samples`` value; argparse turns the error into a usage error (exit 2)."""
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad x-samples list {text!r}; expected comma-separated numbers"
        ) from exc
    if not values:
        raise argparse.ArgumentTypeError("x-samples list is empty")
    return values


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _float_list(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return tuple(float(x) for x in value)


# config key -> (RunConfig field, conversion of the JSON value).  Each field
# is also the argparse dest of its flag, whose value argparse has converted.
_CONFIG_FIELDS = {
    "truncation": ("truncation", int),
    "tol": ("tol", float),
    "format": ("fmt", str),
    "output": ("output", _string),
    "x_samples": ("x_samples", _float_list),
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge the command's base config, environment, config file, and flags
    (in rising priority)."""
    cfg = args.base

    env_tol = os.environ.get(ENV_TOL)
    if env_tol is not None:
        try:
            cfg = replace(cfg, tol=float(env_tol))
        except ValueError as exc:
            raise UsageError(f"bad {ENV_TOL} value {env_tol!r}") from exc

    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}") from exc
        except RecursionError as exc:
            raise UsageError(f"config {args.config!r} is nested too deeply") from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(raw) - set(_CONFIG_FIELDS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        try:
            values = {
                field: convert(raw[key])
                for key, (field, convert) in _CONFIG_FIELDS.items()
                if key in raw
            }
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"bad value in config {args.config!r}: {exc}") from exc
        cfg = replace(cfg, **values)

    flags = {field: getattr(args, field, None) for field, _convert in _CONFIG_FIELDS.values()}
    return replace(cfg, **{field: v for field, v in flags.items() if v is not None})


# ---------------------------------------------------------------------------
# subcommand implementations; each returns the rendered output text and
# imports only the modules it runs, so classify, heat and diamond load no numpy


def _cmd_gamma(args, cfg: RunConfig) -> str:
    from .quadrature import gamma_sequence

    symbol = _load_symbol(args.symbol)
    method = "closed" if args.method == "auto" else args.method  # auto spells closed
    seq = gamma_sequence(symbol, cfg.truncation, tol=cfg.tol, method=method)
    if cfg.fmt == "csv":
        rows = [
            [n, float(v.real), float(v.imag), float(e)]
            for n, (v, e) in enumerate(zip(seq.values, seq.abs_err))
        ]
        return _render_csv(["n", "re", "im", "abs_err"], rows)
    return render_json(seq.to_json())


def _cmd_matrix(args, cfg: RunConfig) -> str:
    if cfg.truncation > MAX_DENSE_TRUNCATION:
        raise UsageError(
            f"matrix truncation {cfg.truncation} exceeds the dense-matrix limit "
            f"MAX_DENSE_TRUNCATION = {MAX_DENSE_TRUNCATION}"
        )
    from .fock import toeplitz_matrix

    symbol = _load_symbol(args.symbol)
    op = toeplitz_matrix(symbol, cfg.truncation, tol=cfg.tol)
    if cfg.fmt == "csv":
        rows = [
            [m, n, float(op.entries[m, n].real), float(op.entries[m, n].imag)]
            for m in range(op.dim)
            for n in range(op.dim)
        ]
        return _render_csv(["m", "n", "re", "im"], rows)
    flat = [
        [float(v.real), float(v.imag)] for v in op.entries.reshape(-1)
    ]  # row-major complex pairs
    return render_json({"symbol": symbols.symbol_to_json(symbol), "dim": op.dim, "entries": flat})


def _cmd_compose(args, cfg: RunConfig) -> str:
    from .composition import compose_radial

    phi = _load_symbol(args.phi)
    psi = _load_symbol(args.psi)
    report = compose_radial(
        phi, psi, n_entries=cfg.truncation, x_samples=cfg.x_samples, tol=cfg.tol
    )
    return render_json(report.to_json())


def _cmd_diamond(args, cfg: RunConfig) -> str:
    from .algebra import diamond

    phi = _load_symbol(args.phi)
    psi = _load_symbol(args.psi)
    result = diamond(phi, psi)
    return render_json(
        {
            "phi": symbols.symbol_to_json(phi),
            "psi": symbols.symbol_to_json(psi),
            "result": symbols.symbol_to_json(result),
        }
    )


def _cmd_wick(args, cfg: RunConfig) -> str:
    if not 0 <= args.points <= MAX_WICK_POINTS:
        raise UsageError(
            f"--points must be between 0 and MAX_WICK_POINTS = {MAX_WICK_POINTS}, "
            f"got {args.points}"
        )
    if not math.isfinite(args.r_max):
        raise UsageError(f"--r-max must be finite, got {args.r_max}")
    import numpy as np

    from .calculus import wick_from_gamma
    from .quadrature import gamma_sequence

    symbol = _load_symbol(args.symbol)
    seq = gamma_sequence(symbol, cfg.truncation, tol=cfg.tol)
    radii = np.linspace(0.0, args.r_max, args.points)
    values = [wick_from_gamma(seq, float(r), tol=cfg.tol) for r in radii]
    if cfg.fmt == "csv":
        rows = [[float(r), v.real, v.imag] for r, v in zip(radii, values)]
        return _render_csv(["r", "re", "im"], rows)
    return render_json(
        {
            "symbol": symbols.symbol_to_json(symbol),
            "points": [
                {"r": float(r), **symbols.complex_to_json(v)} for r, v in zip(radii, values)
            ],
        }
    )


def _cmd_heat(args, cfg: RunConfig) -> str:
    from .algebra import heat_transform

    symbol = _load_symbol(args.symbol)
    result = heat_transform(symbol, args.t)
    return render_json(
        {
            "t": args.t,
            "input": symbols.symbol_to_json(symbol),
            "result": symbols.symbol_to_json(result),
        }
    )


def _cmd_spectrum(args, cfg: RunConfig) -> str:
    from .fock import spectrum_radial
    from .quadrature import gamma_sequence

    symbol = _load_symbol(args.symbol)
    seq = gamma_sequence(symbol, cfg.truncation, tol=cfg.tol)
    prefix = spectrum_radial(seq)
    return render_json(
        {
            "symbol": symbols.symbol_to_json(symbol),
            "label": prefix.label,
            "points": [symbols.complex_to_json(p) for p in prefix.points],
        }
    )


def _cmd_classify(args, cfg: RunConfig) -> str:
    from .algebra import classify_obstruction

    theta = parse_complex(args.theta)
    verdict = classify_obstruction(theta, tol=cfg.tol)
    return render_json(verdict.to_json())


def _cmd_verify_example(args, cfg: RunConfig) -> str:
    from .composition import audit_worked_example

    report = audit_worked_example(cfg.truncation, tol=min(cfg.tol, 1e-12))
    return render_json(report.to_json())


# every other command emits a structured report and refuses --format csv
_CSV_COMMANDS = {"gamma", "matrix", "wick"}


# ---------------------------------------------------------------------------
# argument parsing and entry point


_SIGNED_NUMBER = re.compile(r"-[0-9.]")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--theta -0.68+0.50i`` as ``--theta=-0.68+0.50i``.

    argparse reads a token that starts with ``-`` as an option unless it is a
    plain negative number, so a negative complex value after a space would be
    a usage error.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--theta" and _SIGNED_NUMBER.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-N", "--truncation", type=int, default=None, help="truncation dimension")
    common.add_argument("--tol", type=float, default=None, help="tolerance")
    common.add_argument(
        "--format", dest="fmt", choices=["json", "csv"], default=None, help="output format"
    )
    common.add_argument("-o", "--output", default=None, help="write output to this path")
    common.add_argument("--config", default=None, help="JSON config file")

    parser = argparse.ArgumentParser(
        prog="fock-toeplitz",
        description="Toeplitz-operator calculus on the Segal-Bargmann space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str, base: RunConfig = RunConfig()):
        """A subcommand whose settings start from ``base`` (see resolve_config)."""
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run, base=base)
        return p

    p = command("gamma", _cmd_gamma, "gamma sequence of a radial symbol")
    p.add_argument("--symbol", required=True, help="symbol JSON (inline or @file)")
    p.add_argument(
        "--method", choices=["auto", "closed", "quadrature"], default="closed",
        help="computation path (auto is closed)",
    )

    p = command("matrix", _cmd_matrix, "truncated Toeplitz matrix")
    p.add_argument("--symbol", required=True)

    p = command("compose", _cmd_compose, "composition report for T_phi T_psi")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--x-samples", type=_parse_x_samples, help="comma-separated x values")

    p = command("diamond", _cmd_diamond, "diamond product of polynomial symbols")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)

    p = command("wick", _cmd_wick, "Wick symbol of T_symbol on a radius grid")
    p.add_argument("--symbol", required=True)
    p.add_argument("--r-max", dest="r_max", type=float, default=2.0)
    p.add_argument("--points", type=int, default=25)

    p = command("heat", _cmd_heat, "heat transform H_t of a symbol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--t", type=float, required=True)

    p = command("spectrum", _cmd_spectrum, "prefix spectrum of a radial operator")
    p.add_argument("--symbol", required=True)

    p = command(
        "classify", _cmd_classify, "obstruction classification of theta", RunConfig(tol=1e-9)
    )
    p.add_argument("--theta", required=True, help="complex scalar, e.g. 1.28+0.96i")

    # its tolerance is further capped at 1e-12 (_cmd_verify_example)
    command(
        "verify-paper-example", _cmd_verify_example,
        "run the built-in worked example end to end", RunConfig(truncation=40),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = resolve_config(args)
        # refused before any symbol is parsed or anything is computed
        if cfg.fmt != "json" and args.command not in _CSV_COMMANDS:
            raise UsageError(f"command {args.command!r} only supports --format json")
        text = args.run(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4

    text = text if text.endswith("\n") else text + "\n"
    if cfg.output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output {cfg.output!r}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
