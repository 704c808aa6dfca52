"""Child-process entry points of the benchmark, kept free of heavy imports.

    python bench/child.py setup <workload>   print seconds for import + warm-up
    python -X importtime bench/child.py cli <argv...>
                                             run the CLI with the span tracer on

The traced CLI writes the CLI's stdout unchanged and appends one line
``TRACE <json aggregates>`` to stderr; ``-X importtime`` adds its own lines.
"""
from __future__ import annotations

import sys
import time


def warm_up(workload: str) -> None:
    """The first, smallest call of each in-process workload's kind of job."""
    import fock_toeplitz as ft

    if workload == "quad-certify":
        ft.gamma_sequence(ft.RadialExponential(-0.5), 4, method="quadrature")
    elif workload == "closed-calculus":
        phi = ft.RadialExponential(-0.5)
        report = ft.compose_radial(phi, phi, n_entries=16)
        op = ft.toeplitz_matrix(phi, 16)
        ft.wick_symbol_numeric(op, 0.5, 0.5)
        ft.norm_estimate(op)
        ft.spectrum_radial(report.gamma_tau)
    else:
        raise ValueError(f"no in-process warm-up for {workload!r}")


def _setup(workload: str) -> int:
    start = time.perf_counter()
    import fock_toeplitz  # noqa: F401  (the import is what is measured)

    warm_up(workload)
    print(f"{time.perf_counter() - start:.9f}")
    return 0


def _traced_cli(argv: list[str]) -> int:
    import fock_toeplitz.cli as cli  # imported first, so -X importtime sees it whole

    import json

    from spans import Tracer

    tracer = Tracer(max_spans=2_000)
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    payload = tracer.aggregates()
    payload["spans"] = tracer.spans
    sys.stderr.write("TRACE " + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(_setup(rest[0]))
    if mode == "cli":
        sys.exit(_traced_cli(rest))
    sys.exit(f"unknown mode {mode!r}")
