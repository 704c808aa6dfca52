"""Shared pytest configuration.

Prints one summary line per acceptance criterion so a run of the suite shows
the acceptance status at a glance, independent of the surrounding verbosity.

Registers the hypothesis profile ``ci`` (derandomized, no deadline), loaded
when ``HYPOTHESIS_PROFILE=ci`` is set, so that property tests run the same
examples on every CI run and slow runners cannot fail them on time.
"""
from __future__ import annotations

import os
import re

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_ACCEPTANCE = re.compile(r"test_acceptance\.py.*::test_criterion_(\d+)")

_TITLES = {
    1: "radial gamma via extended-precision quadrature",
    2: "Gaussian Wick fit recovers the circle constant",
    3: "diamond product matches gamma multiplication",
    4: "Toeplitz matrix of |z|^2 and its spectrum prefix",
    5: "Wick symbol triangle (series / heat / coherent ratio)",
    6: "structural identities of the truncated calculus",
    7: "norm sandwich for a contracting Gaussian symbol",
    8: "obstruction classifier boundary cases",
    9: "hypothesis audit and worked-example subcommand",
}


def pytest_runtest_logreport(report) -> None:
    match = _ACCEPTANCE.search(report.nodeid)
    if match is None:
        return
    if report.when == "call":
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    elif report.when == "setup" and report.failed:
        status = "FAIL (setup error)"
    else:
        return
    number = int(match.group(1))
    title = _TITLES.get(number, "")
    print(f"\n[acceptance] criterion {number} ({title}): {status}", flush=True)
