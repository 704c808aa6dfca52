"""The three workloads: seeded inputs, the timed call of each job, its checks.

A workload hands out rounds of jobs.  Round ``k`` draws its inputs from
``random.Random`` seeded with ``(seed, k)``, and every round has the same
make-up, so each run does the same kind and amount of work whatever the seed
and however many rounds fit into it.  Continuous parameters are drawn one per
stratum of their range, which keeps the cost of a round nearly independent of
the seed.  A job's ``call`` is all that is timed; its ``spec`` tells the
checker what the inputs were, and the references are computed by
:mod:`reference` only after the round's timed interval has ended.
"""
from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import mpmath as mp
import numpy as np

import fock_toeplitz as ft
import reference as ref
from spans import parse_importtime

U = 2.0**-53  # unit roundoff of the float64 values the program returns
TOL_GAMMA = 1e-12  # the package's DEFAULT_TOL, read as a mixed error |e| <= tol*max(1, |ref|)
TOL_WICK = 1e-8  # acceptance criterion 5: the three routes to the Wick symbol
TOL_RATE = 1e-6  # acceptance criterion 2: the fitted Gaussian rate
TOL_SPECTRUM = 1e-9  # the default merge tolerance of spectrum_radial

LAM_EXAMPLE = complex(2.0, 4.0) / 5.0  # the worked example, as the program's float
# Worked-example truncations, one per round, in a fixed order balanced around 41.
EXAMPLE_N = (41, 42, 40, 43, 39, 44, 38, 45, 37, 46, 36, 47, 35, 48, 34, 49)


class CheckFailed(Exception):
    """An output disagrees with its reference or with a property of the method."""


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    spec: dict = field(default_factory=dict)


def round_rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


# ---------------------------------------------------------------------------
# comparisons


def to_complex(z) -> complex:
    """mpc to complex, rounded to nearest (mpmath's float() truncates)."""
    if not isinstance(z, (mp.mpc, mp.mpf)):
        return complex(z)
    rnd = mp.libmp.round_nearest
    return complex(mp.libmp.to_float(z.real._mpf_, rnd=rnd), mp.libmp.to_float(z.imag._mpf_, rnd=rnd))


def mixed_error(values, refs, scale=None) -> float:
    """max |x − ref| / max(1, scale), scale defaulting to |ref|."""
    values = np.asarray(values, dtype=complex)
    refs = np.asarray(refs, dtype=complex)
    if values.shape != refs.shape:
        raise CheckFailed(f"shape {values.shape} where {refs.shape} was expected")
    if values.size == 0:
        return 0.0
    scale = np.abs(refs) if scale is None else np.asarray(scale, dtype=float)
    return float(np.max(np.abs(values - refs) / np.maximum(1.0, scale)))


def expect(error: float, tol: float, what: str) -> float:
    if not error <= tol:
        raise CheckFailed(f"{what}: error {error:.3e} exceeds {tol:.0e}")
    return error


def check_certified(values, abs_err, refs, what: str) -> float:
    """Each entry's true error is at most its ``abs_err`` plus the float64
    rounding of the value (u·|ref|), with errors taken at 40 digits.  Returns
    the worst mixed error over all entries, those the program flags
    ``unreliable`` included."""
    if len(values) != len(refs) or len(abs_err) != len(refs):
        raise CheckFailed(f"{what}: {len(values)} entries where {len(refs)} were expected")
    worst = 0.0
    for n, (v, e, r) in enumerate(zip(values, abs_err, refs)):
        err = abs(mp.mpc(float(v.real), float(v.imag)) - r)
        if err > mp.mpf(float(e)) + U * abs(r):
            raise CheckFailed(f"{what}: entry {n} true error {float(err):.3e} > abs_err {float(e):.3e}")
        worst = max(worst, float(err / max(1, abs(r))))
    return worst


def check_gamma(values, refs, what: str) -> float:
    return expect(mixed_error(values, [to_complex(r) for r in refs]), TOL_GAMMA, what)


def check_rate(rate: complex, k_ref, what: str) -> float:
    k = to_complex(k_ref)
    return expect(abs(rate - k) / max(1.0, abs(k)), TOL_RATE, what)


def check_case(case: str, k_ref, what: str) -> None:
    expected = ref.region(k_ref)
    if case != expected:
        raise CheckFailed(f"{what}: region {case} where the inequalities give {expected}")


def dedupe(values, tol: float) -> list:
    """spectrum_radial's definition: first-seen values at distance > tol."""
    points: list = []
    for v in values:
        if all(abs(v - p) > tol for p in points):
            points.append(v)
    return points


# ---------------------------------------------------------------------------
# symbols: the benchmark's description, the program's object, and JSON


def radial_symbol(terms):
    parts = tuple(
        (c, ft.RadialMonomial(m) if lam == 0 else ft.RadialExponential(lam)) for c, m, lam in terms
    )
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    return ft.Combination(parts)


def _cjson(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def radial_json(terms) -> str:
    parts = []
    for c, m, lam in terms:
        if lam == 0:
            s = {"kind": "radial_monomial", "m": m}
        else:
            s = {"kind": "radial_exponential", "lambda": _cjson(complex(lam))}
        parts.append({"w": _cjson(complex(c)), "s": s})
    if len(parts) == 1 and terms[0][0] == 1:
        return json.dumps(parts[0]["s"])
    return json.dumps({"kind": "sum", "terms": parts})


def poly_json(coeffs: dict) -> str:
    terms = [{"j": j, "k": k, "c": _cjson(complex(c))} for (j, k), c in coeffs.items()]
    return json.dumps({"kind": "poly", "terms": terms})


def _complex_from_json(obj) -> complex:
    return complex(obj) if isinstance(obj, (int, float)) else complex(obj["re"], obj["im"])


def eval_symbol_json(obj, r: float) -> mp.mpc:
    """Value at z = r (real) of a symbol in the CLI's JSON form, at 40 digits."""
    kind = obj["kind"]
    if kind == "radial_monomial":
        return mp.mpf(r) ** (2 * obj["m"])
    if kind == "radial_exponential":
        return mp.exp(ref.to_mpc(_complex_from_json(obj["lambda"])) * mp.mpf(r) ** 2)
    if kind == "poly":
        return sum(
            (ref.to_mpc(_complex_from_json(t["c"])) * mp.mpf(r) ** (t["j"] + t["k"]) for t in obj["terms"]),
            mp.mpc(0),
        )
    if kind == "sum":
        return sum(
            (ref.to_mpc(_complex_from_json(t["w"])) * eval_symbol_json(t["s"], r) for t in obj["terms"]),
            mp.mpc(0),
        )
    raise CheckFailed(f"unknown symbol kind {kind!r} in output")


# ---------------------------------------------------------------------------
# seeded inputs shared by the workloads


def _unit_complex(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def exp_pair(rng: random.Random, kind: str) -> tuple[complex, complex]:
    """Two exponents λ for e^{λr²} whose composition lands in a known region.

    ``circle``: β = 1/(1−λ) on the unit circle, so |K|² = 2 Re K (Case1 when
    Re β_φβ_ψ < 0); ``grow``: Re λ > 0, mostly Case2; ``decay``: Re λ ≤ 0.
    Other pairs within 1e-6 of the circle are drawn again.  Near-identity
    products, |K| = |1 − β_φβ_ψ| < 0.2, are left out: their γ prefix is
    nearly polynomial and its reconstruction is pruned wrongly (CHANGES.md).
    """
    while True:
        if kind == "circle":
            pair = tuple(1 - cmath.exp(-1j * rng.choice((-1, 1)) * rng.uniform(0.3, 1.0)) for _ in range(2))
        elif kind == "grow":
            pair = tuple(complex(rng.uniform(0.1, 0.4), rng.uniform(-0.4, 0.4)) for _ in range(2))
        else:
            pair = tuple(complex(rng.uniform(-1.0, 0.0), rng.uniform(-0.8, 0.8)) for _ in range(2))
        k = to_complex(ref.wick_rate(*pair))
        on_circle = abs(abs(1 - k) - 1) <= 1e-6
        if abs(k) >= 0.2 and (on_circle == (kind == "circle")):
            return pair


def radial_poly(rng: random.Random) -> dict:
    """Σ c_m r^{2m} over two distinct m in 0..3."""
    return {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in rng.sample(range(4), 2)}


def bivariate(rng: random.Random) -> dict:
    """Σ c z^j z̄^k over three distinct (j, k) in {0,1,2}², not all radial."""
    keys = [(j, k) for j in range(3) for k in range(3)]
    while True:
        chosen = rng.sample(keys, 3)
        if any(j != k for j, k in chosen):
            return {key: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for key in chosen}


def poly_terms(coeffs: dict) -> list:
    return [(c, m, 0) for m, c in coeffs.items()]


# ---------------------------------------------------------------------------
# quad-certify


class QuadCertify:
    """γ by generalized Gauss–Laguerre quadrature, plus the worked example.

    A round: the worked example at one truncation of EXAMPLE_N, six
    oscillatory exponentials, eight Gaussians, four monomials c·r^{2m}
    (m = 1..4) and five monomial-plus-exponential combinations; 24 jobs.
    The make-up puts the median job inside the Gaussians and the 80th and
    90th percentiles inside the oscillatory exponentials, not between classes.
    The Gaussians keep to a >= 1.1, past the step near a = 0.9 where their
    ladders deepen and their cost more than doubles, so the median job's
    cost does not depend on which side of the step a draw falls.
    """

    name = "quad-certify"
    tail_percentile = 80.0
    min_rounds = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, k: int) -> list[Job]:
        rng = round_rng(self.seed, k)
        n_example = EXAMPLE_N[k % len(EXAMPLE_N)]
        jobs = [Job("example", lambda: ft.audit_worked_example(n_entries=n_example), {"n": n_example})]
        specs = []
        for i in range(6):  # oscillatory: Re λ in 3 strata of [0.15, 0.45], Im λ in 2 of [0.35, 0.75]
            x0, y0 = 0.15 + 0.1 * (i % 3), 0.35 + 0.2 * (i // 3)
            specs.append([(1, 0, complex(rng.uniform(x0, x0 + 0.1), rng.uniform(y0, y0 + 0.2)))])
        for i in range(8):  # Gaussians e^{−a r²}, a in 8 strata of [1.1, 1.4]
            a = rng.uniform(1.1 + 0.3 * i / 8, 1.1 + 0.3 * (i + 1) / 8)
            specs.append([(1, 0, complex(-a, 0.0))])
        for m in range(1, 5):
            specs.append([(_unit_complex(rng, 0.5, 2.0), m, 0)])
        for i in range(5):  # c1 r^{2m} + c2 e^{λr²}, Re λ in 5 strata of [-1.0, -0.3]
            a = rng.uniform(0.3 + 0.7 * i / 5, 0.3 + 0.7 * (i + 1) / 5)
            specs.append(
                [
                    (_unit_complex(rng, 0.5, 2.0), 1 + i % 3, 0),
                    (_unit_complex(rng, 0.5, 2.0), 0, complex(-a, rng.uniform(-0.4, 0.4))),
                ]
            )
        for i, terms in enumerate(specs):
            jobs.append(self._gamma_job(terms, 39 + (k + i) % 5))
        return jobs

    @staticmethod
    def _gamma_job(terms, n: int) -> Job:
        symbol = radial_symbol(terms)
        return Job(
            "gamma",
            lambda: ft.gamma_sequence(symbol, n, method="quadrature"),
            {"terms": terms, "n": n},
        )

    def check(self, job: Job, out, outputs) -> float:
        if job.kind == "gamma":
            refs = ref.gamma_radial(job.spec["terms"], job.spec["n"])
            return check_certified(out.values, out.abs_err, refs, "quadrature gamma")
        return check_example_report(out, job.spec["n"])


def check_example_report(report, n: int) -> float:
    if report.n_entries != n or report.symbol != ft.RadialExponential(LAM_EXAMPLE):
        raise CheckFailed("worked example ran on other inputs")
    refs = ref.gamma_radial([(1, 0, LAM_EXAMPLE)], n)
    k_ref = ref.wick_rate(LAM_EXAMPLE, LAM_EXAMPLE)
    seq = report.gamma_quadrature
    worst = check_certified(seq.values, seq.abs_err, refs, "worked-example quadrature")
    worst = max(worst, check_gamma(report.composition.gamma_tau.values, [r * r for r in refs], "gamma_tau"))
    worst = max(worst, check_rate(report.fit.rate, k_ref, "worked-example rate"))
    check_case(report.obstruction.case.value, k_ref, "worked-example obstruction")
    check_case(report.composition.obstruction.case.value, k_ref, "composition obstruction")
    return worst


# ---------------------------------------------------------------------------
# closed-calculus


class ClosedCalculus:
    """Closed-form calculus, bundled so that one job takes several milliseconds.

    A job composes an exponential pair and a radial-polynomial pair
    (hypothesis audit, A-series, reconstruction, Gaussian fit, diamond
    cross-check), takes γ of the diamond product of the polynomial pair,
    builds the Wick triangle (series, heat transform, coherent-state ratio on
    the Toeplitz matrix) for one symbol of each pair on four radii, estimates
    the norm of the exponential's matrix, takes the prefix spectrum of the
    polynomial composition, and builds the Toeplitz matrices of a bivariate
    pair and of its diamond product.  A round is 24 such jobs.
    """

    name = "closed-calculus"
    tail_percentile = 99.0
    min_rounds = 42
    round_jobs = 24

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, k: int) -> list[Job]:
        rng = round_rng(self.seed, k)
        jobs = []
        for i in range(self.round_jobs):
            spec = {
                "exp": exp_pair(rng, ("circle", "grow", "decay")[i % 3]),
                "n_exp": rng.randint(40, 64),
                "p": radial_poly(rng),
                "q": radial_poly(rng),
                "n_poly": rng.randint(40, 64),
                "P": bivariate(rng),
                "Q": bivariate(rng),
                "n_mat": rng.randint(40, 64),
                "radii": [rng.uniform(0.4 * j, 0.4 * (j + 1)) for j in range(4)],
            }
            jobs.append(Job("bundle", _closed_call(spec), spec))
        return jobs

    def check(self, job: Job, out, outputs) -> float:
        s = job.spec
        lam_phi, lam_psi = s["exp"]
        n_exp, n_poly, n_mat = s["n_exp"], s["n_poly"], s["n_mat"]
        worst = 0.0

        # exponential pair: product sequence, Gaussian fit, region, reconstruction
        k_ref = ref.wick_rate(lam_phi, lam_psi)
        g_tau = ref.geometric(1 - k_ref, n_exp)
        report = out["exp"]
        worst = max(worst, check_gamma(report.gamma_tau.values, g_tau, "exp gamma_tau"))
        if report.obstruction is None:
            raise CheckFailed("no Gaussian fit for a product of exponentials")
        worst = max(worst, check_rate(report.obstruction.theta, k_ref, "fitted rate"))
        check_case(report.obstruction.case.value, k_ref, "obstruction")
        worst = max(worst, check_reconstruction(report.reconstructed_tau, g_tau, k_ref))

        # polynomial pair: product sequence and the diamond homomorphism
        g_pq = [
            a * b for a, b in zip(ref.gamma_polynomial(s["p"], n_poly), ref.gamma_polynomial(s["q"], n_poly))
        ]
        worst = max(worst, check_gamma(out["poly"].gamma_tau.values, g_pq, "poly gamma_tau"))
        worst = max(worst, check_gamma(out["diamond_gamma"], g_pq, "gamma of the diamond product"))

        # Wick triangle against H_1 in closed form
        for name, terms in (("exp", [(1, 0, lam_phi)]), ("poly", poly_terms(s["p"]))):
            for r, routes in zip(s["radii"], out[f"wick_{name}"]):
                h1 = to_complex(ref.heat(terms, 1.0, r))
                worst = max(worst, expect(mixed_error(routes, [h1] * 3), TOL_WICK, f"{name} Wick triangle"))

        # norm of a diagonal truncation is its largest |γ| = max(|β|, |β|^N)
        beta = abs(1 / (1 - ref.to_mpc(lam_phi)))
        peak = float(max(beta, beta**n_exp))
        worst = max(worst, expect(abs(out["norm"] - peak) / max(1.0, peak), TOL_GAMMA, "norm estimate"))

        # prefix spectrum of the polynomial composition
        points = dedupe([to_complex(g) for g in g_pq], TOL_SPECTRUM)
        worst = max(worst, check_gamma(out["spectrum"].points, points, "spectrum prefix"))

        # banded Toeplitz matrices, and T_{P◇Q} = T_P T_Q on the columns whose
        # images stay inside the truncation (degrees are at most 2)
        exact_p, size_p = ref.toeplitz_matrix(s["P"], n_mat)
        exact_q, size_q = ref.toeplitz_matrix(s["Q"], n_mat)
        worst = max(worst, expect(mixed_error(out["T_P"], exact_p, size_p), TOL_GAMMA, "T_P"))
        worst = max(worst, expect(mixed_error(out["T_Q"], exact_q, size_q), TOL_GAMMA, "T_Q"))
        cols = n_mat - 2
        product = (exact_p @ exact_q)[:, :cols]
        error = mixed_error(out["T_PQ"][:, :cols], product, (size_p @ size_q)[:, :cols])
        worst = max(worst, expect(error, TOL_GAMMA, "T_(P<>Q)"))
        return worst


def check_reconstruction(symbol, g_tau, k_ref) -> float:
    """A reconstructed symbol must reproduce the product sequence within the
    reconstruction's tolerance 1e-8 (relative to the largest entry); a
    geometric sequence with Re λ_τ < 1, λ_τ = 1 − 1/β, must be reconstructed."""
    if symbol is None:
        if to_complex(1 - 1 / (1 - k_ref)).real < 1.0:
            raise CheckFailed("geometric product sequence with Re lambda < 1 not reconstructed")
        return 0.0
    parts = symbol.terms if isinstance(symbol, ft.Combination) else ((1, symbol),)
    terms = []
    for w, part in parts:
        if isinstance(part, ft.RadialMonomial):
            terms.append((w, part.m, 0))
        elif isinstance(part, ft.RadialExponential):
            terms.append((w, 0, part.lam))
        else:
            raise CheckFailed(f"reconstruction gave a non-radial term {part!r}")
    got = [to_complex(g) for g in ref.gamma_radial(terms, len(g_tau))]
    want = [to_complex(g) for g in g_tau]
    peak = max(1.0, max(abs(g) for g in want))
    return expect(mixed_error(got, want, [peak] * len(want)), 1e-8, "reconstructed symbol")


def _closed_call(s: dict) -> Callable[[], dict]:
    lam_phi, lam_psi = s["exp"]
    phi, psi = ft.RadialExponential(lam_phi), ft.RadialExponential(lam_psi)
    p, q = radial_symbol(poly_terms(s["p"])), radial_symbol(poly_terms(s["q"]))
    P, Q = ft.BivariatePolynomial(s["P"]), ft.BivariatePolynomial(s["Q"])
    n_exp, n_poly, n_mat, radii = s["n_exp"], s["n_poly"], s["n_mat"], s["radii"]

    def call() -> dict:
        out = {
            "exp": ft.compose_radial(phi, psi, n_entries=n_exp),
            "poly": ft.compose_radial(p, q, n_entries=n_poly),
            "diamond_gamma": ft.gamma_sequence(ft.diamond(p, q), n_poly).values,
        }
        for name, symbol, n in (("exp", phi, n_exp), ("poly", p, n_poly)):
            gamma = ft.gamma_sequence(symbol, n)
            smoothed = ft.heat_transform(symbol, 1.0)
            op = ft.toeplitz_matrix(symbol, n)
            out[f"wick_{name}"] = [
                (
                    ft.wick_from_gamma(gamma, r),
                    ft.evaluate(smoothed, r),
                    ft.wick_symbol_numeric(op, r, r),
                )
                for r in radii
            ]
            if name == "exp":
                out["norm"] = ft.norm_estimate(op)
        out["spectrum"] = ft.spectrum_radial(out["poly"].gamma_tau)
        out["T_P"] = ft.toeplitz_matrix(P, n_mat).entries
        out["T_Q"] = ft.toeplitz_matrix(Q, n_mat).entries
        out["T_PQ"] = ft.toeplitz_matrix(ft.diamond(P, Q), n_mat).entries
        return out

    return call


# ---------------------------------------------------------------------------
# cli-oneshot


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: str
    trace: dict | None = None
    imports: dict | None = None


class CliOneshot:
    """Sequential ``python -m fock_toeplitz.cli`` calls, one interpreter each.

    A round: classify, gamma (closed), compose, wick, heat, diamond, matrix,
    spectrum, verify-paper-example, and the compose call once more with the
    same arguments, whose stdout must be byte-identical; 10 calls.
    """

    name = "cli-oneshot"
    tail_percentile = 75.0
    min_rounds = 4

    def __init__(self, seed: int, src: str, bench: str, traced: bool = False) -> None:
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=src)
        self.bench = bench
        self.traced = traced

    def command(self, argv: list[str]) -> list[str]:
        if self.traced:
            return [sys.executable, "-X", "importtime", os.path.join(self.bench, "child.py"), "cli", *argv]
        return [sys.executable, "-m", "fock_toeplitz.cli", *argv]

    def run(self, argv: list[str]) -> CliResult:
        proc = subprocess.run(self.command(argv), capture_output=True, env=self.env, timeout=150)
        stderr = proc.stderr.decode("utf-8", "replace")
        result = CliResult(proc.returncode, proc.stdout, stderr)
        if self.traced:
            lines = stderr.splitlines()
            traces = [line for line in lines if line.startswith("TRACE ")]
            if traces:
                result.trace = json.loads(traces[-1][len("TRACE "):])
            result.imports, result.stderr = parse_importtime(
                "\n".join(line for line in lines if not line.startswith("TRACE "))
            )
        return result

    def _job(self, kind: str, argv: list[str], **spec) -> Job:
        return Job(kind, lambda: self.run(argv), dict(spec, argv=argv))

    def round(self, k: int) -> list[Job]:
        rng = round_rng(self.seed, k)
        pair_kind = ("circle", "grow", "decay")
        theta = to_complex(ref.wick_rate(*exp_pair(rng, pair_kind[k % 3])))
        gamma_terms = [
            (_unit_complex(rng, 0.5, 2.0), rng.randint(1, 3), 0),
            (_unit_complex(rng, 0.5, 2.0), 0, complex(rng.uniform(-1.0, 0.3), rng.uniform(-0.6, 0.6))),
        ]
        n_gamma = rng.randint(40, 64)
        pair = exp_pair(rng, pair_kind[(k + 1) % 3])
        n_compose = rng.randint(40, 64)
        wick_terms = [(1, 0, complex(rng.uniform(-1.0, 0.3), rng.uniform(-0.6, 0.6)))]
        n_wick, r_max, points = rng.randint(40, 64), rng.uniform(1.0, 1.8), rng.randint(20, 30)
        heat_terms = [
            (_unit_complex(rng, 0.5, 2.0), rng.randint(1, 3), 0),
            (_unit_complex(rng, 0.5, 2.0), 0, complex(rng.uniform(-1.0, 0.4), rng.uniform(-0.6, 0.6))),
        ]
        t = rng.uniform(0.3, 1.5)
        p, q = radial_poly(rng), radial_poly(rng)
        mat = bivariate(rng)
        n_mat = rng.randint(16, 32)
        spec_poly = radial_poly(rng)
        n_spec = rng.randint(24, 48)
        n_example = EXAMPLE_N[k % len(EXAMPLE_N)]

        compose_argv = [
            "compose",
            "--phi", radial_json([(1, 0, pair[0])]),
            "--psi", radial_json([(1, 0, pair[1])]),
            "-N", str(n_compose),
        ]
        diamond_phi = {(m, m): c for m, c in p.items()}
        diamond_psi = {(m, m): c for m, c in q.items()}
        # "--theta=VALUE": after a space, argparse takes a value such as
        # -0.68+0.49i for an option and the call fails (see CHANGES.md).
        return [
            self._job("classify", ["classify", f"--theta={theta.real!r}{theta.imag:+.17g}i"], theta=theta),
            self._job(
                "gamma",
                ["gamma", "--symbol", radial_json(gamma_terms), "-N", str(n_gamma), "--method", "closed"],
                terms=gamma_terms,
                n=n_gamma,
            ),
            self._job("compose", compose_argv, pair=pair, n=n_compose),
            self._job(
                "wick",
                ["wick", "--symbol", radial_json(wick_terms), "-N", str(n_wick),
                 "--r-max", repr(r_max), "--points", str(points)],
                terms=wick_terms,
                r_max=r_max,
                points=points,
            ),
            self._job(
                "heat",
                ["heat", "--symbol", radial_json(heat_terms), "--t", repr(t)],
                terms=heat_terms,
                t=t,
            ),
            self._job(
                "diamond",
                ["diamond", "--phi", poly_json(diamond_phi), "--psi", poly_json(diamond_psi)],
                p=p,
                q=q,
            ),
            self._job(
                "matrix",
                ["matrix", "--symbol", poly_json(mat), "-N", str(n_mat)],
                coeffs=mat,
                n=n_mat,
            ),
            self._job(
                "spectrum",
                ["spectrum", "--symbol", radial_json(poly_terms(spec_poly)), "-N", str(n_spec)],
                coeffs=spec_poly,
                n=n_spec,
            ),
            self._job("example", ["verify-paper-example", "-N", str(n_example)], n=n_example),
            self._job("repeat", compose_argv, pair=pair, n=n_compose, of=2),
        ]

    def check(self, job: Job, out: CliResult, outputs) -> float:
        if out.code != 0:
            raise CheckFailed(f"{job.kind}: exit {out.code}: {out.stderr.strip()[:200]}")
        if out.stderr.strip():
            raise CheckFailed(f"{job.kind}: unexpected stderr {out.stderr.strip()[:200]!r}")
        try:
            payload = json.loads(out.stdout)
        except ValueError as exc:
            raise CheckFailed(f"{job.kind}: stdout is not JSON: {exc}") from exc
        kind = job.kind
        if kind == "repeat":
            first = outputs[job.spec["of"]]
            if not isinstance(first, CliResult) or first.stdout != out.stdout:
                raise CheckFailed("a repeated identical invocation printed other stdout bytes")
            kind = "compose"
        return getattr(self, f"_check_{kind}")(job.spec, payload)

    @staticmethod
    def _entries(payload: dict) -> tuple[np.ndarray, np.ndarray]:
        entries = payload["entries"]
        values = np.array([complex(e["gamma"]["re"], e["gamma"]["im"]) for e in entries])
        return values, np.array([e["abs_err"] for e in entries], dtype=float)

    def _check_classify(self, spec, payload) -> float:
        theta = spec["theta"]
        if complex(payload["theta"]["re"], payload["theta"]["im"]) != theta:
            raise CheckFailed("classify echoed another theta")
        check_case(payload["case"], ref.to_mpc(theta), "classify")
        return 0.0

    def _check_gamma(self, spec, payload) -> float:
        values, _ = self._entries(payload)
        return check_gamma(values, ref.gamma_radial(spec["terms"], spec["n"]), "cli gamma")

    def _check_compose(self, spec, payload) -> float:
        k_ref = ref.wick_rate(*spec["pair"])
        values, _ = self._entries(payload["gamma_tau"])
        worst = check_gamma(values, ref.geometric(1 - k_ref, spec["n"]), "cli compose gamma_tau")
        verdict = payload["obstruction"]
        if verdict is None:
            raise CheckFailed("cli compose: no Gaussian fit for a product of exponentials")
        theta = complex(verdict["theta"]["re"], verdict["theta"]["im"])
        worst = max(worst, check_rate(theta, k_ref, "cli compose rate"))
        check_case(verdict["case"], k_ref, "cli compose obstruction")
        return worst

    def _check_wick(self, spec, payload) -> float:
        radii = np.linspace(0.0, spec["r_max"], spec["points"])
        pts = payload["points"]
        if len(pts) != len(radii) or any(p["r"] != r for p, r in zip(pts, radii)):
            raise CheckFailed("cli wick: radius grid differs from linspace(0, r_max, points)")
        values = [complex(p["re"], p["im"]) for p in pts]
        h1 = [to_complex(ref.heat(spec["terms"], 1.0, r)) for r in radii]
        return expect(mixed_error(values, h1), TOL_WICK, "cli wick")

    def _check_heat(self, spec, payload) -> float:
        worst = 0.0
        for r in (0.3, 0.8, 1.3):
            got = to_complex(eval_symbol_json(payload["result"], r))
            want = to_complex(ref.heat(spec["terms"], spec["t"], r))
            worst = max(worst, expect(mixed_error([got], [want]), TOL_GAMMA, "cli heat"))
        return worst

    def _check_diamond(self, spec, payload) -> float:
        coeffs: dict = {}
        for term in payload["result"]["terms"]:
            if term["j"] != term["k"]:
                raise CheckFailed("cli diamond: radial factors gave a non-radial product")
            coeffs[term["j"]] = coeffs.get(term["j"], 0) + _complex_from_json(term["c"])
        n = 32
        want = [
            a * b
            for a, b in zip(ref.gamma_polynomial(spec["p"], n), ref.gamma_polynomial(spec["q"], n))
        ]
        return check_gamma([to_complex(g) for g in ref.gamma_polynomial(coeffs, n)], want, "cli diamond")

    def _check_matrix(self, spec, payload) -> float:
        n = spec["n"]
        if payload["dim"] != n:
            raise CheckFailed("cli matrix: wrong dimension")
        entries = np.array([complex(re, im) for re, im in payload["entries"]]).reshape(n, n)
        exact, size = ref.toeplitz_matrix(spec["coeffs"], n)
        return expect(mixed_error(entries, exact, size), TOL_GAMMA, "cli matrix")

    def _check_spectrum(self, spec, payload) -> float:
        refs = [to_complex(g) for g in ref.gamma_polynomial(spec["coeffs"], spec["n"])]
        points = [complex(p["re"], p["im"]) for p in payload["points"]]
        return check_gamma(points, dedupe(refs, TOL_SPECTRUM), "cli spectrum")

    def _check_example(self, spec, payload) -> float:
        n = spec["n"]
        if payload["n_entries"] != n:
            raise CheckFailed("cli example: wrong truncation")
        refs = ref.gamma_radial([(1, 0, LAM_EXAMPLE)], n)
        k_ref = ref.wick_rate(LAM_EXAMPLE, LAM_EXAMPLE)
        values, abs_err = self._entries(payload["gamma_quadrature"])
        worst = check_certified(values, abs_err, refs, "cli example quadrature")
        tau, _ = self._entries(payload["composition"]["gamma_tau"])
        worst = max(worst, check_gamma(tau, [r * r for r in refs], "cli example gamma_tau"))
        rate = complex(payload["fit"]["rate"]["re"], payload["fit"]["rate"]["im"])
        worst = max(worst, check_rate(rate, k_ref, "cli example rate"))
        check_case(payload["obstruction"]["case"], k_ref, "cli example obstruction")
        return worst
