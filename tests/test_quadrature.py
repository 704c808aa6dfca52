"""Tests for the generalized Gauss–Laguerre rules and γ-sequences.

Reference values are frozen from an independent 50-digit direct
integration of (1/n!) ∫ a(√u) uⁿ e^{−u} du.
"""
from __future__ import annotations

import math
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from fock_toeplitz import (
    BivariatePolynomial,
    Combination,
    DivergenceError,
    DomainError,
    NonFiniteResultError,
    QuadratureRule,
    RadialExponential,
    RadialMonomial,
    build_rule,
    gamma_sequence,
    integrate_weighted,
)
from fock_toeplitz import quadrature
from fock_toeplitz.quadrature import DEFAULT_TOL, MAX_ORDER, _build_rules
from fock_toeplitz.symbols import radial_terms

LAM_EXAMPLE = complex(2.0, 4.0) / 5.0

GAMMA_MILD = {  # λ = 0.25 + 0.25i
    0: 1.2 + 0.4j,
    10: -12.22857719808 - 5.13651245056j,
    40: 12397.516570707636 + 8952.197766580787j,
}
GAMMA_EXAMPLE = {  # λ = (2+4i)/5
    0: 0.6 + 0.8j,
    10: -0.71409248256 - 0.70005137408j,
    40: 0.9492379047050355 + 0.3145590568894717j,
}


# ---------------------------------------------------------------------------
# references: the one-rule builder (scipy-seeded, two Newton passes) and the
# per-n ladder, as they were before rules were built in batches from numpy
# seeds and the ladders of a sequence ran in lockstep

# the 621-rule grid: 9 orders x 69 weight exponents
GRID_ORDERS = [2, 3, 8, 16, 32, 64, 128, 256, 512]
GRID_ALPHAS = [float(a) for a in range(64)] + [0.5, 1.5, 7.25, 100.0, 300.0]


def _reference_rule(order: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and unit weights of one rule, built on its own from
    ``scipy.linalg.eigh_tridiagonal`` seeds refined by two Newton passes."""
    from scipy.linalg import eigh_tridiagonal

    ld = np.longdouble
    k = np.arange(order, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    seed, _ = eigh_tridiagonal(diag, off)

    a = 2.0 * np.arange(order, dtype=ld) + ld(alpha) + 1.0
    kk = np.arange(1, order, dtype=ld)
    b = np.sqrt(kk * (kk + ld(alpha)))

    x = seed.astype(ld)
    for _ in range(2):
        p_prev = np.zeros_like(x)
        p = np.ones_like(x)
        dp_prev = np.zeros_like(x)
        dp = np.zeros_like(x)
        for j in range(order):
            if j == 0:
                p_next = (x - a[0]) * p / b[0]
                dp_next = (p + (x - a[0]) * dp) / b[0]
            elif j < order - 1:
                p_next = ((x - a[j]) * p - b[j - 1] * p_prev) / b[j]
                dp_next = (p + (x - a[j]) * dp - b[j - 1] * dp_prev) / b[j]
            else:
                p_next = (x - a[j]) * p - b[j - 1] * p_prev
                dp_next = p + (x - a[j]) * dp - b[j - 1] * dp_prev
            p_prev, p = p, p_next
            dp_prev, dp = dp, dp_next
        x = x - p / dp

    kernel = np.ones_like(x)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    for j in range(order - 1):
        if j == 0:
            p_next = (x - a[0]) * p / b[0]
        else:
            p_next = ((x - a[j]) * p - b[j - 1] * p_prev) / b[j]
        p_prev, p = p, p_next
        kernel += p * p
    return x, 1.0 / kernel


def _mpmath_rule(order: int, alpha: float, seeds: np.ndarray) -> tuple[list, list]:
    """Nodes and unit weights at 40 digits: one Newton pass from ``seeds``
    (already accurate to longdouble, so the pass doubles their digits), then
    the Christoffel weights, on the same orthonormal recurrence."""
    with mpmath.workdps(40):
        al = mpmath.mpf(alpha)
        a = [2 * k + al + 1 for k in range(order)]
        b = [mpmath.sqrt(k * (k + al)) for k in range(1, order)]
        b_prev, b_next = [0] + b, b + [1]
        nodes, weights = [], []
        for x in (mpmath.mpf(str(v)) for v in seeds):
            p_prev, p, dp_prev, dp = 0, mpmath.mpf(1), 0, 0
            for j in range(order):
                p, p_prev, dp, dp_prev = (
                    ((x - a[j]) * p - b_prev[j] * p_prev) / b_next[j],
                    p,
                    (p + (x - a[j]) * dp - b_prev[j] * dp_prev) / b_next[j],
                    dp,
                )
            x -= p / dp
            p_prev, p, kernel = 0, mpmath.mpf(1), mpmath.mpf(1)
            for j in range(order - 1):
                p, p_prev = ((x - a[j]) * p - b_prev[j] * p_prev) / b_next[j], p
                kernel += p * p
            nodes.append(x)
            weights.append(1 / kernel)
        return nodes, weights


def _reference_ladder(f, alpha: float, tol: float, max_order: int, scale=1):
    """``(value, err, stop)`` of the order-doubling ladder for one ``alpha``,
    summed over the nodes of nonzero weight only, each sum and its gauge
    weighted by ``scale`` before they are rounded to float64 (``f`` then
    returns one row per entry of ``scale``); ``stop`` names the branch that
    ended it."""
    order = 8
    prev = None
    best = None
    while order <= max_order:
        rule = build_rule(order, alpha)
        live = rule.unit_weights > 0
        weights = rule.unit_weights[live].astype(np.clongdouble)
        fx = np.asarray(f(rule.nodes[live]))
        value = complex(np.sum(np.sum(weights * fx, axis=-1) * scale))
        gauge = float(np.sum(np.sum(weights.real * np.abs(fx), axis=-1) * np.abs(scale)))
        floor = quadrature._FLOOR_FACTOR * quadrature._EPS_LD * gauge
        if prev is not None:
            est = abs(value - prev)
            if best is None or est < best[1]:
                best = (value, max(est, floor))
            if est < tol:
                return value, max(est, floor), "tol"
            if est < floor:
                return value, floor, "floor"
        prev = value
        order *= 2
    if best is None:
        return prev, math.inf, "single rung"
    return (*best, "max order, last" if best[0] == prev else "max order, earlier")


def _reference_gamma(symbol, n_entries: int, tol: float, max_order: int):
    """The per-n ladders of γ, summed term by term: each term ``c·u^m e^{λu}``
    in ``v = c_λ·u`` with ``c_λ = 1 − λ`` for a decaying term and ``c_λ = 1``
    for any other, as ``c_λ^{−(n+1)}·E[c·v^m e^{λ'v}]`` with
    ``λ' = (λ + c_λ − 1)/c_λ``, in (complex) longdouble.  A decaying term takes
    its scale and the bound added to ``err`` from ``quadrature._scale``, the
    clongdouble power that gamma_sequence shares with the closed forms, real
    ``c_λ`` included.  A term with Re λ ≥ 0 has ``λ' = λ``: its row is the
    plain one."""
    ld, cld = np.longdouble, np.clongdouble
    rated = []
    for w, m, lam in radial_terms(symbol):
        c = cld(1) - cld(lam) if lam.real < 0 else cld(1)
        rated.append((cld(w), m, (cld(lam) + (c - 1)) / c, (w, lam) if lam.real < 0 else None))

    def profile(v):
        v = v.astype(cld)
        return np.array([w * np.power(v, m) * np.exp(lam * v) for w, m, lam, _d in rated])

    unit = (np.ones(1, dtype=cld), np.zeros(1, dtype=ld))
    out = []
    for n in range(n_entries):
        power = np.array([-(n + 1)], dtype=ld)
        scaled = [quadrature._scale(*decay, power) if decay else unit for *_, decay in rated]
        scale = np.array([s[0] for s, _b in scaled])
        value, err, stop = _reference_ladder(profile, float(n), tol, max_order, scale)
        out.append((value, err + float(sum(b[0] for _s, b in scaled)), stop))
    return out


class TestBuildRule:
    def test_single_node_rule(self):
        for alpha in (0.0, 3.0):
            rule = build_rule(1, alpha)
            np.testing.assert_allclose(np.asarray(rule.nodes, dtype=float), [alpha + 1.0])
            np.testing.assert_allclose(np.asarray(rule.unit_weights, dtype=float), [1.0])
            np.testing.assert_allclose(
                np.asarray(rule.weights, dtype=float), [math.gamma(alpha + 1.0)]
            )

    def test_order_two_rule(self):
        rule = build_rule(2, 0.0)
        np.testing.assert_allclose(
            np.asarray(rule.nodes, dtype=float),
            [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)],
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            np.asarray(rule.unit_weights, dtype=float),
            [(2.0 + math.sqrt(2.0)) / 4.0, (2.0 - math.sqrt(2.0)) / 4.0],
            rtol=1e-14,
        )

    @pytest.mark.parametrize("order,alpha", [(4, 0.0), (8, 1.0), (16, 2.5), (64, 0.0)])
    def test_polynomial_exactness(self, order, alpha):
        rule = build_rule(order, alpha)
        degrees = sorted(set(range(0, 2 * order, max(1, order // 3))) | {2 * order - 1})
        for p in degrees:
            got = rule.integrate(lambda u: u**p)
            expected = math.exp(gammaln(alpha + p + 1.0) - gammaln(alpha + 1.0))
            np.testing.assert_allclose(got.real, expected, rtol=1e-12, err_msg=f"p={p}")
            assert abs(got.imag) <= 1e-12 * expected

    def test_exactness_degree_is_sharp(self):
        rule = build_rule(4, 0.0)
        got = rule.integrate(lambda u: u**8).real
        assert abs(got - math.factorial(8)) > 1e-6 * math.factorial(8)

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            build_rule(0, 0.0)
        with pytest.raises(DomainError):
            build_rule(4, -1.0)

    def test_nodes_increase_and_unit_weights_normalize(self):
        rule = build_rule(48, 1.5)
        nodes = np.asarray(rule.nodes, dtype=float)
        assert np.all(np.diff(nodes) > 0)
        assert np.all(np.asarray(rule.unit_weights, dtype=float) >= 0)
        np.testing.assert_allclose(float(np.sum(rule.unit_weights)), 1.0, rtol=1e-15)

    def test_construction_is_deterministic(self):
        cached = build_rule(32, 7.0)
        build_rule.cache_clear()
        fresh = build_rule(32, 7.0)
        assert fresh is not cached
        assert np.array_equal(cached.nodes, fresh.nodes)
        assert np.array_equal(cached.unit_weights, fresh.unit_weights)

    @pytest.mark.parametrize("order", GRID_ORDERS)
    def test_batched_rules_equal_rules_built_alone(self, order):
        # by value: tobytes() of a longdouble array includes padding bytes
        for alpha, rule in zip(GRID_ALPHAS, _build_rules(order, GRID_ALPHAS)):
            (alone,) = _build_rules(order, [alpha])
            assert rule.order == order and rule.alpha == alpha
            assert np.array_equal(rule.nodes, alone.nodes), (order, alpha)
            assert np.array_equal(rule.unit_weights, alone.unit_weights), (order, alpha)

    @pytest.mark.parametrize("order", GRID_ORDERS)
    def test_rules_agree_with_the_scipy_seeded_reference(self, order):
        # Σ|Δw| and the weighted relative node shift max w·|Δx|/x, both within
        # a few longdouble roundings per recurrence step
        bound = 4 * order * quadrature._EPS_LD
        for alpha, rule in zip(GRID_ALPHAS, _build_rules(order, GRID_ALPHAS)):
            nodes, unit_weights = _reference_rule(order, alpha)
            w = rule.unit_weights
            assert np.sum(np.abs(w - unit_weights)) <= bound, (order, alpha)
            assert np.max(w * np.abs(rule.nodes - nodes) / nodes) <= bound, (order, alpha)

    @pytest.mark.parametrize("order, alpha", [(64, 0.0), (128, 0.0), (128, 40.0), (256, 10.0)])
    def test_rules_and_the_reference_meet_one_bound_against_mpmath(self, order, alpha):
        # both builders sit at least 6x inside the bound, neither ahead on every rule
        rule = build_rule(order, alpha)
        exact_nodes, exact_weights = _mpmath_rule(order, alpha, rule.nodes)
        bound = 4 * order * quadrature._EPS_LD
        for nodes, unit_weights in ((rule.nodes, rule.unit_weights), _reference_rule(order, alpha)):
            with mpmath.workdps(40):
                x = [mpmath.mpf(str(v)) for v in nodes]
                w = [mpmath.mpf(str(v)) for v in unit_weights]
                weight_err = sum(abs(wi - ew) for wi, ew in zip(w, exact_weights))
                node_err = max(
                    wi * abs(xi - ex) / ex for xi, wi, ex in zip(x, w, exact_nodes)
                )
            assert weight_err <= bound and node_err <= bound, (weight_err, node_err)


class TestRuleCache:
    def test_integer_and_float_alpha_share_one_rule(self):
        assert build_rule(32, 7) is build_rule(32, 7.0)
        assert build_rule(32, 7).alpha == 7.0

    def test_cached_arrays_are_read_only(self):
        rule = build_rule(16, 3.0)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.unit_weights[0] = 0.0
        assert build_rule(16, 3.0).nodes[0] > 0.0

    def test_invalid_arguments_are_not_cached(self):
        build_rule.cache_clear()
        with pytest.raises(DomainError):
            build_rule(8, -1.0)
        with pytest.raises(DomainError):
            build_rule(0, 1.0)
        assert build_rule.cache_info().currsize == 0

    def test_one_evaluation_gives_the_plain_sums(self):
        rule = build_rule(64, 5.0)
        calls = []

        def f(u):
            calls.append(u.size)
            return np.exp(LAM_EXAMPLE * u.astype(np.clongdouble))

        value = rule.integrate(f)
        assert calls == [64]
        fx = f(rule.nodes)
        w = rule.unit_weights
        assert value == complex(np.sum(w.astype(np.clongdouble) * fx))

    def test_zero_weight_nodes_never_reach_the_integrand(self):
        ld = np.longdouble
        rule = QuadratureRule(
            order=2,
            alpha=0.0,
            nodes=np.array([1.0, 2.0], dtype=ld),
            unit_weights=np.array([1.0, 0.0], dtype=ld),
        )
        assert rule.integrate(lambda u: 1.0 / (u - 2.0)) == -1.0 + 0.0j

    def test_worked_example_is_bit_identical_cold_and_warm(self):
        symbol = RadialExponential(LAM_EXAMPLE)
        build_rule.cache_clear()
        cold = gamma_sequence(symbol, 41, method="quadrature")
        built = build_rule.cache_info().misses
        warm = gamma_sequence(symbol, 41, method="quadrature")
        # one build per (n, order) rung that the 41 ladders climb
        assert build_rule.cache_info().misses == built == 211
        assert np.array_equal(cold.values, warm.values)
        assert np.array_equal(cold.abs_err, warm.abs_err)

    @pytest.mark.parametrize("a", [0.05, 0.9, 1.25, 3.0, 6.0, 0.3 - 0.9j, 1.2 + 0.7j, 0.05 - 2j])
    def test_a_gaussian_builds_the_rules_of_orders_8_and_16_only(self, a):
        # in the rate-matched variable, rotated for a complex rate, the
        # integrand of a Gaussian e^{−ar²} is a constant
        build_rule.cache_clear()
        gamma_sequence(RadialExponential(-a), 43, method="quadrature")
        assert build_rule.cache_info().misses == 2 * 43

    @pytest.mark.parametrize(
        "terms",
        [
            ((2.0, RadialMonomial(2)), (1j, RadialExponential(-0.6))),
            ((1.0, RadialMonomial(0)), (1.0, RadialExponential(-4.0))),
        ],
    )
    def test_a_decay_beside_a_monomial_builds_the_rules_of_orders_8_and_16_only(self, terms):
        # the decay in its rate-matched row, the monomial in its plain one
        build_rule.cache_clear()
        gamma_sequence(Combination(terms), 43, method="quadrature")
        assert build_rule.cache_info().misses == 2 * 43

    def test_least_recently_used_rule_is_evicted(self):
        size = quadrature._RULE_CACHE_SIZE
        build_rule.cache_clear()
        first = build_rule(1, 0.0)
        second = build_rule(1, 1.0)
        for alpha in range(2, size):
            build_rule(1, alpha)
        assert build_rule.cache_info().currsize == size
        assert build_rule(1, 0.0) is first  # a hit makes it the most recent
        build_rule(1, size)
        info = build_rule.cache_info()
        assert (info.currsize, info.misses, info.hits) == (size, size + 1, 1)
        assert build_rule(1, 0.0) is first
        assert build_rule(1, 1.0) is not second
        assert build_rule.cache_info().misses == size + 2

    def test_a_batch_enters_the_cache_whole(self):
        build_rule.cache_clear()
        profile = lambda u: np.exp(-u)  # noqa: E731
        quadrature._ladder(profile, [0.0, 1.0, 2.0], 1e-30, 16, np.ones((1, 3)))
        info = build_rule.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 6, 6)  # built rules are no hits
        quadrature._ladder(profile, [0.0, 1.0, 2.0], 1e-30, 16, np.ones((1, 3)))
        assert build_rule.cache_info() == info._replace(hits=6)

    def test_threads_sharing_an_evicting_cache_get_the_single_thread_bits(self, monkeypatch):
        # the cache holds fewer rules than the four ladders share, so threads
        # evict each other's rules between their lookups and builds
        symbol = RadialExponential(LAM_EXAMPLE)
        expected = {n: gamma_sequence(symbol, n, method="quadrature") for n in (12, 16, 20, 24)}
        monkeypatch.setattr(quadrature, "_RULE_CACHE_SIZE", 30)
        build_rule.cache_clear()
        results, errors = {}, []

        def run(n):
            try:
                for _ in range(3):
                    results[n] = gamma_sequence(symbol, n, method="quadrature")
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(n,)) for n in expected]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            build_rule.cache_clear()
        assert not errors and not any(t.is_alive() for t in threads)
        for n, g in expected.items():
            assert np.array_equal(results[n].values, g.values), n
            assert np.array_equal(results[n].abs_err, g.abs_err), n

    def test_a_rung_wider_than_the_cache_gets_the_full_cache_bits(self, monkeypatch):
        # 12 rules per rung against room for 4: each rung's rules are returned as
        # built, though most of them are evicted before the rung is summed
        symbol = RadialExponential(LAM_EXAMPLE)
        build_rule.cache_clear()
        expected = gamma_sequence(symbol, 12, method="quadrature")
        monkeypatch.setattr(quadrature, "_RULE_CACHE_SIZE", 4)
        build_rule.cache_clear()
        try:
            g = gamma_sequence(symbol, 12, method="quadrature")
            assert build_rule.cache_info().currsize <= 4
        finally:
            build_rule.cache_clear()
        assert np.array_equal(g.values, expected.values)
        assert np.array_equal(g.abs_err, expected.abs_err)

    def test_profile_is_evaluated_once_per_rung(self, monkeypatch):
        sizes = []
        ladder = quadrature._ladder

        def counting_ladder(f, *args):
            def counting(u):
                sizes.append(u.size)
                return f(u)

            return ladder(counting, *args)

        monkeypatch.setattr(quadrature, "_ladder", counting_ladder)
        symbol = RadialExponential(LAM_EXAMPLE)
        gamma_sequence(symbol, 41, method="quadrature")
        assert 1 < len(sizes) <= 7  # rungs of order 8, 16, …, 512
        assert sizes[0] == 41 * 8  # every entry climbs the first rung

    def test_each_exponential_term_takes_one_scale_per_call(self, monkeypatch):
        calls = []
        scale = quadrature._scale

        def counting_scale(*args):
            calls.append(args[1])
            return scale(*args)

        monkeypatch.setattr(quadrature, "_scale", counting_scale)
        # two decaying terms, whose rows reuse the closed form's scales, and an
        # oscillatory one, whose row takes none
        parts = ((1.0, RadialExponential(-1.2)), (0.5j, RadialExponential(-0.6 + 0.3j)))
        parts += ((0.3, RadialExponential(0.2 + 0.4j)),)
        gamma_sequence(Combination(parts), 41, method="quadrature")
        assert sorted(calls, key=lambda lam: (lam.real, lam.imag)) == [-1.2, -0.6 + 0.3j, 0.2 + 0.4j]

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, fock_toeplitz.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_no_subcommand_loads_scipy(self):
        # one interpreter runs all nine subcommands, rule builds included
        code = """
import contextlib, io, sys
from fock_toeplitz.cli import main
R2 = '{"kind": "radial_monomial", "m": 1}'
EX = '{"kind": "radial_exponential", "lambda": {"re": 0.4, "im": 0.8}}'
P = '{"kind": "poly", "terms": [{"j": 2, "k": 1, "c": 1.0}]}'
calls = [
    ["classify", "--theta", "1.28+0.96i"],
    ["gamma", "--symbol", EX, "-N", "16", "--method", "closed"],
    ["gamma", "--symbol", EX, "-N", "16", "--method", "quadrature"],
    ["compose", "--phi", EX, "--psi", EX, "-N", "40"],
    ["wick", "--symbol", R2, "-N", "48", "--points", "5"],
    ["heat", "--symbol", R2, "--t", "1.0"],
    ["diamond", "--phi", P, "--psi", P],
    ["matrix", "--symbol", P, "-N", "6"],
    ["spectrum", "--symbol", EX, "-N", "12"],
    ["verify-paper-example", "-N", "34"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0] []"


class TestIntegrateWeighted:
    def test_constant(self):
        value, err = integrate_weighted(lambda u: np.ones_like(u), 0.0)
        np.testing.assert_allclose(complex(value).real, 1.0, rtol=1e-13)
        assert err <= 1e-10

    def test_extra_exponential_decay(self):
        # ∫ e^{−u} · e^{−u} du = 1/2
        value, err = integrate_weighted(lambda u: np.exp(-u), 0.0)
        np.testing.assert_allclose(complex(value).real, 0.5, rtol=1e-12)
        assert err <= 1e-10

    def test_raw_normalization(self):
        value, _ = integrate_weighted(lambda u: u**2, 1.5)
        np.testing.assert_allclose(complex(value).real, math.gamma(4.5), rtol=1e-12)

    def test_oscillatory_integrand(self):
        # ∫ e^{iu} e^{−u} du = 1/(1−i)
        value, err = integrate_weighted(lambda u: np.exp(1j * u.astype(np.clongdouble)), 0.0)
        np.testing.assert_allclose(complex(value), 0.5 + 0.5j, rtol=1e-12)
        assert err <= 1e-10

    def test_unreachable_tolerance_is_flagged(self):
        _, err = integrate_weighted(lambda u: np.exp(-u), 0.0, tol=1e-30)
        assert err > 1e-30

    @pytest.mark.parametrize("alpha", [170.0, 170.25, 170.5, 170.6])
    def test_scale_past_the_libm_gamma_range_agrees_with_mpmath(self, alpha):
        # the ladder's tol bounds the unit-normalized integral, so the raw
        # value is held to tol · Γ(α+1)
        for f, rate in ((np.ones_like, 1), (lambda u: np.exp(-u / 4), mpmath.mpf(5) / 4)):
            value, _ = integrate_weighted(f, alpha)
            with mpmath.workdps(40):
                ref = mpmath.gamma(alpha + 1) / rate ** (alpha + 1)
                assert abs(value - ref) <= DEFAULT_TOL * mpmath.gamma(alpha + 1)

    def test_a_sum_past_float64_raises_without_a_warning(self):
        # the longdouble sums hold 1e600; float64 reads inf, as float() does
        def huge(u):
            return np.full(u.shape, np.longdouble(1e300)) * np.longdouble(1e300)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match="alpha = 0.0"):
                integrate_weighted(huge, 0.0)

    @pytest.mark.parametrize("alpha", [170.75, 200.0])
    def test_float64_overflow_raises(self, alpha):
        # Γ(α+1) exceeds float64 from α ≈ 170.62 on; longdouble holds it
        with pytest.raises(NonFiniteResultError, match=f"alpha = {alpha}"):
            integrate_weighted(lambda u: np.ones_like(u), alpha)
        weights = build_rule(16, alpha).weights
        assert np.all(np.isfinite(weights))
        assert float(np.log(np.sum(weights))) == pytest.approx(math.lgamma(alpha + 1), rel=1e-15)


class TestGammaSequence:
    def test_module_constants(self):
        assert DEFAULT_TOL == 1e-12
        assert MAX_ORDER == 512

    def test_constant_symbol(self):
        g = gamma_sequence(RadialMonomial(0), 8)
        np.testing.assert_allclose(g.values, np.ones(8), rtol=1e-14)
        assert g.method == "closed"
        assert g.unreliable == ()

    @pytest.mark.parametrize("method", ["auto", "mystery"])
    def test_only_closed_and_quadrature_are_methods(self, method):
        with pytest.raises(DomainError, match="unknown gamma method"):
            gamma_sequence(RadialMonomial(1), 4, method=method)

    def test_degree_one_monomial_both_methods(self):
        expected = np.arange(1, 13, dtype=float)
        closed = gamma_sequence(RadialMonomial(1), 12, method="closed")
        np.testing.assert_allclose(closed.values, expected, rtol=1e-13)
        quad = gamma_sequence(RadialMonomial(1), 12, method="quadrature")
        np.testing.assert_allclose(quad.values, expected, rtol=1e-12)
        assert quad.method == "quadrature"

    def test_mild_exponential_against_frozen_values(self):
        g = gamma_sequence(RadialExponential(0.25 + 0.25j), 41, method="closed")
        for n, ref in GAMMA_MILD.items():
            np.testing.assert_allclose(g.values[n], ref, rtol=1e-12)

    def test_mild_exponential_quadrature_agrees_with_closed(self):
        closed = gamma_sequence(RadialExponential(0.25 + 0.25j), 41, method="closed")
        quad = gamma_sequence(RadialExponential(0.25 + 0.25j), 41, method="quadrature")
        scale = np.abs(closed.values)
        assert np.max(np.abs(quad.values - closed.values) / scale) <= 1e-10

    def test_example_exponential_against_frozen_values(self):
        g = gamma_sequence(RadialExponential(LAM_EXAMPLE), 41, method="closed")
        for n, ref in GAMMA_EXAMPLE.items():
            np.testing.assert_allclose(g.values[n], ref, rtol=1e-12)

    def test_diagonal_polynomial_symbol(self):
        # z²z̄² has radial profile r⁴, hence γ(n) = (n+1)(n+2)
        g = gamma_sequence(BivariatePolynomial({(2, 2): 1.0}), 10, method="quadrature")
        n = np.arange(10)
        np.testing.assert_allclose(g.values.real, (n + 1.0) * (n + 2.0), rtol=1e-11)

    def test_real_nonnegative_symbol_gives_real_nonnegative_gamma(self):
        s = Combination(((0.5, RadialMonomial(0)), (1.0, RadialMonomial(1))))
        g = gamma_sequence(s, 16)
        assert np.max(np.abs(g.values.imag)) <= 1e-14
        assert np.all(g.values.real >= 0.0)

    def test_error_estimates_are_honest_for_the_example(self):
        closed = gamma_sequence(RadialExponential(LAM_EXAMPLE), 41, method="closed")
        quad = gamma_sequence(RadialExponential(LAM_EXAMPLE), 41, method="quadrature", tol=1e-8)
        dev = np.abs(quad.values - closed.values)
        assert np.max(dev) <= 1e-9
        assert quad.unreliable == ()
        assert np.all(quad.abs_err > 0.0)

    def test_unreachable_tolerance_marks_entries_unreliable(self):
        g = gamma_sequence(RadialExponential(LAM_EXAMPLE), 30, method="quadrature", tol=1e-30)
        assert len(g.unreliable) > 0

    @pytest.mark.parametrize("method", ["quadrature", "closed"])
    def test_overflow_raises_and_names_the_first_entry(self, method):
        # γ(n) = (n+200)!/n! exceeds float64 from n = 0 on
        with pytest.raises(NonFiniteResultError, match=r"overflows float64 at n = 0$"):
            gamma_sequence(RadialMonomial(200), 4, method=method)

    @pytest.mark.parametrize("method", ["quadrature", "closed"])
    def test_overflow_out_of_the_nodes_reach_raises(self, method):
        # γ(1) = 171! overflows, but the nodes of the n = 1 ladder cannot
        # reach the mass near u = 171 that makes it so
        match = r"overflows float64 at n = 1; request at most 1 entries$"
        with pytest.raises(NonFiniteResultError, match=match):
            gamma_sequence(RadialMonomial(170), 2, method=method)

    @pytest.mark.parametrize("method", ["quadrature", "closed"])
    def test_an_underflowed_entry_is_not_claimed_exact(self, method):
        # γ(n) = 4^{−(n+1)} is below float64's normal range from n = 511 on
        # and rounds to 0 from n = 537 on; abs_err bounds that rounding
        g = gamma_sequence(RadialExponential(-3.0), 700, method=method)
        assert g.values[536] != 0 and not g.values[537:].any()
        assert np.all(g.abs_err[511:] >= 2.0**-1074)
        for n in range(537, 700):
            assert Fraction(1, 4 ** (n + 1)) <= Fraction(g.abs_err[n]), n

    @pytest.mark.parametrize("method", ["quadrature", "closed"])
    def test_the_zero_symbol_is_zero_at_the_underflow_floor(self, method):
        g = gamma_sequence(BivariatePolynomial({}), 5, method=method)
        assert not g.values.any()
        assert np.all(g.abs_err == 2.0**-1074)
        assert g.unreliable == ()

    @pytest.mark.parametrize("method", ["quadrature", "closed"])
    @pytest.mark.parametrize("tol", [math.nan, -1e-12, 0.0, math.inf])
    def test_tol_must_be_positive_and_finite(self, method, tol):
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            gamma_sequence(RadialExponential(-1.0), 4, tol=tol, method=method)

    def test_entries_before_an_overflow_are_finite(self):
        g = gamma_sequence(RadialMonomial(170), 1, method="quadrature")
        assert np.isfinite(g.values[0])

    def test_preconditions(self):
        with pytest.raises(DomainError):
            gamma_sequence(BivariatePolynomial({(1, 0): 1.0}), 4)
        with pytest.raises(DivergenceError):
            gamma_sequence(RadialExponential(1.2), 4)
        with pytest.raises(DomainError):
            gamma_sequence(RadialMonomial(0), 0)
        with pytest.raises(DomainError):
            gamma_sequence(RadialMonomial(0), 4, method="magic")

    def test_quadrature_runs_are_deterministic(self):
        a = gamma_sequence(RadialExponential(LAM_EXAMPLE), 12, method="quadrature")
        b = gamma_sequence(RadialExponential(LAM_EXAMPLE), 12, method="quadrature")
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.abs_err, b.abs_err)

    def test_json_shape(self):
        g = gamma_sequence(RadialMonomial(1), 3)
        payload = g.to_json()
        assert payload["method"] == "closed"
        assert [e["n"] for e in payload["entries"]] == [0, 1, 2]
        assert payload["entries"][2]["gamma"]["re"] == pytest.approx(3.0)


def _seeded_combinations(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lam = complex(rng.uniform(-1.4, 0.45), rng.uniform(-0.8, 0.8))
        c1 = complex(rng.normal(), rng.normal())
        m = int(rng.integers(0, 4))
        c2 = complex(rng.normal(), rng.normal())
        yield Combination(((c1, RadialMonomial(m)), (c2, RadialExponential(lam))))


class TestLockstepLadder:
    def test_sequences_are_bit_identical_to_the_per_n_ladder(self):
        example = RadialExponential(LAM_EXAMPLE)
        cases = [(example, 41, tol, 512) for tol in (1e-12, 1e-8, 1e-30)]
        cases += [(example, 41, 1e-12, 64), (example, 41, 1e-12, 8)]
        for symbol in _seeded_combinations(5, 8):
            cases += [(symbol, 45, 1e-12, 512), (symbol, 45, 1e-30, 64)]
        # an oscillation the rungs up to 64 do not resolve: its successive
        # differences do not shrink, so some ladders end on an earlier rung
        cases += [(RadialExponential(3j), 45, 1e-12, 64)]
        # profiles with a decaying term, which is integrated in its rate-matched
        # variable: Gaussians, a signed-zero λ, a sum of two decays, and decays
        # beside a monomial, a constant and a growing rate, each in its plain
        # row; last sums with no decaying term, one row per term
        gaussians = [(a, 41, 1e-12, 512) for a in (0.05, 0.5, 0.9, 1.25, 3.0)]
        gaussians += [(complex(1.2, 0.0), 41, 1e-30, 64)]
        cases += [(RadialExponential(-a), n, tol, top) for a, n, tol, top in gaussians]
        two_decays = Combination(((1.0, RadialExponential(-0.3)), (-0.5, RadialExponential(-2 + 0.7j))))
        cases += [
            (two_decays, 41, 1e-12, 512),
            (Combination(((2.0, RadialMonomial(2)), (1j, RadialExponential(-0.6)))), 41, 1e-12, 512),
            (Combination(((1.0, RadialExponential(-0.3)), (-0.5, RadialExponential(0.2)))), 41, 1e-12, 512),
            (Combination(((1.0, RadialMonomial(0)), (1.0, RadialExponential(-4.0)))), 43, 1e-12, 512),
            (Combination(((1.0, RadialExponential(0.3)), (2.0, RadialExponential(-5.0)))), 43, 1e-12, 512),
            (Combination(((1.0, RadialMonomial(1)), (-0.5, RadialExponential(0.2)))), 41, 1e-12, 512),
            (Combination(((1.0, RadialExponential(0.3 + 0.2j)), (0.5, RadialExponential(0.1 - 0.4j)))), 41, 1e-12, 512),
        ]
        stops = set()
        for symbol, n_entries, tol, max_order in cases:
            ref = _reference_gamma(symbol, n_entries, tol, max_order)
            g = gamma_sequence(symbol, n_entries, tol=tol, method="quadrature", max_order=max_order)
            assert np.array_equal(g.values, [value for value, _, _ in ref])
            assert np.array_equal(g.abs_err, [err for _, err, _ in ref])
            stops.update(stop for _, _, stop in ref)
        # every way out of a ladder was taken
        assert stops == {"tol", "floor", "max order, last", "max order, earlier", "single rung"}
        # the Gaussians' bits, refereed by 40-digit mpmath: abs_err bounds each error
        with mpmath.workdps(40):
            for a, n_entries, tol, max_order in gaussians:
                g = gamma_sequence(
                    RadialExponential(-a), n_entries, tol=tol, method="quadrature", max_order=max_order
                )
                for n, (v, e) in enumerate(zip(g.values, g.abs_err)):
                    ref = (1 + mpmath.mpc(a)) ** -(n + 1)
                    assert abs(mpmath.mpc(v) - ref) <= e + 2.0**-53 * abs(ref), (a, n)

    def test_integrate_weighted_runs_the_same_ladder(self):
        f = lambda u: np.exp(LAM_EXAMPLE * u.astype(np.clongdouble))  # noqa: E731
        for alpha in (0.0, 7.0, 30.0):
            value, err = integrate_weighted(f, alpha)
            ref_value, ref_err, _ = _reference_ladder(f, alpha, DEFAULT_TOL, MAX_ORDER)
            scale = math.gamma(alpha + 1.0)
            assert (value, err) == (ref_value * scale, ref_err * scale)

    def test_zero_weight_nodes_are_padding_the_integrand_never_sees(self):
        # rules whose extreme unit weights underflowed: the ladder sums the
        # live nodes only, and its integrand sees 0.0 in place of the others
        rules = {}
        for order in (8, 16):
            rule = build_rule(order, 3.0)
            weights = rule.unit_weights.copy()
            weights[[0, -1]] = 0.0
            rules[order] = QuadratureRule(order, 3.0, rule.nodes, weights)
        extremes = {float(v) for r in rules.values() for v in r.nodes[[0, -1]]}
        seen = []

        def f(u):
            seen.extend(float(v) for v in u)
            return np.exp(LAM_EXAMPLE * u.astype(np.clongdouble))

        build_rule.cache_clear()
        try:
            for order, rule in rules.items():
                quadrature._RULES[order, 3.0] = rule
            values, errs = quadrature._ladder(f, [3.0], 1e-30, 16, np.ones((1, 1)))
        finally:
            build_rule.cache_clear()
        assert not extremes & set(seen) and 0.0 in seen
        live = [(r.unit_weights > 0, r) for r in rules.values()]
        sums = [
            complex(np.sum(r.unit_weights[m].astype(np.clongdouble) * f(r.nodes[m])))
            for m, r in live
        ]
        assert values[0] == sums[1]
        assert errs[0] >= abs(sums[1] - sums[0])

    def test_invalid_ladder_arguments(self):
        with pytest.raises(DomainError):
            integrate_weighted(lambda u: u, -0.5)
        with pytest.raises(DomainError):
            build_rule(8, math.nan)
        with pytest.raises(DomainError):
            integrate_weighted(np.ones_like, math.inf)
        with pytest.raises(DomainError):
            integrate_weighted(lambda u: u, 1.0, max_order=4)
        with pytest.raises(DomainError):
            gamma_sequence(RadialMonomial(1), 4, method="quadrature", max_order=4)
