import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from qspan.errors import DomainError, SingularPointError
from qspan.special import (
    adaptive_simpson,
    correction_integral,
    erf,
    erf_inv,
    erf_inv_tail_expansion,
    polylog_half_branch,
)

SQRT_PI = math.sqrt(math.pi)


class TestErf:
    def test_odd_and_zero(self):
        assert erf(0.0) == 0.0
        assert erf(0.7) == -erf(-0.7)

    def test_reference_values(self):
        # high-precision anchors (independent series/continued-fraction data)
        assert abs(erf(0.5) - 0.5204998778130465377) < 1e-14
        assert abs(erf(1.0) - 0.8427007929497148693) < 1e-14
        assert abs(erf(2.0) - 0.9953222650189527342) < 1e-14
        assert abs(erf(3.0) - 0.9999779095030014146) < 1e-14

    def test_against_scipy_grid(self):
        xs = np.linspace(-6.5, 6.5, 1301)
        worst = max(abs(erf(float(x)) - scipy.special.erf(x)) for x in xs)
        assert worst < 1e-14

    def test_bounded_monotone(self):
        rng = np.random.default_rng(11)
        xs = np.sort(rng.uniform(-10, 10, 500))
        vals = [erf(float(x)) for x in xs]
        assert all(abs(v) <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestErfInv:
    def test_basics(self):
        assert erf_inv(0.0) == 0.0
        assert abs(erf_inv(erf(1.0)) - 1.0) < 1e-12

    def test_reference_value(self):
        assert abs(erf_inv(0.99) - 1.8213863677184496) < 1e-9

    def test_round_trip_property(self):
        rng = np.random.default_rng(42)
        ys = rng.uniform(-0.999, 0.999, 1000)
        worst = max(abs(erf(erf_inv(float(y))) - y) for y in ys)
        assert worst < 1e-12

    def test_monotone(self):
        ys = np.linspace(-0.995, 0.995, 201)
        vals = [erf_inv(float(y)) for y in ys]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [-1.0, 1.0, 1.5, -2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            erf_inv(bad)


class TestTailExpansion:
    def test_formula(self):
        eps = 0.01
        u = math.log(2.0 / (math.pi * eps * eps))
        expect = math.sqrt((u - math.log(u)) / 2.0)
        assert erf_inv_tail_expansion(eps) == pytest.approx(expect, rel=0, abs=0)

    def test_close_to_exact_at_small_eps(self):
        approx = erf_inv_tail_expansion(0.01)
        exact = erf_inv(0.99)
        assert abs(approx - exact) / exact < 0.005

    def test_moderate_eps_documented_not_asserted(self):
        # at eps = 0.15 the expansion sits a few percent off the exact
        # inverse; only the closed form itself is contractual
        val = erf_inv_tail_expansion(0.15)
        u = math.log(2.0 / (math.pi * 0.15 ** 2))
        assert val == pytest.approx(math.sqrt((u - math.log(u)) / 2.0))

    def test_monotone_in_eps(self):
        vals = [erf_inv_tail_expansion(e)
                for e in (0.2, 0.1, 0.05, 0.01, 0.001)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            erf_inv_tail_expansion(0.49)  # inner log <= 1
        with pytest.raises(DomainError):
            erf_inv_tail_expansion(1.2)


class TestPolylogHalfBranch:
    def test_below_branch(self):
        assert polylog_half_branch(0.5) == 0.0
        assert polylog_half_branch(1.0 - 1e-12) == 0.0

    def test_anchor_points(self):
        assert polylog_half_branch(math.e) == pytest.approx(SQRT_PI, rel=1e-15)
        assert polylog_half_branch(math.e ** 4) == pytest.approx(
            SQRT_PI / 2.0, rel=1e-14)

    def test_nonincreasing_above_one(self):
        xs = np.exp(np.linspace(0.001, 8, 300))
        vals = [polylog_half_branch(float(x)) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_singular_and_domain(self):
        with pytest.raises(SingularPointError):
            polylog_half_branch(1.0)
        with pytest.raises(DomainError):
            polylog_half_branch(-0.3)


class TestCorrectionIntegral:
    def test_alpha2_analytic(self):
        val, err = correction_integral(2)
        assert err < 1e-3
        assert abs(val - 0.5) <= 3 * err

    def test_alpha3_against_nested_quadrature(self):
        def integrand(y2, y1):
            q = y1 * y1 + (y1 - y2) ** 2 + y2 * y2
            return 2.0 * y1 * math.exp(-0.5 * q)

        oracle, oracle_err = scipy.integrate.dblquad(
            integrand, 0, 14, 0, 14, epsabs=1e-11, epsrel=1e-11)
        val, err = correction_integral(3)
        assert abs(val - oracle) <= 3 * (err + oracle_err)

    def test_alpha4_against_nested_quadrature(self):
        def integrand(y3, y2, y1):
            q = y1 * y1 + (y1 - y2) ** 2 + (y2 - y3) ** 2 + y3 * y3
            return 3.0 * y1 * math.exp(-0.5 * q)

        oracle, oracle_err = scipy.integrate.tplquad(
            integrand, 0, 12, 0, 12, 0, 12, epsabs=1e-9, epsrel=1e-9)
        val, err = correction_integral(4)
        assert abs(val - oracle) <= 3 * (err + oracle_err) + 1e-7

    def test_seed_consistency(self):
        a = correction_integral(2, rng_seed=0)
        b = correction_integral(2, rng_seed=99)
        assert abs(a.value - b.value) <= 3 * math.hypot(a.error, b.error) + 1e-15

    def test_alpha3_analytic(self):
        val, err = correction_integral(3)
        assert err < 1e-10
        assert abs(val - SQRT_PI) <= err

    def test_alpha5_converges(self):
        # tensor Gauss-Legendre on [0, 14]^4 at two node counts
        def tensor(n):
            x, w = scipy.special.roots_legendre(n)
            y, w = 7.0 * (x + 1.0), 7.0 * w
            y1, y2, y3, y4 = np.meshgrid(y, y, y, y, indexing="ij",
                                         sparse=True)
            q = y1 ** 2 + (y1 - y2) ** 2 + (y2 - y3) ** 2 \
                + (y3 - y4) ** 2 + y4 ** 2
            vals = 4.0 * y1 * np.exp(-0.5 * q)
            return float(np.einsum("ijkl,i,j,k,l->", vals, w, w, w, w))

        hi, lo = tensor(40), tensor(32)
        val, err = correction_integral(5)
        assert err < 1e-10 * val
        assert abs(val - hi) <= 3 * err + abs(hi - lo)

    @pytest.mark.parametrize("bad", [1, 0, 2.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            correction_integral(bad)


class TestAdaptiveSimpson:
    def test_polynomial(self):
        assert adaptive_simpson(lambda x: x * x, 0, 1) == pytest.approx(
            1 / 3, abs=1e-14)

    def test_jump_with_breakpoint(self):
        val = adaptive_simpson(lambda x: 1.0 if x < 0.5 else 2.0, 0, 1,
                               breakpoints=(0.5,))
        assert val == pytest.approx(1.5, abs=1e-9)

    def test_sqrt_kink_converges(self):
        val = adaptive_simpson(lambda x: math.sqrt(abs(x - 0.3)), 0, 1)
        exact = (0.3 ** 1.5 + 0.7 ** 1.5) / 1.5
        assert val == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_raises_at_first_value(self, value):
        # a NaN error estimate never settles: without the check the rule
        # subdivides every panel to max_depth
        calls = []

        def f(x):
            calls.append(x)
            return value if x > 0.6 else 1.0

        with pytest.raises(DomainError, match="integrand"):
            adaptive_simpson(f, 0.0, 1.0)
        assert len(calls) == 3       # a, the midpoint, b

    @pytest.mark.parametrize("a, b", [(0.0, math.nan), (math.nan, 1.0),
                                      (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_endpoint_raises(self, a, b):
        with pytest.raises(DomainError, match="endpoints"):
            adaptive_simpson(lambda x: 1.0, a, b)
