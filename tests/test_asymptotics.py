import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special

from qspan.asymptotics import (
    CumulantSeries,
    RankQuery,
    WeightFunction,
    cosine_bump_weight,
    distribution_point,
    eigenvalue_count_above,
    eigenvalue_distribution,
    mandelstam_tamm_bound,
    moment_asymptotic,
    moment_with_correction,
    phi_density,
    pi_universal,
    ramp_weight,
    rank_small_eps,
    rank_timesliced,
    renyi_asymptotic,
    solve_rank_system,
    support_edge,
    truncated_exponential_weight,
    von_neumann_asymptotic,
    weighted_phi_density,
    weighted_rank_system,
    weighted_renyi,
    weighted_von_neumann,
)
from qspan.errors import (
    AccuracyError,
    DomainError,
    NoSolutionError,
    SingularPointError,
)
from qspan.special import erf

CS = CumulantSeries(e=(0.0, 1.0), L=100, d=1)


def pi_moment(alpha: float) -> float:
    """Quadrature of int x^(alpha-1) Pi(x) dx with x = exp(-u^2)."""
    val, _ = scipy.integrate.quad(
        lambda u: pi_universal(math.exp(-u * u)) * 2 * u
        * math.exp(-alpha * u * u), 0, 12, limit=200)
    return val


class TestCumulantSeries:
    def test_invariants(self):
        with pytest.raises(DomainError):
            CumulantSeries(e=(0.0, -1.0), L=10)
        with pytest.raises(DomainError):
            CumulantSeries(e=(1.0,), L=10)
        with pytest.raises(DomainError):
            CumulantSeries(e=(0.0, 1.0), L=0)

    @pytest.mark.parametrize("e", [(0.0, math.nan), (0.0, math.inf),
                                   (math.nan, 1.0), (0.0, 1.0, -math.inf)])
    def test_rejects_non_finite_cumulants(self, e):
        with pytest.raises(DomainError, match="finite"):
            CumulantSeries(e=e, L=10)

    def test_omega(self):
        cs = CumulantSeries(e=(0.0, 2.0 * math.pi), L=9, d=2)
        assert cs.omega == pytest.approx(9.0, rel=1e-14)  # L^{d/2}


class TestMoments:
    def test_alpha_one_is_trace(self):
        for t in (0.1, 1.0, 7.3):
            assert moment_asymptotic(CS, t, 1) == 1.0

    def test_alpha_two_reduction(self):
        t = 2.0
        expect = math.sqrt(math.pi / CS.e2) / t / math.sqrt(100)
        assert moment_asymptotic(CS, t, 2) == pytest.approx(expect, rel=1e-14)

    def test_alpha_three_value(self):
        # e2=1, t=2, L=100, d=1: 3^(-1/2) (2 pi) (1/4) (1/100)
        expect = 2.0 * math.pi / (math.sqrt(3.0) * 400.0)
        assert moment_asymptotic(CS, 2.0, 3) == pytest.approx(expect,
                                                              rel=1e-12)
        assert expect == pytest.approx(0.0090690, rel=1e-4)

    def test_correction_alpha2_coefficient(self):
        cs = CumulantSeries(e=(0.0, 1.3), L=500, d=1)
        t = 0.7
        gap = moment_asymptotic(cs, t, 2) - moment_with_correction(cs, t, 2)
        assert gap == pytest.approx(1.0 / (cs.e2 * t * t * 500), rel=1e-6)

    def test_correction_vanishes_at_large_l(self):
        rel = []
        for L in (100, 10000):
            cs = CumulantSeries(e=(0.0, 1.0), L=L, d=1)
            lead = moment_asymptotic(cs, 1.0, 3)
            rel.append((lead - moment_with_correction(cs, 1.0, 3)) / lead)
        assert rel[1] == pytest.approx(rel[0] / 10.0, rel=1e-6)


class TestEntropies:
    def test_renyi_cancellation(self):
        cs = CumulantSeries(e=(0.0, math.pi), L=100, d=1)
        assert renyi_asymptotic(cs, 1.0, 2.0) == pytest.approx(
            0.5 * math.log(100), rel=1e-14)

    def test_large_alpha_limit(self):
        base = 0.5 * math.log(CS.e2 * 4.0 / (2 * math.pi)) \
            + 0.5 * math.log(100)
        assert renyi_asymptotic(CS, 2.0, 1e7) == pytest.approx(base, abs=1e-5)

    def test_replica_limit(self):
        s_avg = 0.5 * (renyi_asymptotic(CS, 1.5, 1.0001)
                       + renyi_asymptotic(CS, 1.5, 0.9999))
        assert abs(s_avg - von_neumann_asymptotic(CS, 1.5)) < 1e-6

    def test_doubling_t_adds_log2(self):
        assert von_neumann_asymptotic(CS, 2.6) - von_neumann_asymptotic(
            CS, 1.3) == pytest.approx(math.log(2), rel=1e-12)

    def test_vn_arithmetic(self):
        cs = CumulantSeries(e=(0.0, 2.0 * math.pi), L=3, d=1)
        assert von_neumann_asymptotic(cs, 1.0) == pytest.approx(
            0.5 * math.log(3) + 0.5, rel=1e-14)

    def test_alpha_one_rejected(self):
        with pytest.raises(DomainError):
            renyi_asymptotic(CS, 1.0, 1.0)

    def test_volume_additivity(self):
        # entropies shift by exactly (d/2) log(L'/L)
        for d in (1, 2):
            a = CumulantSeries(e=(0.0, 0.7), L=25, d=d)
            b = CumulantSeries(e=(0.0, 0.7), L=100, d=d)
            shift = d / 2 * math.log(4.0)
            assert renyi_asymptotic(b, 1.1, 3.0) - renyi_asymptotic(
                a, 1.1, 3.0) == pytest.approx(shift, rel=1e-12)
            assert von_neumann_asymptotic(b, 1.1) - von_neumann_asymptotic(
                a, 1.1) == pytest.approx(shift, rel=1e-12)
            w = WeightFunction.uniform(1.1)
            assert weighted_renyi(b, w, 2.0) - weighted_renyi(
                a, w, 2.0) == pytest.approx(shift, rel=1e-12)

    def test_correction_direction(self):
        # finite-size entropies lie above the horizontal asymptote
        for alpha in (2, 3, 4):
            plain = renyi_asymptotic(CS, 0.4, alpha)
            corr = renyi_asymptotic(CS, 0.4, alpha, with_correction=True)
            assert corr > plain


class TestDistribution:
    def test_pi_values(self):
        assert pi_universal(math.exp(-1.0)) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-14)
        assert pi_universal(1.5) == 0.0
        with pytest.raises(SingularPointError):
            pi_universal(1.0)
        with pytest.raises(DomainError):
            pi_universal(0.0)

    def test_pi_normalization(self):
        assert pi_moment(1.0) == pytest.approx(1.0, abs=1e-8)

    def test_pi_moments(self):
        for alpha in range(2, 7):
            assert pi_moment(alpha) == pytest.approx(alpha ** -0.5, abs=1e-8)

    def test_support_and_zero_above_edge(self):
        t = 2.0
        edge = support_edge(CS, t)
        assert eigenvalue_distribution(CS, t, edge * 1.0001) == 0.0
        with pytest.raises(SingularPointError):
            eigenvalue_distribution(CS, t, edge)

    def test_unit_log_point(self):
        t = 2.0
        lam = math.exp(-0.5) * support_edge(CS, t)
        expect = (10 * t / (math.pi * lam)) * math.sqrt(CS.e2)
        assert eigenvalue_distribution(CS, t, lam) == pytest.approx(
            expect, rel=1e-12)

    def test_density_moments_match_asymptotics(self):
        # int lambda^a P(lambda) dlambda = m_a (a >= 1); checked by direct
        # quadrature of P against the closed-form moments
        t = 2.0
        edge = support_edge(CS, t)
        for a in (1, 2, 3, 4):
            val, err = scipy.integrate.quad(
                lambda lam, a=a: lam ** a * eigenvalue_distribution(CS, t, lam),
                0, edge * (1 - 1e-13), limit=400, points=[0.5 * edge])
            assert val == pytest.approx(moment_asymptotic(CS, t, a),
                                        rel=1e-6)

    def test_phi_moment_consistency(self):
        # int lambda^(a-1) Phi dlambda = m_a within 1e-6 relative
        t = 1.7
        omt = CS.omega * t
        for a in range(2, 7):
            val, _ = scipy.integrate.quad(
                lambda u, a=a: phi_density(CS, t, math.exp(-u * u) / omt)
                * (math.exp(-u * u) / omt) ** (a - 1)
                * 2 * u * math.exp(-u * u) / omt,
                0, 12, limit=200)
            assert val == pytest.approx(moment_asymptotic(CS, t, a), rel=1e-6)

    def test_count_above(self):
        t = 1.0
        lam = 0.3 * support_edge(CS, t)
        x = CS.omega * t * lam
        expect = 2 * CS.omega * t / math.sqrt(math.pi) \
            * math.sqrt(-math.log(x))
        assert eigenvalue_count_above(CS, t, lam) == pytest.approx(expect)
        assert eigenvalue_count_above(CS, t, support_edge(CS, t) * 2) == 0.0

    def test_distribution_point_invariants(self):
        lam = 0.2 * support_edge(CS, 1.0)
        pt = distribution_point(CS, lam, t=1.0)
        assert pt.scaled_p == CS.omega * lam
        w = ramp_weight(1.0)
        lam_hi = 1.1 * w.sup / CS.omega
        assert distribution_point(CS, lam_hi, w=w).phi_density == 0.0


class TestRankSystem:
    def test_near_total_truncation(self):
        sol = solve_rank_system(CS, RankQuery(epsilon=1 - 1e-12, t=1.0))
        assert sol.D == pytest.approx(0.0, abs=1e-9)
        assert sol.x_eps == pytest.approx(1.0, abs=1e-9)

    def test_x_eps_anchor(self):
        eps = 1.0 - erf(1.0)
        assert eps == pytest.approx(0.157299, abs=1e-6)
        sol = solve_rank_system(CS, RankQuery(epsilon=eps, t=1.0))
        assert sol.x_eps == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_linear_in_t(self):
        a = solve_rank_system(CS, RankQuery(0.2, 1.0))
        b = solve_rank_system(CS, RankQuery(0.2, 2.0))
        assert b.D == pytest.approx(2 * a.D, rel=1e-14)
        assert b.x_eps == a.x_eps
        assert b.lambda_eps == pytest.approx(a.lambda_eps / 2, rel=1e-14)

    def test_d_value(self):
        sol = solve_rank_system(CS, RankQuery(0.15, 1.0))
        assert sol.D == pytest.approx(4.582, abs=2e-3)

    def test_small_eps_agreement(self):
        for eps in (0.005, 0.01, 0.02):
            exact = solve_rank_system(CS, RankQuery(eps, 1.0)).D
            approx = rank_small_eps(CS, 1.0, eps)
            assert abs(approx - exact) / exact < 0.01

    def test_small_eps_monotone(self):
        vals = [rank_small_eps(CS, 1.0, e) for e in (0.2, 0.1, 0.05, 0.01)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_timesliced_reduction(self):
        assert rank_timesliced(CS, 1.0, 1.0, 0.15) == pytest.approx(
            solve_rank_system(CS, RankQuery(0.15, 1.0)).D, rel=1e-14)

    def test_timesliced_dominates(self):
        full = solve_rank_system(CS, RankQuery(0.15, 1.0)).D
        assert rank_timesliced(CS, 1.0, 0.25, 0.15) >= full

    def test_timesliced_effective_eps(self):
        from qspan.special import erf_inv
        val = rank_timesliced(CS, 1.0, 0.01, 0.15)
        expect = math.sqrt(2.0) / math.pi * erf_inv(1 - 0.015) * 10.0
        assert val == pytest.approx(expect, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            RankQuery(epsilon=0.0, t=1.0)
        with pytest.raises(DomainError):
            rank_timesliced(CS, 1.0, 2.0, 0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_window(self, t):
        with pytest.raises(DomainError, match="positive and finite"):
            RankQuery(epsilon=0.1, t=t)


class TestMandelstamTamm:
    def test_unit_case(self):
        cs = CumulantSeries(e=(0.0, math.pi ** 2 / 4.0), L=1, d=1)
        assert mandelstam_tamm_bound(cs) == pytest.approx(1.0, rel=1e-14)

    def test_scaling(self):
        a = mandelstam_tamm_bound(CumulantSeries(e=(0, 1.0), L=4, d=2))
        b = mandelstam_tamm_bound(CumulantSeries(e=(0, 1.0), L=16, d=2))
        assert a / b == pytest.approx(4.0, rel=1e-12)

    def test_value(self):
        assert mandelstam_tamm_bound(CS) == pytest.approx(math.pi / 20.0,
                                                          rel=1e-14)


class TestWeighted:
    def test_uniform_reduction_renyi(self):
        w = WeightFunction.uniform(3.0)
        for alpha in (0.5, 2.0, 3.0, 4.0):
            assert abs(weighted_renyi(CS, w, alpha)
                       - renyi_asymptotic(CS, 3.0, alpha)) < 1e-10

    def test_uniform_reduction_vn(self):
        w = WeightFunction.uniform(3.0)
        assert abs(weighted_von_neumann(CS, w)
                   - von_neumann_asymptotic(CS, 3.0)) < 1e-10

    def test_uniform_reduction_phi(self):
        w = WeightFunction.uniform(2.0)
        lam = 0.3 * support_edge(CS, 2.0)
        assert weighted_phi_density(CS, w, lam) == pytest.approx(
            phi_density(CS, 2.0, lam), rel=1e-8)

    def test_half_window_shift(self):
        t = 3.0
        half = WeightFunction.from_callable(
            t, lambda tau: 2.0 / t if tau < t / 2 else 0.0,
            breakpoints=(t / 2,))
        for alpha in (2.0, 3.0):
            shift = weighted_renyi(CS, half, alpha) - weighted_renyi(
                CS, WeightFunction.uniform(t), alpha)
            assert shift == pytest.approx(-math.log(2), abs=1e-9)
        assert weighted_von_neumann(CS, half) - weighted_von_neumann(
            CS, WeightFunction.uniform(t)) == pytest.approx(-math.log(2),
                                                            abs=1e-9)

    def test_uniform_maximizes_vn(self):
        t = 2.0
        uniform = weighted_von_neumann(CS, WeightFunction.uniform(t))
        for w in (ramp_weight(t), cosine_bump_weight(t),
                  truncated_exponential_weight(t)):
            assert weighted_von_neumann(CS, w) < uniform

    def test_replica_continuity_weighted(self):
        w = ramp_weight(2.0)
        s_avg = 0.5 * (weighted_renyi(CS, w, 1.0001)
                       + weighted_renyi(CS, w, 0.9999))
        assert abs(s_avg - weighted_von_neumann(CS, w)) < 1e-6

    def test_weighted_phi_normalized(self):
        for w in (ramp_weight(2.0), cosine_bump_weight(2.0)):
            lam_max = w.sup / CS.omega
            val, _ = scipy.integrate.quad(
                lambda lam: weighted_phi_density(CS, w, lam),
                0, lam_max, limit=400, points=[0.5 * lam_max])
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_rank_system_uniform_reduction(self):
        t = 3.0
        w = WeightFunction.uniform(t)
        sol_w = weighted_rank_system(CS, w, 0.15)
        sol = solve_rank_system(CS, RankQuery(0.15, t))
        assert sol_w.p_eps * t == pytest.approx(sol.x_eps, rel=1e-8)
        assert sol_w.D == pytest.approx(sol.D, rel=1e-8)

    def test_rank_system_uniform_below_unit_omega_t(self):
        # Omega t = 0.8 < 1: the weighted law caps eigenvalues at 1 and
        # drops sqrt(log(1/(Omega t))) from every retained level
        t, eps = 0.2, 0.1
        sol_w = weighted_rank_system(CS, WeightFunction.uniform(t), eps)
        sol = solve_rank_system(CS, RankQuery(eps, t))
        cap = math.sqrt(math.log(1.0 / (CS.omega * t)))
        u = scipy.special.erfinv(1.0 - eps)
        assert sol_w.D == pytest.approx(
            2.0 * CS.omega * t / math.sqrt(math.pi) * (u - cap), rel=1e-9)
        assert sol_w.D == pytest.approx(0.619, abs=1e-3)
        assert sol.D == pytest.approx(1.047, abs=1e-3)
        # Omega t = 8 >= 1: the two rank systems agree
        sol_w = weighted_rank_system(CS, WeightFunction.uniform(2.0), eps)
        sol = solve_rank_system(CS, RankQuery(eps, 2.0))
        assert sol_w.D == pytest.approx(sol.D, rel=1e-9)

    def test_rank_monotone_in_eps(self):
        for w in (ramp_weight(2.0), cosine_bump_weight(2.0),
                  truncated_exponential_weight(2.0)):
            dims = [weighted_rank_system(CS, w, e).D
                    for e in (0.05, 0.15, 0.4, 0.8)]
            assert all(b <= a + 1e-9 for a, b in zip(dims, dims[1:]))

    def test_rank_vanishes_at_eps_one(self):
        d = weighted_rank_system(CS, ramp_weight(1.0), 0.999).D
        assert d < 0.2

    def test_rank_rejects_bad_eps(self):
        with pytest.raises(NoSolutionError):
            weighted_rank_system(CS, ramp_weight(1.0), 1.0)

    def test_weight_construction_invariants(self):
        with pytest.raises(DomainError):
            WeightFunction.from_callable(1.0, lambda tau: 2.0)  # not normalized
        w = WeightFunction.from_table([0.0, 0.5, 1.0], [1.0, 2.0, 1.0])
        assert w.kind == "tabulated"
        assert w.breakpoints == (0.5,)
        assert w.sup == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("make", [
        lambda: WeightFunction.uniform(math.nan),
        lambda: WeightFunction.uniform(math.inf),
        lambda: WeightFunction.uniform(0.0),
        lambda: WeightFunction.from_callable(math.inf, lambda tau: 0.0),
    ], ids=["uniform-nan", "uniform-inf", "uniform-zero", "callable-inf"])
    def test_weight_rejects_bad_window(self, make):
        with pytest.raises(DomainError, match="positive and finite"):
            make()

    @pytest.mark.parametrize("make, match", [
        (lambda: WeightFunction.from_table([0.0, 1.0], [1.0, math.nan]),
         "finite and nonnegative"),
        (lambda: WeightFunction.from_table([0.0, 1.0], [1.0, math.inf],
                                           normalize=False),
         "finite and nonnegative"),
        (lambda: WeightFunction.from_table([0.0, math.nan, 1.0],
                                           [1.0, 1.0, 1.0]),
         "increase strictly"),
        (lambda: WeightFunction.from_callable(1.0, lambda tau: math.nan),
         "integrand is nan"),
    ], ids=["table-nan", "table-inf", "table-nan-time", "callable-nan"])
    def test_weight_rejects_non_finite_density(self, make, match):
        with pytest.raises(DomainError, match=match):
            make()


# Independent oracles for the weighted closed forms: each weight comes with
# its level crossings in closed form, QUADPACK integrates between them and
# brentq finds p_eps.

def _ramp(t):
    return ramp_weight(t), lambda p: [p * t * t / 2.0]


def _cosine(t):
    def crossings(p):
        if p * t >= 2.0:
            return []
        a = t / (2.0 * math.pi) * math.acos(1.0 - p * t)
        return [a, t - a]
    return cosine_bump_weight(t), crossings


def _exponential(t, rate=2.0):
    norm = 1.0 - math.exp(-rate * t)
    return (truncated_exponential_weight(t, rate),
            lambda p: [-math.log(p * norm / rate) / rate])


def _half(t):
    w = WeightFunction.from_callable(
        t, lambda tau: 2.0 / t if tau < t / 2 else 0.0, breakpoints=(t / 2,))
    return w, lambda p: []


KINK_TIMES = (0.0, 0.1, 0.35, 0.5, 0.8, 1.0)
KINK_VALUES = (1.0, 2.0, 0.5, 1.5, 1.2, 0.3)


def _kinked(t):
    times = np.array(KINK_TIMES) * t
    values = np.array(KINK_VALUES) / np.trapezoid(KINK_VALUES, times)

    def crossings(p):
        out = []
        for a, b, fa, fb in zip(times, times[1:], values, values[1:]):
            if (fa - p) * (fb - p) < 0:
                out.append(a + (p - fa) * (b - a) / (fb - fa))
        return out
    return WeightFunction.from_table(times, KINK_VALUES), crossings


def _quad(f, w, points):
    points = sorted(x for x in set(points) | set(w.breakpoints)
                    if 0.0 < x < w.t)
    val, _ = scipy.integrate.quad(f, 0.0, w.t, points=points or None,
                                  epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def rank_oracle(w, crossings, eps, omega):
    def discarded(p):
        def f(tau):
            v = w.density(tau)
            return v * scipy.special.erfc(math.sqrt(math.log(v / p))) \
                if v > p else v
        return _quad(f, w, crossings(p))

    p_eps = scipy.optimize.brentq(lambda p: discarded(p) - eps, eps / w.t,
                                  w.sup, xtol=1e-300, rtol=1e-15)

    def g(tau):
        v = w.density(tau)
        if min(v, omega) <= p_eps:
            return 0.0
        out = math.sqrt(math.log(v / p_eps))
        return out - math.sqrt(math.log(v / omega)) if v > omega else out

    dim = 2.0 * omega / math.sqrt(math.pi) * _quad(
        g, w, crossings(p_eps) + crossings(omega))
    return p_eps, dim


class TestWeightedOracle:
    @pytest.mark.parametrize("make", [_ramp, _cosine, _exponential, _half,
                                      _kinked])
    @pytest.mark.parametrize("eps", [0.01, 0.15, 0.8])
    def test_rank_system_against_quadpack(self, make, eps):
        w, crossings = make(2.0)
        p_ref, d_ref = rank_oracle(w, crossings, eps, CS.omega)
        sol = weighted_rank_system(CS, w, eps)
        assert sol.p_eps == pytest.approx(p_ref, rel=1e-12)
        assert sol.D == pytest.approx(d_ref, rel=1e-11, abs=1e-300)

    def test_rank_system_uniform_near_total_truncation(self):
        # p_eps sits within 1e-6 of w: D resolves log(w/p_eps) below the
        # spacing of doubles near p_eps
        t = 3.0
        sol = weighted_rank_system(CS, WeightFunction.uniform(t), 0.999)
        ref = solve_rank_system(CS, RankQuery(0.999, t))
        assert sol.p_eps * t == pytest.approx(ref.x_eps, rel=1e-10)
        assert sol.D == pytest.approx(ref.D, rel=1e-10)

    def test_rank_system_uniform_close_to_flat_top(self):
        # p_eps sits about 4700 ulp below w: the one Newton step still
        # resolves log(w/p_eps)
        t = 3.0
        sol = weighted_rank_system(CS, WeightFunction.uniform(t), 1 - 1e-6)
        ref = solve_rank_system(CS, RankQuery(1 - 1e-6, t))
        assert sol.D == pytest.approx(ref.D, rel=1e-9)

    @pytest.mark.parametrize("eps", [1 - 1e-7, 1 - 1e-8])
    def test_rank_system_flat_top_unresolved_raises(self, eps):
        # p_eps within tens of ulp of (1e-7) or rounded onto (1e-8) sup w:
        # D came out 2.6 % low or 0 without an error
        with pytest.raises(AccuracyError) as info:
            weighted_rank_system(CS, WeightFunction.uniform(3.0), eps)
        assert info.value.achieved > 1e-6

    def test_panel_error_names_both_causes(self):
        # a smooth weight whose level p_eps lies within rounding of its
        # maximum: the message must not blame a kink alone
        with pytest.raises(AccuracyError) as info:
            weighted_rank_system(CS, cosine_bump_weight(3.0), 1 - 1e-12)
        msg = str(info.value)
        assert "against scale" in msg
        assert "kink" in msg and "rounding of a density maximum" in msg

    @pytest.mark.parametrize("make", [_ramp, _cosine, _exponential, _kinked])
    def test_rank_system_sloped_weight_near_total_truncation(self, make):
        w, _ = make(2.0)
        dims = [weighted_rank_system(CS, w, 1 - 10.0 ** -k).D
                for k in (6, 8, 10, 12)]
        assert all(d > 0.0 and math.isfinite(d) for d in dims)
        assert all(b < a for a, b in zip(dims, dims[1:]))

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9, 0.999])
    def test_phi_density_on_kinked_table(self, frac):
        # on a linear piece w = a + b tau, int dtau theta(w - p)
        # / sqrt(pi log(w/p)) = (p/|b|) [erfi(x)] between the piece's ends,
        # x = sqrt(log(max(w, p)/p)): exact, no quadrature
        t = 2.0
        w, _ = _kinked(t)
        times = np.array(KINK_TIMES) * t
        values = np.array([w.density(float(x)) for x in times])
        p = frac * w.sup

        def x(v):
            return math.sqrt(math.log(max(v, p) / p))

        exact = sum(p / abs((fb - fa) / (b - a))
                    * abs(scipy.special.erfi(x(fb))
                          - scipy.special.erfi(x(fa)))
                    for a, b, fa, fb in zip(times, times[1:], values,
                                            values[1:]))
        got = weighted_phi_density(CS, w, p / CS.omega)
        assert got == pytest.approx(CS.omega * exact, rel=1e-10)
