import math
import threading
import time
import warnings

import numpy as np
import pytest
from scipy import integrate

from qspan import ed, overlap
from qspan.asymptotics import CumulantSeries, moment_asymptotic, moment_with_correction
from qspan.errors import AccuracyError, DomainError
from qspan.overlap import (
    BranchCrossingWarning,
    DynamicalFreeEnergy,
    GapClosingWarning,
    IsingQuench,
    ising_dispersion,
    ising_f,
    moments_quadrature,
    renyi_quadrature,
    second_cumulant_from_f,
)
from qspan.special import _gauss_legendre, erf

STRONG = IsingQuench(h_i=math.inf, h_f=1.5, J=1.0, k_grid=4096)


def closed_form_m2(e2: float, t: float, L: int) -> float:
    """Exact alpha = 2 moment for purely Gaussian decay f = e2 t^2 / 2."""
    a = L * e2
    return math.sqrt(math.pi) * erf(math.sqrt(a) * t) / (t * math.sqrt(a)) \
        - (1.0 - math.exp(-a * t * t)) / (a * t * t)


class TestDispersion:
    def test_energy_at_zero_field(self):
        q = IsingQuench(h_i=2.0, h_f=0.0, J=0.7)
        eps, _ = ising_dispersion(q, math.pi / 2)
        assert eps == pytest.approx(2 * 0.7, rel=1e-14)

    def test_no_quench_angle(self):
        q = IsingQuench(h_i=0.8, h_f=0.8)
        ks = np.linspace(0, math.pi, 64)
        _, cd = ising_dispersion(q, ks)
        assert np.allclose(cd, 1.0, atol=1e-12)

    def test_angle_bounded(self):
        rng = np.random.default_rng(5)
        h_i = rng.uniform(-3, 3, 10000)
        h_f = rng.uniform(-3, 3, 10000)
        k = rng.uniform(0, math.pi, 10000)
        for hi, hf, kk in zip(h_i[:200], h_f[:200], k[:200]):
            q = IsingQuench(h_i=float(hi), h_f=float(hf))
            _, cd = ising_dispersion(q, float(kk))
            assert abs(cd) <= 1.0 + 1e-12
        # bulk check, vectorized over k for a handful of quenches
        for hi, hf in zip(h_i[:50], h_f[:50]):
            q = IsingQuench(h_i=float(hi), h_f=float(hf))
            _, cd = ising_dispersion(q, k)
            assert np.all(np.abs(cd) <= 1.0 + 1e-12)

    def test_infinite_field_limit(self):
        q_inf = IsingQuench(h_i=math.inf, h_f=1.5)
        q_big = IsingQuench(h_i=1e8, h_f=1.5)
        ks = np.linspace(0, math.pi, 33)
        _, cd_inf = ising_dispersion(q_inf, ks)
        _, cd_big = ising_dispersion(q_big, ks)
        assert np.allclose(cd_inf, cd_big, atol=1e-6)

    def test_minus_infinite_initial_field(self):
        ks = np.linspace(0, math.pi, 33)
        _, cd_plus = ising_dispersion(IsingQuench(h_i=math.inf, h_f=1.5), ks)
        _, cd_minus = ising_dispersion(IsingQuench(h_i=-math.inf, h_f=1.5),
                                       ks)
        _, cd_far = ising_dispersion(IsingQuench(h_i=-1e8, h_f=1.5), ks)
        assert np.array_equal(cd_minus, -cd_plus)
        assert np.max(np.abs(cd_minus - cd_far)) <= 1e-8

    def test_gap_closing_flagged(self):
        q = IsingQuench(h_i=math.inf, h_f=1.0)
        with pytest.warns(GapClosingWarning):
            ising_dispersion(q, 0.0)

    def test_invariants(self):
        with pytest.raises(DomainError):
            IsingQuench(h_i=1.0, h_f=2.0, J=-1.0)
        with pytest.raises(DomainError):
            IsingQuench(h_i=1.0, h_f=2.0, k_grid=32)


class TestIsingF:
    def test_zero_time(self):
        assert ising_f(STRONG, 0.0) == 0.0

    def test_no_quench_is_zero(self):
        q = IsingQuench(h_i=0.8, h_f=0.8)
        for t in (0.3, 1.0, 2.7):
            assert abs(ising_f(q, t)) < 1e-14

    def test_real_part_nonnegative(self):
        ts = np.linspace(0.0, 2.0, 41)
        vals = np.array([ising_f(STRONG, float(t)) for t in ts])
        assert np.all(vals.real >= -1e-12)

    def test_k_grid_convergence(self):
        q2 = IsingQuench(h_i=math.inf, h_f=1.5, k_grid=8192)
        for t in (0.25, 0.5, 1.0):
            assert abs(ising_f(STRONG, t) - ising_f(q2, t)) < 1e-9

    def test_branch_crossing_warning_across_critical(self):
        # quench across the critical point has dynamical transitions
        q = IsingQuench(h_i=0.5, h_f=2.0, k_grid=512)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            for t in np.linspace(0.1, 4.0, 60):
                ising_f(q, float(t))
        assert any(issubclass(w.category, BranchCrossingWarning) for w in rec)


class TestDynamicalFreeEnergy:
    def test_continuous_across_dynamical_transition(self):
        # h 0.5 -> 2.0 crosses the critical point, so some modes' log
        # arguments wind around the origin; on the principal branch f stepped
        # by 8e-3 here against a median step of 1.6e-5
        q = IsingQuench(h_i=0.5, h_f=2.0, k_grid=512)
        ts = np.linspace(0.0, 0.6, 20_001)
        f = DynamicalFreeEnergy.from_ising(q)(ts)
        steps = np.abs(np.diff(f))
        assert steps.max() <= 10.0 * np.median(steps)
        # Re f = -int dk/2pi log|z_k| does not depend on the branch
        k = np.linspace(0.0, math.pi, 513)
        w = np.full(513, 2.0)
        w[1::2] = 4.0
        w[[0, -1]] = 1.0
        w *= math.pi / 512 / 3.0
        eps, cos_delta = ising_dispersion(q, k)
        c = 0.5 * (1.0 + cos_delta)
        for i in range(0, ts.size, 1000):
            z = c + (1.0 - c) * np.exp(2j * np.outer(ts[i:i + 1000], eps))
            re_f = -(np.log(np.abs(z)) @ w) / (2.0 * math.pi)
            assert np.max(np.abs(f[i:i + 1000].real - re_f)) <= 1e-15

    def test_cumulant_polynomial(self):
        f = DynamicalFreeEnergy.from_cumulants([0.5, 2.0, 0.3])
        t = 0.7
        expect = -(1j * 0.5 * t + (1j) ** 2 * 2.0 * t ** 2 / 2
                   + (1j) ** 3 * 0.3 * t ** 3 / 6)
        assert f(t) == pytest.approx(expect, rel=1e-14)

    def test_symmetry_and_zero(self):
        f = DynamicalFreeEnergy.from_ising(STRONG)
        assert f(0.0) == 0.0
        for t in (0.3, 1.1):
            assert f(-t) == pytest.approx(np.conj(f(t)), rel=1e-14)

    def test_tabulated_round_trip(self):
        base = DynamicalFreeEnergy.from_cumulants([0.1, 1.0, 0.0, 0.2])
        ts = np.linspace(0, 2, 401)
        tab = DynamicalFreeEnergy.from_table(ts, base(ts))
        probe = np.linspace(0.05, 1.95, 37)
        assert np.allclose(tab(probe), base(probe), atol=1e-10)
        assert np.allclose(tab(-probe), np.conj(base(probe)), atol=1e-10)
        for t in (2.5, -2.5):
            with pytest.raises(DomainError):
                tab(t)

    def test_table_requires_origin(self):
        with pytest.raises(DomainError):
            DynamicalFreeEnergy.from_table([0.1, 0.2], [0.0, 0.1])

    def test_table_cache_reused(self):
        f = DynamicalFreeEnergy.from_cumulants([0.0, 1.0])
        s1 = f.table(1.0)
        s2 = f.table(0.5)   # covered by the wider table
        assert s1 is s2

    def test_table_built_once_under_concurrent_callers(self):
        base = DynamicalFreeEnergy.from_cumulants([0.0, 1.0])
        builds = []
        start = threading.Barrier(2, timeout=10)

        def slow_eval(ts):
            builds.append(len(ts))
            time.sleep(0.2)   # hold the build open while the other caller asks
            return base(ts)

        f = DynamicalFreeEnergy("tabulated", slow_eval, {})
        got = [None, None]

        def request(i):
            start.wait()
            got[i] = f.table(1.0)

        workers = [threading.Thread(target=request, args=(i,))
                   for i in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
        assert len(builds) == 1
        assert got[0] is got[1] is not None


class TestSecondCumulant:
    def test_polynomial_exact(self):
        f = DynamicalFreeEnergy.from_cumulants([0.0, 1.7])
        assert second_cumulant_from_f(f) == pytest.approx(1.7, abs=1e-8)

    def test_with_higher_cumulants(self):
        f = DynamicalFreeEnergy.from_cumulants([0.0, 0.7, 0.0, 0.1])
        assert second_cumulant_from_f(f) == pytest.approx(0.7, abs=1e-8)

    def test_strong_quench_mode_sum_oracle(self, strong_quench_f):
        # independent route: per-mode variance of the two-level phase
        # distribution, e2 = int dk/2pi eps_k^2 sin^2(Delta_k)
        n = 4096
        ks = np.linspace(0, math.pi, n + 1)
        w = np.full(n + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= math.pi / n / 3.0
        eps, cd = ising_dispersion(STRONG, ks)
        oracle = float(np.sum(w * eps ** 2 * (1 - cd ** 2)) / (2 * math.pi))
        assert second_cumulant_from_f(strong_quench_f) == pytest.approx(
            oracle, abs=1e-8)


class TestMomentsQuadrature:
    def test_alpha2_gaussian_anchor(self):
        for e2 in (0.5, 2.0):
            for t in (0.5, 2.0):
                for L in (100, 10000):
                    f = DynamicalFreeEnergy.from_cumulants([0.0, e2])
                    est = moments_quadrature(f, L, 1, t, 2)
                    ref = closed_form_m2(e2, t, L)
                    assert abs(est.value - ref) / ref < 1e-8
                    # the reported error bounds the true error
                    assert abs(est.value - ref) <= est.error

    def test_moment_in_unit_interval(self, strong_quench_f):
        est = moments_quadrature(strong_quench_f, 50, 1, 0.4, 2)
        assert 0.0 < est.value <= 1.0

    def test_large_l_approach_to_asymptote(self):
        f = DynamicalFreeEnergy.from_cumulants([0.0, 1.0])
        gaps = []
        for L in (100, 400, 1600):
            cs = CumulantSeries(e=(0.0, 1.0), L=L, d=1)
            est = moments_quadrature(f, L, 1, 1.0, 2)
            gaps.append(abs(est.value - moment_asymptotic(cs, 1.0, 2))
                        / moment_asymptotic(cs, 1.0, 2))
        assert gaps[0] > gaps[1] > gaps[2]
        # relative gap to asymptote scales like L^{-1/2}
        assert gaps[2] == pytest.approx(gaps[0] / 4.0, rel=0.2)

    def test_alpha3_matches_corrected_moment(self):
        f = DynamicalFreeEnergy.from_cumulants([0.0, 1.0])
        cs = CumulantSeries(e=(0.0, 1.0), L=10000, d=1)
        est = moments_quadrature(f, 10000, 1, 1.0, 3)
        ref = moment_with_correction(cs, 1.0, 3)
        assert abs(est.value - ref) / ref < 1e-3

    def test_purity_decreasing_in_t(self):
        # a fresh f of the same quench, widest window first: its table
        # serves all five windows
        f = DynamicalFreeEnergy.from_ising(STRONG)
        ts = (0.2, 0.4, 0.8, 1.2, 1.6)
        vals = {t: moments_quadrature(f, 100, 1, t, 2).value
                for t in sorted(ts, reverse=True)}
        assert all(vals[a] > vals[b] for a, b in zip(ts, ts[1:]))

    def test_grid_vs_mc_alpha3(self):
        rng = np.random.default_rng(7)
        for i in range(5):
            e2 = float(rng.uniform(0.4, 2.5))
            e3 = float(rng.uniform(-0.3, 0.3))
            e4 = float(rng.uniform(-0.2, 0.2))
            L = int(rng.choice([64, 144, 400]))
            t = float(rng.uniform(0.5, 1.5))
            f = DynamicalFreeEnergy.from_cumulants([0.1, e2, e3, e4])
            g = moments_quadrature(f, L, 1, t, 3, scheme="grid")
            m = moments_quadrature(f, L, 1, t, 3, scheme="mc", seed=i)
            assert abs(g.value - m.value) <= 3 * math.hypot(g.error, m.error)

    def test_grid_vs_mc_alpha4(self, strong_quench_f):
        g = moments_quadrature(strong_quench_f, 100, 1, 0.4, 4, scheme="grid")
        m = moments_quadrature(strong_quench_f, 100, 1, 0.4, 4, scheme="mc",
                               seed=3)
        assert abs(g.value - m.value) <= 3 * math.hypot(g.error, m.error)

    def test_mc_deterministic(self):
        f = DynamicalFreeEnergy.from_cumulants([0.0, 1.0])
        a = moments_quadrature(f, 100, 1, 1.0, 3, scheme="mc", seed=5)
        b = moments_quadrature(f, 100, 1, 1.0, 3, scheme="mc", seed=5)
        assert a == b

    def test_accuracy_error(self):
        f = DynamicalFreeEnergy.from_cumulants([0.0, 1.0])
        with pytest.raises(AccuracyError) as err:
            moments_quadrature(f, 100, 1, 1.0, 3, scheme="mc", rtol=1e-16)
        assert err.value.achieved > 0

    def test_weak_quench_moments_ordered(self):
        # barely relaxing quench: the state hardly leaves its initial
        # direction within the window, every moment sits just below 1
        f = DynamicalFreeEnergy.from_ising(
            IsingQuench(h_i=1.5, h_f=1.45, k_grid=512))
        entropies = []
        for alpha in (2, 3, 4):
            est = moments_quadrature(f, 100, 1, 0.2, alpha)
            assert math.isfinite(est.value) and 0.0 < est.value <= 1.0
            entropies.append(math.log(est.value) / (1 - alpha))
        assert entropies[0] > entropies[1] > entropies[2]

    def test_revival_against_chord_length_integral(self):
        f = DynamicalFreeEnergy.from_ising(
            IsingQuench(h_i=math.inf, h_f=2.9, k_grid=512))
        L, t = 200, 0.57
        for alpha in (2, 3):
            g = moments_quadrature(f, L, 1, t, alpha, scheme="grid")
            m = moments_quadrature(f, L, 1, t, alpha, scheme="mc", seed=4)
            assert g == m
        # tr rho_bar^2 = int_{-t}^{t} (t - |u|) |<Psi_u|Psi_0>|^2 du / t^2
        ref, ref_err = integrate.quad(
            lambda u: 2.0 * (t - u) * math.exp(-2.0 * L * f(u).real),
            0.0, t, epsabs=0.0, epsrel=1e-13, limit=200)
        est = moments_quadrature(f, L, 1, t, 2)
        assert abs(est.value - ref / t ** 2) <= est.error + ref_err / t ** 2

    def test_table_up_to_window_serves_alpha4(self):
        base = DynamicalFreeEnergy.from_cumulants([0.1, 1.0, 0.0, 0.2])
        t = 0.8
        ts = np.linspace(0.0, t, 801)
        tab = DynamicalFreeEnergy.from_table(ts, base(ts))
        got = moments_quadrature(tab, 100, 1, t, 4)
        ref = moments_quadrature(base, 100, 1, t, 4)
        assert got.value == pytest.approx(ref.value, rel=1e-8)

    def test_no_factorization(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("moments_quadrature factorized a matrix")

        for name in ("eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(overlap.np.linalg, name, forbidden)
        f = DynamicalFreeEnergy.from_ising(
            IsingQuench(h_i=math.inf, h_f=1.5, k_grid=512))
        for alpha in (2, 3, 4):
            for rtol in (None, 0.05):
                est = moments_quadrature(f, 400, 1, 0.6, alpha, rtol=rtol)
                assert 0 < est.value < 1

    def test_domain(self):
        f = DynamicalFreeEnergy.from_cumulants([0.0, 1.0])
        with pytest.raises(DomainError):
            moments_quadrature(f, 100, 1, 1.0, 5)
        with pytest.raises(DomainError):
            moments_quadrature(f, 100, 1, 1.0, 3, scheme="fancy")


class TestRealNystromKernel:
    """The real form of the Nystrom kernel against the complex Hermitian
    kernel it is similar to, built here on both triangles."""

    FREE_ENERGIES = {
        "scan": lambda: DynamicalFreeEnergy.from_ising(
            IsingQuench(h_i=math.inf, h_f=1.5, k_grid=512)),
        # crosses the dynamical transition: f has kinks on the real axis
        "crossing": lambda: DynamicalFreeEnergy.from_ising(
            IsingQuench(h_i=0.5, h_f=2.0, k_grid=512)),
        "cumulants": lambda: DynamicalFreeEnergy.from_cumulants(
            [0.3, 1.0, 0.2]),
    }

    @staticmethod
    def complex_kernel(spline, sites, tau, omega):
        lag = np.subtract.outer(tau, tau)
        f = spline(np.abs(lag))
        f = np.where(lag >= 0, f, np.conj(f))
        root_w = np.sqrt(omega)
        return root_w[:, None] * np.exp(-sites * f) * root_w

    @pytest.mark.parametrize("kind", sorted(FREE_ENERGIES))
    @pytest.mark.parametrize("L,t", [(100, 0.25), (400, 0.58), (10_000, 2.0)])
    def test_spectrum_matches_complex_kernel(self, kind, L, t):
        spline = self.FREE_ENERGIES[kind]().table(t)
        gram = overlap._nystrom_gram(spline, float(L), t)
        for m in (32, 64, 256):
            x, w = _gauss_legendre(m)
            tau, omega = t * x, w     # density 1/t folded into the weights
            real = gram(tau, omega)
            assert real.dtype == np.float64
            assert np.array_equal(real, real.T)
            got = np.linalg.eigvalsh(real)
            ref = np.linalg.eigvalsh(
                self.complex_kernel(spline, float(L), tau, omega))
            assert np.max(np.abs(got - ref)) <= 1e-14

    @staticmethod
    def assert_power_traces_match_spectrum(gram, t, m):
        x, w = _gauss_legendre(m)
        real = gram(t * x, w)
        lam = np.linalg.eigvalsh(real)
        purity = overlap._purity(real)
        for alpha in (2, 3, 4):
            ref = float(np.sum(lam ** alpha))
            got = overlap._power_trace(real, purity, alpha)
            assert abs(got - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("kind", sorted(FREE_ENERGIES))
    @pytest.mark.parametrize("L,t", [(100, 0.25), (400, 0.58), (10_000, 2.0)])
    def test_power_traces_match_spectrum(self, kind, L, t):
        spline = self.FREE_ENERGIES[kind]().table(t)
        gram = overlap._nystrom_gram(spline, float(L), t)
        for m in (32, 64, 256):
            self.assert_power_traces_match_spectrum(gram, t, m)

    def test_power_traces_match_spectrum_at_the_cap(self):
        spline = self.FREE_ENERGIES["scan"]().table(2.0)
        gram = overlap._nystrom_gram(spline, 1e4, 2.0)
        self.assert_power_traces_match_spectrum(gram, 2.0, overlap._M_CAP)

    def test_odd_node_count_raises(self):
        spline = self.FREE_ENERGIES["cumulants"]().table(0.5)
        x, w = _gauss_legendre(33)
        with pytest.raises(ValueError, match="even"):
            overlap._nystrom_gram(spline, 100.0, 0.5)(0.5 * x, w)

    @staticmethod
    def direct_gram(spline, sites, t, tau, omega):
        """R built directly: P and M on their lower triangles, completed
        as complex blocks and split into real and imaginary parts."""
        m = tau.size
        p = m // 2
        low = np.tri(p, dtype=bool)
        head = tau[:p]
        root_w = np.sqrt(omega[:p])
        lags = np.concatenate((np.subtract.outer(head, head)[low],
                               t - np.add.outer(head, head)[low]))
        blocks = np.zeros((2, p, p), dtype=complex)
        blocks[:, low] = np.exp(-sites * spline(lags)).reshape(2, -1) \
            * np.multiply.outer(root_w, root_w)[low]
        herm, sym = blocks[0], blocks[1].conj()
        herm += np.tril(herm, -1).conj().T
        np.fill_diagonal(herm.imag, 0.0)
        sym += np.tril(sym, -1).T
        plus, minus = herm + sym, herm - sym
        out = np.empty((m, m))
        out[:p, :p] = plus.real
        out[:p, p:] = -minus.imag
        out[p:, :p] = plus.imag
        out[p:, p:] = minus.real
        return out

    @pytest.mark.parametrize("kind", sorted(FREE_ENERGIES))
    @pytest.mark.parametrize("L,t", [(100, 0.25), (400, 0.58), (10_000, 2.0)])
    def test_plan_matches_direct_construction(self, kind, L, t):
        spline = self.FREE_ENERGIES[kind]().table(t)
        gram = overlap._nystrom_gram(spline, float(L), t)
        for m in (2, 32, 64, 256):
            x, w = _gauss_legendre(m)
            ref = self.direct_gram(spline, float(L), t, t * x, w)
            assert np.array_equal(gram(t * x, w), ref)

    def test_matches_direct_construction_at_the_cap(self):
        spline = self.FREE_ENERGIES["crossing"]().table(0.58)
        gram = overlap._nystrom_gram(spline, 400.0, 0.58)
        x, w = _gauss_legendre(overlap._M_CAP)
        ref = self.direct_gram(spline, 400.0, 0.58, 0.58 * x, w)
        assert np.array_equal(gram(0.58 * x, w), ref)

    def test_pair_index_is_read_only_int32(self):
        pairs, index, sign = overlap._pair_index(16)
        assert pairs.shape == (2, 16 * 17 // 2)
        assert index.shape == sign.shape == (16, 16)
        assert pairs.dtype == index.dtype == np.int32
        for a in (pairs, index, sign):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0
        i, j = pairs
        assert np.array_equal(index[i, j], np.arange(i.size))
        assert np.array_equal(index, index.T)
        assert np.array_equal(sign, np.sign(np.subtract.outer(
            np.arange(16), np.arange(16))))

    def test_pair_index_cache_is_bounded(self):
        info = overlap._pair_index.cache_info()
        assert info.maxsize is not None and info.maxsize <= 8
        for p in range(1, info.maxsize + 4):
            overlap._pair_index(p)
        assert overlap._pair_index.cache_info().currsize <= info.maxsize


class TestBudgetedTable:
    """With `rtol`, `moments_quadrature` sizes its f-table by the error
    budget and reports the interpolation term in `error`."""

    @pytest.mark.parametrize("k_grid", [512, 1024])
    @pytest.mark.parametrize("h_i, h_f", [(0.5, 2.0), (0.3, 1.8),
                                          (math.inf, 0.4), (0.9, 1.1)])
    def test_error_bounds_deviation_from_dense_table(self, h_i, h_f, k_grid):
        # quench-fresh-like and dynamical-transition-crossing quenches
        f = DynamicalFreeEnergy.from_ising(
            IsingQuench(h_i=h_i, h_f=h_f, k_grid=k_grid))
        for t in (0.3, 0.6, 1.6):
            for L in (100, 400):
                for alpha in (2, 4):
                    got = moments_quadrature(f, L, 1, t, alpha, rtol=0.05)
                    ref = moments_quadrature(f, L, 1, t, alpha)
                    assert abs(got.value - ref.value) <= got.error
                    assert got.error <= 0.05 * got.value

    def test_no_rtol_reuses_table_bit_for_bit(self):
        f = DynamicalFreeEnergy.from_ising(
            IsingQuench(h_i=math.inf, h_f=1.5, k_grid=512))
        f.table(1.82)
        evaluated = []
        eval_many = f._eval_many

        def counted(ts):
            evaluated.append(np.size(ts))
            return eval_many(ts)

        f._eval_many = counted
        # value and error of the 4096-point path, pinned as float.hex
        expect = {(100, 0.4, 2): ("0x1.8c7e6272f5b15p-2",
                                  "0x1.b4330d54fc2c0p-42"),
                  (400, 0.6, 3): ("0x1.7e7c530bc7bbdp-6",
                                  "0x1.803e119098bdfp-45"),
                  (200, 1.8, 4): ("0x1.e6fa99019fee1p-12",
                                  "0x1.0c302fd6e5243p-51")}
        for (L, t, alpha), (value, error) in expect.items():
            est = moments_quadrature(f, L, 1, t, alpha)
            assert (est.value.hex(), est.error.hex()) == (value, error)
        # f is read only through the cached table: no direct evaluation
        assert evaluated == []
        assert len(f._tables) == 1

    @pytest.mark.parametrize("rtol", [0.05, 1e-3])
    def test_nystrom_doubling_stops_early(self, monkeypatch, rtol):
        # the purity change on the C^2 spline kernel stalls near 1e-9: a
        # settle test fixed at 1e-11 doubles to the 2048-node cap, and one
        # at 1e-6 rtol alone still reaches 1024 nodes at rtol 1e-3
        nodes = []
        window_spectrum = overlap._window_spectrum

        def spy(*args, **kwargs):
            spec = window_spectrum(*args, **kwargs)
            nodes.append(spec.tau.size)
            return spec

        monkeypatch.setattr(overlap, "_window_spectrum", spy)
        f = DynamicalFreeEnergy.from_ising(
            IsingQuench(h_i=math.inf, h_f=1.5, k_grid=512))
        for alpha in (2, 3, 4):
            moments_quadrature(f, 400, 1, 0.6, alpha, rtol=rtol)
        assert nodes and max(nodes) <= 128

    def test_knots_evaluated_once_under_concurrent_callers(self):
        base = DynamicalFreeEnergy.from_ising(
            IsingQuench(h_i=0.5, h_f=2.0, k_grid=64))
        evaluated = []
        start = threading.Barrier(2, timeout=10)

        def slow_eval(ts):
            evaluated.append(np.array(ts))
            time.sleep(0.05)   # hold each build open for the other caller
            return base(ts)

        f = DynamicalFreeEnergy("ising_quench", slow_eval, {})
        got = [None, None]

        def request(i):
            start.wait()
            # rtol 1e-6 needs the 512-per-unit table: one doubling
            got[i] = moments_quadrature(f, 100, 1, 0.5, 2, rtol=1e-6)

        workers = [threading.Thread(target=request, args=(i,))
                   for i in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
            assert not w.is_alive()
        assert got[0] == got[1] is not None
        tables = [key for key in f._tables if key[2]]
        assert len(tables) >= 2   # the budget forced a doubling
        # the base knots and one midpoint set per level, each point once,
        # and nothing else: the node count comes from the table
        bulk = [ts for ts in evaluated if ts.size > 1]
        assert len(bulk) == len(tables) + 1
        points = np.concatenate(bulk)
        assert np.unique(points).size == points.size
        assert len(evaluated) == len(bulk)

    def test_unmeetable_rtol_stops_at_cap(self):
        f = DynamicalFreeEnergy.from_ising(
            IsingQuench(h_i=0.5, h_f=2.0, k_grid=64))
        with pytest.raises(AccuracyError) as err:
            moments_quadrature(f, 100, 1, 0.3, 2, rtol=1e-16)
        assert max(key[1] for key in f._tables) == 4096
        interp = 2 * f.table(0.3, 4096, checked=True) \
            .interpolation_bound(100, 0.3)
        assert 0 < interp <= err.value.achieved


class TestRenyiQuadrature:
    def test_consistency_with_moment(self, strong_quench_f):
        est = moments_quadrature(strong_quench_f, 100, 1, 0.4, 3)
        ren = renyi_quadrature(strong_quench_f, 100, 1, 0.4, 3)
        assert math.exp((1 - 3) * ren.value) == pytest.approx(est.value,
                                                              rel=1e-12)
        assert ren.error > 0

    def test_synthetic_volume_scaling(self):
        # S_2 grows by (1/2) log 10 per decade of L
        f = DynamicalFreeEnergy.from_cumulants([0.0, 1.0])
        vals = [renyi_quadrature(f, L, 1, 1.0, 2).value
                for L in (100, 1000, 10000)]
        steps = np.diff(vals)
        assert np.allclose(steps, 0.5 * math.log(10), atol=0.05)


def _ed_free_energy(sd, L: int, t: float) -> DynamicalFreeEnergy:
    """f = -log G / L tabulated from an ED chain's return amplitude
    G(s) = <Psi_s|Psi_0> = sum |c_n|^2 e^{i E_n s}, phase unwrapped."""
    s = np.linspace(0.0, t, 8001)
    g = np.exp(1j * np.outer(s, sd.energies)) @ (np.abs(sd.overlaps) ** 2)
    log_g = np.log(np.abs(g)) + 1j * np.unwrap(np.angle(g))
    return DynamicalFreeEnergy.from_table(s, -log_g / L)


class TestOneWindowCore:
    """`ed.averaged_state` and `moments_quadrature` share the window core:
    the Nystrom moments of the ED chain's own free energy are the moments
    of its averaged-state spectrum."""

    @pytest.fixture(scope="class")
    def chains(self):
        chaotic = ed.chaotic_chain(10, J=0.9, boundary="open")
        psi0 = ed.ground_state(
            ed.chaotic_initial_chain(10, J=0.9, boundary="open"))
        return {
            8: ed.spectral_decomposition(ed.integrable_chain(8, J=1.1),
                                         ed.polarized_state(8, "x")),
            10: ed.spectral_decomposition(chaotic, psi0),
        }

    @pytest.mark.parametrize("L, t", [(8, 0.8), (8, 2.0), (10, 1.5)])
    def test_moments_match_averaged_state(self, chains, L, t):
        sd = chains[L]
        f = _ed_free_energy(sd, L, t)
        spec_t = ed.averaged_state(sd, 0.0, t)
        assert 0 < spec_t.nodes < sd.dim
        for alpha in (2, 3, 4):
            est = moments_quadrature(f, L, 1, t, alpha)
            ref = float(np.sum(spec_t.eigenvalues ** alpha))
            assert abs(est.value - ref) <= est.error

    @pytest.mark.parametrize("caller", ["nystrom", "snapshots"])
    def test_purities_are_the_kernels_spectra(self, chains, monkeypatch,
                                              caller):
        # every window either caller settles holds full kernels, the
        # Nystrom ones exactly symmetric, whose purities are sum lambda^2
        core = overlap._window_spectrum
        sd = chains[10]
        windows = []

        def spy(*args, **kwargs):
            windows.append(core(*args, **kwargs))
            return windows[-1]

        if caller == "nystrom":
            monkeypatch.setattr(overlap, "_window_spectrum", spy)
            f = _ed_free_energy(sd, 10, 1.5)
            for alpha in (2, 3, 4):
                moments_quadrature(f, 10, 1, 1.5, alpha)
        else:
            monkeypatch.setattr(ed, "_window_spectrum", spy)
            ed.averaged_state(sd, 0.3, 1.5)
        assert windows
        for win in windows:
            for kernel, purity in ((win.kernel, win.purity),
                                   (win.coarse, win.coarse_purity)):
                if caller == "nystrom":
                    assert kernel.dtype == np.float64
                    assert np.array_equal(kernel, kernel.T)
                ref = float(np.sum(np.linalg.eigvalsh(kernel) ** 2))
                assert abs(purity - ref) <= 1e-13 * ref
