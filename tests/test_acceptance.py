"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 10 checks the Mandelstam-Tamm speed limit at amplitude 0.5
(arccos(0.5)/dE, two thirds of the orthogonalization time) together with
the cosine envelope it follows from. All criteria pass at their stated
tolerances.
"""

import math

import numpy as np
import scipy.integrate

from conftest import random_chain, random_state
from qspan import asymptotics as asym
from qspan import ed
from qspan import overlap as ovl
from qspan.special import erf


def pi_moment(alpha: float) -> float:
    val, _ = scipy.integrate.quad(
        lambda u: asym.pi_universal(math.exp(-u * u)) * 2 * u
        * math.exp(-alpha * u * u), 0, 12, limit=200)
    return val


def test_criterion_01_universal_distribution_identities(report):
    norm = pi_moment(1.0)
    moments = {a: pi_moment(a) for a in range(2, 7)}
    worst = max(abs(moments[a] - a ** -0.5) for a in moments)
    ok = abs(norm - 1.0) < 1e-8 and worst < 1e-8
    report("criterion-01", ok,
           f"|int Pi - 1| = {abs(norm - 1):.2e}, worst moment dev = {worst:.2e}")
    assert abs(norm - 1.0) < 1e-8
    assert worst < 1e-8


def test_criterion_02_replica_limit(report):
    cs = asym.CumulantSeries(e=(0.0, 1.3), L=250, d=1)
    t = 0.9
    s_avg = 0.5 * (asym.renyi_asymptotic(cs, t, 1.0 + 1e-4)
                   + asym.renyi_asymptotic(cs, t, 1.0 - 1e-4))
    gap = abs(s_avg - asym.von_neumann_asymptotic(cs, t))
    report("criterion-02", gap < 1e-6, f"replica gap = {gap:.2e}")
    assert gap < 1e-6


def test_criterion_03_alpha2_analytic_anchor(report):
    def closed_form(e2, t, L):
        a = L * e2
        return math.sqrt(math.pi) * erf(math.sqrt(a) * t) / (t * math.sqrt(a)) \
            - (1.0 - math.exp(-a * t * t)) / (a * t * t)

    worst = 0.0
    for e2 in (0.5, 1.0, 2.0):
        for t in (0.5, 1.0, 2.0):
            for L in (100, 1000, 10000):
                f = ovl.DynamicalFreeEnergy.from_cumulants([0.0, e2])
                est = ovl.moments_quadrature(f, L, 1, t, 2)
                ref = closed_form(e2, t, L)
                worst = max(worst, abs(est.value - ref) / ref)

    # correction coefficient: I_2 = 1/2 makes the large-L deviation from
    # the plain asymptote equal e2^-1 t^-2 L^-1
    coefs = []
    for e2, t in ((1.0, 1.0), (2.0, 0.5)):
        L = 10000
        f = ovl.DynamicalFreeEnergy.from_cumulants([0.0, e2])
        est = ovl.moments_quadrature(f, L, 1, t, 2)
        cs = asym.CumulantSeries(e=(0.0, e2), L=L, d=1)
        coefs.append((asym.moment_asymptotic(cs, t, 2) - est.value)
                     * e2 * t * t * L)
    coef_dev = max(abs(c - 1.0) for c in coefs)
    ok = worst < 1e-8 and coef_dev < 0.01
    report("criterion-03", ok,
           f"worst anchor rel err = {worst:.2e}, "
           f"correction coef dev = {coef_dev:.2e}")
    assert worst < 1e-8
    assert coef_dev < 0.01


def test_criterion_04_ising_entropy_reproduction(report, strong_quench_f):
    f = strong_quench_f
    e2 = ovl.second_cumulant_from_f(f)
    t = 0.4
    sizes = (50, 100, 200, 400)
    summary = []
    ok = True
    for alpha in (2, 3, 4):
        gaps = []
        for L in sizes:
            est = ovl.renyi_quadrature(f, L, 1, t, alpha, scheme="grid")
            cs = asym.CumulantSeries(e=(0.0, e2), L=L, d=1)
            pred = asym.renyi_asymptotic(cs, t, alpha, with_correction=True)
            gaps.append((abs(est.value - pred), est.value))
        monotone = all(a[0] > b[0] for a, b in zip(gaps, gaps[1:]))
        final_rel = gaps[-1][0] / gaps[-1][1]
        summary.append(f"a={alpha}: monotone={monotone} "
                       f"gap400/S={final_rel:.3%}")
        ok = ok and monotone and final_rel < 0.02
        assert monotone
        assert final_rel < 0.02
    report("criterion-04", ok, "; ".join(summary))


def test_criterion_05_ed_oracle_equivalence(report):
    worst = 0.0
    cases = [(2, 0), (3, 1), (3, 2), (4, 3), (4, 4)]
    for L, seed in cases:
        spec = random_chain(L, seed=seed, scale=0.35)
        sd = ed.spectral_decomposition(spec, random_state(2 ** L, 100 + seed))
        for t in (0.5, 2.0, 10.0):
            spec_t = ed.averaged_state(sd, 0.0, t, want_vectors=True)
            vecs = sd.basis @ spec_t.vectors
            rho_spec = (vecs * spec_t.eigenvalues) @ vecs.conj().T
            slices = 10000
            taus = (np.arange(slices) + 0.5) * t / slices
            states = sd.basis @ (sd.overlaps[:, None]
                                 * np.exp(-1j * np.outer(sd.energies, taus)))
            rho_sum = (states @ states.conj().T) / slices
            worst = max(worst, float(np.linalg.norm(rho_spec - rho_sum,
                                                    ord=2)))
    report("criterion-05", worst < 1e-6,
           f"worst operator-norm distance = {worst:.2e}")
    assert worst < 1e-6


def _collapse_stats(spec, psi0, sd=None):
    times = np.arange(1.0, 4.01, 0.5)
    curve = ed.rank_curve(spec, psi0,
                          lambda t: 0.15 / math.sqrt(1.0 + 100.0 * t),
                          times, sd=sd)
    mad = float(np.mean(np.abs(curve.dims_per_sqrt_l
                               - curve.prediction_per_sqrt_l)))
    rel = mad / float(np.mean(curve.prediction_per_sqrt_l))
    return mad, rel


def test_criterion_06_rank_collapse(report, chaotic_12):
    mad6, _ = _collapse_stats(ed.chaotic_chain(6),
                              ed.ground_state(ed.chaotic_initial_chain(6)))
    mad12, rel12 = _collapse_stats(chaotic_12["spec"], chaotic_12["psi0"],
                                   sd=chaotic_12["krylov"])
    ok = mad12 < mad6 and rel12 < 0.25
    report("criterion-06", ok,
           f"MAD(L=6) = {mad6:.4f}, MAD(L=12) = {mad12:.4f}, "
           f"rel(L=12) = {rel12:.2%}")
    assert mad12 < mad6
    assert rel12 < 0.25


def test_criterion_07_projection_error_boundary_maximum(report, chaotic_12):
    sd = chaotic_12["krylov"]
    summary = []
    ok = True
    for T in (1.0, 2.0, 3.0, 4.0):
        eps_t = 0.15 / math.sqrt(1.0 + 100.0 * T)
        ts = np.linspace(0.0, T, 201)
        res = ed.projection_error(sd, T, eps_t, ts)
        idx = int(np.argmax(res.error))
        at_boundary = idx <= 2 or idx >= 198
        summary.append(f"T={T:g}: argmax={idx}")
        ok = ok and at_boundary
        assert at_boundary
    report("criterion-07", ok, "; ".join(summary))


def test_criterion_08_weighted_reductions_and_maximality(report):
    cs = asym.CumulantSeries(e=(0.0, 0.8), L=121, d=1)
    t = 2.0
    uniform = asym.WeightFunction.uniform(t)
    worst = 0.0
    for alpha in (0.5, 2.0, 3.0):
        worst = max(worst, abs(asym.weighted_renyi(cs, uniform, alpha)
                               - asym.renyi_asymptotic(cs, t, alpha)))
    worst = max(worst, abs(asym.weighted_von_neumann(cs, uniform)
                           - asym.von_neumann_asymptotic(cs, t)))
    sol_w = asym.weighted_rank_system(cs, uniform, 0.15)
    sol = asym.solve_rank_system(cs, asym.RankQuery(0.15, t))
    rank_dev = max(abs(sol_w.p_eps * t - sol.x_eps) / sol.x_eps,
                   abs(sol_w.D - sol.D) / sol.D)
    lam = 0.3 * asym.support_edge(cs, t)
    phi_dev = abs(asym.weighted_phi_density(cs, uniform, lam)
                  - asym.phi_density(cs, t, lam)) / asym.phi_density(cs, t, lam)

    s_uniform = asym.weighted_von_neumann(cs, uniform)
    nonuniform = (asym.ramp_weight(t), asym.cosine_bump_weight(t),
                  asym.truncated_exponential_weight(t))
    maximal = all(asym.weighted_von_neumann(cs, w) < s_uniform
                  for w in nonuniform)
    ok = worst < 1e-10 and rank_dev < 1e-8 and phi_dev < 1e-8 and maximal
    report("criterion-08", ok,
           f"entropy dev = {worst:.2e}, rank dev = {rank_dev:.2e}, "
           f"phi dev = {phi_dev:.2e}, uniform maximal = {maximal}")
    assert worst < 1e-10
    assert rank_dev < 1e-8
    assert phi_dev < 1e-8
    assert maximal


def test_criterion_09_cumulant_machinery(report):
    worst_routes = 0.0
    for seed in (0, 1, 2):
        spec = random_chain(4, seed=500 + seed, boundary="periodic")
        psi = random_state(16, 600 + seed)
        direct = ed.energy_cumulants((spec, psi), 4)
        via_ops = ed.energy_cumulants_operator_route(spec, psi, 4)
        worst_routes = max(worst_routes, float(np.abs(direct - via_ops).max()))

    spec = random_chain(4, seed=510, boundary="periodic")
    psi = random_state(16, 610)
    sd = ed.spectral_decomposition(spec, psi)
    e2 = ed.energy_cumulants(sd, 2)[1]
    total = sum(ed.cumulant_density(spec, psi, l, 2) for l in range(4))
    sum_rule_dev = abs(total - 4 * e2)

    field = ed.PauliHamiltonian(
        L=3, terms=tuple((1.0, ((l, "Z"),)) for l in range(3)))
    e_prod = ed.energy_cumulants((field, ed.polarized_state(3)), 2)
    exact = e_prod[0] == 1.0 and e_prod[1] == 0.0

    ok = worst_routes < 1e-8 and sum_rule_dev < 1e-8 and exact
    report("criterion-09", ok,
           f"route dev = {worst_routes:.2e}, sum-rule dev = "
           f"{sum_rule_dev:.2e}, product state exact = {exact}")
    assert worst_routes < 1e-8
    assert sum_rule_dev < 1e-8
    assert exact


def test_criterion_10_mandelstam_tamm_crossing(report):
    # Mandelstam-Tamm speed limit at the paper's dE = sqrt(L e2): the return
    # amplitude obeys |<Psi_t|Psi_0>| >= cos(dE t) up to the orthogonalization
    # time pi/(2 dE) = mandelstam_tamm_bound, so amplitude 0.5 cannot be
    # reached before arccos(0.5)/dE = (2/pi) arccos(0.5) times that bound.
    threshold = 0.5
    floor = (2.0 / math.pi) * math.acos(threshold)
    rows = []
    for L in (6, 8, 10):
        spec = ed.chaotic_chain(L)
        psi0 = ed.ground_state(ed.chaotic_initial_chain(L))
        sd = ed.spectral_decomposition(spec, psi0)
        e2 = float(ed.energy_cumulants(sd, 2)[1])
        de = math.sqrt(L * e2)
        bound = asym.mandelstam_tamm_bound(
            asym.CumulantSeries(e=(0.0, e2), L=L, d=1))
        crossing = ed.first_overlap_crossing(sd, threshold, t_max=5.0)
        ts = np.linspace(0.0, bound, 401)
        envelope_gap = float(np.min(ed.return_amplitude(sd, ts)
                                    - np.cos(de * ts)))
        rows.append((L, crossing, bound, de, envelope_gap))
    ok = all(c > floor * b and g >= -1e-10 for _, c, b, _, g in rows)
    report("criterion-10", ok, "; ".join(
        f"L={L}: crossing*dE={c * de:.4f} arccos(0.5)={math.acos(threshold):.4f}"
        f" min(amp-cos)={g:.1e}" for L, c, _, de, g in rows))
    for L, crossing, bound, de, envelope_gap in rows:
        assert crossing > floor * bound, (
            f"L={L}: amplitude {threshold} reached at {crossing:.4f}, before "
            f"the speed limit {floor * bound:.4f}")
        assert envelope_gap >= -1e-10, (
            f"L={L}: return amplitude falls below cos(dE t) by "
            f"{-envelope_gap:.2e} on [0, {bound:.4f}]")
