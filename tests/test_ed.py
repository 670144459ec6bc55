import functools
import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from conftest import random_chain, random_state
from qspan import ed as ed_module
from qspan.asymptotics import WeightFunction
from qspan.ed import (
    AveragedStateSpectrum,
    DegenerateGroundStateWarning,
    PauliHamiltonian,
    _bonds,
    _sparse_hamiltonian,
    averaged_state,
    build_hamiltonian,
    chaotic_chain,
    chaotic_initial_chain,
    cumulant_density,
    cumulant_operator,
    effective_rank,
    energy_cumulants,
    energy_cumulants_operator_route,
    first_overlap_crossing,
    ground_state,
    integrable_chain,
    krylov_decomposition,
    polarized_state,
    projection_error,
    rank_curve,
    read_hamiltonian_file,
    return_amplitude,
    spectral_decomposition,
    write_hamiltonian_file,
)
from qspan.errors import AccuracyError, ConfigError, DomainError, SizeError


def riemann_average(sd, t: float, slices: int = 10000) -> np.ndarray:
    """Midpoint Riemann sum of |Psi_tau><Psi_tau| in the site basis."""
    taus = (np.arange(slices) + 0.5) * t / slices
    phases = np.exp(-1j * np.outer(sd.energies, taus))
    states = sd.basis @ (sd.overlaps[:, None] * phases)
    return (states @ states.conj().T) / slices


def site_basis_matrix(sd, spec_t) -> np.ndarray:
    vecs = sd.basis @ spec_t.vectors
    return (vecs * spec_t.eigenvalues) @ vecs.conj().T


PAULI = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
         "Y": np.array([[0.0, -1j], [1j, 0.0]]), "Z": np.diag([1.0, -1.0])}


def kron_oracle(L: int, terms, kron=np.kron):
    """sum coeff P_0 (x) P_1 (x) ... (x) P_{L-1}, site 0 the leftmost
    factor; identity on the sites a term does not name."""
    total = 0.0
    for coeff, ops in terms:
        lookup = dict(ops)
        string = np.ones((1, 1))
        for site in range(L):
            string = kron(string, PAULI[lookup.get(site, "I")])
        total = total + coeff * string
    return total


def rotated_to_real(spec: PauliHamiltonian) -> PauliHamiltonian:
    """The chain U^dag H U for U = R (x) ... (x) R, R = (1 - iX)/sqrt(2):
    R^dag X R = X and R^dag Y R = -Z, so a chain of X and Y strings becomes
    a real one with the same spectrum."""
    terms = []
    for coeff, ops in spec.terms:
        assert all(op in "XY" for _, op in ops)
        n_y = sum(op == "Y" for _, op in ops)
        terms.append(((-1) ** n_y * coeff,
                      tuple((s, "Z" if op == "Y" else op) for s, op in ops)))
    return PauliHamiltonian(L=spec.L, terms=tuple(terms),
                            boundary=spec.boundary)


def apply_on_every_site(r: np.ndarray, v: np.ndarray, L: int) -> np.ndarray:
    """(r (x) ... (x) r) v, site 0 the leading tensor axis."""
    psi = np.asarray(v, dtype=complex).reshape((2,) * L)
    for site in range(L):
        psi = np.moveaxis(np.tensordot(r, psi, axes=(1, site)), 0, site)
    return psi.ravel()


def dense_ground_of_xy_chain(spec: PauliHamiltonian):
    """Lowest energy and vector of a chain of X and Y strings by a dense
    real solve in the rotated frame, rotated back: an oracle that never
    solves the complex matrix (8 s at L = 12 on 2 vCPUs, against 3 s)."""
    h_real = build_hamiltonian(rotated_to_real(spec)).real
    vals, vecs = scipy.linalg.eigh(h_real, subset_by_index=[0, 0])
    r = (np.eye(2) - 1j * PAULI["X"]) / math.sqrt(2.0)
    return float(vals[0]), apply_on_every_site(r, vecs[:, 0], spec.L)


def assert_matches_dense(spec, vec, e_dense, v_dense):
    energy = float(np.real(np.vdot(vec, _sparse_hamiltonian(spec) @ vec)))
    assert energy == pytest.approx(e_dense, rel=1e-12)
    assert 1.0 - abs(np.vdot(v_dense, vec)) <= 1e-12
    first = vec[np.argmax(np.abs(vec) > 1e-12 * np.abs(vec).max())]
    assert first.imag == pytest.approx(0.0, abs=1e-12)
    assert first.real > 0.0
    assert np.array_equal(ground_state(spec), vec)


def eigenbasis_densities(spec, psi, site, n_max, sd):
    """Cumulant densities n = 1..n_max of one site from the full eigenbasis:
    h_site rotated into it, the b-derivatives of <e^{bH/2} h_site e^{bH/2}>
    summed over level pairs at the mean energy (E_m + E_n)/2 and those of
    the norm over levels, then the ratio recursion."""
    h_site = ed_module._pauli_sum(
        spec.L, ed_module._density_terms(spec)[site]).toarray()
    weight = (np.outer(sd.overlaps.conj(), sd.overlaps)
              * (sd.basis.conj().T @ h_site @ sd.basis))
    s_grid = 0.5 * (sd.energies[:, None] + sd.energies[None, :])
    numer = [float(np.real(np.sum(weight * s_grid ** k)))
             for k in range(n_max)]
    denom = [float((np.abs(sd.overlaps) ** 2) @ sd.energies ** k)
             for k in range(n_max)]
    ratio = np.empty(n_max)
    for k in range(n_max):
        ratio[k] = numer[k] - sum(math.comb(k, j) * ratio[j] * denom[k - j]
                                  for j in range(k))
    return ratio


class TestBuild:
    def test_single_site_z(self):
        h = build_hamiltonian(PauliHamiltonian(L=1, terms=((1.0, ((0, "Z"),)),)))
        assert np.allclose(np.diag(h), [1.0, -1.0])

    def test_xx_spectrum(self):
        h = build_hamiltonian(
            PauliHamiltonian(L=2, terms=((1.0, ((0, "X"), (1, "X"))),)))
        assert np.allclose(np.linalg.eigvalsh(h), [-1, -1, 1, 1])

    def test_bundled_chain_hermitian_traceless(self):
        h = build_hamiltonian(chaotic_chain(6))
        assert np.abs(h - h.conj().T).max() < 1e-14
        assert abs(np.trace(h)) < 1e-10

    def test_size_and_domain_errors(self):
        with pytest.raises(SizeError):
            PauliHamiltonian(L=15, terms=((1.0, ((0, "Z"),)),))
        with pytest.raises(DomainError):
            PauliHamiltonian(L=2, terms=((1.0, ((5, "Z"),)),))
        with pytest.raises(DomainError):
            PauliHamiltonian(L=2, terms=((1.0, ((0, "Q"),)),))
        with pytest.raises(DomainError):
            PauliHamiltonian(L=2, terms=((1.0, ((0, "XY"),)),))

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficients(self, coeff):
        with pytest.raises(DomainError, match="not finite"):
            PauliHamiltonian(L=2, terms=((1.0, ((0, "X"), (1, "X"))),
                                         (coeff, ((1, "Z"),))))

    @pytest.mark.parametrize("L", range(1, 7))
    def test_random_strings_against_kron_oracle(self, L):
        rng = np.random.default_rng(L)
        terms = []
        for _ in range(3 * L):
            sites = rng.choice(L, size=min(L, int(rng.integers(1, 3))),
                               replace=False)
            terms.append((float(rng.uniform(-1.0, 1.0)),
                          tuple((int(s), str(rng.choice(["X", "Y", "Z"])))
                                for s in sites)))
        if L > 1:
            terms.append((0.7, ((L - 1, "Y"), (0, "X"))))   # wrap bond
        terms.append(terms[0])                               # repeated term
        specs = [PauliHamiltonian(L=L, terms=tuple(terms))]
        specs += [random_chain(L, seed=L, boundary=b)
                  for b in ("open", "periodic")]
        for spec in specs:
            h = build_hamiltonian(spec)
            assert np.abs(h - kron_oracle(L, spec.terms)).max() <= 1e-13

    @pytest.mark.parametrize("L", [8, 10, 12])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_bundled_chains_against_kron_oracle(self, L, boundary):
        # sparse Kronecker products: a dense one per term is 2^L x 2^L
        kron = functools.partial(scipy.sparse.kron, format="csr")
        for make in (chaotic_chain, chaotic_initial_chain, integrable_chain):
            spec = make(L, boundary=boundary)
            h = scipy.sparse.csr_matrix(build_hamiltonian(spec))
            assert abs(h - kron_oracle(L, spec.terms, kron)).max() <= 1e-13

    def test_no_terms_is_zero_matrix(self):
        h = build_hamiltonian(PauliHamiltonian(L=2, terms=()))
        assert h.shape == (4, 4)
        assert not np.any(h)


class TestGroundState:
    def test_polarized_limits(self):
        down_field = PauliHamiltonian(
            L=3, terms=tuple((-1.0, ((l, "Z"),)) for l in range(3)))
        assert abs(ground_state(down_field)[0]) == pytest.approx(1.0)
        up_field = PauliHamiltonian(
            L=3, terms=tuple((1.0, ((l, "Z"),)) for l in range(3)))
        assert abs(ground_state(up_field)[-1]) == pytest.approx(1.0)

    def test_gauge_deterministic(self):
        spec = random_chain(4, seed=2)
        v1 = ground_state(spec)
        v2 = ground_state(spec)
        assert np.allclose(v1, v2)
        first = v1[np.argmax(np.abs(v1) > 1e-12 * np.abs(v1).max())]
        assert first.imag == pytest.approx(0.0, abs=1e-12)
        assert first.real > 0

    def test_degeneracy_warning(self):
        flat = PauliHamiltonian(L=2, terms=((0.0, ((0, "Z"),)),))
        with pytest.warns(DegenerateGroundStateWarning):
            ground_state(flat)

    def test_energy_against_lanczos_oracle(self):
        spec = chaotic_initial_chain(6)
        h = build_hamiltonian(spec)
        vec = ground_state(spec)
        energy = float(np.real(np.vdot(vec, h @ vec)))
        oracle = scipy.sparse.linalg.eigsh(
            scipy.sparse.csr_matrix(h), k=1, which="SA",
            v0=np.ones(h.shape[0]))[0][0]
        assert energy == pytest.approx(float(oracle), abs=1e-9)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("L", [8, 10, 12])
    def test_lanczos_matches_dense_complex_chain(self, L, boundary):
        spec = chaotic_initial_chain(L, boundary=boundary)
        assert_matches_dense(spec, ground_state(spec),
                             *dense_ground_of_xy_chain(spec))

    def test_lanczos_matches_dense_real_chain(self, chaotic_12):
        sd = chaotic_12["sd"]      # a dense real eigh of chaotic_chain(12)
        assert_matches_dense(chaotic_12["spec"],
                             ground_state(chaotic_12["spec"]),
                             float(sd.energies[0]), sd.basis[:, 0])

    @pytest.mark.parametrize("label, boundary, energy", [
        ("X", "periodic", -8.0), ("Z", "open", -7.0)])
    def test_degeneracy_warning_on_sparse_path(self, label, boundary, energy):
        # -sum PP has a doubly degenerate ground level; a single Lanczos
        # start vector spans one direction of it, so this pins that the
        # restarts find the partner
        spec = PauliHamiltonian(
            L=8, boundary=boundary,
            terms=tuple((-1.0, ((a, label), (b, label)))
                        for a, b in _bonds(8, boundary)))
        with pytest.warns(DegenerateGroundStateWarning):
            vec = ground_state(spec)
        h = _sparse_hamiltonian(spec)
        assert np.abs(h @ vec - energy * vec).max() < 1e-10

    def test_sparse_routes_never_densify(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("dense matrix built")

        spec = chaotic_initial_chain(8)
        monkeypatch.setattr(ed_module, "build_hamiltonian", refuse)
        psi0 = ground_state(spec)
        energy_cumulants((chaotic_chain(8), psi0), 4)
        with pytest.raises(AssertionError, match="dense matrix built"):
            spectral_decomposition(spec, psi0)


class TestSpectralDecomposition:
    def test_invariants(self):
        spec = random_chain(4, seed=1)
        sd = spectral_decomposition(spec, random_state(16, 4))
        assert abs(np.sum(np.abs(sd.overlaps) ** 2) - 1.0) < 1e-10
        assert np.all(np.diff(sd.energies) >= 0)

    def test_rejects_unnormalized(self):
        spec = random_chain(3, seed=1)
        with pytest.raises(DomainError):
            spectral_decomposition(spec, np.ones(8))

    def test_real_hamiltonian_diagonalized_in_real_arithmetic(self):
        spec = chaotic_chain(6)
        sd = spectral_decomposition(spec, ground_state(chaotic_initial_chain(6)))
        assert sd.basis.dtype == np.float64
        h = build_hamiltonian(spec)
        assert np.abs(sd.energies - np.linalg.eigvalsh(h)).max() < 1e-12
        # a chain with single-site Y terms has an imaginary part and stays
        # complex
        spec_y = PauliHamiltonian(L=3, terms=((0.7, ((0, "Y"),)),
                                              (0.4, ((0, "X"), (1, "X"))),
                                              (0.3, ((1, "Z"), (2, "Z")))))
        sd_y = spectral_decomposition(spec_y, random_state(8, 3))
        assert np.iscomplexobj(sd_y.basis)


class TestAveragedState:
    def test_short_window_is_pure(self):
        sd = spectral_decomposition(random_chain(3, seed=5), random_state(8, 6))
        spec_t = averaged_state(sd, 0.0, 1e-9)
        assert spec_t.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
        assert np.abs(spec_t.eigenvalues[1:]).max() < 1e-9

    def test_infinite_window_is_diagonal_ensemble(self):
        sd = spectral_decomposition(random_chain(3, seed=5), random_state(8, 6))
        spec_t = averaged_state(sd, 0.0, 1e9)
        diag = np.sort(np.abs(sd.overlaps) ** 2)[::-1]
        assert np.abs(spec_t.eigenvalues - diag).max() < 1e-5

    def test_riemann_oracle(self):
        spec = random_chain(3, seed=12)
        sd = spectral_decomposition(spec, random_state(8, 13))
        spec_t = averaged_state(sd, 0.0, 2.0, want_vectors=True)
        rho = riemann_average(sd, 2.0)
        dist = np.linalg.norm(site_basis_matrix(sd, spec_t) - rho, ord=2)
        assert dist < 1e-6
        assert np.abs(np.linalg.eigvalsh(rho)[::-1]
                      - spec_t.eigenvalues).max() < 1e-6

    def test_spectrum_independent_of_t0(self):
        sd = spectral_decomposition(random_chain(4, seed=3), random_state(16, 9))
        base = averaged_state(sd, 0.0, 2.0).eigenvalues
        for t0 in (0.7, 2.1):
            shifted = averaged_state(sd, t0, 2.0).eigenvalues
            assert np.abs(base - shifted).max() < 1e-10

    def test_uniform_weight_matches_closed_kernel(self):
        sd = spectral_decomposition(random_chain(4, seed=8), random_state(16, 2))
        t = 1.7
        closed = averaged_state(sd, 0.0, t).eigenvalues
        weighted = averaged_state(sd, 0.0, t,
                                  w=WeightFunction.uniform(t)).eigenvalues
        assert np.abs(closed - weighted).max() < 1e-10

    def test_purity_nonincreasing(self):
        sd = spectral_decomposition(random_chain(4, seed=21),
                                    random_state(16, 22))
        purities = [averaged_state(sd, 0.0, t).purity
                    for t in (0.3, 0.8, 1.5, 2.5, 4.0)]
        assert all(a >= b - 1e-12 for a, b in zip(purities, purities[1:]))

    def test_trace_one(self):
        sd = spectral_decomposition(random_chain(3, seed=30), random_state(8, 31))
        spec_t = averaged_state(sd, 0.0, 3.3)
        assert spec_t.eigenvalues.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(spec_t.eigenvalues >= 0.0)


def closed_form_oracle(sd, t: float, t0: float = 0.0) -> np.ndarray:
    """Energy-basis matrix of the uniform [t0, t0 + t] average:
    c_m conj(c_n) e^{-iD(t0 + t/2)} sin(Dt/2)/(Dt/2), D = E_m - E_n."""
    d = sd.energies[:, None] - sd.energies[None, :]
    kernel = np.exp(-1j * d * (t0 + 0.5 * t)) * np.sinc(d * t / (2 * np.pi))
    return np.outer(sd.overlaps, sd.overlaps.conj()) * kernel


def benchmark_schedule(t: float) -> float:
    return 0.15 / math.sqrt(1.0 + 100.0 * t)


# eight windows about 0.5 apart, as in a rank-collapse run
SNAPSHOT_TIMES = [0.52 * (i + 1) for i in range(8)]


@pytest.fixture(scope="module", params=["integrable_8", "chaotic_10"])
def snapshot_system(request):
    if request.param == "integrable_8":
        spec, psi0 = integrable_chain(8, J=1.1), polarized_state(8, "x")
    else:
        spec = chaotic_chain(10, J=0.9, boundary="open")
        psi0 = ground_state(chaotic_initial_chain(10, J=0.9, boundary="open"))
    return spectral_decomposition(spec, psi0)


class TestSnapshotPath:
    """Windows short enough for the snapshot matrix, against N x N oracles."""

    def test_path_selection(self, snapshot_system):
        sd = snapshot_system
        short = averaged_state(sd, 0.0, 2.0)
        assert 32 <= short.nodes < sd.dim
        assert averaged_state(sd, 0.0, 1e3).nodes == 0
        small = spectral_decomposition(random_chain(4, seed=3),
                                       random_state(16, 9))
        assert averaged_state(small, 0.0, 2.0).nodes == 0

    def test_spectrum_and_rank_match_closed_form(self, snapshot_system):
        sd = snapshot_system
        for t in SNAPSHOT_TIMES:
            spec_t = averaged_state(sd, 0.0, t)
            assert 0 < spec_t.nodes < sd.dim
            oracle = np.linalg.eigvalsh(closed_form_oracle(sd, t))[::-1]
            assert np.abs(spec_t.eigenvalues - oracle).max() < 1e-12
            spec_o = AveragedStateSpectrum(eigenvalues=oracle, t0=0.0, t=t,
                                           cumulative=np.cumsum(oracle))
            eps = benchmark_schedule(t)
            assert effective_rank(spec_t, eps).D \
                == effective_rank(spec_o, eps).D

    @pytest.mark.parametrize("T", [1.37, 3.81])
    def test_projection_error_matches_closed_form(self, snapshot_system, T):
        sd = snapshot_system
        eps = benchmark_schedule(T)
        ts = np.linspace(0.0, T, 201)
        res = projection_error(sd, T, eps, ts)
        vals, vecs = np.linalg.eigh(closed_form_oracle(sd, T))
        vals, vecs = vals[::-1], vecs[:, ::-1]
        d = effective_rank(AveragedStateSpectrum(
            eigenvalues=vals, t0=0.0, t=T, cumulative=np.cumsum(vals)),
            eps).D
        psi_t = sd.overlaps[:, None] * np.exp(-1j * np.outer(sd.energies, ts))
        captured = np.cumsum(np.abs(vecs[:, :d + 1].conj().T @ psi_t) ** 2,
                             axis=0)
        err = np.clip(1.0 - captured[d - 1], 0.0, 1.0)
        low = np.clip(1.0 - captured[d], 0.0, 1.0)
        high = (np.clip(1.0 - captured[d - 2], 0.0, 1.0) if d >= 2
                else np.ones_like(ts))
        assert res.D == d
        assert np.abs(res.error - err).max() < 1e-10
        assert np.abs(res.band_low - low).max() < 1e-10
        assert np.abs(res.band_high - high).max() < 1e-10

    @pytest.mark.parametrize("want_vectors", [False, True])
    def test_settled_window_is_factorized_once(self, snapshot_system,
                                               monkeypatch, want_vectors):
        # the window doubles once at this t (three node counts), and only
        # the settled one is factorized: eigvalsh of its Gram matrix, or
        # with vectors the thin SVD of the snapshots alone
        calls = []

        def counted(name, solver):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return solver(*args, **kwargs)
            return wrapper

        for module in (np.linalg, scipy.linalg):
            for name in ("eigvalsh", "eigh", "svd"):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
        spec_t = averaged_state(snapshot_system, 0.0, 3.81,
                                want_vectors=want_vectors)
        assert 0 < spec_t.nodes < snapshot_system.dim
        assert calls == (["svd"] if want_vectors else ["eigvalsh"])

    def test_vectors_orthonormal(self, snapshot_system):
        sd = snapshot_system
        spec_t = averaged_state(sd, 0.0, 2.6, want_vectors=True)
        k = spec_t.vectors.shape[1]
        assert k == spec_t.nodes
        gram = spec_t.vectors.conj().T @ spec_t.vectors
        assert np.abs(gram - np.eye(k)).max() < 1e-12
        assert np.abs(spec_t.eigenvalues[k:]).max() == 0.0

    def test_shifted_closed_form_vectors_match_oracle(self, snapshot_system):
        sd = snapshot_system
        t0, t = 0.7, 1e3
        spec_t = averaged_state(sd, t0, t, want_vectors=True)
        assert spec_t.nodes == 0
        vecs = spec_t.vectors
        rho = (vecs * spec_t.eigenvalues) @ vecs.conj().T
        assert np.abs(rho - closed_form_oracle(sd, t, t0)).max() < 1e-13

    def test_shifted_window_matches_riemann(self):
        sd = spectral_decomposition(integrable_chain(8, J=1.1),
                                    polarized_state(8, "x"))
        t0, t = 0.9, 1.6
        spec_t = averaged_state(sd, t0, t, want_vectors=True)
        assert spec_t.nodes > 0
        k = spec_t.vectors.shape[1]
        vecs = sd.basis @ spec_t.vectors
        rho_spec = (vecs * spec_t.eigenvalues[:k]) @ vecs.conj().T
        slices = 10000
        taus = t0 + (np.arange(slices) + 0.5) * t / slices
        states = sd.basis @ (sd.overlaps[:, None]
                             * np.exp(-1j * np.outer(sd.energies, taus)))
        rho_sum = (states @ states.conj().T) / slices
        assert np.linalg.norm(rho_spec - rho_sum, ord=2) < 1e-6
        d = effective_rank(spec_t, benchmark_schedule(t)).D
        proj = vecs[:, :d] @ vecs[:, :d].conj().T
        _, oracle_vecs = np.linalg.eigh(rho_sum)
        top = oracle_vecs[:, ::-1][:, :d]
        assert np.linalg.norm(proj - top @ top.conj().T, ord=2) < 1e-6

    def test_tabulated_weight_with_kinks_matches_riemann(self):
        sd = spectral_decomposition(integrable_chain(8, J=1.1),
                                    polarized_state(8, "x"))
        w = WeightFunction.from_table([0.0, 0.45, 1.2, 1.75, 2.5],
                                      [0.2, 1.0, 0.3, 0.8, 0.5])
        spec_w = averaged_state(sd, 0.0, w.t, w=w)
        assert spec_w.nodes > 0
        slices = 40000
        taus = (np.arange(slices) + 0.5) * w.t / slices
        dens = np.array([w.density(float(s)) for s in taus]) * w.t / slices
        amps = sd.overlaps[:, None] * np.exp(-1j * np.outer(sd.energies, taus))
        rho = (amps * dens) @ amps.conj().T
        oracle = np.linalg.eigvalsh(rho)[::-1]
        assert np.abs(spec_w.eigenvalues - oracle).max() < 1e-6

    def test_unsettled_uniform_window_raises(self, snapshot_system,
                                             monkeypatch):
        # above the closed-form bound a uniform window takes the snapshot
        # route, with the weighted windows' cap and unsettled-window error
        assert snapshot_system.dim > ed_module._CLOSED_DIM
        monkeypatch.setattr(ed_module, "_WINDOW_CAP", 0)
        with pytest.raises(AccuracyError, match="purity changed"):
            averaged_state(snapshot_system, 0.0, 3.81)

    def test_undeclared_kink_raises(self):
        # Gauss-Legendre converges only algebraically across a kink, so a
        # kinked closure must declare its breakpoints
        sd = spectral_decomposition(random_chain(4, seed=8), random_state(16, 2))
        knots = np.array([0.0, 0.8, 1.3, 2.0])
        values = np.array([0.5, 1.0, 0.2, 0.6])
        values = values / np.trapezoid(values, knots)

        def density(s):
            return float(np.interp(s, knots, values))

        declared = WeightFunction.from_callable(2.0, density,
                                                breakpoints=(0.8, 1.3))
        assert averaged_state(sd, 0.0, 2.0, w=declared).nodes > 0
        hidden = WeightFunction.from_callable(2.0, density)
        with pytest.raises(AccuracyError):
            averaged_state(sd, 0.0, 2.0, w=hidden)


# the ed-collapse systems: (model, start) on either boundary
COLLAPSE_KINDS = [("integrable", "z"), ("integrable", "x"),
                  ("chaotic", "ground_state")]
PROJECTION_TIMES = [1.37, 3.81]
HORIZON = max(SNAPSHOT_TIMES + PROJECTION_TIMES)


def collapse_system(model: str, start: str, L: int, boundary: str,
                    J: float = 0.9):
    if model == "chaotic":
        return (chaotic_chain(L, J=J, boundary=boundary),
                ground_state(chaotic_initial_chain(L, J=J, boundary=boundary)))
    return integrable_chain(L, J=J, boundary=boundary), polarized_state(L, start)


def state_at(sd, s) -> np.ndarray:
    """Columns Psi_s = sum_n c_n e^{-iE_n s} |E_n> in the site basis."""
    return sd.basis @ (sd.overlaps[:, None]
                       * np.exp(-1j * np.outer(sd.energies, s)))


def assert_same_observables(sdk, sdd, times, proj_times):
    """Everything `qspan ed` reports, from a Krylov and a dense
    decomposition: spectra to 1e-12, identical D, projection errors and
    bands to 1e-12, e2 to 1e-12 relative."""
    for t in times:
        kry = averaged_state(sdk, 0.0, t)
        den = averaged_state(sdd, 0.0, t)
        assert kry.nodes == 0        # the closed form, no snapshots
        assert kry.eigenvalues.size == sdk.dim
        pad = np.pad(kry.eigenvalues, (0, sdd.dim - sdk.dim))
        assert np.abs(pad - den.eigenvalues).max() <= 1e-12
        eps = benchmark_schedule(t)
        assert effective_rank(kry, eps).D == effective_rank(den, eps).D
    for T in proj_times:
        ts = np.linspace(0.0, T, 201)
        spec_k = averaged_state(sdk, 0.0, T, want_vectors=True)
        assert spec_k.nodes == 0
        kry = projection_error(sdk, T, benchmark_schedule(T), ts, spec=spec_k)
        den = projection_error(sdd, T, benchmark_schedule(T), ts)
        assert kry.D == den.D
        for name in ("error", "band_low", "band_high"):
            assert np.abs(getattr(kry, name) - getattr(den, name)).max() \
                <= 1e-12
    e2_kry = energy_cumulants(sdk, 2)[1]
    e2_den = energy_cumulants(sdd, 2)[1]
    assert abs(e2_kry - e2_den) <= 1e-12 * abs(e2_den)


class TestKrylovDecomposition:
    """The Lanczos route against the dense eigensolve it replaces."""

    @pytest.mark.parametrize("L", [8, 9, 10])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("model, start", COLLAPSE_KINDS)
    def test_matches_dense(self, model, start, boundary, L):
        spec, psi0 = collapse_system(model, start, L, boundary)
        sdk = krylov_decomposition(spec, psi0, HORIZON)
        assert sdk.dim < 2 ** L
        assert sdk.horizon == HORIZON and sdk.error <= 1e-13
        assert_same_observables(sdk, spectral_decomposition(spec, psi0),
                                SNAPSHOT_TIMES, PROJECTION_TIMES)

    def test_matches_dense_at_l12(self, chaotic_12):
        sdk = chaotic_12["krylov"]
        assert sdk.dim < 2 ** 12
        assert_same_observables(sdk, chaotic_12["sd"], [1.0, 2.5, 4.0],
                                [1.0, 4.0])

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    @pytest.mark.parametrize("model, start, L, boundary", [
        ("chaotic", "ground_state", 9, "periodic"),
        ("integrable", "x", 8, "open")])
    def test_error_bounds_the_state_error(self, monkeypatch, tol, model,
                                          start, L, boundary):
        spec, psi0 = collapse_system(model, start, L, boundary)
        sdd = spectral_decomposition(spec, psi0)
        monkeypatch.setattr(ed_module, "_KRYLOV_TOL", tol)
        sdk = krylov_decomposition(spec, psi0, HORIZON)
        s = np.linspace(-HORIZON, HORIZON, 1601)
        true = np.linalg.norm(state_at(sdd, s) - state_at(sdk, s),
                              axis=0).max()
        h_norm = abs(_sparse_hamiltonian(spec)).sum(axis=1).max()
        floor = np.finfo(float).eps * (1.0 + h_norm * HORIZON)
        assert true > 1e-3 * tol          # the truncation shows
        assert true - floor <= sdk.error <= tol

    def test_closed_krylov_space_gives_dense_spectrum(self):
        # the z-polarized start of the periodic integrable chain reaches 17
        # levels; round-off adds Ritz levels of negligible weight
        spec, psi0 = collapse_system("integrable", "z", 8, "periodic")
        sdd = spectral_decomposition(spec, psi0)
        weights = np.abs(sdd.overlaps) ** 2
        reached = weights > 1e-24
        assert reached.sum() == 17
        for t_max in (HORIZON, 100.0, 1e4):
            sdk = krylov_decomposition(spec, psi0, t_max)
            assert sdk.dim < 32 and sdk.error <= 1e-10
            ritz = np.abs(sdk.overlaps) ** 2
            kept = ritz > 1e-16
            assert ritz[~kept].sum() <= 1e-16
            assert np.abs(sdk.energies[kept]
                          - sdd.energies[reached]).max() <= 1e-12
            assert np.abs(ritz[kept] - weights[reached]).max() <= 1e-12

    @pytest.mark.parametrize("call", [
        lambda sd: averaged_state(sd, 0.0, 2.5),
        lambda sd: averaged_state(sd, 1.0, 1.5),
        lambda sd: averaged_state(sd, -2.5, 1.0),
        lambda sd: projection_error(sd, 2.5, 0.1, [1.0]),
        lambda sd: return_amplitude(sd, [0.5, -2.5]),
        lambda sd: first_overlap_crossing(sd, 0.5, t_max=3.0),
    ], ids=["window", "shifted-window", "negative-window", "projection",
            "amplitude", "crossing"])
    def test_times_beyond_horizon_raise(self, call):
        spec, psi0 = collapse_system("integrable", "x", 8, "open")
        sd = krylov_decomposition(spec, psi0, 2.0)
        averaged_state(sd, 0.0, 2.0)           # up to the horizon is fine
        return_amplitude(sd, [-2.0, 2.0])
        with pytest.raises(DomainError, match="horizon"):
            call(sd)

    @pytest.mark.parametrize("call", [
        lambda sd: averaged_state(sd, 0.0, math.nan),
        lambda sd: averaged_state(sd, 0.0, math.inf),
        lambda sd: averaged_state(sd, math.nan, 1.0),
        lambda sd: averaged_state(sd, -math.inf, 1.0),
        lambda sd: projection_error(sd, math.nan, 0.1, [1.0]),
        lambda sd: projection_error(sd, 1.5, 0.1, [math.nan]),
        lambda sd: return_amplitude(sd, math.nan),
        lambda sd: return_amplitude(sd, [0.5, math.inf]),
        lambda sd: first_overlap_crossing(sd, 0.5, t_max=math.nan),
    ], ids=["nan-width", "inf-width", "nan-start", "inf-start",
            "nan-projection", "nan-projection-time", "nan-amplitude",
            "inf-amplitude", "nan-crossing"])
    @pytest.mark.parametrize("route", ["dense", "krylov"])
    def test_non_finite_times_raise(self, call, route):
        # the dense route's horizon is infinite, and NaN passes every
        # comparison, so a finiteness check is what stops these
        spec, psi0 = collapse_system("integrable", "x", 6, "open")
        sd = spectral_decomposition(spec, psi0) if route == "dense" \
            else krylov_decomposition(spec, psi0, 2.0)
        with pytest.raises(DomainError):
            call(sd)

    def test_rejects_bad_input(self):
        spec, psi0 = collapse_system("integrable", "x", 4, "open")
        for t_max in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                krylov_decomposition(spec, psi0, t_max)
        with pytest.raises(DomainError):
            krylov_decomposition(spec, 2.0 * psi0, 1.0)

    def test_ritz_basis_formed_only_when_read(self):
        spec, psi0 = collapse_system("chaotic", "ground_state", 8, "open")
        sd = krylov_decomposition(spec, psi0, HORIZON)
        spec_t = averaged_state(sd, 0.0, 2.0, want_vectors=True)
        projection_error(sd, 2.0, 0.1, [0.5, 1.0], spec=spec_t)
        energy_cumulants(sd, 4)
        assert "basis" not in vars(sd)
        basis = sd.basis
        assert sd.basis is basis
        assert basis.shape == (2 ** 8, sd.dim)
        assert np.abs(basis.conj().T @ basis - np.eye(sd.dim)).max() < 1e-12


@pytest.fixture
def blas_calls():
    """Every loaded OpenBLAS, set to 2 threads for the test (so that a count
    put back differs from 1) and reset to its own count afterwards."""
    calls = ed_module._openblas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in calls]
    for _, put in calls:
        put(2)
    yield calls
    for (_, put), count in zip(calls, before):
        put(count)


def thread_counts(calls) -> list[int]:
    return [get() for get, _ in calls]


class TestBlasThreadScope:
    """The Lanczos loops run with OpenBLAS on one thread and put the
    process's previous thread counts back."""

    def test_one_thread_inside_and_restored_after(self, blas_calls):
        with ed_module._one_blas_thread:
            assert thread_counts(blas_calls) == [1] * len(blas_calls)
            with ed_module._one_blas_thread:       # nested
                assert thread_counts(blas_calls) == [1] * len(blas_calls)
            assert thread_counts(blas_calls) == [1] * len(blas_calls)
        assert thread_counts(blas_calls) == [2] * len(blas_calls)

    def test_restored_after_raise(self, blas_calls):
        with pytest.raises(RuntimeError):
            with ed_module._one_blas_thread:
                assert thread_counts(blas_calls) == [1] * len(blas_calls)
                raise RuntimeError
        assert thread_counts(blas_calls) == [2] * len(blas_calls)
        spec, psi0 = collapse_system("integrable", "x", 4, "open")
        with pytest.raises(DomainError):
            krylov_decomposition(spec, psi0, -1.0)
        assert thread_counts(blas_calls) == [2] * len(blas_calls)

    def test_no_library_found_does_nothing(self, blas_calls, monkeypatch):
        monkeypatch.setattr(ed_module, "_openblas_thread_calls", lambda: ())
        with ed_module._one_blas_thread:
            assert thread_counts(blas_calls) == [2] * len(blas_calls)
        vec = ground_state(chaotic_initial_chain(4))
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert thread_counts(blas_calls) == [2] * len(blas_calls)

    def test_concurrent_callers_keep_one_thread(self, blas_calls):
        inside = []

        def work():
            for _ in range(200):
                with ed_module._one_blas_thread:
                    inside.append(thread_counts(blas_calls))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for th in workers:
                th.start()
            for th in workers:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in workers)
        assert len(inside) == 800
        assert all(c == [1] * len(blas_calls) for c in inside)
        assert thread_counts(blas_calls) == [2] * len(blas_calls)

    def test_cli_ed_run_uses_one_thread_and_restores(self, blas_calls,
                                                     monkeypatch, tmp_path):
        from qspan import cli
        seen = {"eigsh": [], "bound": []}

        def recorder(key, fn):
            def call(*args, **kwargs):
                seen[key].append(thread_counts(blas_calls))
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            recorder("eigsh", scipy.sparse.linalg.eigsh))
        monkeypatch.setattr(ed_module, "_lanczos_bound",
                            recorder("bound", ed_module._lanczos_bound))
        cfg = tmp_path / "ed.cfg"
        cfg.write_text("[system]\nmodel = chaotic\nL = 6\n[grid]\n"
                       "t = 0.5 1.0\n[projection]\nT = 1.0\npoints = 5\n")
        assert cli.main(["ed", "--config", str(cfg),
                         "--out", str(tmp_path / "ed.csv")]) == 0
        assert seen["eigsh"] and seen["bound"]
        for counts in seen["eigsh"] + seen["bound"]:
            assert counts == [1] * len(blas_calls)
        assert thread_counts(blas_calls) == [2] * len(blas_calls)

    def test_degeneracy_warning_names_the_caller(self):
        flat = PauliHamiltonian(L=3, terms=((0.0, ((0, "Z"),)),))
        with pytest.warns(DegenerateGroundStateWarning) as record:
            ground_state(flat)
        assert record[0].filename == __file__


class TestEffectiveRank:
    @pytest.mark.parametrize("eps,d_want,discard_want", [
        (0.05, 3, 0.0), (0.1, 2, 0.1), (0.4, 1, 0.4)])
    def test_hand_cases(self, eps, d_want, discard_want):
        lam = np.array([0.6, 0.3, 0.1])
        spec = AveragedStateSpectrum(eigenvalues=lam, t0=0.0, t=1.0,
                                     cumulative=np.cumsum(lam))
        rank = effective_rank(spec, eps)
        assert rank.D == d_want
        assert rank.discarded == pytest.approx(discard_want, abs=1e-12)
        assert rank.lambda_cut == lam[d_want - 1]

    def test_eps_zero_keeps_support(self):
        lam = np.array([0.7, 0.3, 0.0, 0.0])
        spec = AveragedStateSpectrum(eigenvalues=lam, t0=0.0, t=1.0,
                                     cumulative=np.cumsum(lam))
        assert effective_rank(spec, 0.0).D == 2

    def test_domain(self):
        lam = np.array([1.0])
        spec = AveragedStateSpectrum(eigenvalues=lam, t0=0.0, t=1.0,
                                     cumulative=np.cumsum(lam))
        with pytest.raises(DomainError):
            effective_rank(spec, 1.0)


class TestProjectionError:
    def test_infinite_window_zero_eps_is_exact(self):
        sd = spectral_decomposition(random_chain(3, seed=17), random_state(8, 18))
        big_t = 1e7
        res = projection_error(sd, big_t, 0.0,
                               np.linspace(0, 10, 20) / 10 * big_t)
        assert res.error.max() < 1e-10

    def test_projector_idempotent_with_matching_rank(self):
        sd = spectral_decomposition(random_chain(4, seed=19), random_state(16, 20))
        spec_t = averaged_state(sd, 0.0, 2.0, want_vectors=True)
        rank = effective_rank(spec_t, 0.1)
        cols = spec_t.vectors[:, :rank.D]
        proj = cols @ cols.conj().T
        assert np.abs(proj @ proj - proj).max() < 1e-10
        assert np.trace(proj).real == pytest.approx(rank.D, abs=1e-10)

    def test_band_ordering_and_start(self):
        spec = chaotic_chain(8)
        psi0 = ground_state(chaotic_initial_chain(8))
        sd = spectral_decomposition(spec, psi0)
        ts = np.linspace(0, 1.0, 51)
        res = projection_error(sd, 1.0, 0.15 / math.sqrt(101.0), ts)
        assert np.all(res.band_low <= res.error + 1e-12)
        assert np.all(res.error <= res.band_high + 1e-12)
        assert res.error[0] < 0.1  # curves start near zero

    def test_rejects_time_outside_window(self):
        sd = spectral_decomposition(random_chain(3, seed=40), random_state(8, 41))
        with pytest.raises(DomainError):
            projection_error(sd, 1.0, 0.1, np.array([1.5]))


class TestRankCurve:
    def test_eps_near_one_gives_rank_one(self):
        spec = random_chain(4, seed=23, boundary="periodic")
        psi0 = random_state(16, 24)
        curve = rank_curve(spec, psi0, lambda t: 0.999, [0.5, 1.0, 2.0])
        assert np.all(curve.dims == 1)

    def test_fields_consistent(self):
        spec = chaotic_chain(6)
        psi0 = ground_state(chaotic_initial_chain(6))
        times = [0.5, 1.0]
        curve = rank_curve(spec, psi0, lambda t: 0.15 / math.sqrt(1 + 100 * t),
                           times)
        assert curve.L == 6
        assert np.allclose(curve.dims_per_sqrt_l,
                           curve.dims / math.sqrt(6))
        assert curve.e2 > 0


class TestEnergyCumulants:
    def test_product_state_field(self):
        spec = PauliHamiltonian(
            L=3, terms=tuple((1.0, ((l, "Z"),)) for l in range(3)))
        e = energy_cumulants((spec, polarized_state(3)), 4)
        assert e[0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(e[1:]).max() < 1e-12

    def test_first_two_are_mean_and_variance(self):
        spec = random_chain(4, seed=33)
        psi = random_state(16, 34)
        h = build_hamiltonian(spec)
        mean = float(np.real(np.vdot(psi, h @ psi)))
        var = float(np.real(np.vdot(psi, h @ (h @ psi)))) - mean ** 2
        e = energy_cumulants((spec, psi), 2)
        assert e[0] * 4 == pytest.approx(mean, rel=1e-12)
        assert e[1] * 4 == pytest.approx(var, rel=1e-12)

    def test_routes_agree(self):
        for seed in (0, 1, 2):
            spec = random_chain(4, seed=100 + seed)
            psi = random_state(16, 200 + seed)
            direct = energy_cumulants((spec, psi), 4)
            via_ops = energy_cumulants_operator_route(spec, psi, 4)
            assert np.abs(direct - via_ops).max() < 1e-8

    def test_spectral_and_pair_routes_match(self):
        spec = random_chain(4, seed=55)
        psi = random_state(16, 56)
        sd = spectral_decomposition(spec, psi)
        assert np.abs(energy_cumulants(sd, 4)
                      - energy_cumulants((spec, psi), 4)).max() < 1e-10

    def test_operator_recursion_expectations(self):
        # <H^(1)> = <H>, <H^(2)> = <H^2> - 2<H>^2
        spec = random_chain(3, seed=60)
        psi = random_state(8, 61)
        h = build_hamiltonian(spec)
        m1 = float(np.real(np.vdot(psi, h @ psi)))
        m2 = float(np.real(np.vdot(psi, h @ (h @ psi))))
        op2 = cumulant_operator(spec, psi, 2)
        assert float(np.real(np.vdot(psi, op2 @ psi))) == pytest.approx(
            m2 - 2 * m1 * m1, rel=1e-10)

    def test_extensivity_of_e2(self, chaotic_12):
        # per-site variance drifts by well under 5 percent across sizes
        psi0 = ground_state(chaotic_initial_chain(8))
        vals = {8: energy_cumulants((chaotic_chain(8), psi0), 2)[1],
                12: energy_cumulants((chaotic_12["spec"],
                                      chaotic_12["psi0"]), 2)[1]}
        assert abs(vals[12] - vals[8]) / vals[8] < 0.05

    def test_domain(self):
        spec = random_chain(2, seed=1)
        with pytest.raises(DomainError):
            energy_cumulants((spec, polarized_state(2)), 9)

    def test_pair_route_is_shift_invariant(self):
        # moments about the mean: a constant added to H moves e1 only, where
        # raw moments of H + 50 would lose about ten digits at n = 6
        spec = random_chain(4, seed=41)
        psi = random_state(16, 42)
        h = build_hamiltonian(spec)
        base = energy_cumulants((h, psi), 6)
        shifted = energy_cumulants((h + 50.0 * np.eye(16), psi), 6)
        assert shifted[0] == pytest.approx(base[0] + 12.5, rel=1e-14)
        assert np.all(np.abs(shifted[1:] - base[1:])
                      <= 1e-12 * np.maximum(1.0, np.abs(base[1:])))

    def test_operator_route_builds_the_recursion_once(self, monkeypatch):
        calls = []
        build = ed_module._cumulant_operators

        def spy(h, psi, n_max):
            calls.append(n_max)
            return build(h, psi, n_max)

        monkeypatch.setattr(ed_module, "_cumulant_operators", spy)
        spec = random_chain(3, seed=62)
        psi = random_state(8, 63)
        via_ops = energy_cumulants_operator_route(spec, psi, 8)
        assert calls == [8]
        direct = energy_cumulants((spec, psi), 8)
        assert np.all(np.abs(via_ops - direct)
                      <= 1e-8 * np.maximum(1.0, np.abs(direct)))

    def test_operator_order_domain(self):
        spec, psi = random_chain(2, seed=1), polarized_state(2)
        assert cumulant_operator(spec, psi, 8).shape == (4, 4)
        for n in (0, 9):
            with pytest.raises(DomainError, match=r"\[1, 8\]"):
                cumulant_operator(spec, psi, n)

    @pytest.mark.parametrize("call", [
        lambda spec, psi: energy_cumulants((spec, psi), 2),
        lambda spec, psi: cumulant_operator(spec, psi, 2),
        lambda spec, psi: energy_cumulants_operator_route(spec, psi, 2),
        lambda spec, psi: cumulant_density(spec, psi, 0, 2),
    ], ids=["pair-route", "operator", "operator-route", "density"])
    def test_rejects_unnormalized_state(self, call):
        with pytest.raises(DomainError, match="norm"):
            call(random_chain(2, seed=1), 2.0 * polarized_state(2))


class TestCumulantDensity:
    def test_sum_rule(self):
        spec = random_chain(4, seed=71, boundary="periodic")
        psi = random_state(16, 72)
        sd = spectral_decomposition(spec, psi)
        e = energy_cumulants(sd, 4)
        for n in (1, 2, 3, 4):
            total = sum(cumulant_density(spec, psi, l, n) for l in range(4))
            assert total == pytest.approx(4 * e[n - 1], abs=1e-8)

    def test_translation_invariance(self):
        spec = integrable_chain(4)
        psi = polarized_state(4)
        dens = [cumulant_density(spec, psi, l, 2) for l in range(4)]
        assert max(dens) - min(dens) < 1e-10

    def test_staggered_field_profile(self):
        # for the bundled pair the site profile is measured flat at n = 2
        # (the staggered response cancels for this initial state), while a
        # z-polarized start shows the period-2 alternation at n = 1
        spec = chaotic_chain(6)
        psi = ground_state(chaotic_initial_chain(6))
        dens = [cumulant_density(spec, psi, l, 2) for l in range(6)]
        assert max(dens) - min(dens) < 1e-10
        psi_z = polarized_state(6)
        dens_z = [cumulant_density(spec, psi_z, l, 1) for l in range(6)]
        assert np.allclose(dens_z[0::2], dens_z[0], atol=1e-12)
        assert np.allclose(dens_z[1::2], dens_z[1], atol=1e-12)
        assert abs(dens_z[0] - dens_z[1]) == pytest.approx(0.6, abs=1e-10)

    def test_site_without_terms(self):
        # the last site of an open chain owns no bond
        assert cumulant_density(integrable_chain(4, boundary="open"),
                                polarized_state(4, "x"), 3, 2) == 0.0

    def test_rejects_long_range_terms(self):
        spec = PauliHamiltonian(
            L=4, terms=((1.0, ((0, "X"), (1, "X"), (2, "X"))),))
        with pytest.raises(DomainError):
            cumulant_density(spec, polarized_state(4), 0, 2)

    @pytest.mark.parametrize("L", [4, 6, 8])
    @pytest.mark.parametrize("system", ["random-periodic", "random-open",
                                        "chaotic-ground", "integrable-x",
                                        "chaotic-open-y"])
    def test_matches_eigenbasis_oracle(self, L, system):
        spec, psi = {
            "random-periodic": lambda: (
                random_chain(L, seed=80 + L, boundary="periodic"),
                random_state(2 ** L, 90 + L)),
            "random-open": lambda: (random_chain(L, seed=100 + L),
                                    random_state(2 ** L, 110 + L)),
            "chaotic-ground": lambda: (
                chaotic_chain(L), ground_state(chaotic_initial_chain(L))),
            "integrable-x": lambda: (integrable_chain(L),
                                     polarized_state(L, "x")),
            "chaotic-open-y": lambda: (chaotic_chain(L, boundary="open"),
                                       polarized_state(L, "y")),
        }[system]()
        sd = spectral_decomposition(spec, psi)
        for site in range(L):
            want = eigenbasis_densities(spec, psi, site, 6, sd)
            got = [cumulant_density(spec, psi, site, n) for n in range(1, 7)]
            # 1e-13 or better everywhere but chaotic-ground at L = 4, n = 6,
            # where the eigenbasis sum itself is 1.3e-12 off a 60-digit
            # evaluation of the same derivative and the matrix-vector route
            # 1.85e-13 at most
            assert np.all(np.abs(np.array(got) - want)
                          <= 2e-12 * np.maximum(1.0, np.abs(want)))

    def test_sum_rule_at_l12_to_eighth_order(self, chaotic_12):
        spec, psi = chaotic_12["spec"], chaotic_12["psi0"]
        e = energy_cumulants((spec, psi), 8)
        for n in range(1, 9):
            total = sum(cumulant_density(spec, psi, l, n) for l in range(12))
            assert abs(total - 12 * e[n - 1]) <= 1e-12 * max(
                1.0, abs(12 * e[n - 1]))

    def test_never_diagonalizes_or_densifies(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense route taken")

        spec = chaotic_chain(8)
        psi = ground_state(chaotic_initial_chain(8))
        for owner, name in ((ed_module, "spectral_decomposition"),
                            (ed_module, "build_hamiltonian"),
                            (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                            (scipy.linalg, "eigh"),
                            (scipy.sparse.csr_matrix, "toarray")):
            monkeypatch.setattr(owner, name, refuse)
        for n in range(1, 9):
            cumulant_density(spec, psi, 3, n)

    def test_order_domain(self):
        spec, psi = integrable_chain(4), polarized_state(4, "x")
        for n in (7, 8):
            assert math.isfinite(cumulant_density(spec, psi, 0, n))
        for n in (0, 9):
            with pytest.raises(DomainError, match=r"\[1, 8\]"):
                cumulant_density(spec, psi, 0, n)


class TestOverlapAmplitude:
    def test_return_amplitude_at_zero(self):
        sd = spectral_decomposition(random_chain(3, seed=80), random_state(8, 81))
        assert return_amplitude(sd, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_first_crossing_bisection(self):
        sd = spectral_decomposition(chaotic_chain(6),
                                    ground_state(chaotic_initial_chain(6)))
        tc = first_overlap_crossing(sd, 0.5, t_max=5.0)
        assert return_amplitude(sd, tc * 0.98) > 0.5 > return_amplitude(
            sd, tc * 1.02)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.1,
                                           float("nan")])
    def test_first_crossing_rejects_threshold_outside_unit_interval(
            self, threshold):
        # the amplitude starts at 1 and is never negative: a threshold
        # outside (0, 1) has no first crossing and must not yield t_max
        sd = spectral_decomposition(random_chain(3, seed=80), random_state(8, 81))
        with pytest.raises(DomainError, match="outside"):
            first_overlap_crossing(sd, threshold, t_max=5.0)

    def test_cosine_speed_limit_property(self):
        # |<Psi_t|Psi_0>| >= cos(dE t) while dE t <= pi/2: the rigorous
        # quantum-speed-limit inequality, never violated
        for seed in (0, 1, 2):
            spec = random_chain(4, seed=300 + seed, boundary="periodic")
            psi = random_state(16, 400 + seed)
            sd = spectral_decomposition(spec, psi)
            e = energy_cumulants(sd, 2)
            de = math.sqrt(4 * e[1])
            ts = np.linspace(0, 0.5 * math.pi / de, 101)
            amp = return_amplitude(sd, ts)
            assert np.all(amp >= np.cos(de * ts) - 1e-10)


class TestHamiltonianFiles:
    def test_round_trip(self, tmp_path):
        spec = chaotic_chain(4, boundary="open")
        path = tmp_path / "chain.ham"
        write_hamiltonian_file(spec, path)
        loaded = read_hamiltonian_file(path)
        assert loaded == spec

    def test_parse_toy_file(self, tmp_path):
        path = tmp_path / "toy.ham"
        path.write_text("# toy\nL=2\nboundary=open\n"
                        "1.0 X@0 X@1\n-0.5 Z@1\n")
        spec = read_hamiltonian_file(path)
        assert spec.L == 2
        assert len(spec.terms) == 2

    @pytest.mark.parametrize("text,fragment", [
        ("boundary=open\n1.0 X@0\n", "missing L="),
        ("L=2\nfoo=3\n", "unknown header"),
        ("L=2\nabc X@0\n", "bad coefficient"),
        ("L=2\n1.0 X0\n", "expected op@site"),
        ("L=2\n1.0 X@zero\n", "bad site"),
        ("L=2\n1.0 X@0 Y@1 Z@1\n", "one or two"),
        ("L=2\nnan X@0\n", "not finite"),
        ("L=2\n1.0 X@0\n-inf Z@1\n", "not finite"),
    ])
    def test_parse_errors(self, tmp_path, text, fragment):
        path = tmp_path / "bad.ham"
        path.write_text(text)
        with pytest.raises(ConfigError, match=fragment):
            read_hamiltonian_file(path)
