"""Exact diagonalization of small spin-1/2 chains.

Builds Hamiltonians from weighted Pauli strings as one sparse matrix.
`ground_state` takes the two lowest levels from sparse Lanczos and the
(H, psi0) route of `energy_cumulants` uses sparse matrix-vector products.
The energy levels E_n and overlaps c_n that the protocols read come from
one of two routes, both a `SpectralDecomposition`:
`krylov_decomposition` runs Lanczos from psi0 on the sparse H and keeps
the K Ritz levels (K of order (E_max - E_min) t_max / 2, well below N =
2^L) that reproduce Psi_s for |s| <= t_max to a stated bound; it feeds
`qspan ed` and `rank_curve` by default. `spectral_decomposition`
densifies H and diagonalizes it fully (real arithmetic when the matrix is
real), exact at every time, and stays as the oracle. A decomposition
records the largest |s| it holds for (`horizon`, infinite for the dense
route) and its error there (`error`); every function that evolves a
state raises DomainError past the horizon. Below, N counts the levels of
the decomposition in use: 2^L for the dense route, K for the Krylov one.

On top of that the module implements the finite-size protocols: the
time-averaged state

    rho_bar(t0, t) = int_0^t w(s) |Psi_{t0+s}><Psi_{t0+s}| ds,

its eigenvalue spectrum with low-probability truncation, the error made by
projecting the evolving state onto the retained subspace, and the energy
cumulants per site together with their spatial densities.

The nonzero spectrum of rho_bar is that of the snapshot matrix
Psi_{ni} = c_n e^{-i E_n (t0 + tau_i)} sqrt(omega_i) on m Gauss-Legendre
nodes tau_i of the window (weights omega_i with the density folded in):
the window core `overlap._window_spectrum` builds the smaller Gram side
(Psi^dag Psi or Psi Psi^dag) and settles m by the rule it shares with
`overlap.moments_quadrature`, on the purity read as the Gram matrix's
squared Frobenius norm, with nothing factorized. Only the settled window is
factorized, once: `eigvalsh` of its Gram matrix for the eigenvalues alone,
or a thin SVD of Psi, whose squared singular values are the eigenvalues,
when eigenvectors are wanted. When a uniform window needs m >= N nodes,
the N x N energy-basis matrix c_m conj(c_n) e^{-i(E_m-E_n)t0}
(e^{-iDt} - 1)/(-iDt), D = E_m - E_n, is diagonalized instead; that form
is exact at any t and its memory does not grow with t.

Site s of basis state |j> is bit L-1-s of j (site 0 the most significant,
as in P_0 x P_1 x ...). A Pauli string with X or Y on the sites of
flipmask and Y or Z on those of zmask maps |j> to
i^{n_Y} (-1)^{popcount(j & zmask)} |j ^ flipmask>: a sum of them is one
sparse assembly of signed permutations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .asymptotics import WeightFunction
from .errors import AccuracyError, ConfigError, DomainError, SizeError
from .overlap import _M_START, _window_spectrum
from .special import erf_inv

__all__ = [
    "PauliHamiltonian",
    "SpectralDecomposition",
    "AveragedStateSpectrum",
    "EffectiveRank",
    "ProjectionErrorResult",
    "RankCurve",
    "DegenerateGroundStateWarning",
    "build_hamiltonian",
    "ground_state",
    "spectral_decomposition",
    "krylov_decomposition",
    "return_amplitude",
    "first_overlap_crossing",
    "averaged_state",
    "effective_rank",
    "rank_curve",
    "projection_error",
    "energy_cumulants",
    "cumulant_operator",
    "energy_cumulants_operator_route",
    "cumulant_density",
    "chaotic_chain",
    "chaotic_initial_chain",
    "integrable_chain",
    "polarized_state",
    "read_hamiltonian_file",
    "write_hamiltonian_file",
]

MAX_SITES = 14

class DegenerateGroundStateWarning(UserWarning):
    """Ground state nearly degenerate; the gauge-fixed lowest vector is used."""


# ---------------------------------------------------------------------------
# Hamiltonian description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliHamiltonian:
    """Spin chain as a list of weighted Pauli strings.

    Each term is (coefficient, ((site, op), ...)) with real coefficients
    (Hermiticity) and ops in {X, Y, Z}. `boundary` records how the chain
    was generated; the terms themselves are always explicit.
    """

    L: int
    terms: tuple[tuple[float, tuple[tuple[int, str], ...]], ...]
    boundary: str = "periodic"

    def __post_init__(self):
        if self.L < 1:
            raise DomainError("L must be at least 1")
        if self.L > MAX_SITES:
            raise SizeError(f"L = {self.L} exceeds the dense-ED limit "
                            f"{MAX_SITES}")
        if self.boundary not in ("periodic", "open"):
            raise DomainError(f"unknown boundary {self.boundary!r}")
        canon = []
        for coeff, ops in self.terms:
            coeff = float(coeff)
            ops = tuple(sorted((int(s), str(o).upper()) for s, o in ops))
            if not ops:
                raise DomainError("each term needs at least one operator")
            sites = [s for s, _ in ops]
            if len(set(sites)) != len(sites):
                raise DomainError(f"repeated site in term {ops}")
            for s, o in ops:
                if not 0 <= s < self.L:
                    raise DomainError(f"site {s} outside chain of length "
                                      f"{self.L}")
                if o not in ("X", "Y", "Z"):
                    raise DomainError(f"unknown Pauli label {o!r}")
            canon.append((coeff, ops))
        object.__setattr__(self, "terms", tuple(canon))

    @property
    def dim(self) -> int:
        return 2 ** self.L


def build_hamiltonian(spec: PauliHamiltonian) -> np.ndarray:
    """Dense Hermitian matrix of the Pauli-string sum (2^L x 2^L)."""
    return _sparse_hamiltonian(spec).toarray()


def _sparse_hamiltonian(spec: PauliHamiltonian) -> sp.csr_matrix:
    """The Pauli-string sum as a sparse matrix, checked to be Hermitian: the
    one assembly behind `build_hamiltonian`, `ground_state`,
    `krylov_decomposition` and the matrix-vector cumulants."""
    h = _pauli_sum(spec.L, spec.terms)
    # checked in sparse form: the dense h - h^dag costs more than the build
    scale = max(abs(h).max(), 1.0)
    if abs(h - h.conj().T).max() > 1e-14 * scale:
        raise DomainError("constructed matrix is not Hermitian")
    return h


def _pauli_sum(L: int, terms) -> sp.csr_matrix:
    """Sum of weighted Pauli strings: one signed permutation per term (see
    the module docstring), all in one COO -> CSR build that sums repeats."""
    def mask(ops, labels):
        return sum(1 << (L - 1 - site) for site, op in ops if op in labels)

    j = np.arange(2 ** L)
    flip = np.array([mask(ops, "XY") for _, ops in terms], dtype=int)[:, None]
    zmask = np.array([mask(ops, "YZ") for _, ops in terms], dtype=int)[:, None]
    amp = np.array([c * 1j ** sum(op == "Y" for _, op in ops)
                    for c, ops in terms], dtype=complex)[:, None]
    vals = np.where(np.bitwise_count(j & zmask) % 2 == 1, -amp, amp)
    rows = j ^ flip
    cols = np.broadcast_to(j, rows.shape)
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(j.size, j.size))


def _as_matrix(h) -> np.ndarray:
    if isinstance(h, PauliHamiltonian):
        return build_hamiltonian(h)
    return np.asarray(h, dtype=complex)


def _as_operator(h) -> sp.csr_matrix:
    """Sparse matrix of a chain or of a given matrix, for matrix-vector
    work; a chain is never densified."""
    if isinstance(h, PauliHamiltonian):
        return _sparse_hamiltonian(h)
    return sp.csr_matrix(np.asarray(h, dtype=complex))


# ---------------------------------------------------------------------------
# Eigenproblems
# ---------------------------------------------------------------------------

def ground_state(spec, gap_tol: float = 1e-10) -> np.ndarray:
    """Normalized lowest eigenvector with a deterministic gauge.

    The two lowest eigenpairs come from implicitly restarted Lanczos
    (ARPACK through `scipy.sparse.linalg.eigsh`, k = 2, converged to
    machine precision) on the sparse matrix, in real arithmetic when it is
    real; the matrix is never densified. The start vector is a fixed
    pseudo-random one, so it overlaps every symmetry sector and repeated
    calls return the same vector. Only a matrix smaller than 4 x 4, where
    ARPACK cannot take k = 2, is solved densely, and the zero matrix, on
    which ARPACK cannot start, returns the first basis state.

    The first amplitude above numerical noise is rotated to the positive
    real axis. A gap below `gap_tol` between the two values triggers a
    degeneracy warning; the gauge-fixed vector of the lowest level is still
    returned. A single start vector spans one direction of a degenerate
    level, so the warning relies on ARPACK's restarts to find the partner;
    they do on the chains tested, but it is not guaranteed.
    """
    h = _as_operator(spec)
    n = h.shape[0]
    if n == 1:
        return np.ones(1, dtype=complex)
    if not np.any(h.data.imag):
        h = h.real
    if n < 4:
        vals, vecs = scipy.linalg.eigh(h.toarray(), subset_by_index=[0, 1])
    elif not h.count_nonzero():
        vals, vecs = np.zeros(2), np.eye(n, 2)
    else:
        v0 = np.random.default_rng(0).standard_normal(n).astype(h.dtype)
        vals, vecs = scipy.sparse.linalg.eigsh(h, k=2, which="SA", tol=0,
                                               v0=v0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    if vals[1] - vals[0] < gap_tol:
        warnings.warn(f"ground state nearly degenerate (gap = "
                      f"{vals[1] - vals[0]:.3e})",
                      DegenerateGroundStateWarning, stacklevel=2)
    return _fix_gauge(vecs[:, 0])


def _fix_gauge(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    idx = np.argmax(np.abs(v) > 1e-12 * np.abs(v).max())
    phase = v[idx] / abs(v[idx])
    return v * phase.conjugate()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Energy levels E_n with the initial-state overlaps c_n = <E_n|Psi_0>.

    From `spectral_decomposition` these are all N = 2^L eigenpairs of H,
    exact at every time: `horizon` is infinite and `error` 0. From
    `krylov_decomposition` they are the K Ritz pairs of a Lanczos run from
    Psi_0 (K <= N): Psi_s = sum_n c_n e^{-iE_n s} |E_n> then holds for
    |s| <= `horizon` only, to within `error` in the 2-norm. `dim` counts
    the levels held, not the dimension of the Hilbert space.
    """

    energies: np.ndarray          # ascending, real
    overlaps: np.ndarray          # complex, sum |c_n|^2 = 1
    basis: np.ndarray             # columns are |E_n> in the site basis
    L: int
    horizon: float = math.inf     # largest |s| at which Psi_s is reproduced
    error: float = 0.0            # bound on ||Psi_s - sum_n ...|| there

    @property
    def dim(self) -> int:
        return self.energies.size


def _check_horizon(sd: SpectralDecomposition, t, what: str) -> None:
    """DomainError when a time reaches past the decomposition's horizon."""
    reach = float(np.max(np.abs(t)))
    if reach > sd.horizon:
        raise DomainError(f"{what} reaches s = {reach:g}, beyond the horizon "
                          f"{sd.horizon:g} of the decomposition")


def _unit_state(psi0) -> np.ndarray:
    """psi0 as a complex unit vector; DomainError unless its norm is 1."""
    psi0 = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi0)
    if abs(norm - 1.0) > 1e-8:
        raise DomainError(f"initial state norm {norm} is not 1")
    return psi0 / norm


def spectral_decomposition(spec, psi0: np.ndarray,
                           check: bool = True) -> SpectralDecomposition:
    """Diagonalize and project the initial state onto the eigenbasis."""
    h = _as_matrix(spec)
    psi0 = _unit_state(psi0)
    # a real H (the bundled chaotic and integrable chains) is solved in
    # real arithmetic
    energies, basis = np.linalg.eigh(h if np.any(h.imag) else h.real)
    overlaps = basis.conj().T @ psi0
    L = int(round(math.log2(h.shape[0])))
    sd = SpectralDecomposition(energies=energies, overlaps=overlaps,
                               basis=basis, L=L)
    if check:
        total = float(np.sum(np.abs(overlaps) ** 2))
        if abs(total - 1.0) > 1e-10:
            raise DomainError(f"overlap normalization off: {total}")
        scale = max(np.abs(energies).max(), 1.0)
        rng = np.random.default_rng(0)
        for n in rng.integers(0, sd.dim, size=min(5, sd.dim)):
            res = np.linalg.norm(h @ basis[:, n] - energies[n] * basis[:, n])
            if res > 1e-8 * scale:
                raise DomainError(f"eigenpair residual {res:.2e} too large")
    return sd


_KRYLOV_TOL = 1e-13   # bound plus round-off floor that ends a Lanczos run
_LANCZOS_BLOCK = 64   # basis rows allocated at a time


def krylov_decomposition(spec, psi0: np.ndarray,
                         t_max: float) -> SpectralDecomposition:
    """Ritz pairs of a Lanczos run from Psi_0 that reproduce Psi_s on
    |s| <= t_max, without diagonalizing H.

    The spectrum of rho_bar depends on H only through the measure
    sum_n |c_n|^2 delta(E - E_n), and K Lanczos steps on the sparse H give
    the K-point Gauss rule of that measure: Ritz values theta_j of the
    tridiagonal T_K, weights Q_0j^2 from its eigenvectors Q. Then
    Psi_s ~ V_K e^{-iT_K s} e_1 = sum_j Q_0j e^{-i theta_j s} V_K Q_j, so the
    Ritz values, Q[0, :] and the Ritz vectors V_K Q stand in for energies,
    overlaps and eigenvectors, and every consumer of a SpectralDecomposition
    takes them unchanged. The basis V_K is orthogonalized fully, twice, at
    each step, the coefficients taken as conj(V conj(w)) so that no copy of
    V is made, and stored row-wise so that V[:k] is contiguous. It is real
    when H and Psi_0 are.

    The error of that state is at most beta_K int_0^t_max
    |e_K^T e^{-iT_K s} e_1| ds for every |s| <= t_max (variation of
    constants; Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)),
    evaluated from the Ritz pairs on a grid. The run stops when that bound
    plus the round-off floor eps (1 + ||H||_inf t_max) of the phases is
    at most 1e-13, or at K = N; once that floor passes half of 1e-13 (long
    windows) the bound need only reach the floor. Checks are spaced on the
    assumption that the bound falls by at most a decade a step; where it
    falls faster the run takes a few extra steps, which only tighten it. A
    Krylov space that closes (beta_K -> 0) stops by the same rule with the
    spectrum of its reach, plus any Ritz levels of round-off weight. It
    typically needs K ~ (E_max - E_min) t_max / 2 levels. The result
    carries `horizon` = t_max and `error` = the bound.
    """
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"t_max = {t_max} must be positive and finite")
    h = _as_operator(spec)
    psi0 = _unit_state(psi0)
    if not np.any(h.data.imag):
        h = h.real
        if not np.any(psi0.imag):
            psi0 = psi0.real
    n = h.shape[0]
    floor = np.finfo(float).eps * (1.0 + abs(h).sum(axis=1).max() * t_max)
    goal = max(_KRYLOV_TOL - floor, floor)
    v = np.empty((min(n, _LANCZOS_BLOCK), n), dtype=psi0.dtype)
    v[0] = psi0
    alpha, beta = [], []
    check = 0
    while True:
        k = len(alpha)
        w = h @ v[k]
        coeff = np.conj(v[:k + 1] @ np.conj(w))
        w -= coeff @ v[:k + 1]
        w -= np.conj(v[:k + 1] @ np.conj(w)) @ v[:k + 1]
        alpha.append(coeff[k].real)
        b = float(np.linalg.norm(w))
        # the integrand is at most 1, so b t_max alone can settle the rule
        if k >= check or b * t_max <= goal or k + 1 == n:
            theta, q = scipy.linalg.eigh_tridiagonal(np.array(alpha),
                                                     np.array(beta))
            bound = _lanczos_bound(theta, q, b, t_max,
                                   goal if k + 1 < n else math.inf)
            if bound <= goal or k + 1 == n:
                break
            # a decade a step at most (see above): skip checks that must fail
            check = k + max(1, int(math.log10(bound / goal)))
        beta.append(b)
        if k + 1 == v.shape[0]:
            v = np.concatenate([v, np.empty((min(v.shape[0], n - k - 1), n),
                                            dtype=v.dtype)])
        v[k + 1] = w / b
    return SpectralDecomposition(
        energies=theta, overlaps=q[0].astype(complex),
        basis=v[:k + 1].T @ q, L=int(round(math.log2(n))),
        horizon=float(t_max), error=bound)


def _lanczos_bound(theta: np.ndarray, q: np.ndarray, b: float, t_max: float,
                   goal: float) -> float:
    """b int_0^t_max |e_K^T e^{-iT_K s} e_1| ds from the Ritz pairs
    (theta, q) of T_K, as an upper Riemann sum (the larger end of each
    cell) on a grid of about twelve points per period of the fastest beat
    theta_max - theta_min. The last cell alone is a lower bound of that
    sum; when it already exceeds `goal` it is returned without the rest."""
    weights = q[0] * q[-1]
    cells = 16 + math.ceil(2.0 * (theta[-1] - theta[0]) * t_max)
    last = b * t_max / cells * abs(np.exp(-1j * theta * t_max) @ weights)
    if last > goal:
        return last
    s = np.linspace(0.0, t_max, cells + 1)
    g = np.abs(np.exp(-1j * np.outer(s, theta)) @ weights)
    return b * t_max / cells * float(np.maximum(g[1:], g[:-1]).sum())


def return_amplitude(sd: SpectralDecomposition, t) -> np.ndarray | float:
    """|<Psi_t|Psi_0>| = |sum_n |c_n|^2 e^{-i E_n t}| at scalar or array t."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    _check_horizon(sd, ts, "return amplitude")
    weights = np.abs(sd.overlaps) ** 2
    amp = np.abs(np.exp(-1j * np.outer(ts, sd.energies)) @ weights)
    return float(amp[0]) if np.isscalar(t) or np.ndim(t) == 0 else amp


def first_overlap_crossing(sd: SpectralDecomposition, threshold: float = 0.5,
                           t_max: float = 10.0, n_grid: int = 4000) -> float:
    """First time the return amplitude drops below `threshold`.

    The amplitude starts at 1 and is never negative, so `threshold` must
    lie in (0, 1); outside it there is no first crossing to bracket. The
    search over [0, t_max] must lie within `sd.horizon`.
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold {threshold} outside (0, 1)")
    ts = np.linspace(0.0, t_max, n_grid + 1)
    amp = return_amplitude(sd, ts)
    below = np.nonzero(amp < threshold)[0]
    if below.size == 0:
        raise DomainError(f"amplitude never drops below {threshold} "
                          f"within t_max = {t_max}")
    hi = ts[below[0]]
    lo = ts[below[0] - 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if return_amplitude(sd, mid) < threshold:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Time-averaged state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AveragedStateSpectrum:
    """Eigenvalues of the averaged state, descending, with prefix sums.

    `eigenvalues` always has one entry per level of the decomposition it
    came from (N for the dense route, K for the Krylov one; zeros past the
    rank of the snapshot matrix); `vectors`, when requested, holds
    energy-basis columns for the leading `vectors.shape[1]` of them.
    `nodes` is the number of snapshots used, 0 for the closed form.
    """

    eigenvalues: np.ndarray
    t0: float
    t: float
    cumulative: np.ndarray = field(repr=False)
    vectors: np.ndarray | None = field(default=None, repr=False)
    nodes: int = 0

    @property
    def purity(self) -> float:
        return float(np.sum(self.eigenvalues ** 2))


_PANEL_MIN = 8       # fewest snapshots of a weighted-window panel
_WEIGHTED_CAP = 8    # weighted windows stop doubling beyond this many N


def _closed_form(sd: SpectralDecomposition, t0: float, t: float,
                 want_vectors: bool):
    """Eigenpairs of the N x N energy-basis matrix of a uniform window,
    c_m conj(c_n) e^{-iD(t0 + t/2)} sinc(Dt/2pi) with D = E_m - E_n.

    Its phases form the diagonal unitary P = diag(e^{i(arg c_n - E_n
    (t0 + t/2))}), so the matrix is P R P^dag with the real symmetric
    R = |c_m| |c_n| sinc(Dt/2pi): R is solved in real arithmetic, its
    eigenvalues are the window's, and P turns its eigenvectors into the
    window's. t0 enters through P only.
    """
    amp = np.abs(sd.overlaps)
    mat = np.sinc(np.subtract.outer(sd.energies, sd.energies) * t
                  / (2.0 * math.pi))
    mat *= np.outer(amp, amp)
    if not want_vectors:
        return np.linalg.eigvalsh(mat)[::-1], None
    vals, vecs = np.linalg.eigh(mat)
    phase = np.exp(1j * (np.angle(sd.overlaps)
                         - sd.energies * (t0 + 0.5 * t)))
    return vals[::-1], phase[:, None] * vecs[:, ::-1]


def _snapshots(sd: SpectralDecomposition, t0: float, tau: np.ndarray,
               omega: np.ndarray) -> np.ndarray:
    """Snapshot matrix Psi_{ni} = c_n e^{-iE_n(t0 + tau_i)} sqrt(omega_i)."""
    phases = np.exp(-1j * np.outer(sd.energies, t0 + tau))
    return (sd.overlaps[:, None] * phases) * np.sqrt(omega)[None, :]


def averaged_state(sd: SpectralDecomposition, t0: float, t: float,
                   w: WeightFunction | None = None,
                   want_vectors: bool = False) -> AveragedStateSpectrum:
    """Spectrum of the state averaged over [t0, t0 + t].

    `w = None` means the uniform window. The spectrum is that of the
    snapshot Gram matrix on m Gauss-Legendre nodes (composite panels split
    at `w.breakpoints` for a weighted window), taken from the window core
    `overlap._window_spectrum`: m starts at max(32, (E_max - E_min) t / 2)
    and doubles until the purity at m/2 and at m, each read as the squared
    Frobenius norm of its Gram matrix, agrees to 1e-11 relative.
    A uniform window that needs m >= N nodes, before the first solve or
    when the doubling reaches N, uses the exact N x N closed form instead,
    the only path whose memory does not grow with t; a weighted one that
    has not settled by 8 N nodes raises AccuracyError.

    Eigenvalues are returned descending and padded with zeros to N, the
    number of levels of `sd`, with values in [-1e-12, 0) clamped to zero;
    eigenvectors (energy-basis columns, same order) are attached on
    request. The settled window is factorized once: `eigvalsh` of its Gram
    matrix, or with vectors a thin SVD of the snapshot matrix alone, whose
    left singular vectors are orthonormal by construction and whose squared
    singular values are the eigenvalues. A window reaching past
    `sd.horizon` on either side raises DomainError.
    """
    if t <= 0:
        raise DomainError("window width t must be positive")
    _check_horizon(sd, [t0, t0 + t], "window")
    if w is None:
        edges = np.array([0.0, t])
    else:
        if abs(w.t - t) > 1e-12 * max(t, 1.0):
            raise DomainError("weight window differs from requested t")
        edges = np.unique(np.clip([0.0, *w.breakpoints, t], 0.0, t))
    dim = sd.dim
    width = float(sd.energies[-1] - sd.energies[0])
    m = max(_M_START, math.ceil(width * t / 2.0))
    counts = np.maximum(_PANEL_MIN, np.ceil(m * np.diff(edges) / t))

    def gram(tau: np.ndarray, omega: np.ndarray) -> np.ndarray:
        psi = _snapshots(sd, t0, tau, omega)   # the smaller Gram side
        return psi.conj().T @ psi if tau.size < dim else psi @ psi.conj().T

    spec = None
    if w is not None or counts.sum() < dim:
        spec = _window_spectrum(gram, edges, counts,
                                None if w is None else w._sample,
                                dim - 1 if w is None else _WEIGHTED_CAP * dim)
    if spec is not None and spec.settled:
        nodes = spec.tau.size
        if want_vectors:
            vecs, sigma, _ = np.linalg.svd(
                _snapshots(sd, t0, spec.tau, spec.omega), full_matrices=False)
            vals = sigma ** 2
        else:
            vals, vecs = np.linalg.eigvalsh(spec.kernel)[::-1], None
    elif w is None:
        vals, vecs = _closed_form(sd, t0, t, want_vectors)
        nodes = 0
    else:
        change = abs(spec.purity - spec.coarse_purity)
        raise AccuracyError(
            f"averaged-state purity changed by {change:.2e} from "
            f"{spec.tau.size // 2} to {spec.tau.size} nodes", achieved=change)
    vals = np.where((vals < 0) & (vals > -1e-12), 0.0, vals)
    vals = np.concatenate([vals, np.zeros(dim - vals.size)])
    total = float(vals.sum())
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"averaged-state trace {total} deviates from 1")
    return AveragedStateSpectrum(eigenvalues=vals, t0=float(t0), t=float(t),
                                 cumulative=np.cumsum(vals), vectors=vecs,
                                 nodes=nodes)


class EffectiveRank(NamedTuple):
    D: int
    discarded: float
    lambda_cut: float


def effective_rank(spec: AveragedStateSpectrum, eps: float) -> EffectiveRank:
    """Minimal number of top eigenvalues with tail mass at most eps.

    Returns the count, the actual (quantized) discarded mass, and the
    smallest retained eigenvalue. Comparisons carry an ulp-level slack so
    exactly representable boundaries behave as written.
    """
    if not 0.0 <= eps < 1.0:
        raise DomainError("eps must lie in [0, 1)")
    lam = spec.eigenvalues
    tail = np.concatenate([[lam.sum()], lam.sum() - spec.cumulative])
    ok = tail <= eps * (1.0 + 1e-12) + 1e-15
    ok[0] = False  # at least one eigenvector is always retained
    d = int(np.argmax(ok))
    return EffectiveRank(D=d, discarded=float(max(tail[d], 0.0)),
                         lambda_cut=float(lam[d - 1]))


@dataclass(frozen=True)
class RankCurve:
    """Effective rank against window width, with the closed-form line."""

    times: np.ndarray
    epsilons: np.ndarray
    dims: np.ndarray
    dims_per_sqrt_l: np.ndarray
    prediction_per_sqrt_l: np.ndarray
    e2: float
    L: int


def rank_curve(spec, psi0: np.ndarray,
               eps_schedule: Callable[[float], float],
               times: Sequence[float],
               sd: SpectralDecomposition | None = None) -> RankCurve:
    """Effective rank per unit sqrt(L) over a time grid.

    For each window width the averaged state's spectrum is truncated
    at eps_schedule(t); the companion prediction line is
    sqrt(2 e2)/pi * erfinv(1 - eps_t) * sqrt(L) * t with e2 taken from the
    measured energy cumulants of the same system. Without `sd` the
    levels come from `krylov_decomposition` up to the longest window.
    """
    times = np.asarray(list(times), dtype=float)
    if sd is None:
        sd = krylov_decomposition(spec, psi0,
                                  float(np.max(times, initial=0.0)))
    e2 = float(energy_cumulants(sd, 2)[1])
    sqrt_l = math.sqrt(sd.L)
    eps = np.array([eps_schedule(float(t)) for t in times])
    dims = np.empty(times.size, dtype=int)
    pred = np.empty(times.size)
    for i, (t, e) in enumerate(zip(times, eps)):
        spec_t = averaged_state(sd, 0.0, float(t))
        dims[i] = effective_rank(spec_t, float(e)).D
        pred[i] = math.sqrt(2.0 * e2) / math.pi * erf_inv(1.0 - float(e)) \
            * sqrt_l * float(t)
    return RankCurve(times=times, epsilons=eps, dims=dims,
                     dims_per_sqrt_l=dims / sqrt_l,
                     prediction_per_sqrt_l=pred / sqrt_l,
                     e2=e2, L=sd.L)


@dataclass(frozen=True)
class ProjectionErrorResult:
    """Projection error over a time grid plus its quantization band.

    `error` uses the D eigenvectors retained at tail mass eps; `band_low`
    and `band_high` retain one more / one fewer vector, bracketing the
    indeterminacy caused by the quantized spectrum.
    """

    times: np.ndarray
    error: np.ndarray
    band_low: np.ndarray
    band_high: np.ndarray
    D: int
    discarded: float


def projection_error(sd: SpectralDecomposition, T: float, eps_T: float,
                     t, spec: AveragedStateSpectrum | None = None
                     ) -> ProjectionErrorResult:
    """Error of projecting |Psi_t> onto the retained subspace of the
    [0, T] average: 1 - <Psi_t| P |Psi_t>.

    P spans the D leading eigenvectors of `averaged_state(sd, 0, T)`, which
    for T below the closed-form threshold are the left singular vectors of
    the snapshot matrix. `spec` may carry a precomputed spectrum with
    vectors of that average to avoid repeating the solve. T must lie
    within `sd.horizon`.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < -1e-12) or np.any(ts > T * (1 + 1e-12)):
        raise DomainError("projection times must lie in [0, T]")
    _check_horizon(sd, T, "projection window")
    if spec is None or spec.vectors is None:
        spec = averaged_state(sd, 0.0, T, want_vectors=True)
    rank = effective_rank(spec, eps_T)
    d = rank.D
    k = min(d + 1, spec.vectors.shape[1])
    psi_t = sd.overlaps[:, None] * np.exp(
        -1j * np.outer(sd.energies, ts))
    amps = spec.vectors[:, :k].conj().T @ psi_t      # (k, nt)
    captured = np.cumsum(np.abs(amps) ** 2, axis=0)

    def err_at(nkeep: int) -> np.ndarray:
        if nkeep <= 0:
            return np.ones_like(ts)
        row = min(nkeep, k) - 1
        return np.clip(1.0 - captured[row], 0.0, 1.0)

    return ProjectionErrorResult(times=ts, error=err_at(d),
                                 band_low=err_at(d + 1),
                                 band_high=err_at(d - 1),
                                 D=d, discarded=rank.discarded)


# ---------------------------------------------------------------------------
# Energy cumulants
# ---------------------------------------------------------------------------

def _energy_moments(sd_or_pair, n_max: int) -> tuple[np.ndarray, int]:
    """Raw moments <H^k>, k = 0..n_max, and the chain length."""
    if isinstance(sd_or_pair, SpectralDecomposition):
        sd = sd_or_pair
        weights = np.abs(sd.overlaps) ** 2
        scale = float(np.abs(sd.energies).max()) if sd.dim > 1 else 1.0
        if scale ** n_max > 1e280:
            raise DomainError("moment overflow: n_max too large for this "
                              "spectral radius")
        moments = np.array([float(weights @ sd.energies ** k)
                            for k in range(n_max + 1)])
        return moments, sd.L
    spec, psi0 = sd_or_pair
    h = _as_operator(spec)
    l_sites = int(round(math.log2(h.shape[0])))
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    moments = np.empty(n_max + 1)
    vec = psi.copy()
    moments[0] = 1.0
    for k in range(1, n_max + 1):
        vec = h @ vec
        moments[k] = float(np.real(np.vdot(psi, vec)))
        if abs(moments[k]) > 1e280:
            raise DomainError("moment overflow: n_max too large")
    return moments, l_sites


def _cumulants_from_moments(moments: np.ndarray) -> np.ndarray:
    """kappa_n = m_n - sum_j C(n-1, j-1) kappa_j m_{n-j} (kappa_0 unused)."""
    n_max = moments.size - 1
    kappa = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        acc = moments[n]
        for j in range(1, n):
            acc -= math.comb(n - 1, j - 1) * kappa[j] * moments[n - j]
        kappa[n] = acc
    return kappa


def energy_cumulants(sd_or_pair, n_max: int) -> np.ndarray:
    """Per-site energy cumulants e_1..e_{n_max} of the initial state.

    Accepts a SpectralDecomposition or an (H, psi0) pair; the latter uses
    iterated products of the sparse H with a vector and neither densifies
    nor diagonalizes H.
    """
    if not 1 <= n_max <= 8:
        raise DomainError("n_max must lie in [1, 8]")
    moments, l_sites = _energy_moments(sd_or_pair, n_max)
    kappa = _cumulants_from_moments(moments)
    return kappa[1:] / l_sites


def cumulant_operator(spec, psi0: np.ndarray, n: int) -> np.ndarray:
    """n-th operator of the recursion H^(n) = H^n - sum_j C(n,j) <H^{n-j}>
    H^(j), whose expectations resum to the cumulant generating function."""
    if n < 1:
        raise DomainError("n must be at least 1")
    h = _as_matrix(spec)
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    powers = [np.eye(h.shape[0], dtype=complex)]
    for _ in range(n):
        powers.append(h @ powers[-1])
    moments = [float(np.real(np.vdot(psi, p @ psi))) for p in powers]
    ops = {1: powers[1]}
    for m in range(2, n + 1):
        acc = powers[m].copy()
        for j in range(1, m):
            acc -= math.comb(m, j) * moments[m - j] * ops[j]
        ops[m] = acc
    return ops[n]


def energy_cumulants_operator_route(spec, psi0: np.ndarray,
                                    n_max: int) -> np.ndarray:
    """Per-site cumulants recovered from <H^(n)> expectations.

    The expectations generate G(b) = 1 - exp(-K(b)) with K the cumulant
    generating function, so the cumulants follow from the series of
    -log(1 - G). Independent cross-check of `energy_cumulants`.
    """
    if not 1 <= n_max <= 8:
        raise DomainError("n_max must lie in [1, 8]")
    h = _as_matrix(spec)
    l_sites = int(round(math.log2(h.shape[0])))
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    g_coeff = np.zeros(n_max + 1)  # G(b) = sum g_n b^n / n!
    for n in range(1, n_max + 1):
        op = cumulant_operator(h, psi, n)
        g_coeff[n] = float(np.real(np.vdot(psi, op @ psi)))
    a = np.array([g_coeff[n] / math.factorial(n)
                  for n in range(n_max + 1)])  # series coefficients of G
    k = np.zeros(n_max + 1)  # series coefficients of K = -log(1 - G)
    for m in range(0, n_max):
        acc = (m + 1) * a[m + 1]
        for j in range(1, m + 1):
            acc += (m - j + 1) * k[m - j + 1] * a[j]
        k[m + 1] = acc / (m + 1)
    kappa = np.array([k[n] * math.factorial(n) for n in range(n_max + 1)])
    return kappa[1:] / l_sites


def _density_terms(spec: PauliHamiltonian) -> dict[int, list]:
    """Group terms into site densities: two-site bonds go to their left
    site (the wrap bond to L-1), single-site terms to their own site."""
    groups: dict[int, list] = {ell: [] for ell in range(spec.L)}
    for coeff, ops in spec.terms:
        if len(ops) > 2:
            raise DomainError("terms spanning more than two sites cannot "
                              "be grouped into site densities")
        a, b = ops[0][0], ops[-1][0]   # ops are sorted by site
        wrap = a == 0 and b == spec.L - 1 and b - a > 1
        groups[b if wrap else a].append((coeff, ops))
    return groups


def cumulant_density(spec: PauliHamiltonian, psi0: np.ndarray, site: int,
                     n: int, sd: SpectralDecomposition | None = None) -> float:
    """Spatial density of the n-th energy cumulant about one site.

    Computed exactly as the (n-1)-th derivative at b = 0 of the energy
    density expectation in the imaginary-time-evolved state
    e^{b H/2}|Psi_0>/norm, carried out in the energy eigenbasis; the
    densities sum to L e_n.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if n > 6:
        raise DomainError("densities implemented for n <= 6")
    if not 0 <= site < spec.L:
        raise DomainError(f"site {site} outside chain")
    groups = _density_terms(spec)
    h_ell = _pauli_sum(spec.L, groups[site]).toarray()
    if sd is None:
        sd = spectral_decomposition(spec, psi0)
    h_rot = sd.basis.conj().T @ h_ell @ sd.basis
    weight = np.outer(sd.overlaps.conj(), sd.overlaps) * h_rot
    if n == 1:
        return float(np.real(weight.sum()))
    s_grid = 0.5 * (sd.energies[:, None] + sd.energies[None, :])
    numer = np.empty(n)          # derivatives of <e^{bH/2} h e^{bH/2}>
    for k in range(n):
        numer[k] = float(np.real(np.sum(weight * s_grid ** k)))
    denom = np.array([float((np.abs(sd.overlaps) ** 2) @ sd.energies ** k)
                      for k in range(n)])
    ratio = np.empty(n)          # derivatives of numer/denom at 0
    for k in range(n):
        acc = numer[k]
        for j in range(k):
            acc -= math.comb(k, j) * ratio[j] * denom[k - j]
        ratio[k] = acc
    return float(ratio[n - 1])


# ---------------------------------------------------------------------------
# Bundled chains and states
# ---------------------------------------------------------------------------

def _bonds(L: int, boundary: str):
    out = [(ell, ell + 1) for ell in range(L - 1)]
    if boundary == "periodic" and L > 1:
        out.append((L - 1, 0))
    return out


def chaotic_chain(L: int, J: float = 1.0,
                  boundary: str = "periodic") -> PauliHamiltonian:
    """Nonintegrable chain: J sum [yy + 0.5 xx + 1.5 zz] couplings plus a
    uniform x field 0.25 J and a staggered z field 0.3 J (-1)^site."""
    terms = []
    for a, b in _bonds(L, boundary):
        terms.append((J, ((a, "Y"), (b, "Y"))))
        terms.append((0.5 * J, ((a, "X"), (b, "X"))))
        terms.append((1.5 * J, ((a, "Z"), (b, "Z"))))
    for ell in range(L):
        terms.append((0.25 * J, ((ell, "X"),)))
        terms.append((0.3 * J * (-1) ** ell, ((ell, "Z"),)))
    return PauliHamiltonian(L=L, terms=tuple(terms), boundary=boundary)


def chaotic_initial_chain(L: int, J: float = 1.0,
                          boundary: str = "periodic") -> PauliHamiltonian:
    """Ferromagnetic xx chain with a transverse y field: -J sum (xx + 2 y);
    its ground state is the companion initial state of `chaotic_chain`."""
    terms = []
    for a, b in _bonds(L, boundary):
        terms.append((-J, ((a, "X"), (b, "X"))))
    for ell in range(L):
        terms.append((-2.0 * J, ((ell, "Y"),)))
    return PauliHamiltonian(L=L, terms=tuple(terms), boundary=boundary)


def integrable_chain(L: int, J: float = 1.0,
                     boundary: str = "periodic") -> PauliHamiltonian:
    """Integrable anisotropic chain J sum (xx + 2 yy + zz)."""
    terms = []
    for a, b in _bonds(L, boundary):
        terms.append((J, ((a, "X"), (b, "X"))))
        terms.append((2.0 * J, ((a, "Y"), (b, "Y"))))
        terms.append((J, ((a, "Z"), (b, "Z"))))
    return PauliHamiltonian(L=L, terms=tuple(terms), boundary=boundary)


def polarized_state(L: int, axis: str = "z") -> np.ndarray:
    """Product state fully polarized along +axis."""
    single = {
        "z": np.array([1.0, 0.0], dtype=complex),
        "x": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
        "y": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    }
    if axis not in single:
        raise DomainError(f"unknown axis {axis!r}")
    out = np.ones(1, dtype=complex)
    for _ in range(L):
        out = np.kron(out, single[axis])
    return out


# ---------------------------------------------------------------------------
# Plain-text Hamiltonian files
# ---------------------------------------------------------------------------

def read_hamiltonian_file(path) -> PauliHamiltonian:
    """Parse the chain format: header lines `L=`, `boundary=`, then one
    term per line as `coeff op@site [op@site]`; `#` starts a comment."""
    L = None
    boundary = "periodic"
    terms = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line and "@" not in line:
                key, _, val = line.partition("=")
                key = key.strip().lower()
                val = val.strip()
                if key == "l":
                    try:
                        L = int(val)
                    except ValueError:
                        raise ConfigError(
                            f"{path}:{lineno}: bad L value {val!r}") from None
                elif key == "boundary":
                    boundary = val
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown header "
                                      f"{key!r}")
                continue
            parts = line.split()
            try:
                coeff = float(parts[0])
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad coefficient "
                                  f"{parts[0]!r}") from None
            ops = []
            for token in parts[1:]:
                if "@" not in token:
                    raise ConfigError(f"{path}:{lineno}: expected op@site, "
                                      f"got {token!r}")
                op, _, site = token.partition("@")
                try:
                    ops.append((int(site), op))
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: bad site "
                                      f"{site!r}") from None
            if not 1 <= len(ops) <= 2:
                raise ConfigError(f"{path}:{lineno}: terms must carry one "
                                  f"or two operators")
            terms.append((coeff, tuple(ops)))
    if L is None:
        raise ConfigError(f"{path}: missing L= header")
    try:
        return PauliHamiltonian(L=L, terms=tuple(terms), boundary=boundary)
    except (DomainError, SizeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_hamiltonian_file(spec: PauliHamiltonian, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"L={spec.L}\n")
        fh.write(f"boundary={spec.boundary}\n")
        for coeff, ops in spec.terms:
            tokens = " ".join(f"{op}@{site}" for site, op in ops)
            fh.write(f"{coeff!r} {tokens}\n")
