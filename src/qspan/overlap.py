"""Exact finite-volume moments of the time-averaged state.

The overlap of the state with itself at two times is controlled by the
dynamical free energy f, defined through

    <Psi_t | Psi_0> = exp(-L^d f(t)),         f(0) = 0,  Re f >= 0,
    f(-t) = conj(f(t)),

so the moments become low-dimensional integrals over the window,

    tr[rho_bar^alpha] = Re int_{[0,t]^alpha} d^alpha tau / t^alpha
                        exp(-L^d sum_cyclic f(tau_j - tau_{j+1})).

Rather than integrating over the window, `moments_quadrature` takes the
spectrum of rho_bar itself: its nonzero eigenvalues are those of the Gram
kernel exp(-L^d f(tau - tau'))/t on [0, t], discretized on Gauss-Legendre
nodes (Nystrom), and every moment is sum lambda^alpha. This needs f only on
[0, t] and converges exponentially in the node count. The nodes are
symmetric under tau -> t - tau, which makes the Hermitian kernel
centro-Hermitian, so it is similar to a real symmetric matrix R of the same
size (`_nystrom_gram`), built from p(p + 1) lags for m = 2p nodes. For the
integer alpha asked for, sum lambda^alpha is the power trace tr R^alpha, so
no eigenvalue is computed. The window core `_window_spectrum` (node rule,
doubling, and a settle test on the purity, the squared Frobenius norm of
the kernel) factorizes nothing and is shared with `ed.averaged_state`,
which feeds it the snapshot Gram matrix and factorizes the settled kernel
once.

f is read only from a cached cubic spline (`DynamicalFreeEnergy.table`),
which also supplies the rough e2 that picks the starting node count, so a
moment evaluates f directly only while building a table. Without an
accuracy target the table has 4096 knots per unit time. With `rtol` it
follows an error budget of rtol * value / 10 instead: f is also evaluated at
the knot midpoints, the spline's deviation there weighted by the kernel's
sensitivity L^d |exp(-L^d f)| bounds the moment change, and the density
doubles from 256 per unit (the checked midpoints becoming knots) until that
bound fits the budget or 4096 per unit is reached. The bound is part of the
reported error.

For the transverse-field Ising chain after a field quench h_i -> h_f the
free energy is available in closed form as a single mode integral, which is
what `IsingQuench` evaluates (sums over discrete momenta are replaced by
the integral, dropping exponentially small finite-size effects).
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import AccuracyError, DomainError
from .special import _gauss_legendre

__all__ = [
    "IsingQuench",
    "DynamicalFreeEnergy",
    "MomentEstimate",
    "RenyiEstimate",
    "BranchCrossingWarning",
    "GapClosingWarning",
    "ising_dispersion",
    "ising_f",
    "second_cumulant_from_f",
    "moments_quadrature",
    "renyi_quadrature",
]


class BranchCrossingWarning(UserWarning):
    """The mode-integral integrand crossed the negative real axis.

    Signals a potential dynamical phase transition; Re f stays reliable,
    Im f may jump by 2 pi between momenta.
    """


class GapClosingWarning(UserWarning):
    """The post-quench dispersion vanishes at some momentum (h_f = +-1)."""


class MomentEstimate(NamedTuple):
    value: float
    error: float


class RenyiEstimate(NamedTuple):
    value: float
    error: float


# ---------------------------------------------------------------------------
# Transverse-field Ising quench
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsingQuench:
    """Global field quench h_i -> h_f of the transverse-field Ising chain.

    `h_i = math.inf` is first class and uses the analytic limit of the
    Bogoliubov angle. `k_grid` sets the composite-Simpson resolution on
    [0, pi] (rounded up to an even interval count).
    """

    h_i: float
    h_f: float
    J: float = 1.0
    k_grid: int = 4096

    def __post_init__(self):
        if self.J <= 0:
            raise DomainError("coupling J must be positive")
        if self.k_grid < 64:
            raise DomainError("k_grid must be at least 64")


def ising_dispersion(q: IsingQuench, k):
    """Post-quench mode energy and Bogoliubov-angle cosine at momentum k.

    eps_k = 2J sqrt(1 + h_f^2 - 2 h_f cos k);
    cos Delta_k = [(h_f - cos k)(h_i - cos k) + sin^2 k] /
                  (sqrt(1 + h_f^2 - 2 h_f cos k) sqrt(1 + h_i^2 - 2 h_i cos k)),
    with the h_i -> inf limit (h_f - cos k)/sqrt(1 + h_f^2 - 2 h_f cos k).
    Accepts scalar or array k in [0, pi].
    """
    k_arr = np.asarray(k, dtype=float)
    cos_k = np.cos(k_arr)
    sin_k = np.sin(k_arr)
    disc_f = 1.0 + q.h_f ** 2 - 2.0 * q.h_f * cos_k
    eps = 2.0 * q.J * np.sqrt(np.maximum(disc_f, 0.0))
    if np.any(eps < 1e-12 * q.J):
        warnings.warn("dispersion vanishes at a gap-closing momentum",
                      GapClosingWarning, stacklevel=2)
    root_f = np.sqrt(np.maximum(disc_f, 1e-300))
    if math.isinf(q.h_i):
        cos_delta = (q.h_f - cos_k) / root_f
    else:
        disc_i = 1.0 + q.h_i ** 2 - 2.0 * q.h_i * cos_k
        num = (q.h_f - cos_k) * (q.h_i - cos_k) + sin_k ** 2
        cos_delta = num / (root_f * np.sqrt(np.maximum(disc_i, 1e-300)))
    if np.isscalar(k) or k_arr.ndim == 0:
        return float(eps), float(cos_delta)
    return eps, cos_delta


def _ising_modes(q: IsingQuench):
    """Mode energies, Bogoliubov-angle cosines and composite-Simpson weights
    on the k_grid momenta of [0, pi]."""
    n = q.k_grid + (q.k_grid % 2)
    k = np.linspace(0.0, math.pi, n + 1)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= math.pi / n / 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GapClosingWarning)
        eps, cos_delta = ising_dispersion(q, k)
    return eps, cos_delta, w


def _mode_log_sum(eps, cos_delta, w):
    """ts -> sum_k w_k log[c_k + (1 - c_k) e^{i theta_k}], theta_k =
    2 eps_k t and c_k = (1 + cos Delta_k)/2, each mode's log continuous in t.

    The principal log jumps by 2 pi i whenever its argument crosses the
    negative real axis, which only a mode with c < 1/2 can do. The modes are
    split once: for c >= 1/2 the argument has real part >= 2c - 1 >= 0 and
    keeps the principal log; for c < 1/2 the log is
    i theta + log1p(r e^{-i theta}) - log1p(r) with r = c/(1 - c) < 1 (so
    log(1 - c) = -log1p(r)), whose log1p stays on the principal sheet, and
    its i theta sums over the modes in closed form. Every term is exactly 0
    at t = 0. One complex array per call, worked in place.
    """
    c = 0.5 * (1.0 + cos_delta)
    order = np.argsort(c < 0.5, kind="stable")   # the c >= 1/2 modes first
    c, eps, w = c[order], eps[order], w[order]
    n_hi = int(np.count_nonzero(c >= 0.5))
    c_hi = c[:n_hi]
    r = c[n_hi:] / (1.0 - c[n_hi:])
    log1p_r = np.log1p(r + 0j)   # the complex routine, as in log_sum
    slope = 2.0 * float(np.sum(w[n_hi:] * eps[n_hi:]))
    two_i_eps = 2j * eps

    def log_sum(ts):
        ts = np.asarray(ts, dtype=float)
        z = np.multiply.outer(ts, two_i_eps)
        np.exp(z, out=z)
        hi, lo = z[:, :n_hi], z[:, n_hi:]
        hi *= 1.0 - c_hi
        hi += c_hi
        np.log(hi, out=hi)
        np.conjugate(lo, out=lo)
        lo *= r
        np.log1p(lo, out=lo)
        lo -= log1p_r
        return z @ w + 1j * slope * ts

    return log_sum


def ising_f(q: IsingQuench, t: float) -> complex:
    """Dynamical free energy of the quench at time t.

    f(t) = -int_0^pi dk/2pi log[(1+cos Delta_k)/2 + (1-cos Delta_k)/2
    e^{2 i eps_k t}] with each momentum's log continuous in t from
    log 1 = 0, evaluated by `DynamicalFreeEnergy.from_ising`; the overall
    minus makes Re f >= 0 under the overlap convention exp(-L^d f). Warns
    when the integrand crosses the negative real axis between grid momenta.
    """
    eps, cos_delta, _ = _ising_modes(q)
    c = 0.5 * (1.0 + cos_delta)
    _warn_on_branch_crossing(c + (1.0 - c) * np.exp(2j * eps * float(t)))
    return DynamicalFreeEnergy.from_ising(q)(float(t))


def _warn_on_branch_crossing(z: np.ndarray) -> None:
    im = z.imag
    re = z.real
    sign_change = im[:-1] * im[1:] < 0.0
    if not np.any(sign_change):
        return
    idx = np.nonzero(sign_change)[0]
    frac = im[idx] / (im[idx] - im[idx + 1])
    re_cross = re[idx] + frac * (re[idx + 1] - re[idx])
    if np.any(re_cross < 0.0):
        warnings.warn("log argument crosses the negative real axis "
                      "(possible dynamical phase transition)",
                      BranchCrossingWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# Dynamical free energy evaluators
# ---------------------------------------------------------------------------

_PPU_START = 256    # knots per unit time of the first checked f-table
_PPU_CAP = 4096     # densest checked table; the plain tables' density


class DynamicalFreeEnergy:
    """Evaluator for f(t) = -L^{-d} log <Psi_t|Psi_0>.

    Three kinds: `ising_quench` (closed-form mode integral),
    `cumulant_truncation` (finite cumulant polynomial) and `tabulated`
    (cubic-spline data). All satisfy f(0) = 0 and f(-t) = conj f(t); the
    negative-time values are always produced by conjugation.
    """

    def __init__(self, kind: str, eval_many, metadata: dict):
        self.kind = kind
        self._eval_many = eval_many
        self.metadata = dict(metadata)
        self._tables: dict = {}
        self._tables_lock = threading.Lock()

    @classmethod
    def from_cumulants(cls, e) -> "DynamicalFreeEnergy":
        """Truncated series f(t) = -sum_n i^n e_n t^n / n! from e_1..e_n."""
        e = tuple(float(v) for v in e)
        coeffs = np.zeros(len(e) + 1, dtype=complex)
        fact = 1.0
        for n, en in enumerate(e, start=1):
            fact *= n
            coeffs[n] = -(1j ** n) * en / fact

        def eval_many(ts, _c=coeffs):
            ts = np.asarray(ts, dtype=float)
            return np.polynomial.polynomial.polyval(ts, _c)

        return cls("cumulant_truncation", eval_many, {"cumulants": e})

    @classmethod
    def from_ising(cls, q: IsingQuench) -> "DynamicalFreeEnergy":
        """Mode sum of `ising_f`, evaluated in chunks of times."""
        eps, cos_delta, w = _ising_modes(q)
        log_sum = _mode_log_sum(eps, cos_delta, w)

        def eval_many(ts, _n=eps.size):
            ts = np.asarray(ts, dtype=float)
            flat = ts.ravel()
            out = np.empty(flat.shape, dtype=complex)
            chunk = max(1, 2_000_000 // (_n + 1))
            for i in range(0, flat.size, chunk):
                out[i:i + chunk] = -log_sum(flat[i:i + chunk]) \
                    / (2.0 * math.pi)
            return out.reshape(ts.shape)

        return cls("ising_quench", eval_many,
                   {"h_i": q.h_i, "h_f": q.h_f, "J": q.J, "k_grid": q.k_grid})

    @classmethod
    def from_table(cls, times, values) -> "DynamicalFreeEnergy":
        """Spline through sampled f(t >= 0); first sample must be (0, 0)."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=complex)
        if times[0] != 0.0 or abs(values[0]) > 1e-12:
            raise DomainError("table must start at t = 0 with f(0) = 0")
        if np.any(np.diff(times) <= 0):
            raise DomainError("table times must increase strictly")
        spline = CubicSpline(times, values)

        def eval_many(ts, _s=spline, _tmax=float(times[-1])):
            ts = np.asarray(ts, dtype=float)
            if np.any(np.abs(ts) > _tmax * (1 + 1e-12)):
                raise DomainError("tabulated f evaluated outside its range")
            vals = _s(np.abs(ts))
            return np.where(ts >= 0, vals, np.conj(vals))

        return cls("tabulated", eval_many, {"t_max": float(times[-1])})

    def __call__(self, t):
        """f at scalar or array t; negative times by conjugation."""
        ts = np.asarray(t, dtype=float)
        flat = np.abs(ts).ravel()
        pos = self._eval_many(flat).reshape(ts.shape)
        out = np.where(ts >= 0, pos, np.conj(pos))
        if np.isscalar(t) or ts.ndim == 0:
            return complex(out)
        return out

    def table(self, u_max: float, points_per_unit: int = _PPU_CAP, *,
              checked: bool = False):
        """Cached spline of f on [0, u_max] for fast bulk evaluation.

        Resolution is fixed per unit time, so a wider cached table serves
        any narrower request of equal or lower density. Concurrent callers
        build each table once.

        With `checked=True` the table also evaluates f directly at its knot
        midpoints and returns a `_CheckedTable`, whose `interpolation_bound`
        sizes the table against an error budget (`moments_quadrature` with
        `rtol`). A density above `_PPU_START` is built from the table at
        half of it: the checked midpoints become the new knots, so f is never
        evaluated twice at one point. Checked and plain tables are cached
        side by side and never serve each other.
        """
        with self._tables_lock:
            return self._table(u_max, points_per_unit, checked)

    def _table(self, u_max: float, points_per_unit: int, checked: bool):
        for (cached_umax, cached_ppu, cached_checked), tab \
                in self._tables.items():
            if cached_checked == checked \
                    and cached_umax >= u_max * (1 - 1e-12) \
                    and cached_ppu >= 0.9 * points_per_unit:
                return tab
        if checked and points_per_unit > _PPU_START:
            half = self._table(u_max, points_per_unit // 2, True)
            u_max = float(half.knots[-1])
            knots = _interleave(half.knots, half.midpoints)
            values = _interleave(half.values, half.mid_values)
        else:
            n = max(129, int(math.ceil(points_per_unit * u_max)) + 1)
            knots = np.linspace(0.0, u_max, n)
            values = self._eval_many(knots)
        tab = CubicSpline(knots, values)
        if checked:
            midpoints = 0.5 * (knots[:-1] + knots[1:])
            mid_values = self._eval_many(midpoints)
            re_f = values.real
            tab = _CheckedTable(
                tab, knots, values, midpoints, mid_values,
                np.abs(tab(midpoints) - mid_values),
                np.minimum(np.minimum(re_f[:-1], re_f[1:]), mid_values.real))
        self._tables[(u_max, points_per_unit, checked)] = tab
        return tab


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], ..., b[-1], a[-1] for len(b) == len(a) - 1."""
    out = np.empty(a.size + b.size, dtype=np.result_type(a, b))
    out[0::2] = a
    out[1::2] = b
    return out


class _CheckedTable(NamedTuple):
    """An f-table with f also evaluated at its knot midpoints."""
    spline: CubicSpline
    knots: np.ndarray
    values: np.ndarray       # f at the knots
    midpoints: np.ndarray
    mid_values: np.ndarray   # f at the midpoints, evaluated directly
    deviation: np.ndarray    # |spline - f| at each midpoint
    re_min: np.ndarray       # least Re f at each interval's knots and midpoint

    def interpolation_bound(self, sites: float, t: float) -> float:
        """max over lags s in [0, t] of sites |S(s) - f(s)| e^{-sites Re f(s)}.

        To first order in S - f this bounds t times every entry change of
        the Gram kernel exp(-sites f)/t when the spline S replaces f, so it
        bounds the kernel's operator-norm change; as the kernel is positive
        semidefinite with unit trace, alpha times it bounds the change of
        tr K^alpha. Each interval is represented by its midpoint, where a
        cubic spline's error peaks, and by the least Re f of its knots and
        midpoint.
        """
        use = self.knots[:-1] < t
        return float(np.max(sites * self.deviation[use]
                            * np.exp(-sites * self.re_min[use])))


def second_cumulant_from_f(f: DynamicalFreeEnergy, h0: float = 0.1,
                           levels: int = 5) -> float:
    """Energy variance per site from the curvature of Re f at the origin.

    Central second differences (exploiting f(0) = 0 and the conjugation
    symmetry) with Richardson extrapolation in the step size.
    """
    table = np.empty((levels, levels))
    h = h0
    for i in range(levels):
        table[i, 0] = 2.0 * (f(h)).real / (h * h)
        fac = 1.0
        for j in range(1, i + 1):
            fac *= 4.0
            table[i, j] = (fac * table[i, j - 1] - table[i - 1, j - 1]) \
                / (fac - 1.0)
        h *= 0.5
    best = table[levels - 1, levels - 1]
    prev = table[levels - 2, levels - 2]
    if abs(best - prev) > 1e-6 * max(abs(best), 1e-12) + 1e-10:
        raise AccuracyError("second-derivative extrapolation did not settle",
                            value=best, achieved=abs(best - prev))
    return float(best)


# ---------------------------------------------------------------------------
# Moment quadrature
# ---------------------------------------------------------------------------

_M_START = 32       # fewest nodes of a window
_M_CAP = 2048       # its kernel and one power trace take ~0.08 s each
_SETTLE = 1e-11     # relative purity change from m/2 to m that ends doubling
_ROUNDOFF = 1e-12   # relative round-off floor of a moment
_TILE = 64          # block edge of `_symmetric`'s transposed copy


class _WindowKernel(NamedTuple):
    kernel: np.ndarray    # on the fine node set tau; lower triangle read
    coarse: np.ndarray    # the same on half the nodes
    purity: float         # sum lambda^2 of kernel
    coarse_purity: float
    tau: np.ndarray
    omega: np.ndarray     # weights of tau, density folded in
    settled: bool         # False when the cap ended the doubling


def _purity(kernel: np.ndarray) -> float:
    """sum lambda^2 of the Hermitian matrix whose lower triangle, diagonal
    included, `kernel` holds: its squared Frobenius norm
    2 sum_{i>j} |K_ij|^2 + sum_i (Re K_ii)^2. The upper triangle is not
    read and, as in a Hermitian eigensolver, neither is Im K_ii."""
    low = kernel[np.tri(kernel.shape[0], k=-1, dtype=bool)]
    diag = kernel.diagonal().real
    return float(2.0 * np.vdot(low, low).real + diag @ diag)


def _window_spectrum(gram, edges, counts, density=None, cap: int = _M_CAP,
                     settle: float = _SETTLE,
                     floor: float = 0.0) -> _WindowKernel:
    """The settled window of rho_bar = int omega(tau) |Psi_tau><Psi_tau|
    dtau, shared by `moments_quadrature` and `ed.averaged_state`.

    The nonzero eigenvalues of rho_bar are those of the Gram kernel
    sqrt(omega_i) G(tau_i - tau_j) sqrt(omega_j), G(s) = <Psi_s|Psi_0>, on
    composite Gauss-Legendre nodes tau_i, counts[k] of them on panel
    [edges[k], edges[k+1]], with the density (1/t when None) folded into
    the weights omega_i. The nodes ascend. `gram(tau, omega)` returns a
    Hermitian matrix with that nonzero spectrum, or a real symmetric one
    similar to it (the Nystrom kernel), of which only the lower triangle,
    diagonal included, is read: the upper triangle may hold anything, and
    the Nystrom kernel leaves it zero. Nothing is factorized. The kernel is
    built at ceil(counts/2) and at counts, and both double until the
    purities sum lambda^2, each the squared Frobenius norm of its kernel
    (`_purity`), agree to `settle` relative plus `floor` (one rule for
    every moment), or until a doubling would pass `cap` nodes in all. The
    fine and coarse kernels are returned with their purities; the caller
    takes their spectra or power traces. `settle` is 1e-11 and `floor` 0
    for an analytic G. A G interpolated by a cubic spline is only C^2: its
    spectrum settles algebraically in the node count and the purity change
    stalls at a level set by the spline's error, so the caller loosens
    `settle` to its error budget and sets `floor` to that error.
    """
    counts = np.asarray(counts, dtype=int)
    width = np.diff(edges)

    def solve(n: np.ndarray):
        rules = [_gauss_legendre(int(k)) for k in n]
        tau = np.concatenate([a + h * x for a, h, (x, _)
                              in zip(edges[:-1], width, rules)])
        omega = np.concatenate([h * g for h, (_, g) in zip(width, rules)])
        omega = omega / width.sum() if density is None \
            else omega * density(tau)
        kernel = gram(tau, omega)
        return kernel, _purity(kernel), tau, omega

    coarse, coarse_purity, _, _ = solve((counts + 1) // 2)
    while True:
        kernel, purity, tau, omega = solve(counts)
        settled = abs(purity - coarse_purity) <= settle * purity + floor
        if settled or 2 * tau.size > cap:
            return _WindowKernel(kernel, coarse, purity, coarse_purity,
                                 tau, omega, settled)
        coarse, coarse_purity, counts = kernel, purity, 2 * counts


def _symmetric(low: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower triangle, diagonal included, `low`
    holds; the upper triangle of `low` is not read. The transpose is copied
    in _TILE x _TILE blocks: at the 2048-node cap one strided pass took
    about 0.1 s, longer than the matrix product it feeds, and the blocks
    0.02 s."""
    m = low.shape[0]
    full = low.copy()
    tri = np.tri(min(m, _TILE), dtype=bool)
    for i in range(0, m, _TILE):
        j = i + _TILE
        block = full[i:j, i:j]
        n = block.shape[0]
        block[...] = np.where(tri[:n, :n], block, block.T)
        for k in range(j, m, _TILE):
            full[i:j, k:k + _TILE] = low[k:k + _TILE, i:j].T
    return full


def _power_trace(kernel: np.ndarray, purity: float, alpha: int) -> float:
    """tr R^alpha (alpha = 2, 3, 4) of the real symmetric R whose lower
    triangle `kernel` holds, with `purity` = tr R^2 given: sum R o R^2 for
    alpha = 3 and ||R^2||_F^2 for alpha = 4, one matrix product."""
    if alpha == 2:
        return purity
    full = _symmetric(kernel)
    square = full @ full
    return float(np.vdot(full if alpha == 3 else square, square))


def _nystrom_gram(spline, sites: float, t: float):
    """The Nystrom kernel of `moments_quadrature` on [0, t], in real form.

    On m nodes symmetric under tau -> t - tau, with symmetric weights w,
    the Hermitian kernel K_ij = sqrt(w_i w_j) exp(-sites f(tau_i - tau_j))
    is centro-Hermitian, J K J = conj K with J the exchange matrix, since
    f(-s) = conj f(s). With p = m/2 and the unitary
    Q = [[I, iI], [J, -iJ]]/sqrt(2) it is similar to the real symmetric

        R = Q^H K Q = [[Re(P + M), Im(M - P)], [Im(P + M), Re(P - M)]],

    where P_ij = K_ij (i, j < p) is Hermitian and
    M_ij = K_{i,m-1-j} = sqrt(w_i w_j) conj exp(-sites f(t - tau_i - tau_j))
    is complex symmetric (A. Lee, Linear Algebra Appl. 29, 205 (1980)).
    Both are evaluated on their lower triangles only, p(p + 1) lags in all,
    each >= 0 as the nodes ascend, by one spline call and one exponential.
    The returned `gram(tau, omega)` holds R's lower triangle, the only part
    `_window_spectrum` and `_power_trace` read, and zeros above it; like a
    Hermitian solver it ignores the imaginary part of K's diagonal. m must
    be even.
    """
    def gram(tau: np.ndarray, omega: np.ndarray) -> np.ndarray:
        m = tau.size
        if m % 2:
            raise ValueError(f"real Nystrom kernel needs an even node count, "
                             f"got {m}")
        p = m // 2
        low = np.tri(p, dtype=bool)
        head = tau[:p]
        lags = np.concatenate((np.subtract.outer(head, head)[low],
                               t - np.add.outer(head, head)[low]))
        blocks = np.zeros((2, p, p), dtype=complex)
        blocks[:, low] = np.exp(-sites * spline(lags)).reshape(2, -1)
        herm, sym = blocks[0], blocks[1].conj()
        plus = herm + sym
        out = np.zeros((m, m))
        out[:p, :p] = plus.real
        out[p:, p:] = (herm - sym).real
        # Im(P + M) on both triangles, from P^T = conj P and M^T = M; on
        # the diagonal Im M alone
        corner = out[p:, :p]
        corner[...] = plus.imag + (sym - herm).imag.T
        np.fill_diagonal(corner, sym.diagonal().imag)
        root_w = np.sqrt(omega[:p])
        root_w = np.concatenate((root_w, root_w))
        out *= root_w[:, None]
        out *= root_w
        return out

    return gram


def moments_quadrature(f: DynamicalFreeEnergy, L: int, d: int, t: float,
                       alpha: int, scheme: str = "auto", seed: int = 0,
                       rtol: float | None = None,
                       n_gl: int = 8, n_samples: int = 400_000) -> MomentEstimate:
    """Finite-volume moment tr[rho_bar^alpha] from the free energy f.

    The nonzero spectrum of rho_bar is that of the Hermitian Gram kernel
    K_ij = sqrt(w_i w_j)/t exp(-L^d f(tau_i - tau_j)) on m Gauss-Legendre
    nodes tau_i of [0, t] (Nystrom discretization, exponentially convergent
    for this analytic kernel), with f needed on [0, t] only. The nodes and
    weights are symmetric under tau -> t - tau and f(-s) = conj f(s), so K
    is centro-Hermitian and similar to the real symmetric R that
    `_nystrom_gram` builds from p(p + 1) lags >= 0 (p = m/2), none of which
    needs the conjugation. The moment sum_i lambda_i^alpha is the power
    trace tr R^alpha, with no eigensolve: the purity itself for alpha = 2,
    sum R o R^2 for alpha = 3 and ||R^2||_F^2 for alpha = 4
    (`_power_trace`). m starts at 32 and doubles until it reaches
    sqrt(L^d e2) t, with e2 read off the curvature 2 Re S(h)/h^2 of the
    table's spline S at h = 1e-3 t, so f is read only through the first
    table the moment is solved on. From there `_window_spectrum` doubles
    the kernels at m and 2m nodes until their Frobenius purities agree to
    the settle tolerance, or 2048 nodes are reached. `error` is the change
    of the moment from the last m/2 to m plus a round-off floor of 1e-12
    relative.

    Without `rtol`, f comes from the 4096-points-per-unit table
    `f.table(t)` and the settle tolerance is 1e-11. With `rtol`, the table
    is sized by an error budget of rtol * value / 10: it starts at 256
    points per unit (at least 129 knots) and doubles, up to 4096, while
    alpha * `_CheckedTable.interpolation_bound` exceeds the budget; that
    term is added to `error`. The settle tolerance is max(1e-11, 1e-6 rtol)
    relative plus the table's interpolation bound: purity changes below
    the spline's own error are not resolved. Raises AccuracyError if `rtol`
    is given and not met.

    `scheme` must be "auto", "grid" or "mc"; it, `seed`, `n_gl` and
    `n_samples` are accepted for compatibility and change nothing.
    """
    if alpha not in (2, 3, 4):
        raise DomainError("alpha must be one of 2, 3, 4")
    if t <= 0:
        raise DomainError("t must be positive")
    if scheme not in ("auto", "grid", "mc"):
        raise DomainError(f"unknown scheme {scheme!r}")
    sites = float(L) ** d
    if rtol is None:
        spline, settle, bound = f.table(t), _SETTLE, 0.0
    else:
        ppu = _PPU_START
        tab = f.table(t, ppu, checked=True)
        spline, settle = tab.spline, max(_SETTLE, 1e-6 * rtol)
        bound = tab.interpolation_bound(sites, t)
    h = 1e-3 * t    # e2 from the curvature of Re f at the origin
    e2 = max(2.0 * float(spline(h).real) / (h * h), 1e-12)
    width = math.sqrt(sites * e2) * t
    m = _M_START
    while m < width and 2 * m < _M_CAP:
        m *= 2

    def moment(spline, floor: float):
        win = _window_spectrum(_nystrom_gram(spline, sites, t),
                               np.array([0.0, t]), [2 * m],
                               settle=settle, floor=floor)
        value = _power_trace(win.kernel, win.purity, alpha)
        prev = _power_trace(win.coarse, win.coarse_purity, alpha)
        return value, abs(value - prev)

    value, err = moment(spline, bound)
    if rtol is not None:
        solved = tab
        while alpha * bound > 0.1 * rtol * value and ppu < _PPU_CAP:
            ppu *= 2
            tab = f.table(t, ppu, checked=True)
            bound = tab.interpolation_bound(sites, t)
        if tab is not solved:
            value, err = moment(tab.spline, bound)
    value = min(value, 1.0)
    err += _ROUNDOFF * value + alpha * bound
    if rtol is not None and err > rtol * abs(value):
        raise AccuracyError(
            f"moment accuracy {err / max(abs(value), 1e-300):.2e} "
            f"above target {rtol:.2e}", value=value, achieved=err)
    return MomentEstimate(value=value, error=err)


def renyi_quadrature(f: DynamicalFreeEnergy, L: int, d: int, t: float,
                     alpha: int, scheme: str = "auto", seed: int = 0,
                     rtol: float | None = None, **kw) -> RenyiEstimate:
    """Renyi entropy S_alpha = log(tr[rho_bar^alpha])/(1-alpha) from
    `moments_quadrature`, with the moment error propagated through the log.
    """
    est = moments_quadrature(f, L, d, t, alpha, scheme=scheme, seed=seed,
                             rtol=rtol, **kw)
    value = math.log(est.value) / (1.0 - alpha)
    err = est.error / (abs(1.0 - alpha) * est.value)
    return RenyiEstimate(value=value, error=err)
