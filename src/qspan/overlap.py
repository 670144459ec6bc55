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
size (`_nystrom_gram`), built from p(p + 1) lags for m = 2p nodes: one
gather through an index of p alone (`_pair_index`, cached for the last four
p) puts the weighted kernel values on four p x p blocks, which sums,
differences and signs make into R. For the integer alpha asked for,
sum lambda^alpha is the power trace tr R^alpha, so no eigenvalue is
computed. The window core `_window_spectrum` (node rule, doubling, and a
settle test on the purity, the squared Frobenius norm of the kernel)
factorizes nothing and is shared with `ed.averaged_state`, which feeds it
the snapshot Gram matrix and factorizes the settled kernel once.

f is read only from a cached cubic spline (`DynamicalFreeEnergy.table`),
which also supplies the rough e2 that picks the starting node count, so a
moment evaluates f directly only while building a table. Every table also
evaluates f at its knot midpoints (which become the knots of the table at
twice its density), and the spline's deviation there bounds the kernel's
change in Frobenius norm, a term that joins every moment's error. Without
an accuracy target the table has 2048 knots per unit time; with `rtol` it
starts at 256 per unit and doubles, up to 4096, until the term fits
rtol * value / 10.

For the transverse-field Ising chain after a field quench h_i -> h_f the
free energy is available in closed form as a single mode integral, which is
what `IsingQuench` evaluates (sums over discrete momenta are replaced by
the integral, dropping exponentially small finite-size effects). The mode
sum (`_mode_log_sum`) runs in real arithmetic on cache-sized blocks of
times; on a table's evenly spaced knots and midpoints every block takes its
phases from angle addition, so cos and sin run on a few rows per block.
"""

from __future__ import annotations

import functools
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

    `h_i = +-math.inf` is first class and uses the analytic limit of the
    Bogoliubov angle. `k_grid` sets the composite-Simpson resolution on
    [0, pi] (rounded up to an even interval count). J must be positive and
    finite, h_f finite and h_i not NaN; otherwise DomainError.
    """

    h_i: float
    h_f: float
    J: float = 1.0
    k_grid: int = 4096

    def __post_init__(self):
        if not 0 < self.J < math.inf:     # NaN fails too
            raise DomainError("J must be positive and finite")
        if not math.isfinite(self.h_f):
            raise DomainError("h_f must be finite")
        if math.isnan(self.h_i):
            raise DomainError("h_i must not be NaN")
        if self.k_grid < 64:
            raise DomainError("k_grid must be at least 64")


def ising_dispersion(q: IsingQuench, k):
    """Post-quench mode energy and Bogoliubov-angle cosine at momentum k.

    With u_h = (h - cos k, sin k), |u_h| = sqrt(1 + h^2 - 2 h cos k):
    eps_k = 2J |u_f| and cos Delta_k = u_f . u_i / (|u_f| |u_i|), with the
    h_i -> +-inf limit +-(h_f - cos k)/|u_f|. Each norm is a hypot, floored
    at 1e-150, and cos Delta_k the dot product of the unit vectors, so no
    finite field overflows. Accepts scalar or array k in [0, pi].
    """
    k_arr = np.asarray(k, dtype=float)
    cos_k = np.cos(k_arr)
    sin_k = np.sin(k_arr)
    root_f = np.hypot(q.h_f - cos_k, sin_k)
    eps = 2.0 * q.J * root_f
    if np.any(eps < 1e-12 * q.J):
        warnings.warn("dispersion vanishes at a gap-closing momentum",
                      GapClosingWarning, stacklevel=2)
    root_f = np.maximum(root_f, 1e-150)
    if math.isinf(q.h_i):
        cos_delta = math.copysign(1.0, q.h_i) * (q.h_f - cos_k) / root_f
    else:
        root_i = np.maximum(np.hypot(q.h_i - cos_k, sin_k), 1e-150)
        cos_delta = (q.h_f - cos_k) / root_f * ((q.h_i - cos_k) / root_i) \
            + sin_k / root_f * (sin_k / root_i)
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


_BLOCK = 16384   # (time, mode) elements per block of `_mode_log_sum`


def _progression_step(ts: np.ndarray):
    """The common difference of ts if it is an increasing arithmetic
    progression to within four ulps of its largest time, else None."""
    n = ts.size
    if n < 3:
        return None
    step = (ts[-1] - ts[0]) / (n - 1)
    if not step > 0.0:    # NaN fails too
        return None
    deviation = np.arange(n) * step + ts[0] - ts
    if np.abs(deviation).max() > 4.0 * np.spacing(abs(ts[-1])):
        return None
    return step


def _mode_log_sum(eps, cos_delta, w):
    """ts -> sum_k w_k log[c_k + (1 - c_k) e^{i theta_k}], theta_k =
    2 eps_k t and c_k = (1 + cos Delta_k)/2, each mode's log continuous in t.

    Computed in real arithmetic. The argument x + iy has
    x = c + (1 - c) cos theta and y = (1 - c) sin theta, so
    Re log = log(x^2 + y^2)/2, the 1/2 folded into the weights. With
    r = min(c, 1 - c)/max(c, 1 - c) <= 1 it is c (1 + r e^{i theta}) for
    c >= 1/2 and (1 - c) e^{i theta} (1 + r e^{-i theta}) for c < 1/2, so

        Im log = s atan2(r sin theta, 1 + r cos theta) (+ theta if c < 1/2),

    s = +1 for c >= 1/2 and -1 for c < 1/2. The atan2 stays on the principal
    branch, its second argument being >= 0; the theta of the c < 1/2 modes,
    the winding that makes their principal log jump by 2 pi, sums over the
    modes in closed form. Every term is exactly 0 at t = 0.

    The times go through in blocks of about 16384 (time, mode) elements,
    whose temporaries stay in cache. When the times form an arithmetic
    progression t_0 + i h (a table's linspace knots or their midpoints),
    cos and sin of theta t come from angle addition: each block's start
    phase theta t_j and the offset phases theta i h, which every block
    shares, so cos and sin run on a few rows per block, not on every row.
    Other times take cos and sin directly.
    """
    c = 0.5 * (1.0 + cos_delta)
    one_c = 1.0 - c
    r = np.minimum(c, one_c) / np.maximum(c, one_c)
    lo = c < 0.5
    half_w = 0.5 * w
    signed_w = np.where(lo, -w, w)
    slope = 2.0 * float(np.sum(w[lo] * eps[lo]))
    two_eps = 2.0 * eps
    rows = max(1, _BLOCK // eps.size)

    def log_sum(ts):
        ts = np.asarray(ts, dtype=float).ravel()
        out = np.empty(ts.size, dtype=complex)
        step = _progression_step(ts) if ts.size > rows else None
        if step is not None:
            cos_shift = np.multiply.outer(np.arange(rows) * step, two_eps)
            sin_shift = np.sin(cos_shift)
            np.cos(cos_shift, out=cos_shift)
        cos, sin, x, y = np.empty((4, min(rows, ts.size), eps.size))
        for i in range(0, ts.size, rows):
            block = ts[i:i + rows]
            n = block.size
            cos_b, sin_b, x_b, y_b = cos[:n], sin[:n], x[:n], y[:n]
            if step is None:
                np.multiply.outer(block, two_eps, out=cos_b)
                np.sin(cos_b, out=sin_b)
                np.cos(cos_b, out=cos_b)
            else:   # theta (t_i + j h) from the block's start phase
                start = block[0] * two_eps
                cos_0, sin_0 = np.cos(start), np.sin(start)
                np.multiply(cos_shift[:n], cos_0, out=cos_b)
                np.multiply(sin_shift[:n], sin_0, out=y_b)
                cos_b -= y_b
                np.multiply(sin_shift[:n], cos_0, out=sin_b)
                np.multiply(cos_shift[:n], sin_0, out=y_b)
                sin_b += y_b
            np.multiply(cos_b, one_c, out=x_b)
            x_b += c
            x_b *= x_b
            np.multiply(sin_b, one_c, out=y_b)
            y_b *= y_b
            x_b += y_b
            np.log(x_b, out=x_b)
            out.real[i:i + n] = x_b @ half_w
            np.multiply(cos_b, r, out=x_b)
            x_b += 1.0
            np.multiply(sin_b, r, out=y_b)
            np.arctan2(y_b, x_b, out=x_b)
            out.imag[i:i + n] = x_b @ signed_w + slope * block
        return out

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

_PPU_START = 256     # knots per unit time of the first table of a chain
_PPU_DEFAULT = 2048  # a table without an accuracy target: f at 4096 points
_PPU_CAP = 4096      # densest table an accuracy target may ask for


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
        """Mode sum of `ising_f` (`_mode_log_sum`)."""
        eps, cos_delta, w = _ising_modes(q)
        log_sum = _mode_log_sum(eps, cos_delta, w)

        def eval_many(ts):
            ts = np.asarray(ts, dtype=float)
            return (log_sum(ts) / (-2.0 * math.pi)).reshape(ts.shape)

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
            if np.any(ts > _tmax * (1 + 1e-12)):
                raise DomainError("tabulated f evaluated outside its range")
            return _s(ts)

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

    def table(self, u_max: float, points_per_unit: int = _PPU_DEFAULT):
        """Cached spline of f on [0, u_max], with f also evaluated directly
        at its knot midpoints (`_CheckedTable`).

        Resolution is fixed per unit time, so a wider cached table serves
        any narrower request of equal or lower density. Concurrent callers
        build each table once. A density above `_PPU_START` is built from
        the table at half of it, whose midpoints become the new knots: f is
        never evaluated twice at one point, and the default table evaluates
        it at 4096 points per unit time.
        """
        with self._tables_lock:
            return self._table(u_max, points_per_unit)

    def _table(self, u_max: float, points_per_unit: int):
        for (cached_umax, cached_ppu), tab in self._tables.items():
            if cached_umax >= u_max * (1 - 1e-12) \
                    and cached_ppu >= 0.9 * points_per_unit:
                return tab
        if points_per_unit > _PPU_START:
            half = self._table(u_max, points_per_unit // 2)
            u_max = float(half.knots[-1])
            knots = _interleave(half.knots, half.midpoints)
            values = _interleave(half.values, half.mid_values)
        else:
            n = max(129, int(math.ceil(points_per_unit * u_max)) + 1)
            knots = np.linspace(0.0, u_max, n)
            values = self._eval_many(knots)
        spline = CubicSpline(knots, values)
        midpoints = 0.5 * (knots[:-1] + knots[1:])
        mid_values = self._eval_many(midpoints)
        re_f = values.real
        deviation = np.abs(spline(midpoints) - mid_values)
        tab = _CheckedTable(
            spline, knots, values, midpoints, mid_values,
            deviation * deviation * np.diff(knots),
            np.minimum(np.minimum(re_f[:-1], re_f[1:]), mid_values.real))
        self._tables[(u_max, points_per_unit)] = tab
        return tab


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], ..., b[-1], a[-1] for len(b) == len(a) - 1."""
    out = np.empty(a.size + b.size, dtype=np.result_type(a, b))
    out[0::2] = a
    out[1::2] = b
    return out


class _CheckedTable(NamedTuple):
    """An f-table with f also evaluated at its knot midpoints; calling it
    evaluates its spline."""
    spline: CubicSpline
    knots: np.ndarray
    values: np.ndarray       # f at the knots
    midpoints: np.ndarray
    mid_values: np.ndarray   # f at the midpoints, evaluated directly
    weight: np.ndarray       # delta_k^2 ds_k: midpoint deviation^2 * width
    re_min: np.ndarray       # least Re f at each interval's knots and midpoint

    def __call__(self, x):
        return self.spline(x)

    def interpolation_bound(self, sites: float, t: float) -> float:
        """F = (sites/t) sqrt(2 sum_k (t - s_k) ds_k delta_k^2
        e^{-2 sites re_min_k}) over the intervals [s_k, s_k + ds_k], s_k < t.

        To first order, replacing f by the spline S changes the Gram kernel
        exp(-sites f(tau - tau'))/t on [0, t] by a matrix of squared
        Frobenius norm (2/t^2) int_0^t (t - s) sites^2 |S - f|^2
        e^{-2 sites Re f} ds; F bounds that with each interval's midpoint
        deviation delta_k (where a cubic spline's error peaks) and least
        Re f. The kernel K is positive semidefinite, so alpha tr K^(alpha-1) F
        bounds the change of tr K^alpha."""
        k = int(np.searchsorted(self.knots, t))   # intervals with s_k < t
        decay = np.exp(self.re_min[:k] * (-2.0 * sites))
        lag_sum = np.dot((t - self.knots[:k]) * self.weight[:k], decay)
        return sites / t * math.sqrt(2.0 * float(lag_sum))


def second_cumulant_from_f(f: DynamicalFreeEnergy, h0: float = 0.1,
                           levels: int = 5) -> float:
    """Energy variance per site from the curvature of Re f at the origin.

    Central second differences (exploiting f(0) = 0 and the conjugation
    symmetry) at the steps h0 2^-i, all evaluated in one call of f, with
    Richardson extrapolation in the step size; the last two diagonal
    entries of the tableau must agree.
    """
    if not (0.0 < h0 < math.inf and levels >= 2):
        raise DomainError(f"h0 = {h0} must be positive and finite and "
                          f"levels = {levels} at least 2")
    h = h0 * 0.5 ** np.arange(levels)
    col = 2.0 * f(h).real / (h * h)   # Richardson column j: rows j..levels-1
    for j in range(1, levels):
        prev, fac = col[0], 4.0 ** j
        col = (fac * col[1:] - col[:-1]) / (fac - 1.0)
    best = col[0]
    if not abs(best - prev) <= 1e-6 * max(abs(best), 1e-12) + 1e-10:
        raise AccuracyError("second-derivative extrapolation did not settle",
                            value=best, achieved=abs(best - prev))
    return float(best)


# ---------------------------------------------------------------------------
# Moment quadrature
# ---------------------------------------------------------------------------

_M_START = 32       # fewest nodes of a window
_M_CAP = 2048       # kernel ~0.11 s, one power trace ~0.4 s (2-vCPU Xeon VM)
_SETTLE = 1e-11     # relative purity change from m/2 to m that ends doubling
_ROUNDOFF = 1e-12   # relative round-off floor of a moment


class _WindowKernel(NamedTuple):
    kernel: np.ndarray    # on the fine node set tau
    coarse: np.ndarray    # the same on half the nodes
    purity: float         # sum lambda^2 of kernel
    coarse_purity: float
    tau: np.ndarray
    omega: np.ndarray     # weights of tau, density folded in
    settled: bool         # False when the cap ended the doubling


def _purity(kernel: np.ndarray) -> float:
    """sum lambda^2 of a Hermitian (or real symmetric) kernel: its squared
    Frobenius norm."""
    return float(np.vdot(kernel, kernel).real)


def _window_spectrum(gram, edges, counts, density=None, cap: int = _M_CAP,
                     settle: float = _SETTLE,
                     floor: float = 0.0) -> _WindowKernel:
    """The settled window of rho_bar = int omega(tau) |Psi_tau><Psi_tau|
    dtau, shared by `moments_quadrature` and `ed.averaged_state`.

    The nonzero eigenvalues of rho_bar are those of the Gram kernel
    sqrt(omega_i) G(tau_i - tau_j) sqrt(omega_j), G(s) = <Psi_s|Psi_0>, on
    composite Gauss-Legendre nodes tau_i, counts[k] of them on panel
    [edges[k], edges[k+1]], with the density (1/t when None) folded into
    the weights omega_i. The nodes ascend. `gram(tau, omega)` returns the
    full Hermitian matrix with that nonzero spectrum, or a full real
    symmetric one similar to it (the Nystrom kernel). Nothing is
    factorized. The kernel is built at ceil(counts/2) and at counts, and
    both double until the purities sum lambda^2, each the squared
    Frobenius norm of its kernel (`_purity`), agree to `settle` relative
    plus `floor` (one rule for every moment), or until a doubling would
    pass `cap` nodes in all. The fine and coarse kernels are returned with
    their purities; the caller takes their spectra or power traces.
    `settle` is 1e-11 and `floor` 0 for an analytic G. A G interpolated by
    a cubic spline is only C^2: its spectrum settles algebraically in the
    node count and the purity change stalls at a level set by the spline's
    error, so the caller loosens `settle` to its error budget and sets
    `floor` to that error.
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


def _power_traces(kernel: np.ndarray, purity: float, alpha: int):
    """(tr R^alpha, tr R^(alpha-1)) for alpha = 2, 3, 4 of the real
    symmetric R = `kernel` of unit trace, with `purity` = tr R^2 given:
    tr R^3 is sum R o R^2 and tr R^4 is ||R^2||_F^2, one matrix product."""
    if alpha == 2:
        return purity, 1.0
    square = kernel @ kernel
    cube = float(np.vdot(kernel, square))
    if alpha == 3:
        return cube, purity
    return float(np.vdot(square, square)), cube


@functools.lru_cache(maxsize=4)   # a window needs two: p and p/2
def _pair_index(p: int):
    """(pairs, index, sign) of the real Nystrom kernel on m = 2p nodes, all
    read-only: `tril_indices(p)` as int32 rows (the node pairs i >= j), the
    int32 p x p map index[i, j] = k(max(i, j), min(i, j)) into that order,
    and the sign of Im P: +1 below the diagonal, -1 above it, 0 on it.
    16 MiB at the 2048-node cap."""
    r = np.arange(p, dtype=np.int32)
    tri = r * (r + 1) // 2
    index = np.maximum.outer(tri, tri) + np.minimum.outer(r, r)
    sign = np.sign(np.subtract.outer(r, r), dtype=float)
    out = (np.stack(np.tril_indices(p)).astype(np.int32), index, sign)
    for a in out:
        a.flags.writeable = False
    return out


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
    Both are evaluated on their lower triangles, p(p + 1) lags in all, each
    >= 0 as the nodes ascend, by one spline call and one exponential, as
    weighted values v0 (of P) and v1 (conj of M). One gather through the
    cached pair index of p (`_pair_index`) puts both on the p x p grid,
    and with s the sign of Im P (0 on the diagonal, as f(0) = 0)

        R11 = Re v0 + Re v1,  R22 = Re v0 - Re v1,
        R21 = s Im v0 - Im v1,  R12 = R21^T.

    At the 2048-node cap a build adds 16 MiB of values and 32 MiB of
    gathered blocks to R's own 32 MiB. The returned `gram(tau, omega)` is
    R, exactly symmetric. m must be even.
    """
    def gram(tau: np.ndarray, omega: np.ndarray) -> np.ndarray:
        m = tau.size
        if m % 2:
            raise ValueError(f"real Nystrom kernel needs an even node count, "
                             f"got {m}")
        p = m // 2
        pairs, index, sign = _pair_index(p)
        n = pairs.shape[1]
        node = np.take(tau, pairs)           # tau_i, tau_j of each pair
        lags = np.empty(2 * n)
        np.subtract(node[0], node[1], out=lags[:n])
        np.add(node[0], node[1], out=lags[n:])
        np.subtract(t, lags[n:], out=lags[n:])
        kernel = spline(lags).reshape(2, n)
        kernel *= -sites
        np.exp(kernel, out=kernel)
        root_w = np.take(np.sqrt(omega[:p]), pairs)
        kernel *= root_w[0] * root_w[1]      # v0 and v1
        del node, lags, root_w               # peak memory: free before gather
        v0, v1 = np.take(kernel, index, axis=1)
        del kernel
        out = np.empty((m, m))
        np.add(v0.real, v1.real, out=out[:p, :p])
        np.subtract(v0.real, v1.real, out=out[p:, p:])
        lower = out[p:, :p]
        np.multiply(sign, v0.imag, out=lower)
        lower -= v1.imag
        out[:p, p:] = lower.T
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
    (`_power_traces`). m starts at 32 and doubles until it reaches
    sqrt(L^d e2) t, with e2 read off the curvature 2 Re S(h)/h^2 of the
    table's spline S at h = 1e-3 t, so f is read only through the first
    table the moment is solved on. From there `_window_spectrum` doubles
    the kernels at m and 2m nodes until their Frobenius purities agree to
    the settle tolerance plus a floor of 2F, the spline's own error in the
    purity, or 2048 nodes are reached; F is the table's Frobenius bound
    (`_CheckedTable.interpolation_bound`). `error` is the change of the
    moment from the last m/2 to m, plus the interpolation term
    alpha tr K^(alpha-1) F (tr K = 1), plus a round-off floor of 1e-12
    relative. Without `rtol` there is no target: f comes from the
    2048-per-unit table `f.table(t)` and the settle tolerance is 1e-11.
    With `rtol` the table starts at 256 points per unit (at least 129
    knots) and doubles, up to 4096, while the interpolation term exceeds
    rtol * value / 10; the settle tolerance is max(1e-11, 1e-6 rtol).
    Raises DomainError unless t and `rtol` lie in (0, inf) and L, d >= 1,
    and AccuracyError if `rtol` is given and not met.

    `scheme` must be "auto", "grid" or "mc"; it, `seed`, `n_gl` and
    `n_samples` are accepted for compatibility and change nothing.
    """
    if alpha not in (2, 3, 4):
        raise DomainError("alpha must be one of 2, 3, 4")
    if not (0.0 < t < math.inf and L >= 1 and d >= 1) or not (
            rtol is None or 0.0 < rtol < math.inf):
        raise DomainError(f"need t, rtol in (0, inf) and L, d >= 1; got "
                          f"t = {t}, L = {L}, d = {d}, rtol = {rtol}")
    if scheme not in ("auto", "grid", "mc"):
        raise DomainError(f"unknown scheme {scheme!r}")
    sites = float(L) ** d
    if rtol is None:
        ppu, settle, budget = _PPU_DEFAULT, _SETTLE, math.inf
    else:
        ppu, settle, budget = _PPU_START, max(_SETTLE, 1e-6 * rtol), 0.1 * rtol
    tab = f.table(t, ppu)
    h = 1e-3 * t    # e2 from the curvature of Re f at the origin
    e2 = max(2.0 * float(tab(h).real) / (h * h), 1e-12)
    width = math.sqrt(sites * e2) * t
    m = _M_START
    while m < width and 2 * m < _M_CAP:
        m *= 2

    def moment(tab, bound: float):
        win = _window_spectrum(_nystrom_gram(tab, sites, t),
                               np.array([0.0, t]), [2 * m],
                               settle=settle, floor=2.0 * bound)
        value, lower = _power_traces(win.kernel, win.purity, alpha)
        prev, _ = _power_traces(win.coarse, win.coarse_purity, alpha)
        return value, abs(value - prev), alpha * lower

    bound = tab.interpolation_bound(sites, t)
    value, err, scale = moment(tab, bound)
    solved = tab
    while scale * bound > budget * value and ppu < _PPU_CAP:
        ppu *= 2
        tab = f.table(t, ppu)
        bound = tab.interpolation_bound(sites, t)
    if tab is not solved:
        value, err, scale = moment(tab, bound)
    value = min(value, 1.0)
    err += _ROUNDOFF * value + scale * bound
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
