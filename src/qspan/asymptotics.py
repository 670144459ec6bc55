"""Closed-form large-volume results for the time-averaged state.

For a lattice of L^d sites with extensive energy cumulants, the moments of
the state averaged over a window of width t behave as

    tr[rho_bar^alpha] ~ alpha^{-1/2} (e2/2pi)^{(1-alpha)/2} t^{1-alpha}
                        L^{d(1-alpha)/2},

with e2 the energy variance per site. Everything else follows: Renyi and von
Neumann entropies, the universal eigenvalue law Pi(x) = theta(1-x)/
sqrt(-pi log x) in the rescaled variable x = Omega t lambda with
Omega = sqrt(e2/2pi) L^{d/2}, the effective rank

    D_eps = sqrt(2 e2)/pi * erfinv(1 - eps) * L^{d/2} t,

the leading O(L^{-d/2}) moment corrections, and the nonuniform-weight
generalizations of all of the above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc

from .errors import (
    AccuracyError,
    DomainError,
    NoSolutionError,
    SingularPointError,
)
from .special import _gauss_legendre
from .special import (  # perfbench/tracing.py patches each name bound here
    adaptive_simpson,
    correction_integral,
    erf,  # noqa: F401
    erf_inv,
    erf_inv_tail_expansion,
)

__all__ = [
    "CumulantSeries",
    "WeightFunction",
    "DistributionPoint",
    "RankQuery",
    "RankSolution",
    "WeightedRankSolution",
    "moment_asymptotic",
    "moment_with_correction",
    "renyi_asymptotic",
    "von_neumann_asymptotic",
    "eigenvalue_distribution",
    "phi_density",
    "pi_universal",
    "eigenvalue_count_above",
    "support_edge",
    "distribution_point",
    "solve_rank_system",
    "rank_small_eps",
    "rank_timesliced",
    "mandelstam_tamm_bound",
    "weighted_renyi",
    "weighted_von_neumann",
    "weighted_phi_density",
    "weighted_rank_system",
    "ramp_weight",
    "cosine_bump_weight",
    "truncated_exponential_weight",
]

_SQRT_PI = math.sqrt(math.pi)
_SCAN = 2048   # intervals of the density scan that brackets level crossings


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CumulantSeries:
    """Per-site energy cumulants e_1..e_n plus the lattice geometry.

    The cumulants must be finite and the second (energy variance per site)
    positive; it is the only physical input of the leading-order formulas.
    """

    e: tuple[float, ...]
    L: int
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "e", tuple(float(v) for v in self.e))
        if len(self.e) < 2:
            raise DomainError("need at least cumulants e1, e2")
        if not all(map(math.isfinite, self.e)):
            raise DomainError(f"cumulants must be finite, got {self.e}")
        if self.e[1] <= 0:
            raise DomainError(f"e2 must be positive, got {self.e[1]}")
        if self.L < 1 or self.d < 1:
            raise DomainError("L and d must be positive integers")

    @property
    def e2(self) -> float:
        return self.e[1]

    @property
    def sites(self) -> float:
        return float(self.L) ** self.d

    @property
    def omega(self) -> float:
        """Eigenvalue scale Omega = sqrt(e2/2pi) L^{d/2}."""
        return math.sqrt(self.e2 / (2.0 * math.pi)) * self.L ** (self.d / 2.0)


@dataclass(frozen=True)
class WeightFunction:
    """Probability density on [0, t] used for nonuniform time averages.

    Construct through :meth:`uniform`, :meth:`from_table` or
    :meth:`from_callable`; the constructor checks normalization by
    quadrature. Tabulated densities are interpolated linearly and expose
    their nodes as quadrature breakpoints. Uniform and tabulated densities
    also take a whole array of times; a closure is called once per time.
    """

    t: float
    density: Callable[[float], float]
    kind: str  # uniform | tabulated | closure
    breakpoints: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not 0.0 < self.t < math.inf:   # NaN fails too
            raise DomainError(f"window width t = {self.t} must be positive "
                              "and finite")
        if self.kind not in ("uniform", "tabulated", "closure"):
            raise DomainError(f"unknown weight kind {self.kind!r}")
        norm = adaptive_simpson(self.density, 0.0, self.t, tol=1e-12,
                                breakpoints=self.breakpoints)
        if abs(norm - 1.0) > 1e-10:
            raise DomainError(
                f"weight density integrates to {norm!r}, not 1 within 1e-10")

    @classmethod
    def uniform(cls, t: float) -> "WeightFunction":
        t = float(t)
        return cls(t=t, density=lambda tau: 1.0 / t, kind="uniform")

    @classmethod
    def from_table(cls, times: Sequence[float], values: Sequence[float],
                   normalize: bool = True) -> "WeightFunction":
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise DomainError("times and values must be equal-length 1-D")
        if times[0] != 0.0 or not np.all(np.diff(times) > 0):
            raise DomainError("times must start at 0 and increase strictly")
        if not np.all(np.isfinite(values) & (values >= 0)):
            raise DomainError("density values must be finite and nonnegative")
        if normalize:
            area = np.trapezoid(values, times)
            if area <= 0:
                raise DomainError("tabulated density has zero mass")
            values = values / area

        def density(tau, _t=times, _v=values):
            return np.interp(tau, _t, _v)

        return cls(t=float(times[-1]), density=density, kind="tabulated",
                   breakpoints=tuple(times[1:-1]))

    @classmethod
    def from_callable(cls, t: float, density: Callable[[float], float],
                      breakpoints: Sequence[float] = ()) -> "WeightFunction":
        return cls(t=float(t), density=density, kind="closure",
                   breakpoints=tuple(breakpoints))

    @property
    def sup(self) -> float:
        """Largest density value on `_scan`; exact unless w is a closure."""
        return float(self._scan[1].max())

    def _sample(self, taus: np.ndarray) -> np.ndarray:
        """Density at every entry of an array of times."""
        if self.kind == "closure":
            return np.array([self.density(float(x)) for x in taus.ravel()]
                            ).reshape(taus.shape)
        return np.broadcast_to(self.density(taus), taus.shape)

    @cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray]:
        """Density on 2049 equispaced times plus the breakpoints; its sign
        changes against a level bracket the crossings `_density_crossings`
        refines (two crossings closer than t/2048 can go unseen)."""
        taus = np.union1d(np.linspace(0.0, self.t, _SCAN + 1),
                          self.breakpoints)
        return taus, self._sample(taus)


@dataclass(frozen=True)
class DistributionPoint:
    """One point of the rescaled eigenvalue law: p = Omega * lambda."""

    lam: float
    scaled_p: float
    phi_density: float


@dataclass(frozen=True)
class RankQuery:
    """Truncation error, window width and (spectrum-irrelevant) start time."""

    epsilon: float
    t: float
    t0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not 0.0 < self.t < math.inf:   # NaN fails too
            raise DomainError(f"window width t = {self.t} must be positive "
                              "and finite")


class RankSolution(NamedTuple):
    x_eps: float
    lambda_eps: float
    D: float


class WeightedRankSolution(NamedTuple):
    p_eps: float
    D: float


# ---------------------------------------------------------------------------
# Moments and entropies
# ---------------------------------------------------------------------------

def moment_asymptotic(cs: CumulantSeries, t: float, alpha: int) -> float:
    """Leading large-L moment tr[rho_bar^alpha]; equals 1 at alpha = 1."""
    if alpha < 1:
        raise DomainError("alpha must be >= 1")
    a = float(alpha)
    return (a ** -0.5 * (cs.e2 / (2.0 * math.pi)) ** ((1.0 - a) / 2.0)
            * t ** (1.0 - a) * cs.sites ** ((1.0 - a) / 2.0))


@lru_cache(maxsize=64)
def _correction_value(alpha: int, rng_seed: int) -> tuple[float, float]:
    est = correction_integral(alpha, rng_seed)
    return (est.value, est.error)


def _relative_correction(cs: CumulantSeries, t: float, alpha: int,
                         rng_seed: int) -> float:
    """(magnitude of the leading correction) / (leading moment)."""
    i_alpha, _ = _correction_value(int(alpha), int(rng_seed))
    corr = 2.0 * cs.e2 ** (-alpha / 2.0) * t ** (-alpha) \
        * cs.sites ** (-alpha / 2.0) * i_alpha
    return corr / moment_asymptotic(cs, t, alpha)


def moment_with_correction(cs: CumulantSeries, t: float, alpha: int,
                           rng_seed: int = 0) -> float:
    """Moment including the O(L^{-d/2}) correction from the boundary term.

    tr[rho_bar^alpha] ~ m_alpha - 2 e2^{-alpha/2} t^{-alpha} L^{-d alpha/2}
    I_alpha, with I_alpha the coupled Gaussian integral (I_2 = 1/2).
    """
    if int(alpha) != alpha or alpha < 2:
        raise DomainError("correction defined for integer alpha >= 2")
    i_alpha, _ = _correction_value(int(alpha), int(rng_seed))
    lead = moment_asymptotic(cs, t, alpha)
    return lead - 2.0 * cs.e2 ** (-alpha / 2.0) * t ** (-alpha) \
        * cs.sites ** (-alpha / 2.0) * i_alpha


def renyi_asymptotic(cs: CumulantSeries, t: float, alpha: float,
                     with_correction: bool = False,
                     rng_seed: int = 0) -> float:
    """Renyi entropy S_alpha of the time-averaged state at leading order.

    (d/2) log L + (1/2) log(e2 t^2 / 2pi) + log(alpha)/(2(alpha-1)); with
    `with_correction` the relative moment correction delta_alpha is folded
    in through -(1/(1-alpha)) log(1 + delta_alpha).
    """
    if alpha <= 0 or alpha == 1.0:
        raise DomainError("alpha must be positive and != 1 "
                          "(use von_neumann_asymptotic at alpha = 1)")
    s = (cs.d / 2.0) * math.log(cs.L) \
        + 0.5 * math.log(cs.e2 * t * t / (2.0 * math.pi)) \
        + math.log(alpha) / (2.0 * (alpha - 1.0))
    if with_correction:
        if int(alpha) != alpha or alpha < 2:
            raise DomainError("correction defined for integer alpha >= 2")
        delta = _relative_correction(cs, t, int(alpha), rng_seed)
        s -= math.log1p(delta) / (1.0 - alpha)
    return s


def von_neumann_asymptotic(cs: CumulantSeries, t: float) -> float:
    """Replica limit alpha -> 1 of the Renyi entropies."""
    return (cs.d / 2.0) * math.log(cs.L) \
        + 0.5 * math.log(cs.e2 * t * t / (2.0 * math.pi)) + 0.5


# ---------------------------------------------------------------------------
# Eigenvalue distribution
# ---------------------------------------------------------------------------

def support_edge(cs: CumulantSeries, t: float) -> float:
    """Largest eigenvalue carried by the asymptotic law: 1/(Omega t)."""
    if t <= 0:
        raise DomainError("t must be positive")
    return 1.0 / (cs.omega * t)


def eigenvalue_distribution(cs: CumulantSeries, t: float, lam: float) -> float:
    """Asymptotic eigenvalue density P(lambda) of the time-averaged state.

    P = (L^{d/2} t / (pi lambda)) sqrt(e2 / log(2pi/(e2 L^d t^2 lambda^2)))
    below the support edge and zero above it. The density itself is not
    normalizable at lambda -> 0; lambda P(lambda) is (see `phi_density`).
    """
    if lam <= 0:
        raise DomainError("lambda must be positive")
    edge = support_edge(cs, t)
    if lam == edge:
        raise SingularPointError("P(lambda) diverges at the support edge")
    if lam > edge:
        return 0.0
    log_term = math.log(2.0 * math.pi / (cs.e2 * cs.sites * t * t * lam * lam))
    return (cs.sites ** 0.5 * t / (math.pi * lam)) * math.sqrt(cs.e2 / log_term)


def pi_universal(x: float) -> float:
    """Universal rescaled law Pi(x) = theta(1-x)/sqrt(-pi log x)."""
    if x <= 0:
        raise DomainError("x must be positive")
    if x == 1.0:
        raise SingularPointError("Pi diverges at x = 1")
    if x > 1.0:
        return 0.0
    return 1.0 / math.sqrt(-math.pi * math.log(x))


def phi_density(cs: CumulantSeries, t: float, lam: float) -> float:
    """Probability-weighted density Phi(lambda) = lambda P(lambda).

    Equals Omega t Pi(Omega t lambda), which integrates to one.
    """
    x = cs.omega * t * lam
    return cs.omega * t * pi_universal(x)


def eigenvalue_count_above(cs: CumulantSeries, t: float, lam: float) -> float:
    """Asymptotic number of eigenvalues exceeding lambda.

    Integrating P from lambda to the support edge gives
    (2 Omega t / sqrt(pi)) sqrt(-log(Omega t lambda)).
    """
    x = cs.omega * t * lam
    if x <= 0:
        raise DomainError("lambda must be positive")
    if x >= 1.0:
        return 0.0
    return 2.0 * cs.omega * t / _SQRT_PI * math.sqrt(-math.log(x))


def distribution_point(cs: CumulantSeries, lam: float,
                       t: float | None = None,
                       w: WeightFunction | None = None) -> DistributionPoint:
    """Record (lambda, p = Omega lambda, Phi) for a uniform or weighted law."""
    if (t is None) == (w is None):
        raise DomainError("provide exactly one of t or w")
    if w is None:
        phi = phi_density(cs, t, lam)
    else:
        phi = weighted_phi_density(cs, w, lam)
    return DistributionPoint(lam=lam, scaled_p=cs.omega * lam,
                             phi_density=phi)


# ---------------------------------------------------------------------------
# Effective rank
# ---------------------------------------------------------------------------

def solve_rank_system(cs: CumulantSeries, query: RankQuery) -> RankSolution:
    """Cutoff/rank pair for truncation error eps on the averaged state.

    eps = 1 - erf(sqrt(-log x_eps)) fixes the rescaled cutoff
    x_eps = exp(-(erfinv(1-eps))^2); the physical cutoff is
    lambda_eps = x_eps/(Omega t) and the retained dimension is
    D = sqrt(2 e2)/pi * erfinv(1-eps) * L^{d/2} t.
    """
    u = erf_inv(1.0 - query.epsilon)  # sqrt(-log x_eps)
    x_eps = math.exp(-u * u)
    lam_eps = x_eps / (cs.omega * query.t)
    dim = math.sqrt(2.0 * cs.e2) / math.pi * u \
        * cs.L ** (cs.d / 2.0) * query.t
    return RankSolution(x_eps=x_eps, lambda_eps=lam_eps, D=dim)


def rank_small_eps(cs: CumulantSeries, t: float, eps: float) -> float:
    """Small-eps closed form of the effective rank.

    sqrt(e2)/pi * sqrt(-log(-(pi eps^2/2) log(pi eps^2/2))) * L^{d/2} t;
    same domain restriction as the erf^{-1} tail expansion.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0,1)")
    erf_inv_tail_expansion(eps)  # domain gate: raises if eps too large
    v = math.pi * eps * eps / 2.0
    return math.sqrt(cs.e2) / math.pi \
        * math.sqrt(-math.log(-v * math.log(v))) \
        * cs.L ** (cs.d / 2.0) * t


def rank_timesliced(cs: CumulantSeries, t: float, delta_t: float,
                    eps_delta: float) -> float:
    """Rank bound from slicing [0,t] into windows of width delta_t.

    Assuming independent truncation errors across slices, the effective
    error is eps_delta sqrt(delta_t/t); this is the intermediate bound, the
    final estimate keeps eps unrescaled (the independence assumption is
    ultimately not satisfied).
    """
    if not 0.0 < delta_t <= t:
        raise DomainError("need 0 < delta_t <= t")
    eff = eps_delta * math.sqrt(delta_t / t)
    if not 0.0 < eff < 1.0:
        raise DomainError(f"effective epsilon {eff} outside (0,1)")
    return math.sqrt(2.0 * cs.e2) / math.pi * erf_inv(1.0 - eff) \
        * cs.L ** (cs.d / 2.0) * t


def mandelstam_tamm_bound(cs: CumulantSeries) -> float:
    """Quantum-speed-limit time pi L^{-d/2} / (2 sqrt(e2)).

    This is pi / (2 dE) with dE = sqrt(L^d e2): the earliest time the
    state can become orthogonal to itself (return amplitude 0). Since
    |<Psi_t|Psi_0>| >= cos(dE t) for dE t <= pi/2, amplitude `a` in [0, 1]
    is first reached no earlier than (2/pi) arccos(a) times this value.
    """
    return math.pi * cs.sites ** -0.5 / (2.0 * math.sqrt(cs.e2))


# ---------------------------------------------------------------------------
# Nonuniform averages
# ---------------------------------------------------------------------------

_N_START = 8      # Gauss-Legendre nodes per panel in the first pass
_N_CAP = 4096     # nodes per panel beyond which the doubling gives up
_SETTLE = 1e-13   # change n/2 -> n, relative to int |f|, that ends doubling
# Near a level just below a maximum of w, log(w/p) is small over a whole panel
# and the rounding of w sets a noise floor in D (about 1e-16 / log(sup w / p))
# and in Phi's 1/sqrt(log(w/p)) (growing like n^2, as the panel map puts
# nodes ever closer to the crossings): once the changes grow instead of
# shrinking, the estimate before is kept if its change is within _FLOOR.
# Phi's floor reaches 1e-13 already at n = 32, so it settles at _SETTLE_PHI.
_FLOOR = 1e-6
_SETTLE_PHI = 1e-10
_ROOT_RTOL = 1e-14
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=16)   # n runs over the powers of two up to _N_CAP
def _panel_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule on [0, 1] pushed through s = 3u^2 - 2u^3.

    The map has zero slope at both ends, so a sqrt(tau - a) behaviour at a
    panel end becomes linear in u and a 1/sqrt one is cancelled by the
    Jacobian 6u(1 - u): both integrate at the rate of a smooth function.
    """
    u, wts = _gauss_legendre(n)
    s = u * u * (3.0 - 2.0 * u)
    ds = 6.0 * u * (1.0 - u) * wts
    s.setflags(write=False)
    ds.setflags(write=False)
    return s, ds


def _density_crossings(w: WeightFunction, p: float) -> list[float]:
    """Times where the density crosses level p.

    Sign changes of the cached density scan, each refined by `brentq` to
    a few ulp of the crossing: a panel that ends there may be that narrow.
    """
    taus, vals = w._scan
    diff = vals - p
    zero = diff == 0.0
    plateau = np.zeros_like(zero)   # zeros inside a run of zeros
    plateau[1:-1] = zero[:-2] & zero[2:]
    out = [float(tau) for tau in taus[zero & ~plateau]]
    for i in np.nonzero(diff[:-1] * diff[1:] < 0.0)[0]:
        out.append(brentq(lambda tau: w.density(tau) - p,
                          taus[i], taus[i + 1], xtol=_TINY))
    return out


def _panel_integral(w: WeightFunction, integrand, levels=(),
                    settle: float = _SETTLE, floor: float = _FLOOR) -> float:
    """int_0^t integrand(w(tau)) dtau by composite Gauss-Legendre.

    Panels end at the breakpoints and wherever the density crosses one of
    `levels`, each mapped through `_panel_rule`; the node count per panel
    doubles from 8 until n/2 -> n changes the integral by at most `settle`
    times int |integrand|. If the change grows instead, the nodes have
    reached the integrand's rounding noise, and the estimate before is
    returned when its change was within `floor` times int |integrand|.
    AccuracyError is raised if 4096 nodes settle neither way: the density
    has a kink or jump not declared as a breakpoint, or a level lies within
    rounding of a density maximum, where log(w/p) is rounding noise.
    """
    edges = {0.0, w.t}
    edges.update(bp for bp in w.breakpoints if 0.0 < bp < w.t)
    for level in levels:
        edges.update(_density_crossings(w, level))
    edges = np.array(sorted(edges))
    left, width = edges[:-1, None], np.diff(edges)[:, None]
    prev = best = None
    last = math.inf
    n = _N_START
    while n <= _N_CAP:
        s, ds = _panel_rule(n)
        vals = integrand(w._sample(left + width * s))
        weights = width * ds
        total = float(np.sum(vals * weights))
        scale = float(np.sum(np.abs(vals) * weights))
        if prev is not None:
            change = abs(total - prev)
            if change <= settle * scale:
                return total
            if change > last and last <= floor * scale:
                return best
            last, best = change, total
        prev = total
        n *= 2
    raise AccuracyError(
        f"panel quadrature did not settle with {_N_CAP} nodes per panel: "
        f"last change {last:.2e} against scale {scale:.2e}; either the "
        "density has a kink not declared as a breakpoint, or a level lies "
        "within rounding of a density maximum", value=prev, achieved=last)


def _weight_power_integral(w: WeightFunction, alpha: float) -> float:
    return _panel_integral(w, lambda v: v ** alpha)


def weighted_renyi(cs: CumulantSeries, w: WeightFunction,
                   alpha: float) -> float:
    """Renyi entropy under a nonuniform window weight.

    (d/2) log L + (1/2) log(e2/2pi) + log(alpha)/(2(alpha-1))
    + (1/(1-alpha)) log int_0^t w(tau)^alpha dtau; the uniform weight
    reproduces the plain result with t^2 absorbed into the middle log.
    """
    if alpha <= 0 or alpha == 1.0:
        raise DomainError("alpha must be positive and != 1")
    pw = _weight_power_integral(w, alpha)
    return (cs.d / 2.0) * math.log(cs.L) \
        + 0.5 * math.log(cs.e2 / (2.0 * math.pi)) \
        + math.log(alpha) / (2.0 * (alpha - 1.0)) \
        + math.log(pw) / (1.0 - alpha)


def weighted_von_neumann(cs: CumulantSeries, w: WeightFunction) -> float:
    """Von Neumann entropy under a nonuniform weight; maximal for uniform.

    Adds the differential entropy -int w log w to the volume and variance
    terms.
    """
    def integrand(v: np.ndarray) -> np.ndarray:
        pos = v > 0.0
        return np.where(pos, v * np.log(np.where(pos, v, 1.0)), 0.0)

    ent = -_panel_integral(w, integrand)
    return (cs.d / 2.0) * math.log(cs.L) \
        + 0.5 * math.log(cs.e2 / (2.0 * math.pi)) + 0.5 + ent


def _log_ratio(v: np.ndarray, p: float) -> np.ndarray:
    """log(v/p) as log1p((v - p)/p): v - p is exact near a crossing, where
    the rounding of v/p would swamp the small logarithm."""
    return np.log1p((v - p) / p)


def _level_integrand(p: float):
    """theta(w - p) / sqrt(pi log(w/p)): Phi's integrand, and the slope in
    p of the discarded mass's."""
    def integrand(v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape)
        above = v > p
        out[above] = 1.0 / np.sqrt(math.pi * _log_ratio(v[above], p))
        return out

    return integrand


def weighted_phi_density(cs: CumulantSeries, w: WeightFunction,
                         lam: float) -> float:
    """Probability-weighted eigenvalue density under weight w.

    Phi(lambda) = Omega int_0^t dtau theta(w(tau) - p)
    / sqrt(pi log(w(tau)/p)) at p = Omega lambda; reduces to
    Omega t Pi(Omega t lambda) for the uniform weight. The integrand has
    integrable 1/sqrt singularities where the density crosses p; panels end
    there, and the panel map makes the integrand finite.
    """
    if lam <= 0:
        raise DomainError("lambda must be positive")
    p = cs.omega * lam
    if p >= w.sup:
        return 0.0
    return cs.omega * _panel_integral(w, _level_integrand(p), (p,),
                                      _SETTLE_PHI)


def _weighted_discarded(w: WeightFunction, p: float) -> float:
    """Probability mass below an eigenvalue cutoff p (rescaled units)."""
    if p <= 0.0:
        return 0.0

    def integrand(v: np.ndarray) -> np.ndarray:
        out = np.array(v)   # where w <= p the whole mass is discarded
        above = v > p
        out[above] = v[above] * erfc(np.sqrt(_log_ratio(v[above], p)))
        return out

    return _panel_integral(w, integrand, (p,))


def weighted_rank_system(cs: CumulantSeries, w: WeightFunction,
                         eps: float) -> WeightedRankSolution:
    """Cutoff p_eps and dimension D for a nonuniform average.

    Solves eps = int_0^t dtau w(tau)[1 - erf(sqrt(-log min(p/w(tau),1)))]
    for p_eps with a bracketed root finder (`brentq`, relative tolerance
    1e-14) on [eps/t, sup w]: erfc(x) <= exp(-x^2) bounds the integrand by p,
    so the discarded mass at p = eps/t is at most eps. Then

        D = (2 Omega / sqrt(pi)) int_0^t dtau theta(min(w,Omega) - p_eps)
            [sqrt(log(w/p_eps)) - sqrt(log max(w/Omega, 1))].

    Both integrals use the panel rule of `_panel_integral`, split where the
    density crosses p (and, for D, Omega). One Newton step after the root
    finder is carried into D as a shift of log(w/p_eps), since as eps -> 1
    D resolves log(w/p_eps) more finely than a double holds p_eps; where
    the step is not small against log(sup w / p_eps) (a flat weight from
    eps ~ 1 - 1e-7) AccuracyError is raised.

    The uniform weight reproduces the plain rank system (p = x/t) only
    when Omega t >= 1. Below that its density 1/t exceeds Omega, the cap
    min(w, Omega) keeps every eigenvalue lambda = p/Omega at most 1, and
    D = (2 Omega t / sqrt(pi)) [erfinv(1 - eps) - sqrt(log(1/(Omega t)))]
    is smaller than `solve_rank_system`'s, whose law has no such cap.
    """
    if not 0.0 < eps < 1.0:
        raise NoSolutionError("eps must lie in (0,1)")
    hi = w.sup
    if hi <= 0.0:
        raise NoSolutionError("weight has no mass")
    if _weighted_discarded(w, hi) < eps - 1e-12:
        raise NoSolutionError(
            f"eps={eps} not reachable below the density supremum")
    lo = eps / w.t
    p0 = brentq(lambda p: _weighted_discarded(w, p) - eps, lo, hi,
                xtol=_ROOT_RTOL * lo, rtol=_ROOT_RTOL)
    # the slope only sizes a step below brentq's tolerance: 3 digits do
    slope = _panel_integral(w, _level_integrand(p0), (p0,), 1e-3, 1.0)
    step = (_weighted_discarded(w, p0) - eps) / slope if slope > 0.0 else 0.0
    shift = math.log1p(-step / p0)   # log(p_eps / p0)
    # on a flat top D ~ sqrt(top) and the step leaves (shift/top)^2/8 of D,
    # accepted up to the noise floor the panel rule accepts
    top = float(_log_ratio(hi, p0)) - shift   # log(sup w / p_eps)
    err = (shift / top) ** 2 / 8.0 if top > 0.0 else 1.0
    if err > _FLOOR:
        raise AccuracyError(f"log(sup w / p_eps) = {top:.2e} is not resolved "
                            f"at eps = {eps}", value=p0 - step, achieved=err)

    omega = cs.omega

    def integrand(v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape)
        keep = np.minimum(v, omega) > p0
        vk = v[keep]
        out[keep] = np.sqrt(np.maximum(_log_ratio(vk, p0) - shift, 0.0)) \
            - np.sqrt(_log_ratio(np.maximum(vk, omega), omega))
        return out

    dim = 2.0 * omega / _SQRT_PI * _panel_integral(w, integrand, (p0, omega))
    return WeightedRankSolution(p_eps=p0 - step, D=dim)


# ---------------------------------------------------------------------------
# Bundled nonuniform densities (normalized on [0, t])
# ---------------------------------------------------------------------------

def ramp_weight(t: float) -> WeightFunction:
    """Linearly increasing density 2 tau / t^2."""
    t = float(t)
    return WeightFunction.from_callable(t, lambda tau: 2.0 * tau / (t * t))


def cosine_bump_weight(t: float) -> WeightFunction:
    """Raised-cosine density (1 - cos(2 pi tau/t)) / t."""
    t = float(t)
    return WeightFunction.from_callable(
        t, lambda tau: (1.0 - math.cos(2.0 * math.pi * tau / t)) / t)


def truncated_exponential_weight(t: float, rate: float = 2.0) -> WeightFunction:
    """Front-loaded density rate e^{-rate tau} / (1 - e^{-rate t})."""
    t = float(t)
    norm = 1.0 - math.exp(-rate * t)
    return WeightFunction.from_callable(
        t, lambda tau: rate * math.exp(-rate * tau) / norm)
