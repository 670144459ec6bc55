"""Scalar special functions and Gaussian integrals used across the library.

Everything here is deterministic so it can be golden tested in isolation:
the error function and its inverse (needed by the effective-rank formulas;
thin wrappers over scipy.special), the small-truncation expansion of
erf^{-1}, the imaginary part of the order-1/2 polylogarithm on its branch
cut (which shapes the eigenvalue distribution), and the coupled Gaussian
integral that sets the leading finite-size correction of the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.special

from .errors import AccuracyError, DomainError, SingularPointError

__all__ = [
    "Tolerance",
    "IntegralEstimate",
    "erf",
    "erf_inv",
    "erf_inv_tail_expansion",
    "polylog_half_branch",
    "correction_integral",
    "adaptive_simpson",
]

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative accuracy target; at least one must be positive."""

    abs: float = 0.0
    rel: float = 0.0

    def __post_init__(self):
        if self.abs < 0 or self.rel < 0:
            raise DomainError("tolerances must be nonnegative")
        if self.abs == 0 and self.rel == 0:
            raise DomainError("at least one of abs, rel must be positive")

    def satisfied(self, err: float, scale: float) -> bool:
        return err <= self.abs or err <= self.rel * abs(scale)


class IntegralEstimate(NamedTuple):
    value: float
    error: float


def erf(x: float) -> float:
    """Error function (`scipy.special.erf`); NaN passes through."""
    return float(scipy.special.erf(float(x)))


def erf_inv_tail_expansion(eps: float) -> float:
    """Small-truncation expansion of erf^{-1}(1 - eps).

    Returns sqrt((log(2/(pi eps^2)) - log log(2/(pi eps^2))) / 2) exactly as
    written; no accuracy claim beyond matching that closed form.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    u = math.log(2.0 / (math.pi * eps * eps))
    if u <= 1.0:
        raise DomainError(
            f"eps={eps} too large for the tail expansion (inner log <= 0)")
    return math.sqrt((u - math.log(u)) / 2.0)


def erf_inv(y: float) -> float:
    """Inverse error function on (-1, 1) (`scipy.special.erfinv`).

    Raises DomainError for |y| >= 1 and for NaN.
    """
    y = float(y)
    if not -1.0 < y < 1.0:
        raise DomainError(f"erf_inv requires |y| < 1, got {y}")
    return float(scipy.special.erfinv(y))


def polylog_half_branch(x: float) -> float:
    """Im Li_{1/2}(x + i0+) on the real axis, x > 0.

    Vanishes below the branch point and equals sqrt(pi)/sqrt(log x) above it;
    the point x = 1 itself is singular and raises rather than returning inf,
    since downstream quadratures never need the exact branch point.
    """
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"polylog_half_branch requires x > 0, got {x}")
    if x == 1.0:
        raise SingularPointError("Im Li_{1/2} diverges at the branch point x = 1")
    if x < 1.0:
        return 0.0
    return _SQRT_PI / math.sqrt(math.log(x))


# ---------------------------------------------------------------------------
# Leading-correction Gaussian integral
# ---------------------------------------------------------------------------

def _coupling_exponent(ys: Sequence[np.ndarray]) -> np.ndarray:
    """(y1^2 + sum_j (y_j - y_{j+1})^2 + y_{m}^2) / 2 on broadcasted grids."""
    q = ys[0] ** 2 + ys[-1] ** 2
    for j in range(len(ys) - 1):
        q = q + (ys[j] - ys[j + 1]) ** 2
    return 0.5 * q


def _correction_quadrature(alpha: int) -> IntegralEstimate:
    """Tensor Gauss-Legendre on [0, Y]^(alpha-1) after truncating the decay.

    The quadratic form is positive definite with smallest eigenvalue
    4 sin^2(pi/(2 alpha)), so the tail beyond Y = 14 is far below 1e-14.
    """
    dim = alpha - 1
    y_max = 14.0

    def run(n_nodes: int) -> float:
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        y = 0.5 * y_max * (x + 1.0)
        wy = 0.5 * y_max * w
        grids = np.meshgrid(*([y] * dim), indexing="ij", sparse=True)
        expo = _coupling_exponent(grids)
        integrand = (alpha - 1) * grids[0] * np.exp(-expo)
        for axis in range(dim - 1, -1, -1):
            integrand = np.tensordot(integrand, wy, axes=([axis], [0]))
        return float(integrand)

    n_hi = 96 if dim <= 2 else 72
    hi = run(n_hi)
    lo = run(n_hi - 16)
    # conservative: quadrature difference plus a floor for the domain cut
    err = max(abs(hi - lo), 1e-9 * max(1.0, abs(hi)))
    return IntegralEstimate(hi, err)


def _correction_monte_carlo(alpha: int, rng_seed: int) -> IntegralEstimate:
    """Seeded importance sampling from the diagonal of the quadratic form.

    The proposal uses half-normals with variance 1/lambda_min, lambda_min
    being the smallest eigenvalue of the coupling matrix, which keeps the
    importance weights square integrable. Philox is counter based, so the
    estimate depends only on (alpha, rng_seed).
    """
    dim = alpha - 1
    lam_min = 2.0 - 2.0 * math.cos(math.pi / alpha)
    sigma = 1.0 / math.sqrt(lam_min)
    n_batches = 32
    batch = 40_000
    rng = np.random.Generator(np.random.Philox(key=np.uint64(
        (int(alpha) << 32) ^ (int(rng_seed) & 0xFFFFFFFF))))
    log_norm = dim * math.log(sigma * math.sqrt(math.pi / 2.0))

    means = np.empty(n_batches)
    for b in range(n_batches):
        z = np.abs(rng.standard_normal(size=(batch, dim))) * sigma
        expo = _coupling_exponent([z[:, j] for j in range(dim)])
        log_q = -0.5 * np.sum(z * z, axis=1) / (sigma * sigma)
        w = (alpha - 1) * z[:, 0] * np.exp(-expo - log_q + log_norm)
        means[b] = w.mean()
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(n_batches))
    return IntegralEstimate(value, stderr)


def correction_integral(alpha: int, rng_seed: int = 0) -> IntegralEstimate:
    """Coupled Gaussian integral controlling the leading moment correction.

    I_alpha = (alpha-1) * int_{[0,inf)^(alpha-1)} y_1
              exp(-(y_1^2 + sum_j (y_j - y_{j+1})^2 + y_{alpha-1}^2)/2) d^... y

    where the (alpha-1) prefactor counts the equivalent relabelings of the
    coordinate achieving the maximum. I_2 = 1/2 analytically. Quadrature is
    used for alpha <= 4; seeded Monte Carlo beyond that.
    """
    if int(alpha) != alpha or alpha < 2:
        raise DomainError(f"alpha must be an integer >= 2, got {alpha}")
    alpha = int(alpha)
    if alpha <= 4:
        return _correction_quadrature(alpha)
    return _correction_monte_carlo(alpha, rng_seed)


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature (shared 1-D workhorse)
# ---------------------------------------------------------------------------

def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10, *,
                     breakpoints: Sequence[float] | None = None,
                     max_depth: int = 48) -> float:
    """Adaptive Simpson rule on [a, b] with optional interior breakpoints.

    Breakpoints let callers pre-split at known kinks (tabulated densities).
    Panels hitting `max_depth` contribute their Richardson residual to a
    global error budget instead of aborting, so integrable square-root
    kinks converge; the call fails only if the accumulated residual exceeds
    the requested tolerance.
    """
    if b <= a:
        if b == a:
            return 0.0
        raise DomainError("adaptive_simpson requires b > a")
    edges = [a]
    if breakpoints:
        edges.extend(sorted(p for p in breakpoints if a < p < b))
    edges.append(b)

    total = 0.0
    residual = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        seg, res = _simpson_segment(f, left, right,
                                    tol * (right - left) / (b - a), max_depth)
        total += seg
        residual += res
    if residual > 100.0 * tol:
        raise AccuracyError("adaptive Simpson failed to converge",
                            value=total, achieved=residual)
    return total


def _simpson_segment(f, a, b, tol, max_depth):
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    stack = [(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)]
    total = 0.0
    residual = 0.0
    while stack:
        x0, x2, f0, f1, f2, whole, tol_loc, depth = stack.pop()
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, xm, f0, flm, f1)
        right = simpson(xm, x2, f1, frm, f2)
        err = abs(left + right - whole)
        if err <= 15.0 * tol_loc or depth >= max_depth:
            total += left + right + (left + right - whole) / 15.0
            if depth >= max_depth and err > 15.0 * tol_loc:
                residual += err / 15.0
        else:
            stack.append((x0, xm, f0, flm, f1, left, 0.5 * tol_loc, depth + 1))
            stack.append((xm, x2, f1, frm, f2, right, 0.5 * tol_loc, depth + 1))
    return total, residual
