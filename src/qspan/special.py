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
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.special

from .errors import AccuracyError, DomainError, SingularPointError

__all__ = [
    "IntegralEstimate",
    "erf",
    "erf_inv",
    "erf_inv_tail_expansion",
    "polylog_half_branch",
    "correction_integral",
    "adaptive_simpson",
]

_SQRT_PI = math.sqrt(math.pi)


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
# Gauss-Legendre rule and the leading-correction Gaussian integral
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-node Gauss-Legendre nodes and weights on [0, 1]: the one
    rule every composite quadrature and window spectrum of the library uses
    (`scipy.special.roots_legendre`, O(n^2) where `leggauss` is O(n^3))."""
    x, w = scipy.special.roots_legendre(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _correction_chain(alpha: int, n: int, y_max: float) -> float:
    """I_alpha on [0, y_max]^(alpha-1) as a transfer-matrix chain: the
    n-node Gauss-Legendre vector of y_1 e^{-y_1^2/2} times
    K_ij = e^{-(y_i - y_j)^2/2} (with the weights) alpha - 2 times, closed
    by e^{-y^2/2} of the last coordinate."""
    x, g = _gauss_legendre(n)
    y, g = y_max * x, y_max * g
    edge = np.exp(-0.5 * y * y)
    kernel = np.exp(-0.5 * (y[:, None] - y[None, :]) ** 2)
    vec = g * y * edge
    for _ in range(alpha - 2):
        vec = g * (kernel @ vec)
    return (alpha - 1) * float(vec @ edge)


def correction_integral(alpha: int, rng_seed: int = 0) -> IntegralEstimate:
    """Coupled Gaussian integral controlling the leading moment correction.

    I_alpha = (alpha-1) * int_{[0,inf)^(alpha-1)} y_1
              exp(-(y_1^2 + sum_j (y_j - y_{j+1})^2 + y_{alpha-1}^2)/2) d^... y

    where the (alpha-1) prefactor counts the equivalent relabelings of the
    coordinate achieving the maximum; I_2 = 1/2 and I_3 = sqrt(pi). The
    quadratic form's smallest eigenvalue is 4 sin^2(pi/(2 alpha)), so the
    domain is cut where it has decayed by e^{-40}, and the integral is
    evaluated as a chain of one-dimensional Gauss-Legendre sums
    (`_correction_chain`) at n and n/2 nodes; `error` is their difference
    plus a round-off floor of 1e-12 relative. `rng_seed` is accepted for
    compatibility and unused.
    """
    if int(alpha) != alpha or alpha < 2:
        raise DomainError(f"alpha must be an integer >= 2, got {alpha}")
    alpha = int(alpha)
    y_max = math.sqrt(20.0) / math.sin(math.pi / (2.0 * alpha))
    n = 8 * math.ceil(y_max)   # about 8 nodes per unit width of the kernel
    hi = _correction_chain(alpha, n, y_max)
    lo = _correction_chain(alpha, n // 2, y_max)
    return IntegralEstimate(hi, abs(hi - lo) + 1e-12 * abs(hi))


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
    the requested tolerance. A non-finite endpoint or integrand value
    raises DomainError at once: its error estimate would never settle.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"adaptive_simpson needs finite endpoints, got "
                          f"[{a}, {b}]")
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

    def value(x):
        y = f(x)
        if not math.isfinite(y):
            raise DomainError(f"adaptive_simpson: integrand is {y} at "
                              f"x = {x!r}")
        return y

    m = 0.5 * (a + b)
    fa, fm, fb = value(a), value(m), value(b)
    stack = [(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)]
    total = 0.0
    residual = 0.0
    while stack:
        x0, x2, f0, f1, f2, whole, tol_loc, depth = stack.pop()
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        flm, frm = value(lm), value(rm)
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
