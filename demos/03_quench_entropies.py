"""Renyi entropies of the averaged state after a transverse-field quench.

The chain starts in the strong-field ground state (h -> infinity) and
evolves at h = 1.5. The dynamical free energy f(t) is a single mode
integral; the moments of the averaged state then follow from the spectrum
of the window Gram kernel exp(-L f(tau - tau'))/t on Gauss-Legendre nodes,
and they converge to the closed-form prediction (plus its leading
finite-size correction) as the chain grows.
"""

import math

from qspan.asymptotics import CumulantSeries, renyi_asymptotic
from qspan.overlap import (
    DynamicalFreeEnergy,
    IsingQuench,
    renyi_quadrature,
    second_cumulant_from_f,
)

quench = IsingQuench(h_i=math.inf, h_f=1.5, J=1.0, k_grid=4096)
f = DynamicalFreeEnergy.from_ising(quench)
t = 0.4

print("quench h: inf -> 1.5, J = 1, window [0, 0.4/J]")
print("\ndynamical free energy (per-site log overlap):")
for tv in (0.0, 0.1, 0.2, 0.4, 0.8):
    val = f(tv)
    print(f"  f({tv:3g}) = {val.real:+.6f} {val.imag:+.6f} i")

e2 = second_cumulant_from_f(f)
print(f"\nenergy variance per site from the curvature at t = 0: e2 = {e2:.6f}")

print("\nentropies S_alpha vs the asymptote + leading correction:")
print(f"  {'L':>5} {'alpha':>5} {'quadrature':>12} {'prediction':>12} {'gap':>10}")
for alpha in (2, 3):
    for L in (50, 100, 200, 400):
        est = renyi_quadrature(f, L, 1, t, alpha)
        cs = CumulantSeries(e=(0.0, e2), L=L, d=1)
        pred = renyi_asymptotic(cs, t, alpha, with_correction=True)
        print(f"  {L:>5} {alpha:>5} {est.value:>12.6f} {pred:>12.6f}"
              f" {abs(est.value - pred):>10.2e}")

print("\nthe gap shrinks like 1/L: the (d/2) log L growth and the")
print("correction coefficient are both captured by the closed forms.")
