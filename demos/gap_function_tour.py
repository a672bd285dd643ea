#!/usr/bin/env python3
"""Tour of the deformed Gaussian CDFs and the gap function gamma.

Walks through the geometry behind the tube-inflation argument:

  1. the plus/minus deformed CDFs bracket every rescaling Phi(x/lambda)
     with |1 - lambda| <= t,
  2. the largest gap gamma(t) has a closed form through the positive
     critical point, which a brute-force supremum reproduces to ~1e-16,
  3. gamma sits between its tangent slope 1/sqrt(2*pi*e) ~ 0.2420 and the
     global secant slope 1/2, and intermediate secants buy sharper constants
     on sub-intervals.
"""

import numpy as np

from spherecdf import (TANGENT_SLOPE, gamma_closed, gamma_oracle, phi_deformed,
                       secant_interval, std_normal_cdf, x_minus, x_plus)

print("=" * 72)
print("1. The deformed envelope around Phi(x / lambda)")
print("=" * 72)
t = 0.25
xs = np.linspace(-3.0, 3.0, 7)
for lam in (0.75, 1.0, 1.25):
    mid = std_normal_cdf(xs / lam)
    lo = phi_deformed(xs, t, "minus")
    hi = phi_deformed(xs, t, "plus")
    inside = np.all((lo <= mid + 1e-15) & (mid <= hi + 1e-15))
    print(f"lambda = {lam:.2f}: envelope holds at every probe -> {inside}")

print()
print("=" * 72)
print("2. Closed form vs brute-force supremum")
print("=" * 72)
print(f"{'t':>6} {'x_minus':>10} {'x_plus':>9} {'gamma':>14} {'oracle':>14} {'diff':>9}")
tvs = (0.05, 0.1, 0.25, 0.5, 0.75, 0.95)
for tv, o in zip(tvs, gamma_oracle(np.array(tvs)).tolist()):
    g = gamma_closed(tv)
    print(f"{tv:6.2f} {x_minus(tv):10.5f} {x_plus(tv):9.5f} "
          f"{g.gamma:14.10f} {o:14.10f} {abs(g.gamma - o):9.1e}")

print()
print("=" * 72)
print("3. Secant tightening")
print("=" * 72)
print(f"tangent slope at 0: {TANGENT_SLOPE:.7f}; global secant slope: 0.5")
print("a slope below 1/2 still bounds gamma, but only out to t*:")
for slope in (0.49, 0.40, 0.30, 0.26):
    t_star = secant_interval(slope, "gamma_upper")
    print(f"  gamma(t) <= {slope:.2f} t   holds on [0, {t_star:.6f}]")
print("same game raises the 3/8 lower-bound slope of g_plus:")
for slope in (0.375, 0.5, 0.7, 0.9):
    t_star = secant_interval(slope, "gplus_lower")
    print(f"  g_plus(t) >= {slope:.3f} t holds on [0, {t_star:.6f}]")
