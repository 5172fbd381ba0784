"""Dual numbers as a forward differentiation engine.

A dual number a + eps*a* multiplies with eps^2 = 0, so feeding x + eps
through an analytic function returns the derivative in the eps slot.
"""

import math

from dlgeom.dual import LIFTS, DualScalar, sinh

x = DualScalar(2.0, 3.0)
y = DualScalar(4.0, 5.0)
print("x      =", x)
print("y      =", y)
print("x * y  =", x * y, " (rule: (ab, a b* + a* b))")
print("x / y  =", (x * y) / y, " (division recovers x)")

eps = DualScalar(0.0, 1.0)
print("eps^2  =", eps * eps, " (nilpotent)")

print("\nanalytic lifts: f(x + eps) = f(x) + eps f'(x)")
for name, ref in [("sinh", math.cosh), ("cosh", math.sinh), ("exp", math.exp)]:
    out = LIFTS[name](DualScalar(1.0, 1.0))
    print(f"  {name}(1 + eps) = {out.re:.12f} + eps {out.du:.12f}"
          f"   expected slope {ref(1.0):.12f}")

print("\nsecond derivatives come from nesting one level:")
u = DualScalar(DualScalar(1.0, 1.0), DualScalar(1.0, 0.0))
v = sinh(u)
print(f"  sinh at 1: value {v.re.re:.12f}, first {v.re.du:.12f}, second {v.du.du:.12f}")
print(f"  exact:           {math.sinh(1):.12f},       {math.cosh(1):.12f},"
      f"        {math.sinh(1):.12f}")
