"""Surfaces from invariants: integrate the frame system and measure back.

(gamma, delta, Delta) pin a spacelike ruled surface up to placement.  The
kernel integrates e' = t, t' = e + gamma g, g' = gamma t, c' = delta e +
Delta g with a batched fourth-order Magnus flow plus Lorentzian
re-orthonormalization, then re-measures the invariants from the
reconstructed curves.
"""

import numpy as np

from dlgeom.lorentz import Vec3L
from dlgeom.ruled import InvariantProfile, darboux_frame, reconstruct_from_invariants

e0 = Vec3L(0.0, 0.8, 0.6)
t0 = Vec3L(1.0, 0.0, 0.0)
g0 = Vec3L(0.0, 0.6, -0.8)
origin = Vec3L(0.0, 0.0, 0.0)

print("profile (0.75, 0, 0): a cone, so the striction point must not move")
cone = InvariantProfile.from_constants(0.75, 0.0, 0.0, e0, t0, g0, origin)
spec = reconstruct_from_invariants(cone, np.linspace(0.0, 1.0, 11))
drift = max(max(abs(x) for x in f.striction_point) for f in darboux_frame(spec))
print(f"  striction drift over s in [0, 1]: {drift:.2e}\n")

print("profile (0.75, 0.2, 0.1): helicoidal; re-measuring closes the loop")
heli = InvariantProfile.from_constants(0.75, 0.2, 0.1, e0, t0, g0, origin)
spec = reconstruct_from_invariants(heli, np.linspace(0.0, 1.0, 11))
worst = dict(gamma=0.0, delta=0.0, Delta=0.0)
for f in darboux_frame(spec):
    worst["gamma"] = max(worst["gamma"], abs(f.gamma - 0.75))
    worst["delta"] = max(worst["delta"], abs(f.delta - 0.2))
    worst["Delta"] = max(worst["Delta"], abs(f.Delta - 0.1))
for k, v in worst.items():
    print(f"  max |{k} error| = {v:.2e}")

print("\na varying profile works the same way:")
wavy = InvariantProfile(
    gamma=lambda s: 0.75,
    delta=lambda s: 0.0,
    Delta=lambda s: 0.1 * s,
    e0=e0, t0=t0, g0=g0, c0=origin)
spec = reconstruct_from_invariants(wavy, np.linspace(0.0, 1.0, 6))
print(f"  {'s':>5} {'Delta wanted':>13} {'Delta measured':>15}")
for f in darboux_frame(spec):
    print(f"  {f.s:5.2f} {0.1 * f.s:13.6f} {f.Delta:15.6f}")
