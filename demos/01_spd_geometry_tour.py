"""Tour of the SPD geometry primitives.

Covariance-like matrices live on a curved space: the right notion of
distance is invariant under any change of basis, straight lines become
geodesics, and matrix functions act on the spectrum. This script walks
through the primitives everything else is built on.
"""

import numpy as np

from meansfield import (
    airm_distance, check_spd, expm, geodesic, invsqrtm, logm, powm, sqrtm,
)

rng = np.random.default_rng(0)

# --- build a couple of SPD matrices -----------------------------------
a = np.array([[2.0, 1.0], [1.0, 2.0]])
b = np.diag([4.0, 9.0])
check_spd(a), check_spd(b)

w, v = np.linalg.eigh(a)
print("eigenvalues of [[2,1],[1,2]]:", w)            # 1, 3
print("reconstruction error:", np.abs(v @ np.diag(w) @ v.T - a).max())

# --- matrix functions act eigenvalue-wise ------------------------------
print("\nsqrt(diag(4,9))  =", np.diag(sqrtm(b)))      # 2, 3
print("log then exp roundtrip:", np.abs(expm(logm(a)) - a).max())
print("a^{-1/2} a a^{-1/2} = I:",
      np.abs(invsqrtm(a) @ a @ invsqrtm(a) - np.eye(2)).max())

# --- the affine-invariant distance --------------------------------------
d = airm_distance(np.eye(2), np.diag([np.e**2, np.e**2]))
print("\nd(I, e^2 I) =", d, "(= 2*sqrt(2))")

# invariance under any invertible change of basis
m = rng.standard_normal((2, 2)) + 2 * np.eye(2)
d0 = airm_distance(a, b)
d1 = airm_distance(m @ a @ m.T, m @ b @ m.T)
print("distance before/after congruence:", d0, d1)

# --- geodesics -----------------------------------------------------------
mid = geodesic(np.eye(2), b, 0.5)
print("\nmidpoint of I and diag(4,9):", np.diag(mid), "(= 2, 3)")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    g = geodesic(a, b, t)
    print(f"  t={t:4.2f}  d(a, g) = {airm_distance(a, g):.4f}"
          f"  (= {t:.2f} * {airm_distance(a, b):.4f})")

# fractional powers are geodesics from the identity
print("\na^0.5 equals the geodesic midpoint I -> a:",
      np.abs(powm(a, 0.5) - geodesic(np.eye(2), a, 0.5)).max())
