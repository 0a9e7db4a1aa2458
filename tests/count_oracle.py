"""Point counts by brute enumeration, the tests' independent oracle.

`shadiv.elliptic.count_points` sums quadratic characters below
`BSGS_MIN_ELL` and runs Shanks-Mestre above it; this counts every affine
pair (x, y) in F_ell^2 against the curve's own equation instead.
"""

import numpy as np

from shadiv.elliptic import EllipticCurveQ
from shadiv.errors import BadReduction


def count_points_enumeration(e: EllipticCurveQ, ell: int) -> int:
    """#E(F_ell): the affine pairs that satisfy the equation, a block of about 2^20 at a time, plus infinity."""
    if e.discriminant % ell == 0:
        raise BadReduction(f"{ell} divides the discriminant")
    ys = np.arange(ell, dtype=np.int64)
    rows = max(1, (1 << 20) // ell)
    total = 0
    for start in range(0, ell, rows):
        xs = ys[start : start + rows, None]
        lhs = (ys * ys + (e.a1 % ell) * xs * ys + (e.a3 % ell) * ys) % ell
        x2 = xs * xs % ell
        rhs = (x2 * xs + (e.a2 % ell) * x2 + (e.a4 % ell) * xs + e.a6 % ell) % ell
        total += int(np.count_nonzero(lhs == rhs))
    return total + 1
