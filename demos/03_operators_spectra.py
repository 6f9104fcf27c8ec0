"""Spectrum splitting: cover operator = quotient part + signed part.

The walk operator on the 2N oriented faces block-diagonalizes through
the even/odd function decomposition into an N x N symmetric quotient
operator and an N x N antisymmetric signed operator.  The projections
satisfy exact rational identities; eigenvalues come from numpy's LAPACK
eigensolver run on floating mirrors.
"""

from fractions import Fraction

from hodgewalk import (
    build_bundle,
    build_conditional,
    cover_from_complex,
    eigen,
    min_eigenvalue_bound,
    parse_complex,
    verify_split,
)
from hodgewalk.exact import ScaledMatrix

cover = cover_from_complex(parse_complex("x0 x1 x2 x3"))
b = build_bundle(cover)

print("A on the cover:", b.a_cover.shape, " quotient:", b.a_quotient.shape)
print("exact: 1/2 Qsym A Qsym^T equals the quotient operator:",
      (b.q_sym @ b.a_cover @ b.q_sym.T).scale(Fraction(1, 2)).equals(b.a_quotient))
eye = ScaledMatrix.identity(cover.n_cover)
print("exact: (Qsym)^T Qsym = I + R:", (b.q_sym.T @ b.q_sym).equals(eye + b.r))

checks = verify_split(cover)
print(f"verify_split: {sum(ok for ok, _ in checks.values())}/{len(checks)} checks pass")

ev = eigen(b.a_quotient)
print("quotient eigenvalues:", [round(v, 6) for v in ev])
bound, holds = min_eigenvalue_bound(cover)
print(f"minimal eigenvalue {ev[0]:.6f} <= -1 + {bound}: {holds}")

# conditional up-walk operators in dimension 0: quotient in [0,1], signed in [-1,0]
up_q = build_conditional(cover, 0, "up", "quotient")
up_s = build_conditional(cover, 0, "up", "signed")
print("dim-0 up quotient eigenvalues:", [round(v, 6) for v in eigen(up_q)])
print("dim-0 up signed eigenvalues:  ", [round(v, 6) for v in eigen(up_s)])
