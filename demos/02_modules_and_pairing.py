"""Solid-torus modules, the surgery triangle, and morphism-complex pairing.

The three framed solid tori fit into a short exact sequence of type D
modules, and the homology of a morphism complex between two such modules is
the closed-manifold invariant of the glued-up three-manifold.
"""

from bhf.catalog import dd_identity, solid_tori, solid_torus
from bhf.dmodules import iso_check
from bhf.pairing import mor_d_d, mor_dd_d
from bhf.pmc import standard_pmc

tri = solid_tori()
print("the three solid tori:")
print("  infinity-framed:", tri.h_infinity.arrows())
print("  minus-one-framed:", tri.h_minus1.arrows())
print("  zero-framed:", tri.h_zero.arrows())
print("exactness report:", tri.report)

print()
C = mor_d_d(solid_torus("inf"), solid_torus("minus1"))
print("Mor(infinity, minus-one) has generators:")
for g in sorted(C.generators):
    print("  ", g)
print("its homology has rank", C.homology_rank(), " -> the three-sphere")

rank2 = mor_d_d(solid_torus("zero"), solid_torus("zero")).homology_rank()
print("Mor(zero, zero) homology rank:", rank2, " -> S^2 x S^1")

print()
B = dd_identity(standard_pmc("torus"))
print("identity bimodule, central summand arrows:")
central = B.restrict_weight(1)
for (s, t), c in sorted(central.delta.items()):
    print(f"  {s} -> {t}: {c}")
for which in ("inf", "minus1", "zero"):
    M = solid_torus(which)
    out = mor_dd_d(B, M).reduce()
    print(f"Mor(identity bimodule, {which}) reduces back to the input:",
          iso_check(out, M.reduce()) is not None)
