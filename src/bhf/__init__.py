"""Exact combinatorial kernels for bordered Heegaard Floer homology.

The package computes, in exact F2 and F2[U] arithmetic: strand algebras of
pointed matched circles, type D modules and DD bimodules with their
structure-equation checks, morphism-complex pairings, knot Floer complexes
with tau and Alexander invariants, the framed-complement translation and
satellite pairing, and closed-manifold ranks from words of Dehn twists or
underslides.
"""

from .pmc import (
    Chord,
    PointedMatchedCircle,
    connected_sum,
    make_pmc,
    reverse,
    standard_pmc,
)
from .strands import (
    AlgebraElement,
    SurfaceAlgebra,
    algebra_of,
    drop_w_projection,
    to_opposite,
    torus_algebra,
    torus_element,
)
from .dmodules import (
    TensorElement,
    TypeDDModule,
    TypeDModule,
    UTypeDModule,
    iso_check,
)
from .pairing import mor_d_d, mor_d_dd, mor_d_ud, mor_dd_d
from .f2u import F2UComplex, F2UDecomposition, f2u_homology
from .gf2 import F2ChainComplex
from .knots import (
    CFKComplex,
    alexander_polynomial,
    cable21_pattern,
    cfk_to_cfd,
    classify_arrows,
    figure8_cfk,
    satellite,
    simplify_basis,
    tau,
    trefoil_cfk,
    unknot_cfk,
)
from .catalog import (
    all_underslides,
    dd_identity,
    dehn_twist_dd,
    handlebody,
    hf_genus1,
    make_arcslide,
    solid_tori,
    solid_torus,
    underslide_dd,
)
from .serialize import dumps, parse_document, serialize

__version__ = "0.1.0"

__all__ = [
    "Chord", "PointedMatchedCircle", "connected_sum", "make_pmc", "reverse",
    "standard_pmc",
    "AlgebraElement", "SurfaceAlgebra", "algebra_of", "drop_w_projection",
    "to_opposite", "torus_algebra", "torus_element",
    "TensorElement", "TypeDDModule", "TypeDModule", "UTypeDModule",
    "iso_check",
    "mor_d_d", "mor_d_dd", "mor_d_ud", "mor_dd_d",
    "F2UComplex", "F2UDecomposition", "f2u_homology",
    "F2ChainComplex",
    "CFKComplex", "alexander_polynomial", "cable21_pattern", "cfk_to_cfd",
    "classify_arrows", "figure8_cfk", "satellite", "simplify_basis", "tau",
    "trefoil_cfk", "unknot_cfk",
    "all_underslides", "dd_identity", "dehn_twist_dd", "handlebody",
    "hf_genus1", "make_arcslide", "solid_tori", "solid_torus", "underslide_dd",
    "dumps", "parse_document", "serialize",
]
