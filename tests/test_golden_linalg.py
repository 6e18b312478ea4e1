"""Golden outputs of the exact linear algebra, pinned byte for byte.

``golden_linalg.json`` holds the ``bhf homology`` output (rank and
representatives) of three F2 morphism complexes and the repr of the full
F2[U] decomposition (gradings included) of the satellite, tau and small
fixture complexes.  Any change to elimination order or pivot rules that
alters a representative or a summand grading shows up here.
"""

import json
from pathlib import Path

import pytest

from bhf.catalog import apply_twist_word, solid_torus
from bhf.cli import main
from bhf.f2u import F2UComplex
from bhf.knots import CFKComplex, figure8_cfk, satellite, trefoil_cfk
from bhf.pairing import mor_d_d
from bhf.serialize import dumps, serialize

GOLDEN = json.loads((Path(__file__).parent / "golden_linalg.json").read_text())

# A continued-fraction word of the genus-1 bench: rank 53, and a final
# morphism complex of 197 generators.
WIDE_WORD = ["Tm", "Tm", "Tl'", "Tm", "Tm", "Tm", "Tl'", "Tm", "Tm", "Tm", "Tl'", "Tl'", "Tl'"]


def _staircase(steps):
    """Symmetric staircase: alternating vertical and horizontal arrows."""
    top = sum(steps) // 2
    alexander, parities, entries = {}, {}, []
    for i in range(len(steps) + 1):
        alexander[f"x{i}"] = top - sum(steps[:i])
        parities[f"x{i}"] = 1 if i % 2 == 0 else -1
    for i, step in enumerate(steps):
        if i % 2 == 0:
            entries.append((f"x{i}", 0, f"x{i + 1}"))
        else:
            entries.append((f"x{i + 1}", step, f"x{i}"))
    return CFKComplex(alexander, entries, parities=parities)


F2_COMPLEXES = {
    "mor_h0_h0": lambda: mor_d_d(solid_torus("zero"), solid_torus("zero")),
    "mor_inf_minus1": lambda: mor_d_d(solid_torus("inf"), solid_torus("minus1")),
    "genus1_wide": lambda: mor_d_d(
        solid_torus("zero"), apply_twist_word(WIDE_WORD, solid_torus("zero"))
    ),
}

F2U_COMPLEXES = {
    "satellite_trefoil_cable21": lambda: satellite("cable21", trefoil_cfk(), -2).mor_complex,
    "tau_trefoil": lambda: trefoil_cfk().associated_graded(),
    "tau_figure8": lambda: figure8_cfk().associated_graded(),
    "tau_staircase9": lambda: _staircase([1] * 8).associated_graded(),
    "zero_differential": lambda: F2UComplex([f"g{i}" for i in range(5)], {}),
    "trefoil_graded": lambda: F2UComplex(
        ["a", "b", "c"], {("c", "b"): 0b10}, gradings={"a": 1, "b": 0, "c": -1}
    ),
    "cable_shape": lambda: F2UComplex(
        ["a", "b", "c", "d", "e"], {("b", "a"): 0b100, ("d", "c"): 0b10}
    ),
    "mixed_unit": lambda: F2UComplex(["a", "b", "c"], {("c", "b"): 0b10, ("a", "b"): 0b1}),
    "empty": lambda: F2UComplex([], {}),
    "u_cubed": lambda: F2UComplex(["x", "y"], {("y", "x"): 0b1000}),
    "unit_torsion": lambda: F2UComplex(["x", "y"], {("y", "x"): 0b11}),
}


def homology_output(complex_, tmp_path, capsys) -> str:
    path = tmp_path / "complex.json"
    path.write_text(dumps(serialize(complex_)))
    assert main(["homology", "--in", str(path)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(F2_COMPLEXES))
def test_homology_output_is_pinned(name, tmp_path, capsys):
    assert homology_output(F2_COMPLEXES[name](), tmp_path, capsys) == GOLDEN["homology"][name]


@pytest.mark.parametrize("name", sorted(F2U_COMPLEXES))
def test_f2u_decomposition_is_pinned(name):
    assert repr(F2U_COMPLEXES[name]().homology()) == GOLDEN["f2u"][name]
