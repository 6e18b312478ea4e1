import pytest

from bhf.pmc import (
    DisconnectedSurgery,
    FixedPoint,
    PMCError,
    PointedMatchedCircle,
    NotInvolution,
    connected_sum,
    make_pmc,
    reverse,
    standard_pmc,
)


def test_torus_circle_valid():
    z = make_pmc(1, [(1, 3), (2, 4)])
    assert z.genus == 1
    assert z.pairs == (1, 2)
    assert z.partner(1) == 3 and z.partner(4) == 2


def test_disconnected_surgery_rejected():
    with pytest.raises(DisconnectedSurgery):
        make_pmc(1, [(1, 2), (3, 4)])


def test_fixed_point_rejected():
    with pytest.raises(FixedPoint):
        make_pmc(1, {1: 1, 2: 4, 3: 3, 4: 2})


def test_not_involution_rejected():
    with pytest.raises(NotInvolution):
        make_pmc(1, {1: 3, 2: 4, 3: 2, 4: 1})


def test_split_genus2_valid():
    z = standard_pmc("split", 2)
    assert z.matching_as_pairs() == [(1, 3), (2, 4), (5, 7), (6, 8)]


def test_standard_families_validate():
    for kind in ("split", "antipodal"):
        for k in range(1, 7):
            z = standard_pmc(kind, k)
            assert z.n_points == 4 * k


def test_antipodal_2():
    z = standard_pmc("antipodal", 2)
    assert z.matching_as_pairs() == [(1, 5), (2, 6), (3, 7), (4, 8)]


def test_torus_equals_split1_equals_antipodal1():
    assert standard_pmc("torus") == standard_pmc("split", 1) == standard_pmc("antipodal", 1)


def test_reverse_involution():
    for kind, k in (("split", 1), ("split", 3), ("antipodal", 2)):
        z = standard_pmc(kind, k)
        assert reverse(reverse(z)) == z


def test_reverse_torus_is_torus():
    assert reverse(standard_pmc("torus")) == standard_pmc("torus")


def test_reverse_antipodal_is_antipodal():
    z = standard_pmc("antipodal", 2)
    assert reverse(z) == z


def test_connected_sum_split():
    s1 = standard_pmc("split", 1)
    s2 = standard_pmc("split", 2)
    assert connected_sum(s1, s1).matching == standard_pmc("split", 2).matching
    assert connected_sum(s1, s2).matching == standard_pmc("split", 3).matching
    assert connected_sum(s1, s2).genus == 3


def split_summands(circle: PointedMatchedCircle) -> tuple[PointedMatchedCircle, PointedMatchedCircle]:
    """Recover (Z1, Z2) from a connected sum with a recorded seam."""
    if circle.seam is None:
        raise PMCError("circle has no recorded seam")
    p = circle.seam
    if p % 4 != 0:
        raise PMCError(f"seam {p} is not a block boundary")
    left = {i: circle.partner(i) for i in range(1, p + 1)}
    right = {i - p: circle.partner(i) - p for i in range(p + 1, circle.n_points + 1)}
    if any(not (1 <= v <= p) for v in left.values()):
        raise PMCError("matching crosses the seam; not a connected sum")
    return make_pmc(p // 4, left), make_pmc(circle.genus - p // 4, right)


def test_connected_sum_seam_and_split_back():
    z = connected_sum(standard_pmc("torus"), standard_pmc("antipodal", 2))
    assert z.seam == 4
    left, right = split_summands(z)
    assert left == standard_pmc("torus")
    assert right == standard_pmc("antipodal", 2)


def test_connected_sum_associative_up_to_relabeling():
    a = standard_pmc("torus")
    b = standard_pmc("antipodal", 2)
    c = standard_pmc("split", 1)
    lhs = connected_sum(connected_sum(a, b), c)
    rhs = connected_sum(a, connected_sum(b, c))
    assert lhs.matching == rhs.matching


def test_chords_count_and_matched_endpoints():
    t = standard_pmc("torus")
    chords = t.chords()
    assert len(chords) == 6
    assert len(standard_pmc("split", 2).chords()) == 28
    ch = [c for c in chords if c.as_pair() == (1, 3)][0]
    assert t.partner(ch.start) == ch.end
