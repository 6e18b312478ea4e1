"""Golden catalog dumps, pinned by the sha256 of their JSON text.

Each entry is the sha256 of ``dumps(serialize(obj))`` for one catalog
object: identity DD bimodules, split handlebodies, the four torus twists and
genus-2 underslides.  Any change to a construction that alters a generator,
an arrow or a single diagram term changes its digest.  The last two
underslides live on circles of the genus-2 bench that have no catalog name,
so they are built from their matchings.
"""

import hashlib

import pytest

from bhf.catalog import make_arcslide, underslide_dd
from bhf.pmc import make_pmc
from bhf.serialize import catalog_lookup, dumps, serialize


def _bench_underslide(matching, b1, c1):
    return lambda: underslide_dd(make_arcslide(make_pmc(2, matching), b1, c1))


def _named(name):
    return lambda: catalog_lookup(name)


OBJECTS = {
    **{name: _named(name) for name in (
        "dd_id:torus", "dd_id:split:2", "dd_id:antipodal:2",
        "handlebody:1", "handlebody:2", "handlebody:3",
        "twist:Tm", "twist:Tm'", "twist:Tl", "twist:Tl'",
        "underslide:split:2:3:2", "underslide:antipodal:2:2:1",
    )},
    "underslide:1-6.2-4.3-7.5-8:3:4": _bench_underslide(((1, 6), (2, 4), (3, 7), (5, 8)), 3, 4),
    "underslide:1-7.2-5.3-8.4-6:4:5": _bench_underslide(((1, 7), (2, 5), (3, 8), (4, 6)), 4, 5),
}

GOLDEN = {  # generators and arrows of each object in the comment
    "dd_id:antipodal:2": "66148c8217e5919adaca66d49f9cc02f0a3e41772d7888ac035612aaf97fe30a",  # 16, 48
    "dd_id:split:2": "bf5138da403795122d035910bed51125dff1b768e5658e9f0218ed91f4422968",  # 16, 32
    "dd_id:torus": "56b61008ab51fd3062aecf7a43510df21834281656fc42a26bbf2323a9f64976",  # 4, 2
    "handlebody:1": "c20d61ac42fe6ca90a9bea1bb7638e963773119aef17531d81698ff06bf5d23e",  # 1, 1
    "handlebody:2": "4a3da585ee3df08a0a221d15396ec9fe419892a0ff2719297f2ce5ada383799a",  # 1, 1
    "handlebody:3": "d85272c00d50cb3b30f4b3e2cb9748eef67b17017a20fbde0dcd3830ca2caaf4",  # 1, 1
    "twist:Tl": "496edb0bc6fc50916f04fd194f209469620bb74725fba3d7b77e8ee6b76fe163",  # 3, 5
    "twist:Tl'": "544a42522a78e1628f96d1dc3d9d59b08050a7da64019ca0d8e2e6beaf1cd410",  # 3, 5
    "twist:Tm": "60f9788a02aa6548ed4bc36956e3b2014cebedb3b3907c2cdecb20032d6447e2",  # 3, 5
    "twist:Tm'": "25930e1b23fafc538265b7871bac64099e8e4862e90b97740a6c4edc7236bf0a",  # 3, 5
    "underslide:1-6.2-4.3-7.5-8:3:4": "406db5f1ec115ece5a6343a8ede2f85015ea3f2cbabfe6f6f6ab262632900b7d",  # 20, 70
    "underslide:1-7.2-5.3-8.4-6:4:5": "d0dc5f0f1c384461ec7e28f4cf6963135d686cf6b271cce5cfea677c2e2acca1",  # 20, 79
    "underslide:antipodal:2:2:1": "d46d82112f589443f9563c013d5d74bb2a1c93fd5226774a2fed1d3520044e7a",  # 20, 76
    "underslide:split:2:3:2": "770a6c05c22d4cd5f39dec8fd71488fbd00fd2ba81921982dc64d6a78298d24d",  # 20, 54
}


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_catalog_dump_is_pinned(name):
    text = dumps(serialize(OBJECTS[name]()))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
