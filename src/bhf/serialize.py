"""JSON schemas and named catalog references for every domain type.

Every document carries a top-level "schema" field.  Serialization is
deterministic: keys sorted, generator and arrow lists sorted, diagrams
sorted by start point, so identical objects produce byte-identical text.

``parse_document`` accepts a JSON document (text or dict), a file path, or
a named catalog reference such as "h_inf", "catalog:h_minus1",
"dd_id:torus", "dd_id:split:2", "twist:Tm'", "handlebody:2", "trefoil",
"pattern:cable21".
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _encode_string

from .memo import _nogc
from .pmc import PointedMatchedCircle, make_pmc, standard_pmc, PMCError
from .strands import (
    AlgebraElement,
    Diagram,
    SurfaceAlgebra,
    algebra_of,
    make_diagram,
    torus_element,
)
from .dmodules import TypeDModule, TypeDDModule, UTypeDModule, TensorElement
from .f2u import F2UComplex, poly_exponents, poly_from_exponents
from .gf2 import F2ChainComplex
from .knots import CFKComplex
from . import catalog as _catalog
from . import knots as _knots


class SchemaError(ValueError):
    pass


class ValidationError(ValueError):
    pass


SCHEMAS = {
    "pmc": "bhf/pmc@1",
    "element": "bhf/element@1",
    "dmodule": "bhf/dmodule@1",
    "udmodule": "bhf/udmodule@1",
    "ddmodule": "bhf/ddmodule@1",
    "cfk": "bhf/cfk@1",
    "f2u": "bhf/f2u@1",
    "f2chain": "bhf/f2chain@1",
}


# ---------------------------------------------------------------------------
# serialization


@_nogc
def serialize(obj) -> dict:
    if isinstance(obj, PointedMatchedCircle):
        return {
            "schema": SCHEMAS["pmc"],
            "genus": obj.genus,
            "matching": [list(p) for p in obj.matching_as_pairs()],
        }
    if isinstance(obj, AlgebraElement):
        return {
            "schema": SCHEMAS["element"],
            "n": obj.n,
            "terms": [
                {"n": obj.n, "strands": [list(s) for s in diag]}
                for diag in obj.sorted_terms()
            ],
        }
    if isinstance(obj, TypeDDModule):
        return {
            "schema": SCHEMAS["ddmodule"],
            "algebra1": serialize(obj.algebra1.circle),
            "algebra2": serialize(obj.algebra2.circle),
            "generators": [
                {"name": n, "idempotent1": list(i1), "idempotent2": list(i2)}
                for n, (i1, i2) in sorted(obj.generators.items())
            ],
            "delta": [
                {
                    "src": s,
                    "terms": [
                        [[list(x) for x in d1], [list(x) for x in d2]]
                        for (d1, d2) in c.sorted_terms()
                    ],
                    "dst": t,
                }
                for (s, t), c in sorted(obj.delta.items())
            ],
        }
    if isinstance(obj, TypeDModule):  # plain or U-weighted; after TypeDDModule
        weighted = type(obj) is UTypeDModule
        delta = []
        for (s, t), coeff in sorted(obj.delta.items()):
            if weighted:
                delta += [{"src": s, "coeff": serialize(e), "dst": t, "upower": m}
                          for m, e in sorted(coeff.items())]
            else:
                delta.append({"src": s, "coeff": serialize(coeff), "dst": t})
        return {
            "schema": SCHEMAS["udmodule" if weighted else "dmodule"],
            "algebra": serialize(obj.algebra.circle),
            "generators": [
                {"name": n, "idempotent": list(idem)}
                for n, idem in sorted(obj.generators.items())
            ],
            "delta": delta,
        }
    if isinstance(obj, CFKComplex):
        gens = [{"name": n, "alexander": obj.alexander[n]} for n in obj.generators]
        return {
            "schema": SCHEMAS["cfk"],
            "generators": _with_ints(gens, "parity", obj.parities),
            "differential": [
                {"src": s, "upower": m, "dst": t} for (s, m, t) in obj.entries()
            ],
        }
    if isinstance(obj, F2UComplex):
        return {
            "schema": SCHEMAS["f2u"],
            "generators": _with_ints([{"name": n} for n in obj.generators], "grading", obj.gradings),
            "differential": [
                {"src": s, "dst": t, "exponents": poly_exponents(p)}
                for (s, t), p in sorted(obj.differential.items())
            ],
        }
    if isinstance(obj, F2ChainComplex):
        return {
            "schema": SCHEMAS["f2chain"],
            "generators": list(obj.generators),
            "differential": [{"src": s, "dst": t} for s, t in sorted(obj.entries)],
        }
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


def _with_ints(generators: list[dict], key: str, values) -> list[dict]:
    """generators, each with its int field ``key`` from ``values`` unless that is None."""
    if values is not None:
        for g in generators:
            g[key] = values[g["name"]]
    return generators


@_nogc
def dumps(obj) -> str:
    """The text of a document (or of ``serialize(obj)``), byte for byte
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder, whose
    recursive closures also leave cyclic garbage behind on every call; this
    writer lays out the same text directly.  It takes str, int, bool, None,
    lists, tuples and dicts with str keys, and raises TypeError on anything
    else.
    """
    doc = obj if isinstance(obj, dict) else serialize(obj)
    out: list[str] = []
    _layout(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_ATOMS = {None: "null", True: "true", False: "false"}


def _layout(value, newline: str, out: list) -> None:
    """Append the text of value to out; ``newline`` is a newline and the
    indent of value's own depth."""
    kind = type(value)
    if kind is str:
        out.append(_encode_string(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"dumps takes str keys, not {type(key).__name__}")
            out.append(sep + _encode_string(key) + ": ")
            _layout(value[key], inner, out)
            sep = comma
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        first = value[0]
        if type(first) is list and first and type(first[0]) is int:
            text = _diagram_text(value, newline)  # most such lists are diagrams
            if text is not None:
                out.append(text)
                return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            if type(item) is int:  # most items are: one string each, no call
                out.append(sep + int.__repr__(item))
            else:
                out.append(sep)
                _layout(item, inner, out)
            sep = comma
        out.append(newline + "]")
    elif value is None or value is True or value is False:
        out.append(_ATOMS[value])
    else:
        raise TypeError(f"dumps cannot write {kind.__name__}")


def _diagram_text(value, newline: str) -> str | None:
    """``_layout``'s text of value in one piece when value holds only lists
    of two ints (a diagram), else None.  Types are exact: a bool is no int."""
    inner = newline + "  "
    deeper = inner + "  "
    strands = []
    for strand in value:
        if type(strand) is not list or len(strand) != 2:
            return None
        s, t = strand
        if type(s) is not int or type(t) is not int:
            return None
        strands.append(f"[{deeper}{s},{deeper}{t}{inner}]")
    return "[" + inner + ("," + inner).join(strands) + newline + "]"


# ---------------------------------------------------------------------------
# parsing


_REQUIRED = object()


def _field(doc, key: str, kind, default=_REQUIRED):
    """``doc[key]`` checked against a type; SchemaError when absent or mistyped.

    Booleans are not accepted where an int is asked for.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        if default is _REQUIRED:
            raise SchemaError(f"missing field {key!r}")
        return default
    value = doc[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise SchemaError(f"field {key!r} must be {names}, got {type(value).__name__}")
    return value


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise SchemaError(f"{what} must be a list of integers")
    return value


def _idempotent(generator: dict, key: str) -> tuple[int, ...]:
    return tuple(_int_list(_field(generator, key, list), key))


def _objects(doc, key: str) -> list[dict]:
    items = _field(doc, key, list)
    if not all(isinstance(item, dict) for item in items):
        raise SchemaError(f"every entry of {key!r} must be a JSON object")
    return items


def _int_pairs(value, what: str) -> list[tuple[int, int]]:
    try:
        pairs = [(a, b) for a, b in value] if isinstance(value, list) else None
    except (TypeError, ValueError):  # an entry that is not a pair
        pairs = None
    if pairs is None or not all(type(a) is type(b) is int for a, b in pairs):
        raise SchemaError(f"{what} must be a list of integer pairs")
    return pairs


class _Diagrams(dict):
    """The raw diagrams of one document (of one side of a DD document):
    checked pairs -> diagram, each distinct one sorted once.

    Exact types are checked on every read, before the memo is consulted.
    ``read`` reads one diagram; the DD reader in ``_deserialize`` makes the
    same checks and lookups inline on both diagrams of each term.  Validity
    is checked after the reads: in a module document by the module
    constructor's corner check on every term that survives, and by
    ``recheck`` on every distinct diagram read, those of terms that
    cancelled in pairs too; in a bare element by ``make_diagram``, because
    nilCoxeter elements may go down.
    """

    def read(self, raw) -> Diagram:
        try:  # as _int_pairs, inline: this runs once per term
            pairs = tuple(map(tuple, raw)) if isinstance(raw, list) else None
            for a, b in pairs or ():
                if type(a) is not int or type(b) is not int:
                    pairs = None
                    break
        except (TypeError, ValueError):  # an entry that is not a pair
            pairs = None
        if pairs is None:
            raise SchemaError("a diagram must be a list of integer pairs")
        diag = self.get(pairs)
        if diag is None:
            diag = self[pairs] = tuple(sorted(pairs))
        return diag

    def recheck(self, algebra: SurfaceAlgebra) -> None:
        """The corner rule on every distinct diagram read; a diagram in the
        algebra's corner table passed it already."""
        known, corner = algebra._corners, algebra.admissible_corner
        for diag in self.values():
            if diag not in known and corner(diag) is None:
                raise ValidationError(f"diagram {diag} is a term of no basis element")


def _coeff_from(doc, algebra: SurfaceAlgebra, diagrams: _Diagrams) -> AlgebraElement:
    if isinstance(doc, str):
        if algebra.circle != standard_pmc("torus"):
            raise SchemaError(f"named coefficient {doc!r} needs the torus algebra")
        return torus_element(doc)
    if not isinstance(doc, dict):
        raise SchemaError(f"bad coefficient {doc!r}")
    n = _field(doc, "n", int, algebra.n)
    read = diagrams.read
    terms: set = set()
    for diag in _field(doc, "terms", list):
        terms ^= {read(_field(diag, "strands", list) if isinstance(diag, dict) else diag)}
    return AlgebraElement(n, terms)


def _deserialize_pmc(doc) -> PointedMatchedCircle:
    if isinstance(doc, str):
        return parse_circle_name(doc)
    matching = _int_pairs(_field(doc, "matching", list), "matching")
    return make_pmc(_field(doc, "genus", int), matching)


def parse_circle_name(name: str) -> PointedMatchedCircle:
    """Named circles: "torus", "split:k", "antipodal:k"; k defaults to 1
    and is at most ``catalog.MAX_GENUS``."""
    head, *args = name.split(":")
    try:
        if head == "torus" and not args:
            return standard_pmc("torus")
        if head in ("split", "antipodal") and len(args) <= 1:
            k = int(args[0]) if args else 1
            if k <= _catalog.MAX_GENUS:
                return standard_pmc(head, k)
            raise PMCError(f"genus {k} is over the bound of {_catalog.MAX_GENUS} for named circles")
    except (PMCError, ValueError) as e:
        raise ValidationError(f"circle name {name!r}: {e}")
    raise SchemaError(f"unknown circle name {name!r}")


def _algebra_from(doc, key: str) -> SurfaceAlgebra:
    return algebra_of(_deserialize_pmc(_field(doc, key, (str, dict))))


def deserialize(doc: dict):
    """The typed object of a parsed document.

    A missing or mistyped field raises SchemaError.  Content that the
    object's own checks reject (a bad matching, an off-corner coefficient, a
    differential that does not square to zero) raises ValidationError.
    """
    schema = _field(doc, "schema", str, None)
    if schema is None:
        raise SchemaError("document has no schema field")
    try:
        return _deserialize(schema, doc)
    except (SchemaError, ValidationError):
        raise
    except ValueError as e:
        raise ValidationError(str(e))


def _deserialize(schema: str, doc: dict):
    if schema == SCHEMAS["pmc"]:
        return _deserialize_pmc(doc)
    if schema == SCHEMAS["element"]:  # no constructor check follows
        diagrams = _Diagrams()
        elt = _coeff_from(doc, algebra_of(standard_pmc("torus")), diagrams)  # n from doc
        for diag in diagrams.values():
            make_diagram(elt.n, diag)
        return elt
    if schema in (SCHEMAS["dmodule"], SCHEMAS["udmodule"]):
        alg = _algebra_from(doc, "algebra")
        gens = {
            _field(g, "name", str): _idempotent(g, "idempotent")
            for g in _objects(doc, "generators")
        }
        delta: dict = {}
        diagrams = _Diagrams()
        for e in _objects(doc, "delta"):
            key = (_field(e, "src", str), _field(e, "dst", str))
            c = _coeff_from(_field(e, "coeff", (str, dict)), alg, diagrams)
            if schema == SCHEMAS["dmodule"]:
                delta[key] = delta.get(key, AlgebraElement.zero(alg.n)) + c
            else:
                m = _upower(e)
                cur = delta.setdefault(key, {})
                cur[m] = cur.get(m, AlgebraElement.zero(alg.n)) + c
        module = (TypeDModule if schema == SCHEMAS["dmodule"] else UTypeDModule)(alg, gens, delta)
        diagrams.recheck(alg)
        return module
    if schema == SCHEMAS["ddmodule"]:
        alg1 = _algebra_from(doc, "algebra1")
        alg2 = _algebra_from(doc, "algebra2")
        gens = {
            _field(g, "name", str): (_idempotent(g, "idempotent1"), _idempotent(g, "idempotent2"))
            for g in _objects(doc, "generators")
        }
        delta: dict = {}
        diagrams1, diagrams2 = _Diagrams(), _Diagrams()
        for e in _objects(doc, "delta"):
            key = (_field(e, "src", str), _field(e, "dst", str))
            terms: set = set()
            for term in _field(e, "terms", list):
                if not isinstance(term, list) or len(term) != 2:
                    raise SchemaError("a tensor term must be a [left, right] pair of diagrams")
                left, right = term
                try:  # _Diagrams.read on both sides, inline: this runs once per term
                    if not (isinstance(left, list) and isinstance(right, list)):
                        raise TypeError
                    left, right = tuple(map(tuple, left)), tuple(map(tuple, right))
                    for a, b in left + right:  # exact types first, then the memos
                        if type(a) is not int or type(b) is not int:
                            raise TypeError
                except (TypeError, ValueError):  # not a list, or a strand not a pair
                    raise SchemaError("a diagram must be a list of integer pairs") from None
                d1, d2 = diagrams1.get(left), diagrams2.get(right)
                if d1 is None:
                    d1 = diagrams1[left] = tuple(sorted(left))
                if d2 is None:
                    d2 = diagrams2[right] = tuple(sorted(right))
                if (pair := (d1, d2)) in terms:  # a term listed twice cancels
                    terms.discard(pair)
                else:
                    terms.add(pair)
            t = TensorElement(alg1.n, alg2.n, terms)
            delta[key] = delta[key] + t if key in delta else t
        module = TypeDDModule(alg1, alg2, gens, delta)
        diagrams1.recheck(alg1)
        diagrams2.recheck(alg2)
        return module
    if schema == SCHEMAS["cfk"]:
        generators = _objects(doc, "generators")
        gens = {_field(g, "name", str): _field(g, "alexander", int) for g in generators}
        parities = _ints_of(generators, "parity")
        entries = [
            (_field(e, "src", str), _upower(e), _field(e, "dst", str))
            for e in _objects(doc, "differential")
        ]
        return CFKComplex(gens, entries, parities=parities)
    if schema == SCHEMAS["f2u"]:
        generators = _objects(doc, "generators")
        gens = [_field(g, "name", str) for g in generators]
        gradings = _ints_of(generators, "grading")
        diff = {}
        for e in _objects(doc, "differential"):
            exps = _int_list(_field(e, "exponents", list), "exponents")
            if any(x < 0 for x in exps):
                raise ValidationError(f"negative U exponent in {exps}")
            diff[(_field(e, "src", str), _field(e, "dst", str))] = poly_from_exponents(exps)
        return F2UComplex(gens, diff, gradings=gradings)
    if schema == SCHEMAS["f2chain"]:
        gens = _field(doc, "generators", list)
        if not all(isinstance(g, str) for g in gens):
            raise SchemaError("generators must be a list of names")
        entries = [(_field(e, "src", str), _field(e, "dst", str))
                   for e in _objects(doc, "differential")]
        return F2ChainComplex(gens, entries)
    raise SchemaError(f"unknown schema {schema!r}")


def _ints_of(generators: list[dict], key: str) -> dict | None:
    """Name -> int field ``key``, when every generator (at least one) has it; else None."""
    if generators and all(key in g for g in generators):
        return {g["name"]: _field(g, key, int) for g in generators}
    return None


def _upower(entry) -> int:
    m = _field(entry, "upower", int, 0)
    if m < 0:
        raise ValidationError(f"negative U power {m}")
    return m


# ---------------------------------------------------------------------------
# named catalog references


def catalog_names() -> list[str]:
    return [
        "h_inf", "h_minus1", "h_0",
        "handlebody:<k>",
        "dd_id:<circle>", "twist:<Tm|Tm'|Tl|Tl'>",
        "underslide:<circle>:<b1>:<c1>",
        "trefoil", "figure8", "unknot", "pattern:cable21",
        "circle:<torus|split:k|antipodal:k>",
    ]


def catalog_lookup(name: str):
    """The object a reference names; a malformed one is a SchemaError (wrong
    number of fields) or a ValidationError (a field of the wrong kind)."""
    head, *args = name.split(":")
    form = {f.split(":")[0]: f for f in catalog_names()}.get(head, head)

    def shape(ok: bool):
        if not ok:
            raise SchemaError(f"catalog reference {name!r} must read {form!r}")

    def ints(texts):
        try:
            return [int(t) for t in texts]
        except ValueError:
            raise ValidationError(f"catalog reference {name!r}: {form!r} takes integers")

    if head in ("h_inf", "h_minus1", "h_0", "h_infinity", "h_zero"):
        shape(not args)
        return _catalog.solid_torus(head.removeprefix("h_"))
    if head == "handlebody":
        shape(len(args) == 1)
        k, = ints(args)
        if k > _catalog.MAX_GENUS:  # 2^(k-1) terms: genus 16 writes 646 MB
            raise ValidationError(f"catalog reference {name!r}: genus {k} is over the bound "
                                  f"of {_catalog.MAX_GENUS}")
        return _catalog.handlebody(k)
    if head in ("dd_id", "circle"):
        circle = parse_circle_name(":".join(args))
        return circle if head == "circle" else _catalog.dd_identity(circle)
    if head == "twist":
        shape(len(args) == 1)
        return _catalog.dehn_twist_dd(*args)
    if head == "underslide":
        shape(len(args) >= 3)
        circle = parse_circle_name(":".join(args[:-2]))
        return _catalog.underslide_dd(_catalog.make_arcslide(circle, *ints(args[-2:])))
    knots = {"trefoil": _knots.trefoil_cfk, "figure8": _knots.figure8_cfk,
             "fig8": _knots.figure8_cfk, "unknot": _knots.unknot_cfk}
    if head in knots:
        shape(not args)
        return knots[head]()
    if head == "pattern":
        shape(len(args) == 1)
        if args[0] not in _knots.PATTERNS:
            raise ValidationError(f"unknown pattern {args[0]!r}; have {sorted(_knots.PATTERNS)}")
        return _knots.PATTERNS[args[0]]()
    raise SchemaError(f"unknown catalog reference {name!r}")


@_nogc
def parse_document(text):
    """Typed object from JSON text, a dict, a file path or a catalog name."""
    if isinstance(text, dict):
        return deserialize(text)
    text = text.strip()
    if text.startswith("{") or text.startswith("["):
        return deserialize(_loads(text, ""))
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            raw = fh.read()
        return deserialize(_loads(raw, f"{text}: "))
    if text.startswith("catalog:"):
        return catalog_lookup(text[len("catalog:"):])
    return catalog_lookup(text)


def _loads(raw: str, where: str):
    """json.loads, with syntax errors and too-deep nesting as SchemaError."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{where}JSON syntax error at line {e.lineno}, column {e.colno}: {e.msg}")
    except RecursionError:
        raise SchemaError(f"{where}JSON nested too deeply")
