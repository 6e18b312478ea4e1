"""Command-line front end.

Subcommands: algebra, dmod, pair, homology, knot, satellite, hf3m, catalog,
verify.  Documents are JSON files, inline JSON, or named catalog references
("h_inf", "catalog:h_minus1", "dd_id:torus", "twist:Tm'").  Output is
deterministic JSON (sorted keys) or a short text rendering with --format
text.

Exit codes: 0 success, 1 invalid input, 2 internal mathematical gate
failure (a structure equation or a bundled check tripping).
"""

from __future__ import annotations

import argparse
import json
import sys

from .memo import _nogc
from .pmc import PMCError
from .strands import (
    AlgebraElement, StrandError, algebra_of, torus_algebra, torus_element, torus_element_name,
)
from .dmodules import (
    CapExceeded,
    GateFailure,
    ModuleError,
    TypeDDModule,
    TypeDModule,
    UTypeDModule,
    iso_check,
)
from .pairing import AlgebraMismatch, mor_d_d, mor_dd_d, mor_d_ud
from .gf2 import F2ChainComplex, NotAComplex
from .f2u import F2UComplex, InhomogeneousInput
from .knots import (
    PATTERNS,
    CFKComplex,
    CFKError,
    alexander_polynomial,
    alexander_polynomial_str,
    cfk_to_cfd,
    satellite,
    tau,
)
from .catalog import CatalogError, hf_genus1, parse_twist_word
from .serialize import (
    SchemaError,
    ValidationError,
    catalog_lookup,
    catalog_names,
    dumps,
    parse_circle_name,
    parse_document,
    serialize,
)
from . import checks

USER_ERRORS = (
    PMCError, StrandError, SchemaError, ValidationError, ModuleError,
    CFKError, CatalogError, AlgebraMismatch, NotAComplex, InhomogeneousInput,
    CapExceeded, FileNotFoundError, KeyError,
)


def _emit(args, doc, text_fn=None):
    if args.format == "json":
        sys.stdout.write(dumps(doc) if isinstance(doc, dict) else dumps(serialize(doc)))
    else:
        if text_fn is not None:
            print(text_fn())
        elif isinstance(doc, dict):
            for k in sorted(doc):
                print(f"{k}: {doc[k]}")
        else:
            print(repr(doc))


_KINDS = {
    AlgebraElement: "an algebra element",
    TypeDModule: "a type D module",
    UTypeDModule: "a type D module over F2[U]",
    TypeDDModule: "a DD bimodule",
    F2ChainComplex: "an F2 complex",
    F2UComplex: "an F2[U] complex",
    CFKComplex: "a knot complex",
}


def _document(text, types, what: str):
    """Parse a document, rejecting one whose exact type is not in ``types``
    (U-weighted modules and DD bimodules subclass ``TypeDModule``)."""
    obj = parse_document(text)
    if type(obj) not in types:
        raise ValidationError(f"{what} must be {' or '.join(_KINDS[t] for t in types)}")
    return obj


# ---------------------------------------------------------------------------
# subcommands


def cmd_algebra(args):
    alg = algebra_of(parse_circle_name(args.circle))
    if args.action == "dim":
        dims = {str(i): alg.dim_summand(i) for i in range(-alg.k, alg.k + 1)}
        _emit(args, {"schema": "bhf/result@1", "dimensions": dims})
    elif args.action == "basis":
        i = args.summand if args.summand is not None else 0
        basis = [serialize(e) for e in alg.summand_basis(i)]
        _emit(args, {"schema": "bhf/result@1", "summand": i, "basis": basis})
    elif args.action in ("mul", "diff"):
        elts = []
        for name in args.elements:
            if name.strip().startswith("{"):
                elt = _document(name, (AlgebraElement,), f"{name[:40]!r}")
                if elt.n != alg.n:
                    raise ValidationError(
                        f"element {name[:40]!r} has n={elt.n}, but circle "
                        f"{args.circle!r} has {alg.n} points")
                elts.append(elt)
            elif alg != torus_algebra():
                raise ValidationError(
                    f"named element {name!r} is a torus element; over circle "
                    f"{args.circle!r} give element JSON")
            else:
                elts.append(torus_element(name))
        if args.action == "mul":
            if len(elts) < 2:
                raise ValidationError("mul needs at least two elements")
            out = elts[0]
            for e in elts[1:]:
                out = out * e
        else:
            if len(elts) != 1:
                raise ValidationError("diff takes exactly one element")
            out = elts[0].d()
        named = torus_element_name(out)
        doc = serialize(out)
        if named:
            doc["name"] = named
        _emit(args, doc, text_fn=lambda: named or repr(out))
    return 0


def _module(text, what: str):
    """A module document whose every coefficient is a sum of whole basis
    elements.  The constructor checks only corners, so each distinct
    coefficient is decomposed once here and NotInSpan names a partial one."""
    M = _document(text, (TypeDModule, UTypeDModule, TypeDDModule), what)
    if isinstance(M, TypeDDModule):
        coeffs, split = set(M.delta.values()), lambda c: c.decompose(M.algebra1, M.algebra2)
    else:
        parts = (c.values() if isinstance(M, UTypeDModule) else (c,) for c in M.delta.values())
        coeffs, split = {e for part in parts for e in part}, M.algebra.decompose
    for coeff in coeffs:
        split(coeff)
    return M


def cmd_dmod(args):
    M = _module(args.input, "--in")
    if args.action == "verify":
        bad = M.verify_d2()
        doc = {"schema": "bhf/result@1", "ok": not bad, "violations": len(bad)}
        _emit(args, doc)
        return 0 if not bad else 2
    if args.action == "reduce":
        _emit(args, M.reduce())
        return 0
    if args.action == "iso":
        if args.right is None:
            raise ValidationError("dmod iso needs --right")
        N = _module(args.right, "--right")
        witness = iso_check(M.reduce(), N.reduce())
        doc = {"schema": "bhf/result@1", "isomorphic": witness is not None}
        if witness:
            doc["witness"] = witness
        _emit(args, doc)
        return 0
    raise ValidationError(f"unknown dmod action {args.action!r}")


def cmd_pair(args):
    left = _document(args.left, (TypeDModule,), "--left")
    if args.dd is not None:
        B = _document(args.dd, (TypeDDModule,), "--dd")
        side = 1 if args.side == "left" else 2
        paired = mor_dd_d(B, left, side=side).reduce()
        if args.right is None:
            _emit(args, paired)
            return 0
        left = paired
    if args.right is None:
        raise ValidationError("pair needs --right (or --dd alone)")
    right = _document(args.right, (TypeDModule, UTypeDModule), "--right")
    if isinstance(right, UTypeDModule):
        C = mor_d_ud(left, right)
        if args.homology:
            dec = C.homology()
            _emit(args, {
                "schema": "bhf/result@1",
                "free_rank": dec.free_rank,
                "torsion_exponents": list(dec.torsion),
                "u0_rank": C.specialize_u0().homology_rank(),
            })
        else:
            _emit(args, C)
        return 0
    C = mor_d_d(left, right)
    if args.homology:
        _emit(args, {"schema": "bhf/result@1", "rank": C.homology_rank()})
    else:
        _emit(args, C)
    return 0


def cmd_homology(args):
    C = _document(args.input, (F2ChainComplex, F2UComplex), "--in")
    if isinstance(C, F2ChainComplex):
        _emit(args, {"schema": "bhf/result@1", "rank": C.homology_rank(),
                     "representatives": [sorted(r) for r in C.homology_representatives()]})
    else:
        dec = C.homology()
        doc = {
            "schema": "bhf/result@1",
            "free_rank": dec.free_rank,
            "torsion_exponents": list(dec.torsion),
        }
        if dec.free_gradings is not None:
            doc["free_gradings"] = list(dec.free_gradings)
            doc["torsion_gradings"] = [list(t) for t in dec.torsion_gradings]
        if dec.unit_torsion:
            doc["unit_torsion"] = list(dec.unit_torsion)
        _emit(args, doc)
    return 0


def cmd_knot(args):
    C = _document(args.input, (CFKComplex,), "--in")
    if args.action == "tau":
        _emit(args, {"schema": "bhf/result@1", "tau": tau(C)})
    elif args.action == "alexander":
        poly = alexander_polynomial(C)
        _emit(args, {
            "schema": "bhf/result@1",
            "alexander": {str(k): v for k, v in sorted(poly.items())},
            "pretty": alexander_polynomial_str(poly),
        })
    elif args.action == "cfd":
        _emit(args, cfk_to_cfd(C, args.framing))
    elif args.action == "satellite":
        res = satellite(args.pattern, C, args.framing)
        dec = res.decomposition
        _emit(args, {
            "schema": "bhf/result@1",
            "mor_generators": len(res.mor_complex.generators),
            "free_rank": dec.free_rank,
            "torsion_exponents": list(dec.torsion),
            "u0_rank": res.u0_rank,
        })
    else:
        raise ValidationError(f"unknown knot action {args.action!r}")
    return 0


def cmd_hf3m(args):
    word = parse_twist_word(args.word or "")
    rank = hf_genus1(word, left=args.left, base=args.base)
    _emit(args, {"schema": "bhf/result@1", "rank": rank})
    return 0


def cmd_catalog(args):
    if args.action == "list":
        _emit(args, {"schema": "bhf/result@1", "names": catalog_names()})
        return 0
    if args.action == "dump":
        obj = catalog_lookup(args.name)
        _emit(args, obj)
        return 0
    raise ValidationError(f"unknown catalog action {args.action!r}")


def cmd_verify(args):
    results = checks.run_all(fast=args.fast)
    passed = sum(1 for r in results if r.ok)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 2


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error at exit 1 (invalid input) rather than
    2, which the command reserves for a failed gate; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="bhf",
        description="Exact computations in the combinatorial layer of bordered Floer homology",
    )
    top.add_argument("--format", choices=("json", "text"), default="json")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="surface algebra queries")
    p.add_argument("action", choices=("dim", "basis", "mul", "diff"))
    p.add_argument("elements", nargs="*", help="named torus elements or element JSON")
    p.add_argument("--circle", default="torus")
    p.add_argument("--summand", type=int, default=None)
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("dmod", help="verify / reduce / compare type D modules")
    p.add_argument("action", choices=("verify", "reduce", "iso"))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--right", help="second module for iso")
    p.set_defaults(fn=cmd_dmod)

    p = sub.add_parser("pair", help="morphism-complex pairings")
    p.add_argument("--left", required=True)
    p.add_argument("--right")
    p.add_argument("--dd", help="DD bimodule to pair through")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--homology", action="store_true")
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("homology", help="homology of a serialized complex")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(fn=cmd_homology)

    knot = sub.add_parser("knot", help="knot complex invariants")
    knot.add_argument("action", choices=("tau", "alexander", "cfd", "satellite"))
    knot.set_defaults(fn=cmd_knot)
    sat = sub.add_parser("satellite", help="satellite pairing (alias of knot satellite)")
    sat.set_defaults(fn=cmd_knot, action="satellite")
    for p in (knot, sat):
        p.add_argument("--in", dest="input", required=True, help="a catalog knot (trefoil, "
                       "figure8 or fig8, unknot), or a cfk document or its path")
        p.add_argument("--framing", type=int, default=0, help="the framing, an integer (default 0)")
        p.add_argument("--pattern", default="cable21",
                       help=f"the pattern: {', '.join(sorted(PATTERNS))} (default cable21)")

    p = sub.add_parser("hf3m", help="closed manifold rank from a word of twists or underslides")
    p.add_argument("--word", default="", help="e.g. \"Tm Tm Tl'\" (trailing ' = inverse), or "
                   "underslides of split:k such as \"underslide:split:2:2:1 underslide:split:2:6:7\"")
    tori = ("a solid torus, h_0/0/zero, h_inf/inf/infinity or h_minus1/-1/minus1, or "
            "handlebody:<k> for k <= 3 (default h_0)")
    p.add_argument("--left", default="h_0", help=f"the side on the left: {tori}")
    p.add_argument("--base", default="h_0", help=f"the side the word acts on: {tori}")
    p.set_defaults(fn=cmd_hf3m)

    p = sub.add_parser("catalog", help="dump built-in objects as JSON fixtures")
    p.add_argument("action", choices=("dump", "list"))
    p.add_argument("name", nargs="?", default="")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("verify", help="run the bundled invariant suite")
    p.add_argument("--fast", action="store_true", help="reduced sample sizes")
    p.set_defaults(fn=cmd_verify)
    return top


@_nogc
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        return 0 if code is None else code
    except GateFailure as e:
        print(f"internal verification failure: {e}", file=sys.stderr)
        return 2
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
