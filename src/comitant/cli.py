"""Command-line front end.

Subcommands map one-to-one onto the library's public operations:

  invariant    evaluate a named invariant on a form read from a file
  map          degrees, composition, and descent of the named P^1 maps
  fiber-count  exhaustive fiber census of a named map over a prime field
  assoc-form   the associated form of a binary quartic or ternary cubic
  geometry     six-point construction, bracket identity, chord-tangent maps
  quartic      the degree-4 covariant and the dual quartic of a plane quartic
  verify       run the claim registry and emit the report

Form files hold a single polynomial in the shared grammar.  Binary forms
use the variables (x, y), ternary forms (X, Y, Z), point-pair files the
parameter variables (s, t), one pair per line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .associated import associated_form, associated_slice_map
from .comitants import Form
from .fibers import sample_report
from .geometry import (Conic, PointPair, coble_identity_check, proportional,
                       q_construction, richelot_forward, richelot_inverse,
                       sigma_map)
from .grammar import parse_poly_file
from .invariants import (BINARY_VARS, TERNARY_VARS, evaluate_invariant,
                         named_invariant)
from .maps import (compose, descend_map, hesse_cover, hesse_self_map,
                   hammond_image_polys, quartic_cover, quartic_self_map)
from .quartic import clebsch_covariant, salmon_contravariant
from .verify import (DEFAULT_PRIMES, DEFAULT_SEED, DEFAULT_TRIALS,
                     run_verifications)

PAIR_VARS = ("s", "t")

_SELF_MAPS = {"hesse": hesse_self_map, "quartic": quartic_self_map}
_COVERS = {"hesse": hesse_cover, "quartic": quartic_cover}
_NAMED_MAPS = {
    "hesse": hesse_self_map,
    "quartic": quartic_self_map,
    "hesse-cover": hesse_cover,
    "quartic-cover": quartic_cover,
    "assoc-slice": associated_slice_map,
}


def _parse_space(text: str) -> tuple:
    try:
        n, d = (int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"space must look like 'n,d', got {text!r}") from None
    if n not in (2, 3):
        raise ValueError("only binary (2,d) and ternary (3,d) forms")
    if d < 1:
        raise ValueError("form degree must be positive")
    return n, d


def _read_form(path: str, space: tuple, params=()):
    n, d = space
    active = BINARY_VARS if n == 2 else TERNARY_VARS
    names = tuple(params) + active
    poly = parse_poly_file(path, names)
    return Form(poly, d, range(len(params), len(names)))


def _read_pairs(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if len(lines) != 3:
        raise ValueError(f"pair file needs exactly 3 nonempty lines, "
                         f"found {len(lines)}")
    from .grammar import parse_poly
    pairs = []
    for ln in lines:
        poly = parse_poly(ln, PAIR_VARS)
        pairs.append(PointPair.from_form(Form(poly, 2)))
    return pairs


def _fractions(text: str, count: int) -> list:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated values")
    return [Fraction(p) for p in parts]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_invariant(args) -> int:
    space = _parse_space(args.space)
    inv = named_invariant(args.name, space)
    params = tuple(args.params.split(",")) if args.params else ()
    form = _read_form(args.form, space, params)
    print(evaluate_invariant(inv, form))
    return 0


def _cmd_map(args) -> int:
    if args.action == "degree":
        m = _NAMED_MAPS[args.name]()
        print(f"degree={m.degree}")
        return 0
    if args.action == "compose":
        comp = compose(_NAMED_MAPS[args.outer](), _NAMED_MAPS[args.inner]())
        print(f"[{comp.num} : {comp.den}]")
        print(f"degree={comp.degree}")
        return 0
    # descend: quotient of cover o self-map by the cover
    if args.name == "assoc":
        selfmap, cover = associated_slice_map(), quartic_cover()
    else:
        selfmap, cover = _SELF_MAPS[args.name](), _COVERS[args.name]()
    comp = compose(cover, selfmap)
    down = descend_map(cover, comp, comp.degree // cover.degree)
    print(f"cover_degree={cover.degree}")
    print(f"composite_degree={comp.degree}")
    print(f"quotient=[{down.num} : {down.den}]")
    print(f"quotient_degree={down.degree}")
    return 0


def _cmd_fiber_count(args) -> int:
    if args.map == "hammond":
        target_map = list(hammond_image_polys())
    else:
        target_map = _SELF_MAPS[args.map]()
    rep = sample_report(target_map, args.prime, args.samples, args.seed)
    for line in rep["lines"]:
        print(line)
    print(f"max_fiber={rep['max_fiber']} indeterminate={rep['indeterminate']} "
          f"orbits={rep['orbits']}")
    return 0


def _cmd_assoc_form(args) -> int:
    space = _parse_space(args.space)
    if space not in ((2, 4), (3, 3)):
        raise ValueError("associated forms are provided on V(2,4) and "
                         "V(3,3) only")
    res = associated_form(_read_form(args.form, space))
    print(res.form)
    print(f"scale={res.scale}")
    return 0


def _cmd_geometry(args) -> int:
    if args.gcmd == "q-points":
        conic = Conic(*_fractions(args.conic, 6))
        for i, pt in enumerate(q_construction(conic), start=1):
            coords = ",".join(str(c) for c in pt.normalized())
            print(f"q{i}=[{coords}]")
        return 0
    if args.gcmd == "coble-check":
        if not coble_identity_check():
            print("bracket identity FAILED")
            return 1
        print("(123)(145)(246)(356) == (124)(135)(236)(456)")
        print("all eight minors match their closed-form factorizations")
        return 0
    if args.gcmd == "richelot":
        pairs = _read_pairs(args.pairs)
        out = (richelot_inverse if args.inverse else richelot_forward)(pairs)
        for p in out:
            print(p.poly)
        return 0
    # sigma: the six-point self-map, on the standard conic x*z - y^2
    coeffs = _fractions(args.conic, 6)
    if not any(coeffs) or not proportional(coeffs, (0, -2, 0, 0, 1, 0)):
        raise ValueError("sigma works on the standard conic x*z - y^2; "
                         "pass a conic proportional to 0,-2,0,0,1,0")
    for p in sigma_map(_read_pairs(args.pairs)):
        print(p.poly)
    return 0


def _cmd_quartic(args) -> int:
    form = _read_form(args.form, (3, 4))
    if args.qcmd == "clebsch":
        print(clebsch_covariant(form).poly)
    else:
        print(salmon_contravariant(form).poly)
    return 0


def _cmd_verify(args) -> int:
    only = args.only.split(",") if args.only else None
    primes = tuple(int(p) for p in args.primes.split(","))
    rep = run_verifications(only=only, seed=args.seed, primes=primes,
                            trials=args.trials)
    sys.stdout.write(rep.to_text())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json())
    return rep.exit_code


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="comitant",
        description="exact comitants, pencil self-maps, and the claim "
                    "registry")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="evaluate a named invariant")
    p.add_argument("--space", required=True, metavar="n,d")
    p.add_argument("--name", required=True,
                   help="I2, I3, I4, I8, I12, S, or T")
    p.add_argument("--form", required=True, metavar="FILE")
    p.add_argument("--params", default="", metavar="p1,p2",
                   help="optional parameter variables, listed before the "
                        "form variables")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("map", help="named P^1 maps")
    msub = p.add_subparsers(dest="action", required=True)
    m = msub.add_parser("degree")
    m.add_argument("--name", required=True, choices=sorted(_NAMED_MAPS))
    m = msub.add_parser("compose")
    m.add_argument("--outer", required=True, choices=sorted(_NAMED_MAPS))
    m.add_argument("--inner", required=True, choices=sorted(_NAMED_MAPS))
    m = msub.add_parser("descend")
    m.add_argument("--name", required=True,
                   choices=("hesse", "quartic", "assoc"))
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("fiber-count", help="finite-field fiber census")
    p.add_argument("--map", required=True,
                   choices=("hesse", "quartic", "hammond"))
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_fiber_count)

    p = sub.add_parser("assoc-form", help="associated form of a form file")
    p.add_argument("--space", required=True, metavar="2,4|3,3")
    p.add_argument("--form", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_assoc_form)

    p = sub.add_parser("geometry", help="conic constructions")
    gsub = p.add_subparsers(dest="gcmd", required=True)
    g = gsub.add_parser("q-points")
    g.add_argument("--conic", required=True, metavar="a,b,c,d,e,f")
    gsub.add_parser("coble-check")
    g = gsub.add_parser("richelot")
    g.add_argument("--pairs", required=True, metavar="FILE")
    g.add_argument("--inverse", action="store_true")
    g = gsub.add_parser("sigma")
    g.add_argument("--conic", required=True, metavar="a,b,c,d,e,f")
    g.add_argument("--pairs", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("quartic", help="plane-quartic comitants")
    qsub = p.add_subparsers(dest="qcmd", required=True)
    q = qsub.add_parser("clebsch")
    q.add_argument("--form", required=True, metavar="FILE")
    q = qsub.add_parser("salmon")
    q.add_argument("--form", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_quartic)

    p = sub.add_parser("verify", help="run the claim registry")
    p.add_argument("--only", default="", metavar="id,...")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--primes", default=",".join(map(str, DEFAULT_PRIMES)),
                   metavar="p1,p2")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--report", default="", metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
