"""Command line interface.

Exit codes: 0 when the requested property is verified (or the output was
produced), 1 when a checked property is refuted, 2 on any input problem
(bad schema, bad arguments, missing file, a cube over FRACTURE_MAX_T),
and 3 on an internal error. All output documents share the fracture/1
envelope.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cube_categories import (
    anchored_supersets,
    glue_fracture_object,
    roundtrip_check,
    split_fracture_object,
    validate_fracture_object,
)
from .exact_linalg import InputError, smith_normal_form
from .fracture import LocalizationFamily, build_fracture_cube, verify_fracture
from .holim import PosetDiagram, homotopy_limit, total_fiber
from .posets import certify_initial, pcubelim_index_map, subset_poset
from .sorted_complex import homology_p_local
from . import serialize
from .serialize import SchemaError, check_dimension, label_to_str


def _parse_primes(raw: str) -> tuple:
    if not raw:
        return ()
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise InputError(f"bad --primes value {raw!r}")


def _load(path: str, expected_kind=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON in {path}: {exc}")
    return serialize.unwrap(doc, expected_kind)


def _emit(doc: dict, output, out_stream):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        out_stream.write(text + "\n")


def _invariants_json(hom: dict) -> list:
    return [{"degree": n, "free_rank": inv.free_rank,
             "torsion": list(inv.torsion)}
            for n, inv in sorted(hom.items())]


# --- dot emission ----------------------------------------------------------------

def _module_label(c) -> str:
    if c.is_zero_complex():
        return "0"
    parts = []
    for n in c.degrees():
        inner = "+".join(f"{s.tag()}^{r}" if r > 1 else s.tag()
                         for s, r in c.module(n).summands)
        parts.append(f"[{n}] {inner}")
    return "; ".join(parts)


def _homology_label(c, primes) -> str:
    try:
        hom = homology_p_local(c, primes or None)
    except InputError:
        return _module_label(c)
    if not hom:
        return "0"
    return "; ".join(f"H{n}={inv}" for n, inv in sorted(hom.items()))


def emit_dot(diagram: PosetDiagram, with_homology: bool = False,
             primes=()) -> str:
    """Deterministic DOT rendering of a diagram, nodes in subset order."""
    lines = ["digraph cube {", "  rankdir=LR;"]
    names = {}
    for i, s in enumerate(diagram.shape.elements):
        names[s] = f"n{i}"
        key = label_to_str(s) or "{}"
        body = _homology_label(diagram.vertex(s), primes) if with_homology \
            else _module_label(diagram.vertex(s))
        lines.append(f'  n{i} [label="{key}: {body}"];')
    for (x, y) in sorted(diagram.edges,
                         key=lambda p: (diagram.shape.index(p[0]),
                                        diagram.shape.index(p[1]))):
        lines.append(f"  {names[x]} -> {names[y]};")
    lines.append("}")
    return "\n".join(lines)


def emit_category_cube_dot(n: int) -> str:
    """Nodes are the diagram categories of the decomposition cube.

    Each nonempty index subset S is labeled by the local category at its
    minimum and the shorthand for its anchored index poset.
    """
    labels = tuple(range(1, n + 1))
    shape = subset_poset(labels, punctured=True)
    lines = ["digraph category_cube {", "  rankdir=LR;"]
    names = {}
    for i, s in enumerate(shape.elements):
        names[s] = f"n{i}"
        alpha = anchored_supersets(s, labels)
        shorthand = ",".join("".join(str(x) for x in u) for u in alpha.elements)
        lines.append(f'  n{i} [label="Sp[F({min(s)})]^{{{shorthand}}}"];')
    for (x, y) in shape.covering_pairs():
        lines.append(f"  {names[x]} -> {names[y]};")
    lines.append("}")
    return "\n".join(lines)


# --- subcommands -----------------------------------------------------------------

def _cmd_snf(args, out):
    _, m = _load(args.input, "matrix")
    u, d, v = smith_normal_form(m)
    _emit(serialize.wrap("matrix", d), args.output, out)
    return 0


def _cmd_homology(args, out):
    _, c = _load(args.input, "complex")
    primes = _parse_primes(args.primes) or None
    hom = homology_p_local(c, primes)
    _emit(serialize.wrap("report", {"homology": _invariants_json(hom)}),
          args.output, out)
    return 0


def _cmd_holim(args, out):
    _, d = _load(args.input, "diagram")
    hl = homotopy_limit(d)
    _emit(serialize.wrap("complex", hl.complex), args.output, out)
    return 0


def _cmd_tfib(args, out):
    _, d = _load(args.input, "diagram")
    _emit(serialize.wrap("complex", total_fiber(d)), args.output, out)
    return 0


def _cmd_poset_check_initial(args, out):
    labels = tuple(range(1, args.T + 1))
    check_dimension(len(labels))
    rep = certify_initial(pcubelim_index_map(labels, args.t))
    payload = {
        "overall": rep.overall,
        "certificates": {label_to_str(i): cert
                         for i, cert in rep.certificates.items()},
        "inconclusive": [label_to_str(i) for i in rep.inconclusive],
    }
    _emit(serialize.wrap("report", payload), args.output, out)
    return 0 if rep.overall else 1


def _cmd_fracture_build(args, out):
    _, x = _load(args.input, "complex")
    fam = LocalizationFamily(_parse_primes(args.primes))
    check_dimension(fam.size)
    cube = build_fracture_cube(x, fam)
    _emit(serialize.wrap("diagram", cube), args.output, out)
    return 0


def _cmd_fracture_verify(args, out):
    _, x = _load(args.input, "complex")
    fam = LocalizationFamily(_parse_primes(args.primes))
    check_dimension(fam.size)
    rep = verify_fracture(x, fam)
    payload = {
        "verdict": "pass" if rep.verdict else "fail",
        "residues": [{"kind": c.kind, "prime": c.prime, "passed": c.passed,
                      "defects": [list(d) for d in c.defects]}
                     for c in rep.checks],
        "homology_of_limit": _invariants_json(rep.limit_homology),
    }
    _emit(serialize.wrap("report", payload), args.output, out)
    return 0 if rep.verdict else 1


def _cmd_cat_validate(args, out):
    _, g = _load(args.input, "fracture-object")
    violations = validate_fracture_object(g)
    payload = {"ok": not violations,
               "violations": [{"location": v.location, "message": v.message}
                              for v in violations]}
    _emit(serialize.wrap("report", payload), args.output, out)
    return 0 if not violations else 1


def _cmd_cat_roundtrip(args, out):
    kind, obj = _load(args.input)
    if kind == "fracture-object":
        fam = obj.family
        ok = roundtrip_check(obj, fam)
    elif kind == "complex":
        fam = LocalizationFamily(_parse_primes(args.primes))
        ok = roundtrip_check(obj, fam)
    else:
        raise SchemaError("$.kind", "roundtrip expects a complex or a "
                          "fracture-object document")
    _emit(serialize.wrap("report", {"roundtrip": "pass" if ok else "fail"}),
          args.output, out)
    return 0 if ok else 1


def _cmd_cat_split(args, out):
    _, g = _load(args.input, "fracture-object")
    sp = split_fracture_object(g)
    _emit(serialize.wrap("report", serialize.split_to_json(sp)),
          args.output, out)
    return 0


def _cmd_cat_glue(args, out):
    _, payload = _load(args.input, "report")
    sp, fam = serialize.split_from_json(payload, "$.payload")
    glued = glue_fracture_object(sp, fam)
    _emit(serialize.wrap("fracture-object", glued), args.output, out)
    return 0


def _cmd_emit_dot(args, out):
    if args.category_cube is not None:
        check_dimension(args.category_cube)
        text = emit_category_cube_dot(args.category_cube)
    else:
        if not args.input:
            raise InputError("emit-dot needs an input document or "
                             "--category-cube N")
        kind, obj = _load(args.input)
        if kind == "diagram":
            diagram = obj
        elif kind == "fracture-object":
            diagram = obj.diagram
        else:
            raise SchemaError("$.kind", "emit-dot expects a diagram or a "
                              "fracture-object document")
        text = emit_dot(diagram, with_homology=args.homology,
                        primes=_parse_primes(args.primes))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        out.write(text + "\n")
    return 0


def _add_io(p, needs_input=True):
    if needs_input:
        p.add_argument("input", help="input document (fracture/1 JSON)")
    p.add_argument("-o", "--output", help="write the result here instead of stdout")
    p.add_argument("--primes", default="", help="comma separated prime set, e.g. 2,3")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracturecube",
        description="Exact cubical homotopy limits and fracture diagrams "
                    "over arithmetic sorted complexes.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    _add_io(p)
    p.set_defaults(fn=_cmd_snf)

    p = sub.add_parser("homology", help="homology invariants of a complex")
    _add_io(p)
    p.set_defaults(fn=_cmd_homology)

    p = sub.add_parser("holim", help="homotopy limit of a poset diagram")
    _add_io(p)
    p.set_defaults(fn=_cmd_holim)

    p = sub.add_parser("tfib", help="total fiber of a full cube diagram")
    _add_io(p)
    p.set_defaults(fn=_cmd_tfib)

    p = sub.add_parser("poset", help="poset utilities")
    psub = p.add_subparsers(dest="poset_command", required=True)
    pc = psub.add_parser("check-initial",
                         help="certify initiality of the recursion index map")
    pc.add_argument("--T", type=int, required=True, help="number of labels")
    pc.add_argument("--t", type=int, required=True, help="distinguished label")
    _add_io(pc, needs_input=False)
    pc.set_defaults(fn=_cmd_poset_check_initial)

    p = sub.add_parser("fracture", help="fracture cube construction and checks")
    fsub = p.add_subparsers(dest="fracture_command", required=True)
    fb = fsub.add_parser("build", help="build the localization cube of a complex")
    _add_io(fb)
    fb.set_defaults(fn=_cmd_fracture_build)
    fv = fsub.add_parser("verify",
                         help="verify the joint localization against the "
                              "punctured-cube limit")
    _add_io(fv)
    fv.set_defaults(fn=_cmd_fracture_verify)

    p = sub.add_parser("cat", help="fracture object category operations")
    csub = p.add_subparsers(dest="cat_command", required=True)
    for name, fn, help_text in (
            ("validate", _cmd_cat_validate, "check the object conditions"),
            ("roundtrip", _cmd_cat_roundtrip,
             "verify the limit/diagram round trip"),
            ("split", _cmd_cat_split, "split off the first-index face"),
            ("glue", _cmd_cat_glue, "reassemble a split object")):
        cp = csub.add_parser(name, help=help_text)
        _add_io(cp)
        cp.set_defaults(fn=fn)

    p = sub.add_parser("emit-dot", help="render a diagram as DOT text")
    p.add_argument("input", nargs="?", help="diagram or fracture-object document")
    p.add_argument("-o", "--output")
    p.add_argument("--primes", default="")
    p.add_argument("--homology", action="store_true",
                   help="label vertices with homology invariants")
    p.add_argument("--category-cube", type=int, default=None, metavar="N",
                   help="render the N-index cube of diagram categories instead")
    p.set_defaults(fn=_cmd_emit_dot)
    return ap


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args, out)
    except SchemaError as exc:
        err.write(f"schema error: {exc}\n")
        return 2
    except InputError as exc:
        err.write(f"input error: {exc}\n")
        return 2
    except OSError as exc:
        err.write(f"io error: {exc}\n")
        return 2
    except Exception as exc:
        # exit 1 means "refuted"; a fault of the program must not read as one
        err.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
