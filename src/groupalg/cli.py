"""Command-line front end.

Commands: dim, bound, idempotent, annihilator, charpoly, code, group-show,
selftest.  Exit codes: 0 success, 1 selftest failure, 2 usage/parse error,
3 mathematical domain error.  `--json` switches to a single-line record with
sorted keys, so identical inputs (and seeds) produce byte-identical output;
elapsed time is only shown in text mode for the same reason.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .algebra import AlgebraElem, parse_element_inline, read_element_file
from .dimension import DEFAULT_SEED, DEFAULT_TRIALS, IdealSpec, annihilator_basis, \
    dim_bound_charpoly, dim_ideal, dim_mulmuley_exact, dim_mulmuley_random, \
    idempotent_generator
from .errors import DomainError, SpecError
from .field import format_field_spec, parse_field_spec
from .gcode import DEFAULT_BUDGET, build_code, code_to_text, min_distance
from .groups import cayley_to_text, load_cayley_file, make_group, validate_group
from .linalg import charpoly
from .representation import lambda_matrix, rho_matrix, stack
from .selftest import run_selftest

METHODS = ("rank", "charpoly-bound", "mulmuley-exact", "mulmuley-random")


def _add_context_flags(sp, with_field: bool = True) -> None:
    sp.add_argument("--group", required=True, metavar="SPEC",
                    help="cyclic:n | dihedral:n | symmetric:n | "
                         "product:<spec>,<spec> | cayley:<path> | perm:<path>")
    sp.add_argument("--order", metavar="FILE",
                    help="Cayley file that fixes the element order "
                         "(replaces the --group table; orders must agree)")
    if with_field:
        sp.add_argument("--field", required=True, metavar="SPEC",
                        help="gf:p | gf:p^m | gf:p^m:c0,...,cm")


def _add_output_flags(sp) -> None:
    sp.add_argument("--json", action="store_true",
                    help="single-line JSON record (stable key order)")
    sp.add_argument("--dump-matrix", action="store_true",
                    help="also print the underlying matrix/table")


def _add_elem_flags(sp) -> None:
    sp.add_argument("--elem", action="append", default=[], metavar="PAIRS",
                    help="inline element '1:1,2:1' (1-based; prime fields); "
                         "repeatable, one element per flag")
    sp.add_argument("--elem-file", action="append", default=[], metavar="FILE",
                    help="element file with one 'index:coeff' line per "
                         "nonzero coefficient; repeatable")


def _add_side_flag(sp, default: str) -> None:
    sp.add_argument("--side", choices=("left", "right"), default=default,
                    help=f"ideal side (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="groupalg",
        description="Dimensions, idempotents, and codes of group algebra ideals.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("dim", help="dimension of the ideal of the given generators")
    _add_context_flags(sp)
    _add_side_flag(sp, "left")
    _add_elem_flags(sp)
    sp.add_argument("--method", choices=METHODS, default="rank")
    sp.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                    help="trials for mulmuley-random")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed for mulmuley-random")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_dim)

    sp = sub.add_parser("bound", help="charpoly dimension bounds for one generator")
    _add_context_flags(sp)
    _add_side_flag(sp, "left")
    _add_elem_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_bound)

    sp = sub.add_parser("idempotent",
                        help="idempotent generator of the ideal of one generator")
    _add_context_flags(sp)
    _add_side_flag(sp, "left")
    _add_elem_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_idempotent)

    sp = sub.add_parser("annihilator", help="basis of the annihilator of one element")
    _add_context_flags(sp)
    _add_side_flag(sp, "right")
    _add_elem_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_annihilator)

    sp = sub.add_parser("charpoly",
                        help="characteristic polynomial of the representation matrix")
    _add_context_flags(sp)
    _add_side_flag(sp, "left")
    _add_elem_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_charpoly)

    sp = sub.add_parser("code", help="linear code of the ideal of the given generators")
    _add_context_flags(sp)
    _add_side_flag(sp, "left")
    _add_elem_flags(sp)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="max q^k codewords to enumerate for the min distance")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_code)

    sp = sub.add_parser("group-show", help="order, labels, and validation of a group")
    _add_context_flags(sp, with_field=False)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_group_show)

    sp = sub.add_parser("selftest", help="run the built-in fixture suite")
    sp.add_argument("--filter", metavar="SUBSTRING", default=None,
                    help="run only fixtures whose name contains SUBSTRING")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_selftest)
    return p


# -- shared plumbing --

def _context(args):
    try:
        field = parse_field_spec(args.field)
    except SpecError as e:
        raise SpecError(f"--field: {e}") from None
    group = _group(args)
    return field, group


def _group(args):
    try:
        group = make_group(args.group)
    except SpecError as e:
        raise SpecError(f"--group: {e}") from None
    if args.order:
        try:
            ordered = load_cayley_file(args.order)
        except SpecError as e:
            raise SpecError(f"--order: {e}") from None
        if ordered.n != group.n:
            raise SpecError(
                f"--order: file {args.order!r} has order {ordered.n}, "
                f"but --group {args.group!r} has order {group.n}")
        group = ordered
    return group


def _generators(args, field, group, exactly_one: bool = False) -> list:
    gens = []
    for text in args.elem:
        try:
            gens.append(parse_element_inline(field, group, text))
        except SpecError as e:
            raise SpecError(f"--elem {text!r}: {e}") from None
    for path in args.elem_file:
        try:
            gens.append(read_element_file(field, group, path))
        except SpecError as e:
            raise SpecError(f"--elem-file {path!r}: {e}") from None
    if not gens:
        raise SpecError("need at least one --elem or --elem-file")
    if exactly_one and len(gens) != 1:
        raise SpecError(f"this command takes exactly one element, got {len(gens)}")
    return gens


def _element_pairs(elem: AlgebraElem) -> list:
    """Element in file format as a list of 1-based 'index:coeff' strings."""
    return [f"{int(i) + 1}:{elem.field.format_value(elem.coeffs[i])}"
            for i in np.nonzero(elem.coeffs)[0]]


def _emit(args, record: dict, lines: list, started: float) -> int:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for ln in lines:
            print(ln)
        print(f"elapsed = {time.perf_counter() - started:.3f}s")
    return 0


def _context_report(args, field, group, record: dict, lines: list) -> None:
    record.update({"command": args.command, "group": group.name, "n": group.n,
                   "field": format_field_spec(field)})
    lines.append(f"group = {group.name} (n = {group.n})")
    lines.append(f"field = {format_field_spec(field)}")
    if hasattr(args, "side"):
        record["side"] = args.side
        lines.append(f"side = {args.side}")


# -- commands --

def cmd_dim(args) -> int:
    started = time.perf_counter()
    field, group = _context(args)
    single = args.method != "rank"
    gens = _generators(args, field, group, exactly_one=single)
    if all(g.is_zero for g in gens):
        raise DomainError("zero ideal: every generator is zero")
    record, lines = {}, []
    _context_report(args, field, group, record, lines)
    record.update({"method": args.method, "dim": None, "k": None, "charpoly": None})
    lines.append(f"method = {args.method}")
    if args.method == "rank":
        record["dim"] = dim_ideal(IdealSpec(side=args.side, generators=tuple(gens)))
    elif args.method == "charpoly-bound":
        b = dim_bound_charpoly(gens[0], side=args.side)
        record.update({"k": b.k, "charpoly": b.charpoly.to_text().strip(),
                       "lower": b.lower, "upper": b.upper, "exact": b.exact,
                       "dim": b.lower if b.exact else None})
        lines.append(f"charpoly = {record['charpoly']}")
        lines.append(f"k = {b.k}")
        lines.append(f"bounds = [{b.lower}, {b.upper}] (exact: {b.exact})")
    elif args.method == "mulmuley-exact":
        # k is reported for the doubled matrix [[0, F], [F^T, 0]] of size 2n,
        # k = 2n - 2*dim, though the nodes use its n x n halving
        record["dim"] = dim_mulmuley_exact(gens[0], side=args.side)
        record["k"] = 2 * group.n - 2 * record["dim"]
        lines.append(f"k = {record['k']} (matrix size {2 * group.n})")
    else:
        record["dim"] = dim_mulmuley_random(gens[0], side=args.side,
                                            trials=args.trials, seed=args.seed)
        record.update({"trials": args.trials, "seed": args.seed})
        lines.append(f"trials = {args.trials}, seed = {args.seed}")
    if record["dim"] is not None:
        lines.append(f"dim = {record['dim']}")
    if args.dump_matrix:
        text = stack(gens, args.side).to_text()
        record["matrix"] = text
        lines.extend(["matrix:", text.rstrip("\n")])
    return _emit(args, record, lines, started)


def cmd_bound(args) -> int:
    args.method = "charpoly-bound"
    return cmd_dim(args)


def cmd_idempotent(args) -> int:
    started = time.perf_counter()
    field, group = _context(args)
    f = _generators(args, field, group, exactly_one=True)[0]
    e = idempotent_generator(f, side=args.side)
    record, lines = {}, []
    _context_report(args, field, group, record, lines)
    lines.append(f"f = {f!r}")
    if e is None:
        record.update({"e": None, "idempotent": None, "fixes_f": None})
        lines.append("e = none")
        return _emit(args, record, lines, started)
    ok_idem = e.is_idempotent()
    fixes = (f * e == f) if args.side == "left" else (e * f == f)
    record.update({"e": _element_pairs(e), "idempotent": ok_idem, "fixes_f": fixes})
    lines.append(f"e = {e!r}")
    lines.append(f"e (element format) = {' '.join(_element_pairs(e))}")
    lines.append(f"e*e == e: {ok_idem}")
    lines.append(f"{'f*e == f' if args.side == 'left' else 'e*f == f'}: {fixes}")
    if args.dump_matrix:
        text = rho_matrix(e).to_text() if args.side == "left" else lambda_matrix(e).to_text()
        record["matrix"] = text
        lines.extend(["matrix:", text.rstrip("\n")])
    return _emit(args, record, lines, started)


def cmd_annihilator(args) -> int:
    started = time.perf_counter()
    field, group = _context(args)
    f = _generators(args, field, group, exactly_one=True)[0]
    basis = annihilator_basis(f, side=args.side)
    record, lines = {}, []
    _context_report(args, field, group, record, lines)
    record.update({"count": len(basis), "basis": [_element_pairs(v) for v in basis]})
    lines.append(f"f = {f!r}")
    lines.append(f"count = {len(basis)}")
    for j, v in enumerate(basis, start=1):
        lines.append(f"a{j} = {' '.join(_element_pairs(v)) or '0'}")
    return _emit(args, record, lines, started)


def cmd_charpoly(args) -> int:
    started = time.perf_counter()
    field, group = _context(args)
    f = _generators(args, field, group, exactly_one=True)[0]
    mat = rho_matrix(f) if args.side == "left" else lambda_matrix(f)
    cp = charpoly(mat)
    record, lines = {}, []
    _context_report(args, field, group, record, lines)
    record.update({"charpoly": cp.to_text().strip(), "k": cp.valuation()})
    lines.append(f"charpoly = {record['charpoly']}")
    lines.append(f"k = {record['k']}")
    if args.dump_matrix:
        record["matrix"] = mat.to_text()
        lines.extend(["matrix:", record["matrix"].rstrip("\n")])
    return _emit(args, record, lines, started)


def cmd_code(args) -> int:
    started = time.perf_counter()
    field, group = _context(args)
    gens = _generators(args, field, group)
    code = build_code(IdealSpec(side=args.side, generators=tuple(gens)))
    total = field.q ** code.k
    if total <= args.budget:
        d, skipped = min_distance(code, budget=args.budget), None
    else:
        d, skipped = None, f"q^k = {total} exceeds budget {args.budget}"
    record, lines = {}, []
    _context_report(args, field, group, record, lines)
    gen_rows = [" ".join(field.format_value(v) for v in row) for row in code.genmat.data]
    par_rows = [" ".join(field.format_value(v) for v in row) for row in code.paritymat.data]
    record.update({"k": code.k, "d": d, "d_skipped": skipped,
                   "genmat": gen_rows, "paritymat": par_rows})
    lines.append(f"[{code.n},{code.k}]" + (f" d={d}" if d is not None else ""))
    if skipped:
        lines.append(f"d skipped: {skipped}")
    lines.append("genmat:")
    lines.extend(gen_rows)
    lines.append("paritymat:")
    lines.extend(par_rows)
    if args.dump_matrix:
        record["export"] = code_to_text(code)
        lines.extend(["export:", record["export"].rstrip("\n")])
    return _emit(args, record, lines, started)


def cmd_group_show(args) -> int:
    started = time.perf_counter()
    group = _group(args)
    report = validate_group(group, level="fast")
    record = {"command": args.command, "group": group.name, "n": group.n,
              "commutative": group.is_commutative, "labels": list(group.labels),
              "validation_ok": report.ok, "violations": list(report.violations)}
    lines = [f"group = {group.name}",
             f"n = {group.n}",
             f"commutative = {group.is_commutative}",
             f"labels = {' '.join(group.labels)}",
             f"validation (fast) = {'ok' if report.ok else 'FAILED'}"]
    lines.extend(report.violations)
    if args.dump_matrix:
        record["cayley"] = cayley_to_text(group)
        lines.extend(["cayley:", record["cayley"].rstrip("\n")])
    return _emit(args, record, lines, started)


def cmd_selftest(args) -> int:
    results = run_selftest(args.filter)
    if args.json:
        record = {"command": "selftest",
                  "results": [{"name": n, "ok": ok, "detail": d}
                              for n, ok, d in results],
                  "passed": sum(1 for _, ok, _ in results if ok),
                  "failed": sum(1 for _, ok, _ in results if not ok)}
        print(json.dumps(record, sort_keys=True))
    else:
        for name, ok, detail in results:
            print(f"PASS {name}" if ok else f"FAIL {name}: {detail}")
        npass = sum(1 for _, ok, _ in results if ok)
        print(f"{npass}/{len(results)} fixtures passed")
    if not results:
        print("error: no fixture matches the filter", file=sys.stderr)
        return 2
    return 0 if all(ok for _, ok, _ in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        if isinstance(e.code, int):
            return e.code
        return 0 if e.code is None else 2
    try:
        return args.handler(args)
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ZeroDivisionError:
        print("error: division by zero in the coefficient field", file=sys.stderr)
        return 3
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
