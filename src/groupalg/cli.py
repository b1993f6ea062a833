"""Command-line front end.

Commands: dim, bound, idempotent, annihilator, charpoly, code, group-show,
selftest.  Exit codes: 0 success, 1 selftest failure, 2 usage/parse error,
3 mathematical domain error.  `--json` switches to a single-line record with
sorted keys, so identical inputs (and seeds) produce byte-identical output;
elapsed time is only shown in text mode for the same reason.

Each command but selftest is one row of COMMANDS: its handler returns the
command's record fields, its text lines and an optional dump, and `_run`
does the rest (context flags, --dump-matrix, text or JSON rendering).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .algebra import AlgebraElem, parse_element_inline, read_element_file
from .dimension import DEFAULT_SEED, DEFAULT_TRIALS, IdealSpec, annihilator_basis, \
    dim_bound_charpoly, dim_ideal, dim_mulmuley_exact, dim_mulmuley_random, \
    element_charpoly, idempotent_generator
from .errors import BudgetExceededError, DomainError, SpecError
from .field import format_field_spec, parse_field_spec
from .gcode import DEFAULT_BUDGET, build_code, code_to_text, min_distance
from .groups import cayley_to_text, load_cayley_file, make_group, validate_group
from .representation import rho_matrix, stack
from .selftest import run_selftest

METHODS = ("rank", "charpoly-bound", "mulmuley-exact", "mulmuley-random")

# -- flags, as (name, add_argument keywords) --

_GROUP_FLAGS = (
    ("--group", dict(required=True, metavar="SPEC",
                     help="cyclic:n | dihedral:n | symmetric:n | "
                          "product:<spec>,<spec> | cayley:<path> | perm:<path>")),
    ("--order", dict(metavar="FILE",
                     help="Cayley file that fixes the element order "
                          "(replaces the --group table; orders must agree)")),
)
_FIELD_FLAG = ("--field", dict(required=True, metavar="SPEC",
                               help="gf:p | gf:p^m | gf:p^m:c0,...,cm"))
_ELEM_FLAGS = (
    ("--elem", dict(action="append", default=[], metavar="PAIRS",
                    help="inline element '1:1,2:1' (1-based; prime fields); "
                         "repeatable, one element per flag")),
    ("--elem-file", dict(action="append", default=[], metavar="FILE",
                         help="element file with one 'index:coeff' line per "
                              "nonzero coefficient; repeatable")),
)
_OUTPUT_FLAGS = (
    ("--json", dict(action="store_true",
                    help="single-line JSON record (stable key order)")),
    ("--dump-matrix", dict(action="store_true",
                           help="also print the underlying matrix/table")),
)
_DIM_FLAGS = (
    ("--method", dict(choices=METHODS, default="rank")),
    ("--trials", dict(type=int, default=DEFAULT_TRIALS, help="trials for mulmuley-random")),
    ("--seed", dict(type=int, default=DEFAULT_SEED, help="seed for mulmuley-random")),
)
_CODE_FLAGS = (
    ("--budget", dict(type=int, default=DEFAULT_BUDGET,
                      help="max q^k codewords to enumerate for the min distance")),
)


# -- shared plumbing --

def _flag(flag: str, parse, *args):
    """parse(*args), with a SpecError message prefixed by the flag it came from."""
    try:
        return parse(*args)
    except SpecError as e:
        raise SpecError(f"{flag}: {e}") from None


def _group(args):
    group = _flag("--group", make_group, args.group)
    if args.order:
        ordered = _flag("--order", load_cayley_file, args.order)
        if ordered.n != group.n:
            raise SpecError(
                f"--order: file {args.order!r} has order {ordered.n}, "
                f"but --group {args.group!r} has order {group.n}")
        group = ordered
    return group


def _generators(args, field, group) -> list:
    gens = [_flag(f"--elem {text!r}", parse_element_inline, field, group, text)
            for text in args.elem]
    gens += [_flag(f"--elem-file {path!r}", read_element_file, field, group, path)
             for path in args.elem_file]
    if not gens:
        raise SpecError("need at least one --elem or --elem-file")
    return gens


def _one(gens) -> AlgebraElem:
    if len(gens) != 1:
        raise SpecError(f"this command takes exactly one element, got {len(gens)}")
    return gens[0]


def _element_pairs(elem: AlgebraElem) -> list:
    """Element in file format as a list of 1-based 'index:coeff' strings."""
    return [f"{int(i) + 1}:{elem.field.format_value(elem.coeffs[i])}"
            for i in np.nonzero(elem.coeffs)[0]]


def _rows(field, mat) -> list:
    return [" ".join(field.format_value(v) for v in row) for row in mat.data]


# -- commands: handler(args, generators) -> (record fields, text lines, dump),
#    where dump is None or (key, thunk returning the dumped text) --

def _dim(args, gens, method=None):
    method = method or args.method
    if method != "rank":
        gens = [_one(gens)]
    if all(g.is_zero for g in gens):
        raise DomainError("zero ideal: every generator is zero")
    f, side = gens[0], args.side
    record = {"method": method, "dim": None, "k": None, "charpoly": None}
    lines = [f"method = {method}"]
    if method == "rank":
        record["dim"] = dim_ideal(IdealSpec(side=side, generators=tuple(gens)))
    elif method == "charpoly-bound":
        b = dim_bound_charpoly(f, side=side)
        record.update({"k": b.k, "charpoly": b.charpoly.to_text().strip(),
                       "lower": b.lower, "upper": b.upper, "exact": b.exact,
                       "dim": b.lower if b.exact else None})
        lines.append(f"charpoly = {record['charpoly']}")
        lines.append(f"k = {b.k}")
        lines.append(f"bounds = [{b.lower}, {b.upper}] (exact: {b.exact})")
    elif method == "mulmuley-exact":
        # k is reported for the doubled matrix [[0, F], [F^T, 0]] of size 2n,
        # k = 2n - 2*dim, though the nodes use its n x n halving
        record["dim"] = dim_mulmuley_exact(f, side=side)
        record["k"] = 2 * f.group.n - 2 * record["dim"]
        lines.append(f"k = {record['k']} (matrix size {2 * f.group.n})")
    else:
        record["dim"] = dim_mulmuley_random(f, side=side, trials=args.trials, seed=args.seed)
        record.update({"trials": args.trials, "seed": args.seed})
        lines.append(f"trials = {args.trials}, seed = {args.seed}")
    if record["dim"] is not None:
        lines.append(f"dim = {record['dim']}")
    return record, lines, ("matrix", lambda: stack(gens, side).to_text())


def _idempotent(args, gens):
    f = _one(gens)
    e = idempotent_generator(f, side=args.side)
    if e is None:
        return ({"e": None, "idempotent": None, "fixes_f": None},
                [f"f = {f!r}", "e = none"], None)
    ok_idem = e.is_idempotent()
    fixes = (f * e == f) if args.side == "left" else (e * f == f)
    pairs = _element_pairs(e)
    lines = [f"f = {f!r}",
             f"e = {e!r}",
             f"e (element format) = {' '.join(pairs)}",
             f"e*e == e: {ok_idem}",
             f"{'f*e == f' if args.side == 'left' else 'e*f == f'}: {fixes}"]
    return ({"e": pairs, "idempotent": ok_idem, "fixes_f": fixes}, lines,
            ("matrix", lambda: stack([e], args.side).to_text()))


def _annihilator(args, gens):
    f = _one(gens)
    basis = [_element_pairs(v) for v in annihilator_basis(f, side=args.side)]
    lines = [f"f = {f!r}", f"count = {len(basis)}"]
    lines.extend(f"a{j} = {' '.join(v) or '0'}" for j, v in enumerate(basis, start=1))
    # the basis is read off the kernel of this matrix
    target = f if args.side == "right" else f.star()
    return ({"count": len(basis), "basis": basis}, lines,
            ("matrix", lambda: rho_matrix(target).to_text()))


def _charpoly(args, gens):
    f = _one(gens)
    cp = element_charpoly(f, args.side)
    record = {"charpoly": cp.to_text().strip(), "k": cp.valuation()}
    lines = [f"charpoly = {record['charpoly']}", f"k = {record['k']}"]
    return record, lines, ("matrix", lambda: stack([f], args.side).to_text())


def _code(args, gens):
    field = gens[0].field
    code = build_code(IdealSpec(side=args.side, generators=tuple(gens)))
    try:
        d, skipped = _flag("--budget", min_distance, code, args.budget), None
    except BudgetExceededError:
        d, skipped = None, f"q^k = {field.q ** code.k} exceeds budget {args.budget}"
    gen_rows, par_rows = _rows(field, code.genmat), _rows(field, code.paritymat)
    lines = [f"[{code.n},{code.k}]" + (f" d={d}" if d is not None else "")]
    if skipped:
        lines.append(f"d skipped: {skipped}")
    lines += ["genmat:", *gen_rows, "paritymat:", *par_rows]
    return ({"k": code.k, "d": d, "d_skipped": skipped,
             "genmat": gen_rows, "paritymat": par_rows}, lines,
            ("export", lambda: code_to_text(code)))


def _group_show(args, group):
    report = validate_group(group, level="fast")
    record = {"group": group.name, "n": group.n,
              "commutative": group.is_commutative, "labels": list(group.labels),
              "validation_ok": report.ok, "violations": list(report.violations)}
    lines = [f"group = {group.name}",
             f"n = {group.n}",
             f"commutative = {group.is_commutative}",
             f"labels = {' '.join(group.labels)}",
             f"validation (fast) = {'ok' if report.ok else 'FAILED'}",
             *report.violations]
    return record, lines, ("cayley", lambda: cayley_to_text(group))


# name -> (handler, help, default --side, extra flags).  A default side of
# None marks a command on the group alone: no --field, --side or elements,
# and its handler takes the group instead of the generators.
COMMANDS = {
    "dim": (_dim, "dimension of the ideal of the given generators", "left", _DIM_FLAGS),
    "bound": (functools.partial(_dim, method="charpoly-bound"),
              "charpoly dimension bounds for one generator", "left", ()),
    "idempotent": (_idempotent, "idempotent generator of the ideal of one generator",
                   "left", ()),
    "annihilator": (_annihilator, "basis of the annihilator of one element", "right", ()),
    "charpoly": (_charpoly, "characteristic polynomial of the representation matrix",
                 "left", ()),
    "code": (_code, "linear code of the ideal of the given generators", "left", _CODE_FLAGS),
    "group-show": (_group_show, "order, labels, and validation of a group", None, ()),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="groupalg",
        description="Dimensions, idempotents, and codes of group algebra ideals.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text, side, extra) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        flags = list(_GROUP_FLAGS)
        if side is not None:
            flags += [_FIELD_FLAG,
                      ("--side", dict(choices=("left", "right"), default=side,
                                      help=f"ideal side (default: {side})")),
                      *_ELEM_FLAGS]
        for flag, kwargs in [*flags, *extra, *_OUTPUT_FLAGS]:
            sp.add_argument(flag, **kwargs)
    sp = sub.add_parser("selftest", help="run the built-in fixture suite")
    sp.add_argument("--filter", metavar="SUBSTRING", default=None,
                    help="run only fixtures whose name contains SUBSTRING")
    sp.add_argument("--json", action="store_true")
    return p


def _run(args) -> int:
    """Resolve the context flags, run the command's handler, apply
    --dump-matrix, and print the record as JSON or as text lines."""
    started = time.perf_counter()
    handler, _, side, _ = COMMANDS[args.command]
    if side is None:
        record = {"command": args.command}
        fields, lines, dump = handler(args, _group(args))
    else:
        field = _flag("--field", parse_field_spec, args.field)
        group = _group(args)
        fields, more, dump = handler(args, _generators(args, field, group))
        spec = format_field_spec(field)
        record = {"command": args.command, "group": group.name, "n": group.n,
                  "field": spec, "side": args.side}
        lines = [f"group = {group.name} (n = {group.n})", f"field = {spec}",
                 f"side = {args.side}", *more]
    record.update(fields)
    if args.dump_matrix and dump is not None:
        key, text = dump[0], dump[1]()
        record[key] = text
        lines += [f"{key}:", text.rstrip("\n")]
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(*lines, sep="\n")
        print(f"elapsed = {time.perf_counter() - started:.3f}s")
    return 0


def _selftest(args) -> int:
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
        return _selftest(args) if args.command == "selftest" else _run(args)
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
