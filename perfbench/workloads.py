"""The three workloads: inputs from a seed, expected answers, and timed operations.

Each workload has two halves.  make_raw(seed, small) draws every input from
the seed with random.Random and works out the expected answers with the
independent code in refs.py; it never touches groupalg and is not timed.
setup(ga, raw) turns those plain inputs into groupalg objects (groups,
fields, elements, codes) and returns the list of operations; the benchmark
times it as set-up.  Every operation is one call into groupalg's public
API, with a check of its answer against raw.

Every workload runs every end-to-end operation, each on inputs at that
workload's scale, so each end-to-end metric is measured on each workload:
`large` on groups of order 512-1024, `sweep` on hundreds of groups of order
3-48, `codes` on the generators of codes with published parameters.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import refs as R

TRIALS = 3  # fixed trial count for dim_mulmuley_random


@dataclass
class Op:
    metric: str | None          # end-to-end metric its time adds to
    fn: object                  # () -> result
    check: object               # result -> bool
    small: bool = False         # counts toward small_ops_per_s
    reps: int = 1
    expect: int | None = None   # true dimension, for counting randomized misses
    argv: tuple | None = None   # CLI operations: the command line after the program


RANK_METRIC = {"gf:2": "rank_gf2_s", "gf:2^2": "rank_gfext_s", "gf:3^2": "rank_gfext_s",
               "gf:2^4": "rank_gfext_s"}


def rank_metric(fspec: str) -> str:
    return RANK_METRIC.get(fspec, "rank_gfp_s")


@functools.lru_cache(maxsize=None)
def ref_field(spec: str) -> R.RefField:
    size = spec.split(":")[1]
    p, m = (int(t) for t in size.split("^")) if "^" in size else (int(size), 1)
    return R.RefField(p, m)


@functools.lru_cache(maxsize=None)
def ref_group(spec: str) -> R.RefGroup:
    return R.RefGroup(spec)


def random_vec(F: R.RefField, n: int, rng):
    return np.array([rng.randrange(F.q) for _ in range(n)], dtype=np.int64)


def random_unit(F: R.RefField, G: R.RefGroup, rng):
    while True:
        v = random_vec(F, G.n, rng)
        if R.rank(F, R.rho(G, v)) == G.n:
            return v


def subgroup_sum(G: R.RefGroup, order: int, rng):
    """Sum of the elements of <t> for a random t of the given order."""
    out = np.zeros(G.n, dtype=np.int64)
    out[G.cyclic_subgroup(rng.choice(G.elements_of_order(order)))] = 1
    return out


def structured(F: R.RefField, G: R.RefGroup, order: int, kind: str, rng):
    """sum(<t>) v ("hat") or (1 - t) v ("diff") for t of the given order and a
    random unit v: left ideals of dimension n/order and n - n/order."""
    if kind == "hat":
        a = subgroup_sum(G, order, rng)
    else:
        a = np.zeros(G.n, dtype=np.int64)
        a[0], a[rng.choice(G.elements_of_order(order))] = 1, int(F.neg(1))
    return R.convolve(F, G, a, random_unit(F, G, rng))


def inline(f) -> str:
    """CLI inline element text: 1-based index:coeff pairs (prime fields)."""
    return ",".join(f"{i + 1}:{int(f[i])}" for i in np.nonzero(f)[0])


# -- checks --

def first_nonzero(coeffs) -> int:
    return next(i for i, c in enumerate(coeffs) if c)


def bound_ok(F, mat, n: int, dim: int, coeffs, k, lower, upper, exact, salt) -> bool:
    if not R.charpoly_ok(F, mat, coeffs, random.Random(salt)):
        return False
    kk = first_nonzero(coeffs)
    if k != kk:
        return False
    if kk == 0:
        return dim == n and lower == upper == n
    return (n - kk <= dim <= n - 1 and lower == n - kk and upper == n - 1
            and (not exact or dim == lower))


def check_bound(F, mat, dim: int, salt):
    n = mat.shape[0]
    return lambda b: bound_ok(F, mat, n, dim, b.charpoly.coeffs, b.k, b.lower,
                              b.upper, b.exact, salt)


def check_idempotent(mul, f, side: str, exists: bool, dim: int, dim_of):
    """mul(a, b) is the benchmark's own product; dim_of(e) its own dimension."""
    def check(e):
        if e is None:
            return not exists
        c = e.coeffs
        fixes = mul(f, c) if side == "left" else mul(c, f)
        return (exists and np.array_equal(mul(c, c), c) and np.array_equal(fixes, f)
                and dim_of(c) == dim)
    return check


def annihilator_ok(F, mat, dim: int, vectors) -> bool:
    """mat is the side matrix of f: v @ mat is the product that must vanish."""
    if len(vectors) + dim != mat.shape[0]:
        return False
    if not vectors:
        return True
    b = np.array(vectors, dtype=np.int64)
    return not F.mat_mul(b, mat).any() and R.rank(F, b) == len(vectors)


def check_annihilator(F, mat, dim: int):
    return lambda basis: annihilator_ok(F, mat, dim, [a.coeffs for a in basis])


def check_code(F, mat, k: int):
    """Generator in RREF with k rows; parity rows independent and orthogonal
    to both the generator rows and the rows spanning the ideal."""
    n = mat.shape[1]

    def check(code):
        g, p = code.genmat.data, code.paritymat.data
        if code.k != k or not R.is_rref(g, k) or p.shape != (n - k, n):
            return False
        if n == k:
            return True
        return (R.rank(F, p) == n - k and not F.mat_mul(g, p.T).any()
                and not F.mat_mul(mat, p.T).any())
    return check


def eq(value):
    return lambda r: r == value


def at_most(value):
    return lambda r: 0 <= r <= value


class Lib:
    """groupalg groups and fields of one set-up, each built once."""

    def __init__(self, ga):
        self.ga, self.groups, self.fields = ga, {}, {}

    def group(self, spec: str):
        if spec not in self.groups:
            self.groups[spec] = self.ga.make_group(spec)
        return self.groups[spec]

    def field(self, spec: str):
        if spec not in self.fields:
            self.fields[spec] = self.ga.parse_field_spec(spec)
        return self.fields[spec]

    def elem(self, gspec: str, fspec: str, coeffs):
        return self.ga.AlgebraElem(self.field(fspec), self.group(gspec), coeffs)


# -- the CLI as a subprocess --

def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_op(raw: dict, argv: tuple, check_record) -> Op:
    """One `python -m groupalg.cli ... --json` call; every call of the same
    command line in a run must print the same bytes."""
    env, root, seen = raw["cli_env"], raw["root"], raw["cli_seen"]

    def fn():
        return subprocess.run([sys.executable, "-m", "groupalg.cli", *argv], cwd=root,
                              env=env, capture_output=True, timeout=120)

    def check(proc):
        if proc.returncode != 0:
            return False
        first = seen.setdefault(argv, proc.stdout)
        return proc.stdout == first and check_record(json.loads(proc.stdout.decode()))
    return Op("cli_call_ms", fn, check, argv=argv)


# ---------------------------------------------------------------- large --

LARGE = {
    "full": dict(n2=1024, n=512, dih=256, prod=("symmetric:4", 32), mmr=96,
                 mmx=("cyclic:12", 3), md=(1024, 10)),
    "small": dict(n2=64, n=32, dih=16, prod=("symmetric:3", 8), mmr=8,
                  mmx=("cyclic:6", 3), md=(64, 4)),
}
# executions per round: each metric gathers about 3 s, spread over the round
LARGE_REPS = {"rank_gfext_s": 3, "idempotent_s": 2, "code_build_s": 4, "mulmuley_random_s": 5,
              "mulmuley_exact_s": 3, "min_distance_s": 12, "cli_call_ms": 4}


def _tensor(F, a, b):
    """Coefficients of a (x) b in product:A,B (index a + |A| * b)."""
    return F.mul(b[:, None], a[None, :]).ravel()


def large_raw(seed: int, small: bool) -> dict:
    c = LARGE["small" if small else "full"]
    rng = random.Random(f"large:{seed}")
    n, n2 = c["n"], c["n2"]
    raw = {"items": [], "reps": {} if small else LARGE_REPS}

    def cyc(fspec, size, dim):
        F = ref_field(fspec)
        return R.cyclic_element(F, size, dim, rng)

    def add(kind, metric, gspec, fspec, side, gens, dim, **extra):
        raw["items"].append(dict(kind=kind, metric=metric, g=gspec, fs=fspec, side=side,
                                 gens=gens, dim=dim, **extra))

    # rank on cyclic groups, dimensions spread over [0, n]
    for fspec, size, frac in (("gf:2", n2, 5 / 8), ("gf:5", n, 1), ("gf:2147483647", n, 3 / 8),
                              ("gf:2^2", n, 7 / 8), ("gf:3^2", n, 1 / 8)):
        f = cyc(fspec, size, int(size * frac))
        add("rank", rank_metric(fspec), f"cyclic:{size}", fspec, "left", [f],
            R.cyclic_dim(ref_field(fspec), f))

    # dihedral: f0 in the rotation subgroup times a unit u, so dim = 2 dim F[C]f0
    F3, m = ref_field("gf:3"), c["dih"]
    D = ref_group(f"dihedral:{m}")
    f0 = np.zeros(2 * m, dtype=np.int64)
    f0[:m] = R.cyclic_element(F3, m, 3 * m // 4, rng)
    v = np.zeros(2 * m, dtype=np.int64)
    v[:m] = R.cyclic_unit(F3, m, rng)
    one, s = np.zeros(2 * m, dtype=np.int64), np.zeros(2 * m, dtype=np.int64)
    one[0], s[m] = 1, 1
    nil = R.convolve(F3, D, R.convolve(F3, D, F3.add(one, s), random_vec(F3, 2 * m, rng)),
                     F3.sub(one, s))  # (1+s) y (1-s) squares to 0, as (1-s)(1+s) = 1 - s^2 = 0
    u = R.convolve(F3, D, v, F3.add(one, nil))
    add("rank", "rank_gfp_s", f"dihedral:{m}", "gf:3", "left", [R.convolve(F3, D, f0, u)],
        2 * R.cyclic_dim(F3, f0[:m]))

    # product groups: tensor elements, dim multiplies across the factors
    sym, cn = c["prod"]
    F5, S = ref_field("gf:5"), ref_group(sym)
    hat2, hat3 = subgroup_sum(S, 2, rng), subgroup_sum(S, 3, rng)
    a_left = R.convolve(F5, S, hat2, random_unit(F5, S, rng))
    a_right = R.convolve(F5, S, random_unit(F5, S, rng), hat3)
    b1, b2, b3 = (R.cyclic_element(F5, cn, cn * t // 8, rng) for t in (4, 5, 2))
    pspec = f"product:{sym},cyclic:{cn}"
    da = R.ideal_dim(F5, S, [a_left], "left")
    add("rank", "rank_gfp_s", pspec, "gf:5", "left", [_tensor(F5, a_left, b1)],
        da * R.cyclic_dim(F5, b1))
    add("rank", "rank_gfp_s", pspec, "gf:5", "right", [_tensor(F5, a_right, b2)],
        R.ideal_dim(F5, S, [a_right], "right") * R.cyclic_dim(F5, b2))
    g13 = R.cyclic_ideal_gcd(F5, [b1, b3], cn)
    add("rank", "rank_gfp_s", pspec, "gf:5", "left",
        [_tensor(F5, a_left, b1), _tensor(F5, a_left, b3)], da * (cn - (g13.size - 1)))

    # C_n over gf:5 with dim n/2: idempotent, code, annihilator, membership, CLI
    f = cyc("gf:5", n, n // 2)
    g = R.cyclic_ideal_gcd(F5, [f], n)
    h = R.ydiv(F5, R.xn_minus_1(F5, n), g)
    exists = R.pgcd(F5, g, h).size == 1
    x = random_vec(F5, n, rng)
    member = R.cyclic_mul(F5, x, f, n)
    add("idempotent", "idempotent_s", f"cyclic:{n}", "gf:5", "left", [f], n - (g.size - 1),
        exists=exists)
    add("code", "code_build_s", f"cyclic:{n}", "gf:5", "left", [f], n - (g.size - 1))
    add("annihilator", None, f"cyclic:{n}", "gf:5", "right", [f], n - (g.size - 1))
    add("membership", None, f"cyclic:{n}", "gf:5", "left", [f], n - (g.size - 1),
        h=member, expected=not R.pmod(F5, member, g).size)
    add("cli", None, f"cyclic:{n}", "gf:5", "left", [f], n - (g.size - 1))

    # charpoly bounds
    for fspec, frac in (("gf:2", 3 / 4), ("gf:5", 5 / 8)):
        f = cyc(fspec, n, int(n * frac))
        add("bound", "charpoly_s", f"cyclic:{n}", fspec, "left", [f],
            R.cyclic_dim(ref_field(fspec), f))

    # Mulmuley: randomized at order 96, exact at order 12
    mm, F2 = c["mmr"], ref_field("gf:2")
    f = np.zeros(mm, dtype=np.int64)
    f[0] = f[mm // 4] = 1  # y^(n/4) + 1 divides y^n - 1: dim 3n/4
    f = R.cyclic_mul(F2, f, R.cyclic_unit(F2, mm, rng), mm)
    add("mmr", "mulmuley_random_s", f"cyclic:{mm}", "gf:2", "left", [f],
        R.cyclic_dim(F2, f), seed=rng.randrange(1 << 30))
    gspec, order = c["mmx"]
    G = ref_group(gspec)
    f = structured(F5, G, order, "diff", rng)
    add("mmx", "mulmuley_exact_s", gspec, "gf:5", "left", [f],
        R.ideal_dim(F5, G, [f], "left"))

    # min distance of a long binary code of small dimension
    nd, kd = c["md"]
    f = R.cyclic_element(F2, nd, kd, rng)
    Gd = ref_group(f"cyclic:{nd}")
    add("distance", "min_distance_s", f"cyclic:{nd}", "gf:2", "left", [f], kd,
        d=R.min_weight(F2, R.ideal_basis(F2, Gd, [f], "left")))
    return raw


def large_setup(ga, raw) -> list:
    ops, lib = [], Lib(ga)
    for it in raw["items"]:
        reps = raw["reps"].get(it["metric"], 1)
        Fg, Gg = lib.field(it["fs"]), lib.group(it["g"])
        gens = tuple(ga.AlgebraElem(Fg, Gg, f) for f in it["gens"])
        spec = ga.IdealSpec(it["side"], gens)
        F, f, side, dim, kind = (ref_field(it["fs"]), it["gens"][0], it["side"], it["dim"],
                                 it["kind"])
        n = len(f)
        if kind == "rank":
            ops.append(Op(it["metric"], lambda s=spec: ga.dim_ideal(s), eq(dim), small=True,
                          reps=reps))
        elif kind == "bound":
            mat = R.side_matrix(ref_group(it["g"]), f, side)
            ops.append(Op("charpoly_s", lambda e=gens[0], s=side: ga.dim_bound_charpoly(e, s),
                          check_bound(F, mat, dim, it["g"]), small=True, reps=reps))
        elif kind == "idempotent":
            def cmul(a, b, F=F, n=n):
                return R.cyclic_mul(F, a, b, n)
            ops.append(Op("idempotent_s", lambda e=gens[0]: ga.idempotent_generator(e, "left"),
                          check_idempotent(cmul, f, "left", it["exists"], dim,
                                           lambda c, F=F: R.cyclic_dim(F, c)), small=True,
                          reps=reps))
        elif kind == "code":
            mat = R.side_matrix(ref_group(it["g"]), f, side)
            ops.append(Op("code_build_s", lambda s=spec: ga.build_code(s),
                          check_code(F, mat, dim), reps=reps))
        elif kind == "annihilator":
            mat = R.side_matrix(ref_group(it["g"]), f, side)
            ops.append(Op(None, lambda e=gens[0]: ga.annihilator_basis(e, "right"),
                          check_annihilator(F, mat, dim), small=True))
        elif kind == "membership":
            hm = ga.AlgebraElem(Fg, Gg, it["h"])
            ops.append(Op(None, lambda h=hm, s=spec: ga.ideal_membership(h, s),
                          eq(it["expected"]), small=True))
        elif kind == "cli":
            argv = ("dim", "--group", it["g"], "--field", it["fs"], "--elem", inline(f),
                    "--json")
            for _ in range(raw["reps"].get("cli_call_ms", 2)):
                ops.append(cli_op(raw, argv, lambda r, d=dim: r["dim"] == d))
        elif kind == "mmr":
            ops.append(Op("mulmuley_random_s",
                          lambda e=gens[0], sd=it["seed"]: ga.dim_mulmuley_random(
                              e, "left", trials=TRIALS, seed=sd),
                          at_most(dim), expect=dim, reps=reps))
        elif kind == "mmx":
            ops.append(Op("mulmuley_exact_s", lambda e=gens[0]: ga.dim_mulmuley_exact(e, "left"),
                          eq(dim), reps=reps))
        elif kind == "distance":
            code = ga.build_code(spec)
            ops.append(Op("min_distance_s", lambda cd=code: ga.min_distance(cd), eq(it["d"]),
                          reps=reps))
    return ops


# ---------------------------------------------------------------- sweep --

SWEEP_GROUPS = {
    "full": ([f"cyclic:{n}" for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21,
                                      24, 25, 27, 30, 32, 36, 40, 42, 45, 48)]
             + [f"dihedral:{n}" for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24)]
             + ["product:cyclic:2,cyclic:2", "symmetric:3", "symmetric:4",
                "product:cyclic:2,symmetric:3", "product:symmetric:3,cyclic:3",
                "product:cyclic:3,cyclic:3", "product:cyclic:2,dihedral:4",
                "product:cyclic:4,cyclic:4", "product:symmetric:3,symmetric:3"]),
    "small": ["cyclic:6", "dihedral:4", "product:cyclic:2,cyclic:2", "symmetric:3"],
}
SWEEP_FIELDS = ("gf:2", "gf:3", "gf:2^2", "gf:5", "gf:7")
# (group, field, order of t, kind): inputs of fixed dimension, see structured()
SWEEP_MMX = {
    "full": [("cyclic:6", "gf:2", 3, "hat"), ("cyclic:8", "gf:3", 2, "diff"),
             ("dihedral:4", "gf:5", 2, "hat"), ("symmetric:3", "gf:2^2", 3, "diff"),
             ("cyclic:10", "gf:7", 5, "hat"), ("dihedral:5", "gf:3", 2, "diff"),
             ("product:cyclic:2,cyclic:2", "gf:3", 2, "hat"), ("cyclic:12", "gf:2", 4, "diff"),
             ("symmetric:4", "gf:2", 2, "diff")],
    "small": [("cyclic:4", "gf:2", 2, "diff"), ("symmetric:3", "gf:2^2", 3, "hat")],
}
# (group, field, order of t): the left ideal of sum(<t>) * unit has k = n / order
SWEEP_CODES = {
    "full": [("cyclic:12", "gf:2", 2), ("symmetric:4", "gf:2", 3), ("dihedral:8", "gf:3", 4),
             ("cyclic:20", "gf:5", 5), ("product:cyclic:2,symmetric:3", "gf:7", 3),
             ("cyclic:16", "gf:2^2", 4), ("dihedral:12", "gf:2", 2)],
    "small": [("symmetric:3", "gf:2", 2), ("cyclic:6", "gf:3", 2)],
}
SWEEP_INSTANCES_PER_PAIR = 2
SWEEP_MMR_EVERY = 6
SWEEP_REPS = {"full": dict(rank=4, distance=5), "small": dict(rank=1, distance=1)}


def sweep_instance(F, G, rng, kind: int):
    """kind 0: random element; 1: (1 - t) r, a zero divisor; 2: sum(<t>) r."""
    n = G.n
    while True:
        r = random_vec(F, n, rng)
        if kind == 0:
            f = r
        else:
            t = rng.randrange(1, n)
            a = np.zeros(n, dtype=np.int64)
            if kind == 1:
                a[0], a[t] = 1, int(F.neg(1))
            else:
                a[G.cyclic_subgroup(t)] = 1
            f = R.convolve(F, G, a, r)
        if f.any():
            return f


def sweep_raw(seed: int, small: bool) -> dict:
    size = "small" if small else "full"
    rng = random.Random(f"sweep:{seed}")
    raw = {"instances": [], "mmx": [], "codes": [], "reps": SWEEP_REPS[size]}
    idx = 0
    for gspec in SWEEP_GROUPS[size]:
        G = ref_group(gspec)
        for fspec in SWEEP_FIELDS:
            F = ref_field(fspec)
            for _ in range(SWEEP_INSTANCES_PER_PAIR):
                side = ("left", "right")[idx % 2]
                f = sweep_instance(F, G, rng, idx % 3)
                mat = R.side_matrix(G, f, side)
                dim = R.rank(F, mat)
                if idx % 2:  # a member of the ideal, or (likely) not
                    x = random_vec(F, G.n, rng)
                    h = R.convolve(F, G, x, f) if side == "left" else R.convolve(F, G, f, x)
                else:
                    h = random_vec(F, G.n, rng)
                raw["instances"].append(dict(
                    g=gspec, fs=fspec, side=side, f=f, mat=mat, dim=dim, h=h,
                    member=R.rank(F, np.vstack([mat, h[None, :]])) == dim,
                    exists=R.idempotent_exists(F, G, f),
                    mmr=rng.randrange(1 << 30) if idx % SWEEP_MMR_EVERY == 0 else None))
                idx += 1
    for gspec, fspec, order, kind in SWEEP_MMX[size]:
        F, G = ref_field(fspec), ref_group(gspec)
        f = structured(F, G, order, kind, rng)
        raw["mmx"].append(dict(g=gspec, fs=fspec, f=f, dim=R.ideal_dim(F, G, [f], "left")))
    for gspec, fspec, order in SWEEP_CODES[size]:
        F, G = ref_field(fspec), ref_group(gspec)
        f = structured(F, G, order, "hat", rng)
        raw["codes"].append(dict(g=gspec, fs=fspec, f=f,
                                 d=R.min_weight(F, R.ideal_basis(F, G, [f], "left"))))
    raw["cli"] = sweep_cli_inputs(rng)
    return raw


def sweep_cli_inputs(rng) -> dict:
    """One input per CLI command, with its expected answers."""
    out = {}
    for cmd, gspec, fspec, side in (("dim", "symmetric:3", "gf:5", "left"),
                                    ("bound", "cyclic:12", "gf:3", "left"),
                                    ("idempotent", "dihedral:4", "gf:5", "left"),
                                    ("annihilator", "cyclic:10", "gf:2", "right"),
                                    ("charpoly", "dihedral:3", "gf:7", "left")):
        F, G = ref_field(fspec), ref_group(gspec)
        f = sweep_instance(F, G, rng, 1 if cmd == "annihilator" else 0)
        mat = R.side_matrix(G, f, side)
        out[cmd] = dict(g=gspec, fs=fspec, side=side, f=f, mat=mat, dim=R.rank(F, mat),
                        exists=R.idempotent_exists(F, G, f))
    # the binary cyclic [15, 11, 3] Hamming code from 1 + y + y^4, times a unit
    F2 = ref_field("gf:2")
    g = np.zeros(15, dtype=np.int64)
    g[[0, 1, 4]] = 1
    f = R.cyclic_mul(F2, g, R.cyclic_unit(F2, 15, rng), 15)
    out["code"] = dict(g="cyclic:15", fs="gf:2", f=f, k=11,
                       d=R.min_weight(F2, R.ideal_basis(F2, ref_group("cyclic:15"), [f], "left")))
    return out


def parse_pairs(n: int, pairs) -> np.ndarray:
    v = np.zeros(n, dtype=np.int64)
    for pair in pairs:
        i, c = pair.split(":")
        v[int(i) - 1] = int(c)
    return v


def sweep_cli_ops(raw) -> list:
    c = raw["cli"]
    ops = []

    def ctx(cmd):
        it = c[cmd]
        return (cmd, "--group", it["g"], "--field", it["fs"], "--side", it.get("side", "left"),
                "--elem", inline(it["f"]), "--json")

    d = c["dim"]
    ops.append((ctx("dim"), lambda r: r["dim"] == d["dim"]))
    b = c["bound"]
    Fb = ref_field(b["fs"])
    ops.append((ctx("bound"), lambda r: bound_ok(
        Fb, b["mat"], b["mat"].shape[0], b["dim"], [int(t) for t in r["charpoly"].split()],
        r["k"], r["lower"], r["upper"], r["exact"], "cli")))
    i = c["idempotent"]
    Fi, Gi = ref_field(i["fs"]), ref_group(i["g"])

    def idem(r):
        mul = lambda a, b: R.convolve(Fi, Gi, a, b)  # noqa: E731
        e = None if r["e"] is None else parse_pairs(Gi.n, r["e"])
        if e is None:
            return not i["exists"]
        dim_of = lambda v: R.rank(Fi, R.rho(Gi, v))  # noqa: E731
        return (np.array_equal(mul(e, e), e) and np.array_equal(mul(i["f"], e), i["f"])
                and dim_of(e) == i["dim"] and i["exists"])
    ops.append((ctx("idempotent"), idem))
    a = c["annihilator"]
    ops.append((ctx("annihilator"), lambda r: r["count"] == len(r["basis"]) and annihilator_ok(
        ref_field(a["fs"]), a["mat"], a["dim"],
        [parse_pairs(a["mat"].shape[0], p) for p in r["basis"]])))
    cp = c["charpoly"]
    Fc = ref_field(cp["fs"])
    ops.append((ctx("charpoly"), lambda r: R.charpoly_ok(
        Fc, cp["mat"], [int(t) for t in r["charpoly"].split()], random.Random("cli"))
        and r["k"] == first_nonzero([int(t) for t in r["charpoly"].split()])))
    cd = c["code"]
    ops.append((("code", "--group", cd["g"], "--field", cd["fs"], "--elem", inline(cd["f"]),
                 "--json"), lambda r: r["k"] == cd["k"] and r["d"] == cd["d"]))
    gs = "product:symmetric:3,cyclic:2"
    G = ref_group(gs)
    ops.append((("group-show", "--group", gs, "--json"),
                lambda r: r["n"] == G.n and r["commutative"] == G.commutative
                and r["validation_ok"]))
    ops.append((("selftest", "--json"), lambda r: r["failed"] == 0 and r["passed"] > 0))
    return [cli_op(raw, argv, chk) for argv, chk in ops for _ in range(2)]


def sweep_setup(ga, raw) -> list:
    ops, lib = [], Lib(ga)
    for it in raw["instances"]:
        F, G = ref_field(it["fs"]), ref_group(it["g"])
        f, side, dim, mat = it["f"], it["side"], it["dim"], it["mat"]
        e = lib.elem(it["g"], it["fs"], f)
        spec = ga.IdealSpec(side, (e,))
        h = lib.elem(it["g"], it["fs"], it["h"])
        ops += [
            Op(rank_metric(it["fs"]), lambda s=spec: ga.dim_ideal(s), eq(dim), small=True,
               reps=raw["reps"]["rank"]),
            Op("charpoly_s", lambda e=e, sd=side: ga.dim_bound_charpoly(e, sd),
               check_bound(F, mat, dim, it["g"]), small=True),
            Op("idempotent_s", lambda e=e, sd=side: ga.idempotent_generator(e, sd),
               check_idempotent(lambda a, b, F=F, G=G: R.convolve(F, G, a, b), f, side,
                                it["exists"], dim,
                                lambda c, F=F, G=G, sd=side: R.rank(F, R.side_matrix(G, c, sd))),
               small=True),
            Op(None, lambda e=e, sd=side: ga.annihilator_basis(e, sd),
               check_annihilator(F, mat, dim), small=True),
            Op(None, lambda h=h, s=spec: ga.ideal_membership(h, s), eq(it["member"]),
               small=True),
            Op("code_build_s", lambda s=spec: ga.build_code(s), check_code(F, mat, dim)),
        ]
        if it["mmr"] is not None:
            ops.append(Op("mulmuley_random_s",
                          lambda e=e, sd=side, r=it["mmr"]: ga.dim_mulmuley_random(
                              e, sd, trials=TRIALS, seed=r),
                          at_most(dim), expect=dim))
    for it in raw["mmx"]:
        e = lib.elem(it["g"], it["fs"], it["f"])
        ops.append(Op("mulmuley_exact_s", lambda e=e: ga.dim_mulmuley_exact(e, "left"),
                      eq(it["dim"])))
    for it in raw["codes"]:
        code = ga.build_code(ga.IdealSpec("left", (lib.elem(it["g"], it["fs"], it["f"]),)))
        ops.append(Op("min_distance_s", lambda cd=code: ga.min_distance(cd), eq(it["d"]),
                      reps=raw["reps"]["distance"]))
    return ops + sweep_cli_ops(raw)


# ---------------------------------------------------------------- codes --

def _poly(n: int, exps) -> np.ndarray:
    v = np.zeros(n, dtype=np.int64)
    v[list(exps)] = 1
    return v


def reed_solomon(F: R.RefField, start: int, k: int) -> np.ndarray:
    """prod_{i=start}^{start+14-k} (y - a^i) over GF(16), a = x of order 15:
    a [15, k, 16 - k] Reed-Solomon code."""
    g = np.array([1], dtype=np.int64)
    a_i = 1
    for _ in range(start):
        a_i = int(F.mul(a_i, 2))
    for _ in range(15 - k):
        g = R.pmul(F, g, np.array([int(F.neg(a_i)), 1], dtype=np.int64))
        a_i = int(F.mul(a_i, 2))
    out = np.zeros(15, dtype=np.int64)
    out[:g.size] = g
    return out


# The small queries run on several generators u*f of each code (u a unit:
# the same left ideal), each repeated, so that each adds up to a steady time
# and no single input's pivot pattern sets it.
CODES_VARIANTS = {"full": 8, "small": 1}
CODES_REPS = {"full": 5, "small": 1}
CODES_RANK_REPS = {"full": {"gf:2": 12, "gf:3": 120, "gf:2^4": 50}, "small": {}}


def codes_raw(seed: int, small: bool) -> dict:
    """Cyclic codes with published [n, k, d], times a random unit (the same
    code), plus left ideals of F_2[S_4] and F_2[D_12] checked by enumeration."""
    rng = random.Random(f"codes:{seed}")
    F2, F3, F16 = ref_field("gf:2"), ref_field("gf:3"), ref_field("gf:2^4")
    m1, m3, m5 = ([1, 0, 1, 0, 0, 1], [1, 0, 1, 1, 1, 1], [1, 1, 1, 0, 1, 1])
    bch = R.pmul(F2, R.pmul(F2, m1, m3), m5)
    published = [  # name, group, field, generator polynomial, k, d
        ("hamming", "cyclic:7", "gf:2", _poly(7, (0, 1, 3)), 4, 3),
        ("qr17", "cyclic:17", "gf:2", _poly(17, (0, 3, 4, 5, 8)), 9, 5),
        ("golay23", "cyclic:23", "gf:2", _poly(23, (0, 2, 4, 5, 6, 10, 11)), 12, 7),
        ("bch31", "cyclic:31", "gf:2", np.concatenate([bch, np.zeros(31 - bch.size, np.int64)]),
         16, 7),
        ("golay11", "cyclic:11", "gf:3", np.array([2, 0, 1, 2, 1, 1, 0, 0, 0, 0, 0]), 6, 5),
    ]
    rs_k = 2 if small else 5
    published.append(("rs15", "cyclic:15", "gf:2^4", reed_solomon(F16, rng.randrange(15), rs_k),
                      rs_k, 16 - rs_k))
    if small:
        published = [published[i] for i in (0, 4, 5)]
    size = "small" if small else "full"
    raw = {"codes": [], "reps": CODES_REPS[size], "rank_reps": CODES_RANK_REPS[size],
           "cli_code": "hamming" if small else "golay23"}
    variants = CODES_VARIANTS[size]
    for name, gspec, fspec, g, k, d in published:
        F, n = ref_field(fspec), int(gspec.split(":")[1])
        if R.cyclic_dim(F, g) != k:
            raise AssertionError(f"{name}: generator does not give k = {k}")
        f = R.cyclic_mul(F, g, R.cyclic_unit(F, n, rng), n)
        raw["codes"].append(dict(name=name, g=gspec, fs=fspec, f=f, k=k, d=d))
    for name, gspec, order in (("s4", "symmetric:4", 2), ("d12", "dihedral:12", 3))[
            :1 if small else 2]:
        G = ref_group(gspec)
        f = structured(F2, G, order, "hat", rng)
        raw["codes"].append(dict(name=name, g=gspec, fs="gf:2", f=f, k=G.n // order,
                                 d=R.min_weight(F2, R.ideal_basis(F2, G, [f], "left"))))
    for it in raw["codes"]:
        F, G = ref_field(it["fs"]), ref_group(it["g"])
        it["variants"] = []
        for _ in range(variants):
            f = R.convolve(F, G, random_unit(F, G, rng), it["f"])
            mat = R.rho(G, f)
            if R.rank(F, mat) != it["k"]:
                raise AssertionError(f"{it['name']}: ideal does not have k = {it['k']}")
            it["variants"].append(dict(f=f, mat=mat, exists=R.idempotent_exists(F, G, f),
                                       h=R.convolve(F, G, random_vec(F, G.n, rng), f)))
        it["mmr"] = rng.randrange(1 << 30)
    return raw


def codes_setup(ga, raw) -> list:
    ops, lib, reps = [], Lib(ga), raw["reps"]
    for it in raw["codes"]:
        F, G, k = ref_field(it["fs"]), ref_group(it["g"]), it["k"]
        e = lib.elem(it["g"], it["fs"], it["f"])
        code = ga.build_code(ga.IdealSpec("left", (e,)))
        ops += [
            Op("min_distance_s", lambda cd=code: ga.min_distance(cd), eq(it["d"])),
            Op("mulmuley_random_s", lambda e=e, r=it["mmr"]: ga.dim_mulmuley_random(
                e, "left", trials=TRIALS, seed=r), at_most(k), expect=k),
        ]
        if it["name"] in ("hamming", "golay11"):
            ops.append(Op("mulmuley_exact_s", lambda e=e: ga.dim_mulmuley_exact(e, "left"), eq(k)))
        for v in it["variants"]:
            f, mat = v["f"], v["mat"]
            e = lib.elem(it["g"], it["fs"], f)
            spec = ga.IdealSpec("left", (e,))
            h = lib.elem(it["g"], it["fs"], v["h"])
            ops += [
                Op("code_build_s", lambda s=spec: ga.build_code(s), check_code(F, mat, k),
                   reps=reps),
                Op(rank_metric(it["fs"]), lambda s=spec: ga.dim_ideal(s), eq(k), small=True,
                   reps=raw["rank_reps"].get(it["fs"], 1)),
                Op("charpoly_s", lambda e=e: ga.dim_bound_charpoly(e, "left"),
                   check_bound(F, mat, k, it["name"]), small=True, reps=reps),
                Op("idempotent_s", lambda e=e: ga.idempotent_generator(e, "left"),
                   check_idempotent(lambda a, b, F=F, G=G: R.convolve(F, G, a, b), f, "left",
                                    v["exists"], k, lambda c, F=F, G=G: R.rank(F, R.rho(G, c))),
                   small=True, reps=reps),
                Op(None, lambda e=e: ga.annihilator_basis(e, "left"),
                   check_annihilator(F, mat, k), small=True, reps=reps),
                Op(None, lambda h=h, s=spec: ga.ideal_membership(h, s), eq(True), small=True,
                   reps=reps),
            ]
    c = next(it for it in raw["codes"] if it["name"] == raw["cli_code"])
    argv = ("code", "--group", c["g"], "--field", c["fs"], "--elem", inline(c["f"]), "--json")
    ops += [cli_op(raw, argv, lambda r: r["k"] == c["k"] and r["d"] == c["d"])
            for _ in range(2)]
    return ops


WORKLOADS = {
    "large": (large_raw, large_setup),
    "sweep": (sweep_raw, sweep_setup),
    "codes": (codes_raw, codes_setup),
}
