"""Seeded input generators whose answers are known by construction.

Everything here is plain Python data (ints, lists, dicts) and imports
nothing from the package under test, so a change to the package or to
its test helpers cannot move the workloads.

A complex spec is ``{"sort": tag, "ranks": {n: r}, "d": {n: rows}}``
where ``rows`` is the dense integer matrix of d_n : C_n -> C_{n-1}
(``ranks[n-1]`` rows, ``ranks[n]`` columns). A cube spec is
``{"labels": (1..n), "vertices": {subset: complex spec},
"edges": {(a, b): {n: rows}}}`` over the full subset poset, with one
edge per covering pair whose endpoints are both nonzero.

Homology is recorded as ``{n: (free_rank, (cyclic orders...))}``;
``invariants`` turns it into invariant-factor form, optionally
projected to a prime set.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

# --- integer matrices ----------------------------------------------------------


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def matmul(a, b, inner):
    """a (r x inner) times b (inner x c); ``inner`` covers empty shapes."""
    cols = len(b[0]) if b else 0
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        for k in range(inner):
            x = row[k]
            if x:
                bk = b[k]
                orow = out[i]
                for j in range(cols):
                    if bk[j]:
                        orow[j] += x * bk[j]
    return out


def max_abs(rows):
    return max((abs(v) for row in rows for v in row), default=0)


def unimodular_pair(rng, n, ops):
    """(U, U^-1): a signed permutation followed by ``ops`` elementary moves."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    u = zeros(n, n)
    uinv = zeros(n, n)
    for i in range(n):
        u[perm[i]][i] = signs[i]
        uinv[i][perm[i]] = signs[i]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        # left-multiply U by (I + c e_ij): row_i += c row_j
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        # right-multiply U^-1 by (I - c e_ij): col_j -= c col_i
        for row in uinv:
            row[j] -= c * row[i]
    return u, uinv


# --- abelian invariants -----------------------------------------------------------


def _factor(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders, primes=None):
    """Cyclic orders to the divisibility chain d1 | d2 | ..., all >= 2.

    With ``primes`` given, only the parts at those primes survive, which
    is the homology over the P-local integers.
    """
    powers = {}
    for k in orders:
        for p, e in _factor(abs(k)).items():
            if primes is None or p in primes:
                powers.setdefault(p, []).append(p ** e)
    chain = []
    for p, qs in powers.items():
        qs.sort(reverse=True)
        for i, q in enumerate(qs):
            if i == len(chain):
                chain.append(1)
            chain[i] *= q
    return tuple(sorted(chain))


def invariants(hom, primes=None):
    """{n: (free, orders)} -> {n: (free, chain)} with trivial degrees dropped."""
    out = {}
    for n, (free, orders) in sorted(hom.items()):
        chain = invariant_factors(orders, primes)
        if free or chain:
            out[n] = (free, chain)
    return out


def shift_homology(hom, k):
    """Homology of the shift by k: H_n(shift(x, k)) = H_{n-k}(x)."""
    return {n + k: h for n, h in hom.items()}


def residue_defects(inv, p):
    """Dimensions of H_n(x; F_p) from P-local invariants, by universal coefficients."""
    dims = {}
    for n, (free, chain) in inv.items():
        t = sum(1 for d in chain if d % p == 0)
        dims[n] = dims.get(n, 0) + free + t
        dims[n + 1] = dims.get(n + 1, 0) + t
    return tuple((n, d) for n, d in sorted(dims.items()) if d)


# --- complexes ------------------------------------------------------------------


def assemble(pieces, sort="Z"):
    """Block-diagonal complex from sphere and Moore pieces.

    ("S", n) is Z in degree n. ("M", k, n) is Z --k--> Z from degree n+1
    to n; it contributes Z/|k| to H_n, or nothing when |k| = 1.
    """
    ranks = {}
    for pc in pieces:
        n = pc[-1]
        ranks[n] = ranks.get(n, 0) + 1
        if pc[0] == "M":
            ranks[n + 1] = ranks.get(n + 1, 0) + 1
    pos = {n: 0 for n in ranks}
    d = {}
    hom = {}
    for pc in pieces:
        n = pc[-1]
        if pc[0] == "S":
            pos[n] += 1
            free, orders = hom.get(n, (0, ()))
            hom[n] = (free + 1, orders)
            continue
        k = pc[1]
        bot, top = pos[n], pos[n + 1]
        pos[n] += 1
        pos[n + 1] += 1
        m = d.setdefault(n + 1, zeros(ranks[n], ranks[n + 1]))
        m[bot][top] = k
        if abs(k) > 1:
            free, orders = hom.get(n, (0, ()))
            hom[n] = (free, orders + (abs(k),))
    return {"sort": sort, "ranks": ranks, "d": d}, hom


def change_basis(spec, bases):
    """d'_n = U_{n-1} d_n U_n^-1 for bases {n: (U, U^-1)}."""
    d = {}
    for n, m in spec["d"].items():
        u_lo = bases[n - 1][0]
        uinv_hi = bases[n][1]
        d[n] = matmul(matmul(u_lo, m, len(m)), uinv_hi, len(uinv_hi))
    return {"sort": spec["sort"], "ranks": dict(spec["ranks"]), "d": d}


def scramble(rng, spec, bound=None, ops=2):
    """Seeded unimodular change of basis in every degree.

    With a bound, fewer elementary moves are tried until every entry
    fits; a signed permutation alone always fits.
    """
    for k in range(ops, -1, -1):
        bases = {n: unimodular_pair(rng, r, k) for n, r in spec["ranks"].items()}
        out = change_basis(spec, bases)
        if bound is None or all(max_abs(m) <= bound for m in out["d"].values()):
            return out
    raise AssertionError("a signed permutation always respects the bound")


def signed(rng, lo=2, hi=9):
    return rng.choice((1, -1)) * rng.randint(lo, hi)


def verify_complex(rng, m):
    """Criterion-1 shape: raw Z, degrees 0..4, ranks <= 6, entries <= 9.

    Spheres in degrees m and m+1 and a Moore piece on degree m, mixed by
    the change of basis. Callers cycle m through 0..3 over the inputs,
    so the mix of shapes, and with it the cost, is the same for every
    seed.
    """
    spec, hom = assemble([("S", m), ("S", m + 1), ("M", signed(rng), m)], "Z")
    return scramble(rng, spec, bound=9), hom


def small_complex(rng, sort, moore, sphere=None):
    """A Moore piece on degree ``moore`` plus, optionally, a sphere."""
    pieces = [("M", signed(rng), moore)]
    if sphere is not None:
        pieces.append(("S", sphere))
    spec, hom = assemble(pieces, sort)
    return scramble(rng, spec, bound=9), hom


def zero_complex(sort):
    return {"sort": sort, "ranks": {}, "d": {}}


def direct_sum(a, b):
    ranks = {n: a["ranks"].get(n, 0) + b["ranks"].get(n, 0)
             for n in set(a["ranks"]) | set(b["ranks"])}
    d = {}
    for n in set(a["d"]) | set(b["d"]):
        m = zeros(ranks.get(n - 1, 0), ranks.get(n, 0))
        for part, ro, co in ((a, 0, 0),
                             (b, a["ranks"].get(n - 1, 0), a["ranks"].get(n, 0))):
            for i, row in enumerate(part["d"].get(n, ())):
                for j, v in enumerate(row):
                    m[ro + i][co + j] = v
        d[n] = m
    return {"sort": a["sort"], "ranks": ranks, "d": d}


# --- cubes ----------------------------------------------------------------------


def subsets(labels):
    return [c for k in range(len(labels) + 1) for c in combinations(labels, k)]


def covering_pairs(labels):
    return [(s, tuple(sorted(s + (t,)))) for s in subsets(labels)
            for t in labels if t not in s]


def _scaled_identity(ranks, k):
    return {n: [[k * int(i == j) for j in range(r)] for i in range(r)]
            for n, r in ranks.items()}


def upset_cube(labels, corner, x):
    """x at every vertex containing ``corner``, zero elsewhere, identity edges.

    Constant in every direction outside the corner, so Cartesian unless
    the corner is the whole label set; then the total fiber is the shift
    of x down by the cube dimension.
    """
    zero = zero_complex(x["sort"])
    verts = {s: (x if set(corner) <= set(s) else zero) for s in subsets(labels)}
    edges = {(a, b): _scaled_identity(x["ranks"], 1)
             for (a, b) in covering_pairs(labels) if set(corner) <= set(a)}
    return {"labels": tuple(labels), "vertices": verts, "edges": edges}


def scalar_cube(labels, x, scalars):
    """x at every vertex; the edges in direction t multiply by scalars[t]."""
    verts = {s: x for s in subsets(labels)}
    edges = {}
    for (a, b) in covering_pairs(labels):
        (t,) = set(b) - set(a)
        edges[(a, b)] = _scaled_identity(x["ranks"], scalars[t])
    return {"labels": tuple(labels), "vertices": verts, "edges": edges}


def cube_sum(c1, c2):
    verts = {s: direct_sum(c1["vertices"][s], c2["vertices"][s])
             for s in c1["vertices"]}
    edges = {}
    for key in set(c1["edges"]) | set(c2["edges"]):
        a, b = key
        va1, vb1 = c1["vertices"][a]["ranks"], c1["vertices"][b]["ranks"]
        comps = {}
        for n in set(verts[a]["ranks"]) & set(verts[b]["ranks"]):
            m = zeros(verts[b]["ranks"][n], verts[a]["ranks"][n])
            for part, ro, co in ((c1["edges"].get(key, {}), 0, 0),
                                 (c2["edges"].get(key, {}),
                                  vb1.get(n, 0), va1.get(n, 0))):
                for i, row in enumerate(part.get(n, ())):
                    for j, v in enumerate(row):
                        m[ro + i][co + j] = v
            if max_abs(m):
                comps[n] = m
        if comps:
            edges[key] = comps
    return {"labels": c1["labels"], "vertices": verts, "edges": edges}


def conjugate_cube(rng, cube, ops=1):
    """Change basis at every vertex by a seeded unimodular matrix per degree."""
    bases = {s: {n: unimodular_pair(rng, r, ops) for n, r in v["ranks"].items()}
             for s, v in cube["vertices"].items()}
    verts = {s: change_basis(v, bases[s]) for s, v in cube["vertices"].items()}
    edges = {}
    for (a, b), comps in cube["edges"].items():
        edges[(a, b)] = {
            n: matmul(matmul(bases[b][n][0], m, len(m)), bases[a][n][1],
                      len(bases[a][n][1]))
            for n, m in comps.items()}
    return {"labels": cube["labels"], "vertices": verts, "edges": edges}


# --- matrices for snf -----------------------------------------------------------


def snf_matrix(rng, n=6):
    """U * D * V with D a chosen divisibility chain; returns (rows, diagonal).

    The diagonal is 1, 1, 2, 2a, 2ab, 0 padded or cut to n entries.
    """
    a, b = rng.choice((2, 3)), rng.choice((2, 3, 5))
    diag = ([1, 1, 2, 2 * a, 2 * a * b] + [0] * n)[:n]
    dmat = zeros(n, n)
    for i, v in enumerate(diag):
        dmat[i][i] = v
    u, _ = unimodular_pair(rng, n, 3)
    v, _ = unimodular_pair(rng, n, 3)
    return matmul(matmul(u, dmat, n), v, n), diag


# --- digests ----------------------------------------------------------------------


def _plain(obj):
    if isinstance(obj, dict):
        return [[_plain(k), _plain(v)] for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering of plain generated data."""
    text = json.dumps(_plain(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rng_for(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")
