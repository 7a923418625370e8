"""The four workloads: seeded inputs, the timed operations, and their checks.

A workload is set up from a seed, then hands out blocks of operations.
Every block holds the same mix of operation classes, and block i uses
input i modulo the cycle, so a run made of whole cycles always measures
the same inputs in the same proportions. Each operation calls the
package through module attributes, so the traced run sees the calls,
and comes with a check against the answer known from the generator. A check returns None when the answer is right, otherwise a
short description of the mismatch.
"""

from __future__ import annotations

import io
import json
import os
from collections import namedtuple

import gen
import convert

from fracturecube import cli, cube_categories, fracture, holim, serialize, sorted_complex

P_LOCAL = (2, 3)
VERIFY_PRIMES = ((2,), (2, 3), (2, 3, 5), (2, 3, 5, 7), (2, 3, 5, 7, 11))
CUBE3 = (1, 2, 3)


# cls names the operation class; run() does the timed work; check(result)
# returns None for the known answer, else a description of the mismatch
Op = namedtuple("Op", "cls run check")


def _inv_plain(hom):
    return {n: (inv.free_rank, tuple(inv.torsion)) for n, inv in hom.items()}


def _diff(label, got, want):
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


class Workload:
    name = ""
    pool = 1          # blocks of distinct inputs
    cycle = 1         # blocks before the inputs of a block repeat
    trace_blocks = 1  # blocks measured by a traced run

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.bytes_in = 0
        self.bytes_out = 0

    def rng(self, stream):
        return gen.rng_for(self.name, self.seed, stream)

    def setup(self):
        """Generate every input; returns the plain data the digest covers."""
        raise NotImplementedError

    def block(self, i: int) -> list:
        raise NotImplementedError


# --- verify ------------------------------------------------------------------------


class Verify(Workload):
    """verify_fracture on raw-Z complexes, one op per prime set in each block."""

    name = "verify"
    pool = cycle = 16
    trace_blocks = 2

    def setup(self):
        rng = self.rng("complexes")
        specs = [gen.verify_complex(rng, j % 4) for j in range(self.pool)]
        self.inputs = [(convert.complex_obj(spec), hom) for spec, hom in specs]
        return specs

    def block(self, i):
        x, hom = self.inputs[i % self.pool]
        return [self._op(x, hom, primes) for primes in VERIFY_PRIMES]

    @staticmethod
    def _op(x, hom, primes):
        want = gen.invariants(hom, primes)

        def run():
            return fracture.verify_fracture(x, fracture.LocalizationFamily(primes))

        def check(rep):
            if not rep.verdict:
                return f"|P|={len(primes)}: verdict fail"
            return _diff("limit homology", _inv_plain(rep.limit_homology), want)

        return Op(f"P{len(primes)}", run, check)


# --- tfib --------------------------------------------------------------------------


# the two scaled directions that are not units, cycled over inputs; with
# the unit direction at +-1 every scalar stays within |k| <= 3
NONUNIT = ((2, 3), (2, 2), (3, 2), (3, 3))


def tfib_cube(rng, j, wide=False):
    """A top-only piece carrying x plus a Cartesian scalar piece y, conjugated.

    Criterion-3 shape: degrees 0..2, scalars within |k| <= 3, and signed
    permutations as the change of basis at each vertex. The scalar piece
    has a unit direction, so it is Cartesian over the P-local integers
    and the total fiber is the shift of x down by 3.
    The initial vertex is y alone, so the homotopy limit has y's homology.
    y is a sphere, or with ``wide`` a Moore piece on two degrees. Degrees
    cycle with the input index j. Returns (cube, H(x), H(y)).
    """
    x, hx = gen.small_complex(rng, "ZlocP", j % 2, j % 3)
    if wide:
        y, hy = gen.small_complex(rng, "ZlocP", j // 2 % 2)
    else:
        y, hy = gen.assemble([("S", j // 2 % 3)], "ZlocP")
    unit = rng.choice(CUBE3)
    rest = [t for t in CUBE3 if t != unit]
    scalars = {unit: rng.choice((1, -1))}
    for t, k in zip(rest, NONUNIT[j % len(NONUNIT)]):
        scalars[t] = rng.choice((1, -1)) * k
    cube = gen.cube_sum(gen.upset_cube(CUBE3, CUBE3, x),
                        gen.scalar_cube(CUBE3, y, scalars))
    return gen.conjugate_cube(rng, cube, ops=0), hx, hy


class Tfib(Workload):
    """total_fiber and the 8 iterated total fibers of a 3-cube, with homology.

    Each block holds three cubes with a sphere as the Cartesian piece and
    one wide cube, so the 90th percentile sits inside the wide class
    rather than in the tail of a single one.
    """

    name = "tfib"
    pool = cycle = 16
    trace_blocks = 2

    def setup(self):
        rng = self.rng("cubes")
        specs = [tfib_cube(rng, j, wide=j % 4 == 3) for j in range(4 * self.pool)]
        self.inputs = [(convert.cube_obj(spec), hom) for spec, hom, _ in specs]
        return specs

    def block(self, i):
        base = 4 * (i % self.pool)
        return [self._op(*self.inputs[base + j], "wide" if j == 3 else "narrow")
                for j in range(4)]

    @staticmethod
    def _op(d, hom, cls):
        want = gen.invariants(gen.shift_homology(hom, -3), P_LOCAL)

        def run():
            direct = sorted_complex.homology_p_local(holim.total_fiber(d), P_LOCAL)
            iterated = [sorted_complex.homology_p_local(
                holim.total_fiber_iterated(d, tp), P_LOCAL)
                for tp in gen.subsets(CUBE3)]
            return direct, iterated

        def check(result):
            direct, iterated = result
            for tp, h in zip(gen.subsets(CUBE3), iterated):
                if h != direct:
                    return f"iterated total fiber over {tp} disagrees"
            return _diff("total fiber homology", _inv_plain(direct), want)

        return Op(cls, run, check)


# --- refute ------------------------------------------------------------------------


def _failing(rep):
    return {(c.kind, c.prime): c.defects for c in rep.checks if not c.passed}


def top_only_case(rng, n, m):
    """x with free classes at the top vertex only; tfib is x shifted down by n."""
    spec, hom = gen.assemble([("S", m), ("S", m + 1), ("M", gen.signed(rng), m)], "ZlocP")
    spec = gen.scramble(rng, spec, bound=9)
    inv = gen.invariants(gen.shift_homology(hom, -n), P_LOCAL)
    want = {("mod-p", p): gen.residue_defects(inv, p) for p in P_LOCAL}
    want[("rational", None)] = tuple((k, free) for k, (free, _) in inv.items() if free)
    labels = tuple(range(1, n + 1))
    return gen.upset_cube(labels, labels, spec), want


def scaled_case(rng, scalars, j):
    """x at every vertex, direction t scaled by scalars[t].

    Non-Cartesian exactly when some p in P divides every scalar (x has a
    free class, so H(x) at p is never zero); only that mod-p residue fails.
    """
    spec, _ = gen.small_complex(rng, "ZlocP", j % 2, j % 3)
    cube = gen.conjugate_cube(rng, gen.scalar_cube(CUBE3, spec, scalars))
    bad = [p for p in P_LOCAL if all(k % p == 0 for k in scalars.values())]
    return cube, {("mod-p", p): None for p in bad}


# scalars with no prime of P dividing all three: Cartesian controls
CONTROLS = ((2, 3, 2), (3, 2, 3), (6, 2, 3), (5, 7, 1), (1, 5, 6), (4, 9, 5))


class Refute(Workload):
    """is_acyclic(total_fiber(d)) on cubes that are mostly not Cartesian."""

    name = "refute"
    pool = cycle = 12
    trace_blocks = 4

    def setup(self):
        rng = self.rng("cubes")
        cases = []
        for j in range(self.pool):
            control = dict(zip(CUBE3, CONTROLS[j % len(CONTROLS)]))
            cases.append([
                ("top3", top_only_case(rng, 3, j % 2)),
                ("top4", top_only_case(rng, 4, j // 2 % 2)),
                ("const2", scaled_case(rng, {t: 2 for t in CUBE3}, j)),
                ("const3", scaled_case(rng, {t: 3 for t in CUBE3}, j + 1)),
                ("control", scaled_case(rng, control, j + 2)),
            ])
        self.inputs = [[(cls, convert.cube_obj(spec), want)
                        for cls, (spec, want) in row] for row in cases]
        return cases

    def block(self, i):
        return [self._op(*case) for case in self.inputs[i % self.pool]]

    @staticmethod
    def _op(cls, d, want):
        def run():
            return sorted_complex.is_acyclic(holim.total_fiber(d), P_LOCAL)

        def check(rep):
            got = _failing(rep)
            if rep.acyclic != (not want):
                return f"{cls}: verdict {rep.acyclic}, failing {sorted(got, key=str)}"
            if set(got) != set(want):
                return _diff(f"{cls} failing residues", sorted(got, key=str),
                             sorted(want, key=str))
            for key, defects in want.items():
                if defects is not None and got[key] != defects:
                    return _diff(f"{cls} {key} defects", got[key], defects)
            return None

        return Op(cls, run, check)


# --- docs --------------------------------------------------------------------------


DOC_PRIMES = "2,3,5"


class Docs(Workload):
    """In-process command line runs on documents written during set-up."""

    name = "docs"
    pool = 3
    cycle = 12  # documents cycle with i % 3, check-initial's --t with i % 4
    trace_blocks = 2

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write(self, name, doc):
        convert.write_doc(self.path(name), doc)

    def setup(self):
        rng = self.rng("documents")
        plain = []
        self.expect = []
        for k in range(self.pool):
            x, hx = gen.verify_complex(rng, k % 4)
            self.write(f"x{k}.json", convert.envelope("complex", convert.complex_json(x)))
            cube, hc, h0 = tfib_cube(rng, k)
            self.write(f"cube{k}.json", convert.envelope("diagram", convert.cube_json(cube)))
            m, diag = gen.snf_matrix(rng)
            self.write(f"m{k}.json", convert.envelope("matrix", convert.matrix_json(m)))
            small, _ = gen.small_complex(rng, "Z", k % 2, k % 3)
            fam = fracture.LocalizationFamily(P_LOCAL)
            g = cube_categories.fracture_diagram(
                fracture.e_localize(convert.complex_obj(small), fam), fam)
            self.write(f"g{k}.json", serialize.wrap("fracture-object", g))
            with open(self.path(f"g{k}.json"), encoding="utf-8") as fh:
                g_text = fh.read()
            self.expect.append({
                "verify": gen.invariants(hx, (2, 3, 5)),
                "homology": gen.invariants(hx),
                "tfib": gen.invariants(gen.shift_homology(hc, -3), P_LOCAL),
                "holim": gen.invariants(h0, P_LOCAL),
                "snf": diag,
                "g_text": g_text,
            })
            plain.append([x, cube, m, small])
        bad = convert.envelope("complex", convert.complex_json(x))
        bad["payload"]["extra"] = [rng.randint(0, 9)]
        self.write("bad_schema.json", bad)
        x7 = {"sort": "ZlocP", "ranks": {0: 1}, "d": {}}
        labels7 = tuple(range(1, 8))
        cube7 = gen.scalar_cube(labels7, x7, {t: rng.choice((1, -1, 5, 7))
                                              for t in labels7})
        self.write("cube7.json", convert.envelope("diagram", convert.cube_json(cube7)))
        self.write("empty.json", convert.envelope("diagram",
                                                {"vertices": {}, "edges": []}))
        plain.append([bad, cube7])
        self.verified = {}
        return plain

    def block(self, i):
        k = i % self.pool
        e = self.expect[k]
        p = self.path
        t = 1 + i % 4
        return [
            self._op("build", ["fracture", "build", p(f"x{k}.json"), "--primes", DOC_PRIMES],
                     0, _reparses("diagram")),
            self._op("verify", ["fracture", "verify", p(f"x{k}.json"), "--primes", DOC_PRIMES],
                     0, _report_check(lambda r: r["verdict"] == "pass"
                                      and _json_inv(r["homology_of_limit"]) == e["verify"])),
            self._op("holim", ["holim", p(f"cube{k}.json")], 0,
                     _complex_homology(P_LOCAL, e["holim"])),
            self._op("tfib", ["tfib", p(f"cube{k}.json")], 0,
                     _complex_homology(P_LOCAL, e["tfib"])),
            self._op("validate", ["cat", "validate", p(f"g{k}.json")], 0,
                     _report_check(lambda r: r["ok"] is True)),
            self._op("roundtrip", ["cat", "roundtrip", p(f"g{k}.json")], 0,
                     _report_check(lambda r: r["roundtrip"] == "pass")),
            self._op("split", ["cat", "split", p(f"g{k}.json"), "-o", p(f"split{k}.json")],
                     0, None, out_file=p(f"split{k}.json")),
            self._op("glue", ["cat", "glue", p(f"split{k}.json")], 0,
                     lambda text: None if text == e["g_text"] else "glue(split(g)) differs from g"),
            self._op("homology", ["homology", p(f"x{k}.json")], 0,
                     _report_check(lambda r: _json_inv(r["homology"]) == e["homology"])),
            self._op("snf", ["snf", p(f"m{k}.json")], 0,
                     _snf_check(e["snf"])),
            self._op("check-initial", ["poset", "check-initial", "--T", "4", "--t", str(t)], 0,
                     _report_check(lambda r: r["overall"] is True)),
            self._op("schema-homology", ["homology", p("bad_schema.json")], 2, None),
            self._op("schema-verify", ["fracture", "verify", p("bad_schema.json"),
                                       "--primes", DOC_PRIMES], 2, None),
            self._op("cube7-holim", ["holim", p("cube7.json")], 2, None),
            self._op("cube7-tfib", ["tfib", p("cube7.json")], 2, None),
            self._op("empty-holim", ["holim", p("empty.json")], 2, None),
        ]

    def _op(self, cls, argv, want_code, check_text, out_file=None):
        inputs = [a for a in argv if a.endswith(".json") and a != out_file]

        def run():
            out, err = io.StringIO(), io.StringIO()
            return cli.run(argv, out, err), out.getvalue()

        def check(result):
            # byte accounting and the read-back stay outside the timed run()
            code, text = result
            if out_file is not None and code == 0:
                with open(out_file, encoding="utf-8") as fh:
                    text = fh.read()
            self.bytes_in += sum(os.path.getsize(a) for a in inputs)
            self.bytes_out += len(text.encode())
            if code != want_code:
                return f"{cls}: exit {code}, want {want_code}"
            if want_code != 0:
                return None
            # the first output for a command line is checked in full; later
            # ones must repeat it byte for byte
            key = tuple(argv)
            if key in self.verified:
                return None if self.verified[key] == text else f"{cls}: output changed"
            try:
                doc = json.loads(text)
                serialize.unwrap(doc)
            except (ValueError, serialize.SchemaError) as exc:
                return f"{cls}: output does not re-parse: {exc}"
            bad = check_text(text) if check_text else None
            if bad is None:
                self.verified[key] = text
            return bad

        return Op(cls, run, check)


def _json_inv(entries):
    return {e["degree"]: (e["free_rank"], tuple(e["torsion"])) for e in entries}


def _payload(text):
    return json.loads(text)["payload"]


def _reparses(kind):
    def check(text):
        got, _ = serialize.unwrap(json.loads(text))
        return _diff("output kind", got, kind)
    return check


def _report_check(predicate):
    def check(text):
        payload = _payload(text)
        return None if predicate(payload) else f"unexpected report {payload!r:.200}"
    return check


def _complex_homology(primes, want):
    def check(text):
        _, c = serialize.unwrap(json.loads(text), "complex")
        return _diff("homology", _inv_plain(sorted_complex.homology_p_local(c, primes)),
                     want)
    return check


def _snf_check(diag):
    n = len(diag)
    want = [[str(diag[i]) if i == j else "0" for j in range(n)] for i in range(n)]

    def check(text):
        return _diff("snf diagonal", _payload(text)["entries"], want)
    return check


WORKLOADS = {w.name: w for w in (Verify, Tfib, Refute, Docs)}
