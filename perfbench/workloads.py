"""The five workloads: seeded inputs, one timed round, and its checks.

A workload turns the benchmark seed into plain-data inputs (`inputs`), runs
them once through shadiv's public API (`run`, the timed round) and then
checks every output against the oracles in `oracles.py` or against
properties the method must have (`check`).  A round is the same list of
operations every time it runs for one seed.

`run` gets the shadiv package and looks functions up on it at call time,
so a traced round sees the wrappers that `tracing.Tracer` installs.
"""

import hashlib
import random
import time
from dataclasses import dataclass, field

import oracles
import probe

clock = time.perf_counter


@dataclass
class Round:
    outputs: list = field(default_factory=list)  # per operation; an Exception if it raised
    latencies: list = field(default_factory=list)  # seconds per operation
    # Contiguous slices of the round, from the first operation to the last
    # result; slice i ends when operation i returns, and a workload may add
    # one slice after the last operation.
    segments: list = field(default_factory=list)
    # probe seconds before the first slice and after each slice
    probes: list = field(default_factory=list)
    info: dict = field(default_factory=dict)  # reported, never gated on

    @property
    def wall(self):
        return sum(self.segments)

    def probe(self):
        """Time the probe; the next slice starts when it ends."""
        took, end = probe.timed()
        self.probes.append(took)
        return end

    def record(self, out, start, end, mark):
        """Add an operation that ran from `start` to `end`; `mark` is where its slice begins."""
        self.outputs.append(out)
        self.latencies.append(end - start)
        self.segments.append(end - mark)
        return self.probe()

    def close(self, mark):
        """Add a last slice, from `mark` to now, after the last operation."""
        self.segments.append(clock() - mark)
        self.probe()


def _timed(ops):
    """Run zero-argument callables in order; an exception is that op's output."""
    rnd = Round()
    mark = rnd.probe()
    for op in ops:
        t = clock()
        try:
            out = op()
        except Exception as exc:  # the check counts it as a failed operation
            out = exc
        mark = rnd.record(out, t, clock(), mark)
    return rnd


def _failed_outputs(outputs):
    return {i for i, out in enumerate(outputs) if isinstance(out, Exception)}


# ---------------------------------------------------------------------------


class GroupcritP5:
    """The seeded subgroup stream of GL2(F_5), both criterion sides on each subgroup."""

    name = "groupcrit-p5"
    primes = (5,)
    p = 5
    count = 500  # above the 466 subgroups of GL2(F_5): the stream ends on its budget

    def inputs(self, seed):
        return {"count": self.count, "seed": seed}

    def run(self, sh, inp, tracer):
        stream = sh.enumerate_subgroups(self.p, sh.Sampled(inp["count"], inp["seed"]))
        rnd = Round()
        mark = rnd.probe()
        while True:
            t = clock()
            try:
                with tracer.span("gl2.stream.next"):
                    g = next(stream, None)
                if g is None:
                    break
                out = (g, sh.groupcrit_side_analytic(g), sh.groupcrit_side_structural(g))
            except Exception as exc:
                mark = rnd.record(exc, t, clock(), mark)
                break
            mark = rnd.record(out, t, clock(), mark)
        rnd.close(mark)  # the last next(), which ends the stream
        subgroups = [out[0] for out in rnd.outputs if not isinstance(out, Exception)]
        rnd.info["stream_digest"] = stream_digest(subgroups)
        rnd.info["subgroups"] = len(subgroups)
        return rnd

    def check(self, sh, inp, rnd):
        failed = _failed_outputs(rnd.outputs)
        errors = []
        order = (self.p ** 2 - 1) * (self.p ** 2 - self.p)
        seen = set()
        for i, out in enumerate(rnd.outputs):
            if i in failed:
                continue
            g, analytic, structural = out
            if (
                oracles.closure(g.generators, self.p) != frozenset(g.elements)
                or order % g.order
                or analytic != structural
                or g.element_ids in seen
            ):
                failed.add(i)
            seen.add(g.element_ids)
        if len(rnd.outputs) > 466:
            errors.append(f"{len(rnd.outputs)} subgroups, but GL2(F_5) has 466")
        return failed, errors


def stream_digest(subgroups):
    """sha256 over the stream's generator ids and element ids, in stream order."""
    h = hashlib.sha256()
    for g in subgroups:
        h.update(repr((tuple(g.generator_ids), tuple(g.element_ids))).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------


class CohomologyP7:
    """New subgroups of GL2(F_7) from seeded generator draws, the whole battery on each."""

    name = "cohomology-p7"
    primes = (7,)
    p = 7
    target = 450  # new subgroups per round
    draws = 20000  # generator sets available to reach the target
    oracle_sample = 6  # small subgroups whose H^1 the oracle recomputes
    oracle_max_order = 24

    def inputs(self, seed):
        rng = random.Random(seed)
        p = self.p
        sets = []
        for _ in range(self.draws):
            gens = []
            for _ in range(rng.randint(1, 3)):
                while True:
                    m = ((rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p)))
                    if oracles.mat_det(m, p):
                        break
                gens.append(m)
            sets.append(tuple(gens))
        return {"generator_sets": sets, "sample_seed": seed}

    def battery(self, sh, g):
        std = sh.make_standard_module(g)
        adj = sh.make_adjoint_module(g)
        return {
            "h1_V": sh.h1(g, std),
            "h1_End": sh.h1(g, adj),
            "h1_star_End": sh.h1_star(g, adj),
            "factors_V": [f.dim for f in sh.composition_factors(std)],
            "factors_End": [f.dim for f in sh.composition_factors(adj)],
            "common_factor": sh.common_irreducible_factor(std, adj),
            "sylow_hom_bound": sh.cohomology.sylow_hom_bound(g),
            "analytic": sh.groupcrit_side_analytic(g),
            "structural": sh.groupcrit_side_structural(g),
        }

    def _irredundant(self, sh, g, gens):
        """g from a sub-list of the drawn generators without a redundant one.

        The battery costs more with more generators: three times as much for
        GL2(F_7) with three as with two.  Which of the few subgroups that
        contain SL2(F_7) a seed draws with three generators then decided
        `wall_s`, by 0.2 over ten seeds.
        """
        for i in reversed(range(len(gens))):
            fewer = gens[:i] + gens[i + 1 :]
            if fewer:
                h = sh.closure(self.p, fewer)
                if h == g:
                    g, gens = h, fewer
        return g

    def run(self, sh, inp, tracer):
        """An operation's latency is its battery; its slice also holds the closures before it."""
        seen = set()
        rnd = Round()
        mark = rnd.probe()
        for gens in inp["generator_sets"]:
            g = sh.closure(self.p, gens)
            if g in seen:
                continue
            seen.add(g)
            g = self._irredundant(sh, g, gens)
            t = clock()
            try:
                out = (g, self.battery(sh, g))
            except Exception as exc:
                out = exc
            mark = rnd.record(out, t, clock(), mark)
            if len(rnd.outputs) == self.target:
                break
        return rnd

    def check(self, sh, inp, rnd):
        p = self.p
        failed = _failed_outputs(rnd.outputs)
        errors = []
        if len(rnd.outputs) < self.target:
            errors.append(f"only {len(rnd.outputs)} new subgroups from the draws")
        adjoint = oracles.adjoint_action(p)
        small = []
        for i, out in enumerate(rnd.outputs):
            if i in failed:
                continue
            g, r = out
            gens = list(g.generators)
            fixed_V = oracles.fixed_dim([oracles.standard_action(s) for s in gens], 2, p)
            fixed_End = oracles.fixed_dim([adjoint(s) for s in gens], 4, p)
            ok = (
                r["h1_V"].dim_b1 == 2 - fixed_V
                and r["h1_End"].dim_b1 == 4 - fixed_End
                and r["h1_star_End"] <= r["h1_End"].h1
                and sum(r["factors_V"]) == 2
                and sum(r["factors_End"]) == 4
                and r["analytic"] == r["structural"]
            )
            if g.order % p:
                ok = ok and r["h1_V"].h1 == r["h1_End"].h1 == r["h1_star_End"] == 0
            else:
                ok = ok and r["h1_V"].h1 <= r["sylow_hom_bound"]
            if not ok:
                failed.add(i)
            elif g.order <= self.oracle_max_order:
                small.append(i)
        rng = random.Random(inp["sample_seed"])
        for i in rng.sample(small, min(self.oracle_sample, len(small))):
            g, r = rnd.outputs[i]
            elements = sorted(oracles.closure(g.generators, p))
            gens = list(g.generators)

            def mul(x, y):
                return oracles.mat_mul(x, y, p)

            if (
                sorted(g.elements) != elements
                or oracles.h1_dim(elements, gens, mul, oracles.standard_action, 2, p) != r["h1_V"].h1
                or oracles.h1_dim(elements, gens, mul, adjoint, 4, p) != r["h1_End"].h1
            ):
                failed.add(i)
        return failed, errors


# ---------------------------------------------------------------------------


class VerdictDeep:
    """Trace-based verdicts at bound 3*10^4: rational p-torsion curves and early-settling controls."""

    name = "verdict-deep"
    primes = ()
    bound = 30000
    sampled_primes = 2  # per deep curve, traces checked against the oracle near the bound
    trial_reach_max = 10 ** 6  # see _trial_division_reach

    def _draw_deep(self, rng, family):
        while True:
            ainvs = family(rng)
            disc = oracles.discriminant(ainvs)
            if disc and _trial_division_reach(disc, self.trial_reach_max) <= self.trial_reach_max:
                return ainvs

    def inputs(self, seed):
        rng = random.Random(seed)
        batch = []
        # a rational point of order p: y^2 + a1 xy + a3 y = x^3 (p = 3), Tate normal form (p = 5, 7)
        batch.append(("deep", 3, self._draw_deep(rng, lambda r: (r.randint(1, 60), 0, r.randint(1, 60), 0, 0))))
        batch.append(("deep", 5, self._draw_deep(rng, _tate_5)))
        batch.append(("deep", 7, self._draw_deep(rng, _tate_7)))
        # full rational 2-torsion: y^2 = x (x - r) (x - s)
        p = rng.choice((5, 7))
        r, s = rng.sample([x for x in range(-30, 31) if x], 2)
        batch.append(("full_2torsion", p, (0, -(r + s), 0, r * s, 0)))
        # y^2 = x^3 + k x is supersingular at every good p = 3 mod 4
        p = rng.choice((3, 7))
        k = rng.choice([k for k in range(1, 100) if k % p])
        batch.append(("supersingular", p, (0, 0, 0, k, 0)))
        rng.shuffle(batch)
        return {"batch": batch, "trace_seed": seed}

    def run(self, sh, inp, tracer):
        cfg = sh.RunConfig(trace_bound=self.bound)
        ops = [
            (lambda ainvs=ainvs, p=p: sh.verdict_over_Q(sh.curve(ainvs), p, cfg))
            for _, p, ainvs in inp["batch"]
        ]
        return _timed(ops)

    def check(self, sh, inp, rnd):
        failed = _failed_outputs(rnd.outputs)
        rng = random.Random(inp["trace_seed"])
        for i, ((kind, p, ainvs), v) in enumerate(zip(inp["batch"], rnd.outputs)):
            if i in failed:
                continue
            if kind != "deep":
                ok = v.outcome.value == "Guaranteed" and v.chain[0].rule == f"rational.{kind}"
            else:
                good = oracles.good_primes(ainvs, self.bound, exclude=(p,))
                scans = [s for s in v.chain if s.rule == "rational.bad_shape_scan"]
                ok = (
                    v.outcome.value != "Guaranteed"
                    and len(scans) > 0
                    and all(s.inputs.get("checked_count") == len(good) for s in scans)
                )
                near = [q for q in good if q > self.bound - 2000]
                for ell in rng.sample(near, self.sampled_primes):
                    a = sh.trace_at(v.curve, ell)
                    ok = ok and a == oracles.trace(ainvs, ell) and a * a <= 4 * ell
            if not ok:
                failed.add(i)
        return failed, []


def _tate_5(rng):
    t = rng.randint(2, 999)
    return (1 - t, -t, -t, 0, 0)


def _tate_7(rng):
    t = rng.randint(2, 99)
    b, c = t ** 3 - t ** 2, t ** 2 - t
    return (1 - c, -b, -b, 0, 0)


def _trial_division_reach(disc, limit):
    """How far verdict_over_Q's semistability scan trial-divides |disc| at p = 5, 7.

    The scan divides out odd primes only, so it runs up to the largest odd
    prime factor or the power of 2 in disc, whichever is larger.  Inputs
    whose reach exceeds `limit` are drawn again: beyond it a verdict takes
    tens of seconds or more (see the FOUND lines in CHANGES.md).  Returns
    limit + 1 when the reach exceeds the limit.
    """
    d = abs(disc)
    two = 1
    while d % 2 == 0:
        d //= 2
        two *= 2
    largest = 1
    q = 3
    while q * q <= d and q <= limit:
        while d % q == 0:
            d //= q
            largest = q
        q += 2
    if d > limit:
        return limit + 1
    return max(two, largest, d)


# ---------------------------------------------------------------------------


class TwistWide:
    """twist_scan up to |d| = 10^4 for three embedded curves at p = 3, 5, 7."""

    name = "twist-wide"
    primes = ()
    labels = ("121-B1", "121-C1", "selmer-jacobian")
    dmax = 10 ** 4
    rows_sampled = 3  # per scan, twisted traces checked against the oracle
    ells = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)

    def inputs(self, seed):
        # The scans are fixed: their cost depends on the order through the
        # trace_at cache, so the seed picks only the rows the checks sample.
        return {"scans": [(label, p) for label in self.labels for p in (3, 5, 7)], "row_seed": seed}

    def run(self, sh, inp, tracer):
        ops = [
            (lambda label=label, p=p: sh.twist_scan(sh.datasets.embedded_curve(label), p, self.dmax))
            for label, p in inp["scans"]
        ]
        return _timed(ops)

    def check(self, sh, inp, rnd):
        failed = _failed_outputs(rnd.outputs)
        discs = oracles.fundamental_discriminants(self.dmax)
        rng = random.Random(inp["row_seed"])
        for i, ((label, p), report) in enumerate(zip(inp["scans"], rnd.outputs)):
            if i in failed:
                continue
            base = sh.datasets.embedded_curve(label)
            ainvs = base.ainvs
            rows = report.rows
            ok = (
                sorted(d for d, _ in rows) == discs
                and report.failure_count <= report.cap
                and rows[0][0] == 1
                and rows[0][1].to_json() == sh.verdict_over_Q(base, p).to_json()
            )
            for d, v in rng.sample(rows[1:], self.rows_sampled):
                for ell in self.ells:
                    if d % ell == 0 or oracles.discriminant(ainvs) % ell == 0:
                        continue
                    expected = oracles.legendre(d, ell) * oracles.trace(ainvs, ell)
                    twisted = oracles.trace(v.curve.ainvs, ell)
                    ok = ok and sh.trace_at(v.curve, ell) == twisted == expected
            if not ok:
                failed.add(i)
        return failed, []


# ---------------------------------------------------------------------------


class LocalCubic:
    """has_local_point on diagonal cubics at p = 3 and 7, with and without points, and the Selmer report."""

    name = "local-cubic"
    primes = ()
    # (p, family, expected answer) -> operations per round
    mix = {
        (7, "units-7c", False): 2,
        (7, "units-7c", True): 10,
        (3, "units", False): 10,
        (3, "units", True): 10,
        (3, "units-3c", True): 10,
    }

    def _draw(self, rng, p, family):
        units = [x for x in range(1, 100) if x % p]
        a, b, c = rng.choice(units), rng.choice(units), rng.choice(units)
        if family in ("units-7c", "units-3c"):
            c *= p
        return a, b, c

    def _expected(self, p, family, a, b, c):
        if family == "units-7c":
            # x and y must be units, so a point needs -b/a to be a cube mod 7
            return (-b * pow(a, -1, 7)) % 7 in (1, 6)
        # unit cube classes at 3 are fixed mod 9, and so is solvability
        return oracles.has_primitive_solution_mod(a, b, c, 3, 2)

    def inputs(self, seed):
        rng = random.Random(seed)
        cubics = []
        for (p, family, answer), n in self.mix.items():
            found = 0
            while found < n:
                a, b, c = self._draw(rng, p, family)
                if self._expected(p, family, a, b, c) == answer:
                    cubics.append((a, b, c, p))
                    found += 1
        rng.shuffle(cubics)
        return {"cubics": cubics}

    def run(self, sh, inp, tracer):
        ops = [
            (lambda a=a, b=b, c=c, p=p: sh.has_local_point(sh.DiagonalCubic(a, b, c), p))
            for a, b, c, p in inp["cubics"]
        ]
        ops.append(sh.selmer_example_report)
        return _timed(ops)

    def check(self, sh, inp, rnd):
        failed = _failed_outputs(rnd.outputs)
        for i, ((a, b, c, p), has_point) in enumerate(zip(inp["cubics"], rnd.outputs)):
            if i in failed:
                continue
            if has_point is True:
                ok = oracles.certified_point(a, b, c, p) is not None
            else:
                ok = has_point is False and not oracles.has_primitive_solution_mod(a, b, c, p, 2)
            if not ok:
                failed.add(i)
        i = len(inp["cubics"])
        if i not in failed and not self._selmer_ok(rnd.outputs[i]):
            failed.add(i)
        return failed, []

    def _selmer_ok(self, report):
        steps = {s["name"]: s for s in report["steps"]}
        sections = steps["coordinate-sections-at-3"]["detail"]
        expected = {
            name: oracles.section_point_at_3(*coeffs)
            for name, coeffs in (("S", (3, 4, 5)), ("S'", (1, 5, 12)), ("S''", (1, 4, 15)), ("S'''", (1, 3, 20)))
        }
        local = steps["everywhere-local-solvability-of-S"]["detail"]
        return (
            sections == expected == {"S": True, "S'": False, "S''": False, "S'''": False}
            and local["p <= 100"] is True
            and all(oracles.certified_point(3, 4, 5, p) is not None for p in (2, 3, 5))
        )


WORKLOADS = {w.name: w for w in (GroupcritP5(), CohomologyP7(), VerdictDeep(), TwistWide(), LocalCubic())}
