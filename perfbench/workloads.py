"""The three benchmark workloads, their inputs and their output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one returns.  Ops come in cycles; a cycle is the smallest unit
whose mix of op kinds is fixed, so a run made of whole cycles always has
the same mix whatever the seed.

* ``cli_weave``: one op is one ``specnet.cli.main`` call, in process with
  stdout captured, over 5 subcommands x 5 packaged fixtures (one cycle);
  the order of each cycle is drawn from the seed.  This is the path a user
  runs, so engine set-up and forest growth are paid on every op.
* ``transport_paths``: one op transports one seeded homotopic pair along
  both paths and checks the two matrices are equal; one cycle is one pair
  per fixture, round-robin, on transports built during set-up.
* ``wkb_trace``: one op is one in-process ``wkb-trace`` call; a cycle has
  eight Airy and eight cubic traces, with the fixed anchors Airy at 0, the
  cubic at 0.3 and the cubic at exactly 0 (a known NonGenericPhase) plus
  phases drawn from the seed, spread evenly round the circle.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
FIXTURES = ("mutation_a", "mutation_b", "sigma1_6", "five_crossing", "three_strand")
# A packaged fixture without a packaged table is compared against the table
# record_expected.py stored.
STORED_TABLES = {"five_crossing": os.path.join(HERE, "tables", "five_crossing.json")}


@dataclass
class Op:
    label: str
    args: tuple


@dataclass
class Outcome:
    seconds: float
    ok: bool
    expected_failure: bool = False  # a failure this benchmark keeps on purpose
    detail: str = ""


def load_expected():
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(argv):
    """One in-process CLI call: (exit code, stdout, stderr, seconds)."""
    from specnet import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an op that raises is a failed op
            code = "raised %s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


# ----- cli_weave -----

# ``cycle_seconds`` is each workload's cycle time at the commit that defined
# the benchmark, on a 2-core x86-64 box; it only sets how many cycles a run
# of a given length has.

class CliWeave:
    name = "cli_weave"
    cycle_seconds = 11.0
    trace_cycles = 1
    SUBCOMMANDS = ("weave-network", "augmentation", "bps", "nonabelianize", "compare")

    def setup(self, seed):
        self.seed = seed
        self.expected = load_expected()

    def cycle(self, index):
        ops = [Op("%s %s" % (sub, fixture), (sub, fixture))
               for sub in self.SUBCOMMANDS for fixture in FIXTURES]
        random.Random("cli_weave:%d:%d" % (self.seed, index)).shuffle(ops)
        return ops

    @staticmethod
    def argv(sub, fixture):
        if sub in ("weave-network", "augmentation", "bps"):
            return [sub, fixture, "--format", "json"]
        if sub == "nonabelianize":
            return [sub, fixture, "--systems", "20"]
        reference = STORED_TABLES.get(fixture, fixture + ".json")
        return [sub, fixture, reference]

    def run(self, op):
        sub, fixture = op.args
        code, out, err, seconds = _run_cli(self.argv(sub, fixture))
        if code != 0:
            return Outcome(seconds, False, detail="exit %s %s" % (code, err[:200]))
        detail = self.check(sub, fixture, out)
        return Outcome(seconds, not detail, detail=detail)

    def check(self, sub, fixture, out):
        """What is wrong with the op's stdout, or '' when it is right."""
        if sub in ("weave-network", "augmentation", "bps"):
            if _sha256(out) != self.expected["digests"]["%s %s" % (sub, fixture)]:
                return "stdout digest differs from the recorded one"
        elif sub == "nonabelianize":
            lines = out.splitlines()
            if len(lines) != self.expected["monodromy_loops"][fixture] or \
                    not all(line.endswith("monodromy: identity") for line in lines):
                return "monodromy report: %r" % out[:200]
        elif out != "tables agree on %d chords\n" % self.expected["chords"][fixture]:
            return "compare: %r" % out[:200]
        return ""


# ----- transport_paths -----

def _segments(points):
    pts = [(float(x), float(y)) for x, y in points]
    return list(zip(pts, pts[1:]))


def _proper_crossings(path, polylines):
    """Transversal crossings of a path with a set of polylines (floats)."""
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    count = 0
    for a, b in _segments(path):
        for line in polylines:
            for c, d in line:
                if (orient(a, b, c) > 0) != (orient(a, b, d) > 0) and \
                        (orient(c, d, a) > 0) != (orient(c, d, b) > 0):
                    count += 1
    return count


class TransportPaths:
    name = "transport_paths"
    cycle_seconds = 3.0
    trace_cycles = 2
    # Input size: a pair is kept when its two paths together cross the walls
    # exactly this many times.  Op time follows the crossing count, so fixing
    # it keeps the spread from seed to seed small.  The counts give the three
    # larger fixtures about the same op time (so the percentiles fall inside
    # one group of ops, not at a boundary between fixtures) and the two-strand
    # ones paths near the top of homotopic_pair's own range.
    WALL_CROSSINGS = {"mutation_a": 16, "mutation_b": 16, "sigma1_6": 24,
                      "five_crossing": 12, "three_strand": 8}
    # homotopic_pair candidates drawn per fixture during set-up, so set-up
    # does the same work for every seed; pairs beyond the ones they yield
    # are drawn between ops, outside the op timings.
    SETUP_CANDIDATES = 24

    def setup(self, seed):
        from specnet import cli
        from specnet.forest import build_forest_strands
        from specnet.nonabel import Transport
        from specnet.weave import bend_weave, parse_weave

        self.seed = seed
        self.transports = {}
        self.pairs = {}
        self._rngs = {}
        self._walls = {}
        for fixture in FIXTURES:
            with open(os.path.join(cli.fixture_root(), fixture + ".weave")) as handle:
                bent = bend_weave(parse_weave(handle.read()))
            transport = Transport(build_forest_strands(bent))
            self.transports[fixture] = transport
            self._walls[fixture] = [_segments(s.polyline)
                                    for s in transport.builder.strands]
            self._rngs[fixture] = random.Random("transport_paths:%d:%s"
                                                % (seed, fixture))
            self.pairs[fixture] = []
            for _ in range(self.SETUP_CANDIDATES):
                self._draw_candidate(fixture)

    def _draw_candidate(self, fixture):
        from specnet.nonabel import homotopic_pair

        walls = self._walls[fixture]
        p, q = homotopic_pair(self.transports[fixture], self._rngs[fixture])
        total = _proper_crossings(p, walls) + _proper_crossings(q, walls)
        if total == self.WALL_CROSSINGS[fixture]:
            self.pairs[fixture].append((p, q))

    def cycle(self, index):
        return [Op("pair %d %s" % (index, fixture), (fixture, index))
                for fixture in FIXTURES]

    def prepare(self, op):
        fixture, index = op.args
        while len(self.pairs[fixture]) <= index:
            self._draw_candidate(fixture)

    def run(self, op):
        fixture, index = op.args
        transport = self.transports[fixture]
        p, q = self.pairs[fixture][index]
        start = time.perf_counter()
        try:
            same = transport.transport_path(p) == transport.transport_path(q)
        except Exception as exc:
            return Outcome(time.perf_counter() - start, False,
                           detail="raised %s: %s" % (type(exc).__name__, exc))
        seconds = time.perf_counter() - start
        return Outcome(seconds, same, detail="" if same else "matrices differ")


# ----- wkb_trace -----

def _stratified(rng, count):
    """``count`` seeded phases in (-pi, pi], one uniform draw from each of
    ``count`` equal arcs.  Trace cost depends on the phase, so covering the
    circle evenly keeps a cycle's cost nearly the same for every seed, while
    each phase is still uniformly distributed."""
    arc = 2 * math.pi / count
    return [math.pi - arc * (k + rng.random()) for k in range(count)]


AIRY = ("w^2 - z", 10.0, 5.0)
CUBIC = ("w^3 - 3*w + x", 12.0, 8.0)


class WkbTrace:
    name = "wkb_trace"
    cycle_seconds = 22.0
    trace_cycles = 1
    ANCHORS = (("airy", 0.0), ("cubic", 0.3), ("cubic", 0.0))
    # 16 ops a cycle.  In two cycles the median falls near the top of the
    # Airy traces and the tail (ten beyond) inside the ~2 s cubic traces,
    # not at the gap between the two.
    RANDOM = {"airy": 7, "cubic": 6}  # seeded phases a cycle, besides the anchors

    def setup(self, seed):
        import specnet.wkb as wkb

        self.seed = seed
        self.expected = load_expected()
        self._wkb = wkb

    def cycle(self, index):
        rng = random.Random("wkb_trace:%d:%d" % (self.seed, index))
        ops = list(self.ANCHORS)
        for curve, count in self.RANDOM.items():
            ops += [(curve, theta) for theta in _stratified(rng, count)]
        rng.shuffle(ops)
        return [Op("%s theta=%r" % (curve, theta), (curve, theta))
                for curve, theta in ops]

    def run(self, op):
        curve, theta = op.args
        text, mass, radius = AIRY if curve == "airy" else CUBIC
        # the CLI prints only part of the network; keep the object it built
        # (or the error it raised) for the checks
        bound = self._wkb.build_wkb_network
        captured = []

        def capture(*args, **kwargs):
            try:
                net = bound(*args, **kwargs)
            except Exception as exc:
                captured.append(exc)
                raise
            captured.append(net)
            return net

        self._wkb.build_wkb_network = capture
        try:
            code, out, err, seconds = _run_cli(
                ["wkb-trace", "--curve", text, "--theta", repr(theta),
                 "--mass", repr(mass), "--radius", repr(radius)])
        finally:
            self._wkb.build_wkb_network = bound
        result = captured[-1] if captured else None
        if code != 0 or not hasattr(result, "traced"):
            known = (curve == "cubic" and theta == 0.0
                     and isinstance(result, self._wkb.NonGenericPhase))
            return Outcome(seconds, False, expected_failure=known,
                           detail="exit %s %s" % (code, err[:200]))
        detail = self.check(curve, theta, json.loads(out), result)
        return Outcome(seconds, not detail, detail=detail)

    def check(self, curve, theta, doc, net):
        """What is wrong with the traced network, or '' when it is right."""
        if doc["theta"] != theta:
            return "theta %r not echoed" % doc["theta"]
        for wall in net.traced:
            masses = [abs(Z) for Z in wall.charges]
            if not all(a < b for a, b in zip(masses, masses[1:])):
                return "wall %d mass not strictly increasing" % wall.id
        for joint in net.joints_info:
            total = 0
            for wid in joint.parents:
                seg, frac = joint.parent_cuts[wid]
                total += net.traced[wid].charge_at(seg, frac)
            if abs(total - joint.charge) > 1e-6 * (1 + abs(joint.charge)):
                return "charges do not add at joint %d" % joint.id
        if curve == "airy":
            if len(net.traced) != 3 or net.joints_info:
                return "Airy network is not three rays"
            third = 2 * math.pi / 3
            want = [2 * theta / 3 + d for d in (-third, 0.0, third)]
            got = [cmath.phase(w.points[-1]) for w in net.traced]
            for angle in want:
                if min(abs(cmath.phase(cmath.exp(1j * (g - angle))))
                       for g in got) >= 1e-3:
                    return "no Airy ray at angle %.6f" % angle
        else:
            bps = sorted({w.origin[1] for w in net.traced if w.origin[0] == "bp"},
                         key=lambda z: z.real)
            if len(bps) != 2 or abs(bps[0] + 2) >= 1e-9 or abs(bps[1] - 2) >= 1e-9:
                return "cubic branch points %r" % bps
        key = "%s %r" % (curve, theta)
        if key in self.expected["wkb_graphs"]:
            want = self.expected["wkb_graphs"][key]
            got = graph_of(doc)
            if got["vertices"] != want["vertices"] or \
                    [w[:3] for w in got["walls"]] != [w[:3] for w in want["walls"]]:
                return "graph differs from the recorded one"
            for a, b in zip(got["walls"], want["walls"]):
                if abs(a[3] - b[3]) > 1e-9 * (1 + abs(b[3])):
                    return "wall mass %r differs from the recorded %r" % (a[3], b[3])
        return ""


def graph_of(doc):
    """The WKB graph of a ``wkb-trace`` JSON export: vertex kinds and
    (label, source, target, mass) per wall."""
    return {"vertices": [v["kind"] for v in doc["vertices"]],
            "walls": [[w["label"], w["source"], w["target"], w["mass"]]
                      for w in doc["walls"]]}


WORKLOADS = {w.name: w for w in (CliWeave, TransportPaths, WkbTrace)}
