"""Combinatorial wall growth on a bent Demazure weave.

Each trivalent weave vertex (a branch point of the weave surface) emits three
flowlines: two (a, b) climb the upper weave edges to the top boundary, one
(c) runs right until it meets a weave line carrying its own sheet pair, then
climbs that line.  Flowlines crossing a weave line conjugate their ordered
sheet-pair label by the line's transposition.  When a newly added flowline
crosses an existing one and the ordered labels compose ((i,j) then (j,k)),
a creation joint is inserted and a new (i,k) flowline grows from it by the
same rightward rule.  Vertices are scanned bottom-to-top; each vertex's
round runs creations to a fixed point before the next vertex is seeded.

All geometry is exact: flowlines are rational polylines hugging the weave
lines at small per-flowline offsets (later flowlines hug closer), so crossing
detection and ordering are deterministic.  Non-generic coincidences raise and
the whole build retries with a smaller offset scale.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .network import SpectralNetwork
from .weave import BentWeave, Segment

Point = Tuple[Fraction, Fraction]
Param = Tuple[int, Fraction]  # (polyline sub-segment index, parameter in [0,1])


class NonGenericGeometry(Exception):
    """Offsets produced a coincidence (tangency, corner hit); retry smaller."""


class PropagationError(Exception):
    """A rightward flowline ran off the weave without finding its edge."""


# Ordered label carried by each branch of a trivalent vertex with letter k:
# "asc" means (k, k+1), "desc" means (k+1, k).
DEFAULT_SEED_ORIENTATION = {"a": "asc", "b": "asc", "c": "asc"}


def _conjugate(label: Tuple[int, int], k: int) -> Tuple[int, int]:
    def s(x):
        return k + 1 if x == k else k if x == k + 1 else x
    return (s(label[0]), s(label[1]))


def _compose(la, lb) -> Optional[Tuple[int, int]]:
    if la[1] == lb[0] and la[0] != lb[1]:
        return (la[0], lb[1])
    if lb[1] == la[0] and lb[0] != la[1]:
        return (lb[0], la[1])
    return None


@dataclass(frozen=True)
class FlowlineSeed:
    vertex_id: int
    branch: str  # 'a' | 'b' | 'c'
    edge: Optional[int]  # starting segment id for a/b, None for c
    label: Tuple[int, int]


@dataclass
class Strand:
    """One full flowline: a maximal wall path from its birth to a chord."""

    id: int
    origin: tuple  # ("branch", vertex_id, branch) | ("joint", parent_a, parent_b)
    start_label: Tuple[int, int]
    round: int
    delta: Fraction
    polyline: List[Point] = field(default_factory=list)
    crossings: List[tuple] = field(default_factory=list)  # (param, letter, point)
    turn_index: Optional[int] = None  # polyline index where the upward hug begins
    chord: Optional[str] = None

    def label_at(self, param: Param) -> Tuple[int, int]:
        label = self.start_label
        for p, letter, _ in self.crossings:
            if p < param:
                label = _conjugate(label, letter)
            else:
                break
        return label

    def final_label(self) -> Tuple[int, int]:
        label = self.start_label
        for _, letter, _ in self.crossings:
            label = _conjugate(label, letter)
        return label


# ----- exact polyline geometry -----

def _sub_cross(a0, a1, b0, b1):
    """Intersection params (t, u) of segments a and b, or None if parallel
    and disjoint.  Raises on collinear overlap."""
    dax, day = a1[0] - a0[0], a1[1] - a0[1]
    dbx, dby = b1[0] - b0[0], b1[1] - b0[1]
    ex, ey = b0[0] - a0[0], b0[1] - a0[1]
    det = dax * dby - day * dbx
    if det == 0:
        if ex * day - ey * dax != 0:
            return None  # parallel, distinct lines
        # collinear: positive-length overlap is non-generic
        if dax or day:
            t0 = (ex * dax + ey * day) / (dax * dax + day * day)
            t1 = t0 + (dbx * dax + dby * day) / (dax * dax + day * day)
            lo, hi = min(t0, t1), max(t0, t1)
            if hi > 0 and lo < 1:
                raise NonGenericGeometry("collinear overlap")
        return None
    t = (ex * dby - ey * dbx) / det
    u = (ex * day - ey * dax) / det
    return (t, u)


def _poly_crossings(P: Sequence[Point], Q: Sequence[Point]):
    """Proper transversal crossings of two polylines as (paramP, paramQ, pt).

    Touches at either polyline's global start or end are ignored (walls are
    born on other walls and end on the boundary); any other boundary touch is
    a non-generic corner hit.
    """
    out = []
    anchors = (P[0], P[-1], Q[0], Q[-1])
    # float bounding boxes cheaply reject most segment pairs before the
    # exact test; the margin absorbs any rounding of the Fraction coords
    eps = 1e-6
    pf = [(float(p[0]), float(p[1])) for p in P]
    qf = [(float(q[0]), float(q[1])) for q in Q]
    for i in range(len(P) - 1):
        ax0, ay0 = pf[i]
        ax1, ay1 = pf[i + 1]
        alo_x, ahi_x = (ax0, ax1) if ax0 <= ax1 else (ax1, ax0)
        alo_y, ahi_y = (ay0, ay1) if ay0 <= ay1 else (ay1, ay0)
        for j in range(len(Q) - 1):
            bx0, by0 = qf[j]
            bx1, by1 = qf[j + 1]
            if (alo_x > max(bx0, bx1) + eps or ahi_x < min(bx0, bx1) - eps or
                    alo_y > max(by0, by1) + eps or ahi_y < min(by0, by1) - eps):
                continue
            r = _sub_cross(P[i], P[i + 1], Q[j], Q[j + 1])
            if r is None:
                continue
            t, u = r
            if not (0 <= t <= 1 and 0 <= u <= 1):
                continue
            pt = (P[i][0] + t * (P[i + 1][0] - P[i][0]),
                  P[i][1] + t * (P[i + 1][1] - P[i][1]))
            if 0 < t < 1 and 0 < u < 1:
                out.append(((i, t), (j, u), pt))
            elif pt in anchors:
                continue
            elif t in (0, 1) and u in (0, 1):
                continue  # shared interior corner of both: counted by neighbors
            else:
                raise NonGenericGeometry("polyline corner hit at %r" % (pt,))
    # a transversal pass through a shared corner would appear twice; reject
    points = [pt for _, _, pt in out]
    if len(set(points)) != len(points):
        raise NonGenericGeometry("duplicate crossing point")
    return sorted(out)


class AxisLines:
    """Parallel segments: coordinate ``axis`` is fixed at each of ``coords``
    while the other coordinate runs from ``start`` to ``end``."""

    def __init__(self, axis: int, coords: Sequence[Fraction], start, end):
        self.axis, self.start, self.end = axis, start, end
        self.order = sorted(range(len(coords)), key=coords.__getitem__)
        self.coords = [coords[k] for k in self.order]
        self.floats = [float(c) for c in self.coords]
        self.lo, self.hi = min(start, end), max(start, end)
        # the sign of (P's tangent) x (line tangent) per unit motion of P
        self.turn = (1 if end > start else -1) * (1 - 2 * axis)

    def crossings(self, P: Sequence[Point]):
        """``_poly_crossings(P, line k)`` for every line k at once, as
        (i, t, k, pos, side): (i, t) is the param on P, pos the crossing's
        coordinate along the line and side the sign of (P's tangent) x (line
        tangent).  Lines are found by bisecting each segment's float bounds
        (the margin absorbs rounding); the same inputs raise
        NonGenericGeometry."""
        a, b, eps = self.axis, 1 - self.axis, 1e-6
        blo, bhi = float(self.lo) - eps, float(self.hi) + eps
        pf = [(float(p[a]), float(p[b])) for p in P]
        out, seen = [], set()
        for i in range(len(P) - 1):
            (fa0, fb0), (fa1, fb1) = pf[i], pf[i + 1]
            if max(fb0, fb1) < blo or min(fb0, fb1) > bhi:
                continue
            k0 = bisect_left(self.floats, min(fa0, fa1) - eps)
            k1 = bisect_right(self.floats, max(fa0, fa1) + eps)
            a0, a1, b0, b1 = P[i][a], P[i + 1][a], P[i][b], P[i + 1][b]
            for k in range(k0, k1):
                c = self.coords[k]
                if a0 == a1:  # parallel: only a positive-length overlap counts
                    if c == a0 and max(min(b0, b1), self.lo) < min(max(b0, b1), self.hi):
                        raise NonGenericGeometry("collinear overlap")
                    continue
                if not (a0 <= c <= a1 or a1 <= c <= a0):
                    continue
                t = (c - a0) / (a1 - a0)
                pos = b0 + t * (b1 - b0)
                if not self.lo <= pos <= self.hi:
                    continue
                if c != a0 and c != a1 and self.lo < pos < self.hi:
                    if (k, pos) in seen:
                        raise NonGenericGeometry("duplicate crossing point")
                    seen.add((k, pos))
                    side = self.turn if a1 > a0 else -self.turn
                    out.append((i, t, self.order[k], pos, side))
                    continue
                pt = (c, pos) if a == 0 else (pos, c)
                if pt != P[0] and pt != P[-1] and pos != self.start and pos != self.end:
                    raise NonGenericGeometry("polyline corner hit at %r" % (pt,))
        return out


class ForestBuilder:
    """Grows all strands of the augmentation forest for one bent weave."""

    def __init__(self, bent: BentWeave, orientation=None, scale=Fraction(1, 64),
                 max_rounds: int = 100):
        self.bent = bent
        self.weave = bent.weave
        self.orientation = dict(DEFAULT_SEED_ORIENTATION, **(orientation or {}))
        self.scale = scale
        self.max_rounds = max_rounds
        self.obstacles: List[Segment] = list(self.weave.segments) + list(bent.bent_segments)
        self._bent_ids = {seg.id for seg in bent.bent_segments}
        self._top_name_by_x = {x: name for name, x in bent.top_positions.items()}
        beta_names = bent.chord_names[: len(self.weave.top)]
        self.name_to_letter = dict(zip(beta_names, self.weave.top))
        # delta chord letters: look up via the bent segment each name tops
        for seg in bent.bent_segments:
            self.name_to_letter[self._top_name_by_x[seg.points[0][0]]] = seg.letter
        self.strands: List[Strand] = []
        self.joints: List[dict] = []  # creation events in processing order
        self.warnings: List[str] = []

    # ----- seeds -----
    def scan_vertices(self):
        return sorted(self.weave.trivalent_vertices(), key=lambda v: (-v.row, v.position))

    def seed_flowlines(self, vertex_id: int) -> List[FlowlineSeed]:
        vertex = self.weave.vertices[vertex_id]
        if vertex.kind != "trivalent":
            raise ValueError("vertex %d is not trivalent" % vertex_id)
        k = vertex.letter
        ups = self.weave.vertex_upper_segments(vertex_id)
        seeds = []
        for branch, edge in (("a", ups[0].id), ("b", ups[1].id), ("c", None)):
            label = (k, k + 1) if self.orientation[branch] == "asc" else (k + 1, k)
            seeds.append(FlowlineSeed(vertex_id, branch, edge, label))
        return seeds

    # ----- propagation -----
    def _new_strand(self, origin, label, rnd) -> Strand:
        strand = Strand(len(self.strands), origin, label, rnd,
                        self.scale / (len(self.strands) + 2))
        self.strands.append(strand)
        return strand

    def propagate_seed(self, seed: FlowlineSeed, rnd: int) -> Strand:
        vertex = self.weave.vertices[seed.vertex_id]
        strand = self._new_strand(("branch", seed.vertex_id, seed.branch), seed.label, rnd)
        if seed.branch == "c":
            strand.polyline = [vertex.point]
            self._march_right(strand, vertex.point[0], vertex.point[1])
        else:
            edge = self.weave.segments[seed.edge]
            strand.polyline = [vertex.point]
            self._hug(strand, edge, vertex.point)
        self._finalize(strand)
        return strand

    def propagate_joint(self, parent_a: Strand, parent_b: Strand, label, point, rnd) -> Strand:
        strand = self._new_strand(("joint", parent_a.id, parent_b.id), label, rnd)
        # emanate just above the joint so the rightward leg is parallel to,
        # not collinear with, a horizontal parent leg
        lift = (point[0], point[1] + strand.delta)
        strand.polyline = [point, lift]
        # the lift itself may hop over weave lines squeezed near the joint;
        # fold those conjugations into the label the march starts with
        label = label if isinstance(label, tuple) else tuple(label)
        lift_hits = []
        for seg in self.obstacles:
            for param, _, _pt in _poly_crossings([point, lift], seg.points):
                lift_hits.append((param, seg.letter))
        for _, letter in sorted(lift_hits):
            label = _conjugate(label, letter)
        self._march_right(strand, lift[0], lift[1], label=label)
        self._finalize(strand)
        return strand

    def _ray_events(self, x0: Fraction, y0: Fraction):
        """Crossings of the rightward ray from (x0, y0) with weave lines."""
        events = []
        for seg in self.obstacles:
            for p0, p1 in zip(seg.points, seg.points[1:]):
                if p0[1] == p1[1]:
                    if p0[1] == y0 and max(p0[0], p1[0]) > x0:
                        raise NonGenericGeometry("ray collinear with weave line")
                    continue
                lo, hi = sorted((p0[1], p1[1]))
                if lo < y0 < hi:
                    t = (y0 - p0[1]) / (p1[1] - p0[1])
                    x = p0[0] + t * (p1[0] - p0[0])
                    if x > x0:
                        events.append((x, seg))
                elif y0 in (p0[1], p1[1]):
                    endpoint = p0 if p0[1] == y0 else p1
                    if endpoint[0] > x0:
                        raise NonGenericGeometry("weave-line corner on ray at %r" % (endpoint,))
        events.sort(key=lambda e: e[0])
        for (xa, _), (xb, _) in zip(events, events[1:]):
            if xa == xb:
                raise NonGenericGeometry("two weave lines cross the ray at one point")
        return events

    def _march_right(self, strand: Strand, x0, y0, label=None):
        label = strand.start_label if label is None else label
        prev_x = x0
        for x, seg in self._ray_events(x0, y0):
            k = seg.letter
            if {label[0], label[1]} == {k, k + 1}:
                turn_x = x - strand.delta
                if turn_x <= prev_x:
                    raise NonGenericGeometry("offset too large for gap before turn")
                strand.polyline.append((turn_x, y0))
                strand.turn_index = len(strand.polyline) - 1
                self._hug(strand, seg, (x, y0))
                return
            label = _conjugate(label, k)
            prev_x = x
        raise PropagationError(
            "rightward flowline from %r with label %r found no matching edge"
            % (strand.origin, strand.start_label))

    def _hug(self, strand: Strand, seg: Segment, entry: Point):
        """Climb ``seg`` and its upward continuation, offset left by delta."""
        delta = strand.delta
        current, first = seg, True
        while True:
            points = current.points  # upper end first
            if first:
                idx = self._sub_segment_of(points, entry)
                climb = points[idx::-1][::-1]  # points[0..idx], top-down
                first = False
            else:
                climb = points[:-1]  # all but the shared lower end
            for pt in reversed(climb):
                strand.polyline.append((pt[0] - delta, pt[1]))
            if current.id in self._bent_ids:
                strand.chord = self._top_name_by_x[points[0][0]]
                return
            nxt = self.weave.continue_up(current)
            if nxt is None:
                _, _, q = current.upper
                strand.chord = self.bent.chord_names[q - 1]
                return
            current = nxt

    @staticmethod
    def _sub_segment_of(points, entry: Point) -> int:
        for i in range(len(points) - 1):
            (x0, y0), (x1, y1) = points[i], points[i + 1]
            cross = (x1 - x0) * (entry[1] - y0) - (y1 - y0) * (entry[0] - x0)
            if cross == 0 and min(x0, x1) <= entry[0] <= max(x0, x1) \
                    and min(y0, y1) <= entry[1] <= max(y0, y1):
                return i
        raise NonGenericGeometry("entry point %r not on segment" % (entry,))

    def _finalize(self, strand: Strand):
        """Record all weave-line crossings and verify label bookkeeping."""
        crossings = []
        for seg in self.obstacles:
            for param, _, pt in _poly_crossings(strand.polyline, seg.points):
                crossings.append((param, seg.letter, pt))
        strand.crossings = sorted(crossings)
        if strand.chord is None:
            raise PropagationError("strand %d has no terminal chord" % strand.id)
        final = strand.final_label()
        m = self.name_to_letter[strand.chord]
        if {final[0], final[1]} != {m, m + 1}:
            raise NonGenericGeometry(
                "strand %d label %r inconsistent with chord %s (letter %d)"
                % (strand.id, final, strand.chord, m))
        if strand.polyline[-1][1] != 0:
            raise AssertionError("strand %d does not reach the top boundary" % strand.id)

    # ----- rounds -----
    def build(self):
        for rnd, vertex in enumerate(self.scan_vertices(), start=1):
            new = [self.propagate_seed(seed, rnd) for seed in self.seed_flowlines(vertex.id)]
            self._extend_round(new, rnd)
        return self

    def _extend_round(self, new: List[Strand], rnd: int):
        old = [s for s in self.strands if s.round < rnd]
        processed = {(j["parents"][0], j["parents"][1], j["point"]) for j in self.joints}
        for iteration in range(self.max_rounds):
            events = []
            for sn in new:
                for other in old + new:
                    if other.id == sn.id:
                        continue
                    for pn, po, pt in _poly_crossings(sn.polyline, other.polyline):
                        key = (min(sn.id, other.id), max(sn.id, other.id), pt)
                        if key in processed:
                            continue
                        ln = sn.label_at(pn)
                        lo = other.label_at(po)
                        child_label = _compose(ln, lo)
                        if child_label is None:
                            continue
                        both_new = other.round == rnd
                        if other.id > sn.id and both_new:
                            continue  # counted once from the other side
                        events.append((pt[0], pt[1], sn.id, other.id, pn, po,
                                       child_label, both_new, key))
            if not events:
                return
            events.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
            x, y, a_id, b_id, pa, pb, child_label, both_new, key = events[0]
            processed.add(key)
            if both_new:
                self.warnings.append(
                    "round %d: creation from two same-round walls %d x %d at (%s, %s)"
                    % (rnd, a_id, b_id, x, y))
            parent_a, parent_b = self.strands[a_id], self.strands[b_id]
            child = self.propagate_joint(parent_a, parent_b, child_label, (x, y), rnd)
            self.joints.append({
                "parents": (min(a_id, b_id), max(a_id, b_id)),
                "params": {a_id: pa, b_id: pb},
                "point": (x, y),
                "label": child_label,
                "child": child.id,
                "round": rnd,
            })
            new.append(child)
        raise RuntimeError("round %d exceeded %d creation steps (gapped guard)"
                           % (rnd, self.max_rounds))

    # ----- assembly into a SpectralNetwork -----
    def to_network(self) -> SpectralNetwork:
        net = SpectralNetwork()
        net.warnings = list(self.warnings)
        branch_vertex: Dict[int, int] = {}
        for vertex in self.scan_vertices():
            branch_vertex[vertex.id] = net.add_vertex("initial", vertex.point).id
        joint_vertex: Dict[int, int] = {}  # child strand id -> vertex id
        for joint in self.joints:
            joint_vertex[joint["child"]] = net.add_vertex(
                "interaction_creation", joint["point"]).id
        # split points per strand: joints where the strand is a parent
        cuts: Dict[int, List[tuple]] = {s.id: [] for s in self.strands}
        for joint in self.joints:
            vid = joint_vertex[joint["child"]]
            for pid in joint["parents"]:
                cuts[pid].append((joint["params"][pid], vid, joint["point"]))
        for strand in self.strands:
            if strand.origin[0] == "branch":
                source = branch_vertex[strand.origin[1]]
            else:
                source = joint_vertex[strand.id]
            pieces = self._split(strand, sorted(cuts[strand.id]))
            for (route, start_param, end_param, target_vid) in pieces:
                target = target_vid if target_vid is not None else "end:" + strand.chord
                label = strand.label_at(start_param) if start_param else strand.start_label
                end_label = strand.label_at(end_param) if end_param else strand.final_label()
                net.add_wall(label, source, target, route, strand.round, strand.round,
                             strand=strand.id,
                             origin=strand.origin,
                             chord=strand.chord,
                             label_at_target=end_label)
                if isinstance(target, int):
                    source = target
        return net

    def _split(self, strand: Strand, cut_list):
        """Cut a strand polyline at its parent-joints.

        Yields (route, start_param, end_param, target_vertex) per piece;
        params are None at the strand's own ends.
        """
        poly = strand.polyline
        pieces = []
        start_param: Optional[Param] = None
        start_pt = poly[0]
        start_idx = 0
        for param, vid, pt in cut_list:
            i, _ = param
            route = [start_pt] + poly[start_idx + 1: i + 1] + [pt]
            pieces.append((route, start_param, param, vid))
            start_param, start_pt, start_idx = param, pt, i
        route = [start_pt] + poly[start_idx + 1:]
        pieces.append((route, start_param, None, None))
        return pieces


def build_forest(bent: BentWeave, max_rounds: int = 100, orientation=None) -> SpectralNetwork:
    builder = build_forest_strands(bent, max_rounds=max_rounds, orientation=orientation)
    net = builder.to_network()
    net.forest = builder  # in-memory handle for downstream computations
    return net


def build_forest_strands(bent: BentWeave, max_rounds: int = 100,
                         orientation=None) -> ForestBuilder:
    scale = Fraction(1, 64)
    last_err = None
    for _ in range(4):
        builder = ForestBuilder(bent, orientation=orientation, scale=scale,
                                max_rounds=max_rounds)
        try:
            return builder.build()
        except NonGenericGeometry as err:
            last_err = err
            scale /= 16
    raise RuntimeError("geometry stayed non-generic after retries: %s" % last_err)

