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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .geometry import NonGenericGeometry, Param, Point, PolylineSet, poly_crossings, transpose
from .network import SpectralNetwork
from .weave import BentWeave, Segment


class PropagationError(Exception):
    """A rightward flowline ran off the weave without finding its edge."""


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
    # weave-line crossings as (param, letter, point, side), side the sign of
    # (weave-line tangent) x (strand tangent)
    crossings: List[tuple] = field(default_factory=list)
    chord: Optional[str] = None

    def label_at(self, param: Optional[Param] = None) -> Tuple[int, int]:
        """The ordered sheet pair just before ``param`` (default: the end)."""
        label = self.start_label
        for p, letter, _, _ in self.crossings:
            if param is not None and p >= param:
                break
            label = tuple(transpose(s, letter) for s in label)
        return label

    def final_label(self) -> Tuple[int, int]:
        return self.label_at()


class ForestBuilder:
    """Grows all strands of the augmentation forest for one bent weave."""

    def __init__(self, bent: BentWeave, scale: Fraction):
        self.bent = bent
        self.weave = bent.weave
        self.scale = scale
        self.obstacles: List[Segment] = list(self.weave.segments) + list(bent.bent_segments)
        self.weave_lines = PolylineSet((seg.points, seg.letter) for seg in self.obstacles)
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
        # every branch of a letter-k vertex carries the ordered label (k, k+1)
        return [FlowlineSeed(vertex_id, branch, edge, (k, k + 1))
                for branch, edge in (("a", ups[0].id), ("b", ups[1].id), ("c", None))]

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
        for _, letter, _, _, _ in self.weave_lines.crossings([point, lift]):
            label = tuple(transpose(s, letter) for s in label)
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
                self._hug(strand, seg, (x, y0))
                return
            label = tuple(transpose(s, k) for s in label)
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
        strand.crossings = [(param, letter, pt, side) for param, letter, _, pt, side
                            in self.weave_lines.crossings(strand.polyline)]
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
        """Run creations to a fixed point, always at the least crossing point.
        Each new strand is intersected once, at the first step after it is
        added, with the old strands and with the new ones added before it."""
        old = [s for s in self.strands if s.round < rnd]
        events: List[tuple] = []
        done = 0  # new[:done] have been intersected
        for _ in range(100):  # creation steps a round may take
            for sn in new[done:]:
                for other in old + new[:done]:
                    for pn, po, pt in poly_crossings(sn.polyline, other.polyline):
                        child_label = _compose(sn.label_at(pn), other.label_at(po))
                        if child_label is not None:
                            events.append((pt[0], pt[1], sn.id, other.id, pn, po,
                                           child_label, other.round == rnd))
                done += 1
            if not events:
                return
            event = min(events, key=lambda e: e[:4])
            events.remove(event)
            x, y, a_id, b_id, pa, pb, child_label, both_new = event
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
                "child": child.id,
            })
            new.append(child)
        raise RuntimeError("round %d exceeded 100 creation steps (gapped guard)" % rnd)

    # ----- assembly into a SpectralNetwork -----
    def to_network(self) -> SpectralNetwork:
        net = SpectralNetwork()
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
            for (route, start_param, target_vid) in pieces:
                target = target_vid if target_vid is not None else "end:" + strand.chord
                label = strand.label_at(start_param) if start_param else strand.start_label
                net.add_wall(label, source, target, route, strand.round, strand.round)
                if isinstance(target, int):
                    source = target
        return net

    def _split(self, strand: Strand, cut_list):
        """Cut a strand polyline at its parent-joints.

        Yields (route, start_param, target_vertex) per piece; the first
        piece's start_param and the last piece's target are None.
        """
        poly = strand.polyline
        pieces = []
        start_param: Optional[Param] = None
        start_pt = poly[0]
        start_idx = 0
        for param, vid, pt in cut_list:
            i, _ = param
            route = [start_pt] + poly[start_idx + 1: i + 1] + [pt]
            pieces.append((route, start_param, vid))
            start_param, start_pt, start_idx = param, pt, i
        route = [start_pt] + poly[start_idx + 1:]
        pieces.append((route, start_param, None))
        return pieces


def build_forest_strands(bent: BentWeave) -> ForestBuilder:
    scale = Fraction(1, 64)
    last_err = None
    for _ in range(4):
        builder = ForestBuilder(bent, scale=scale)
        try:
            return builder.build()
        except NonGenericGeometry as err:
            last_err = err
            scale /= 16
    raise RuntimeError("geometry stayed non-generic after retries: %s" % last_err)

