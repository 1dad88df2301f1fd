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
lines at small per-flowline offsets delta = OFFSET_SCALE / (id + 2), so later
flowlines hug closer, and crossing detection and ordering are deterministic.
Two degeneracies are fixed where they occur.  A joint child lifts up and to
the left, off a parent leg that is vertical at the joint; and a rightward leg
whose gap before its turn is at most delta halves that gap for its offset, so
that strand may hug closer than later ones.  The forest is built once; any
other coincidence raises NonGenericGeometry, and a rightward flowline with no
edge to climb raises PropagationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .braid import BraidWord, demazure_product, length
from .geometry import (NonGenericGeometry, Param, Point, Polyline, PolylineSet, exact_point,
                       prepare, transpose, walk_sheets)
from .network import SpectralNetwork, compose_labels
from .weave import BentWeave, Segment, WeaveVertex


# creation steps one round may take before the build gives up
MAX_CREATION_STEPS = 100
# strand k hugs the weave lines at OFFSET_SCALE / (k + 2), unless a gap is narrower
OFFSET_SCALE = Fraction(1, 64)


class PropagationError(RuntimeError):
    """A rightward flowline ran off the weave without finding its edge, or
    a round ran past MAX_CREATION_STEPS creations."""


@dataclass
class Strand:
    """One full flowline: a maximal wall path from its birth to a chord."""

    id: int
    origin: tuple  # ("branch", vertex_id, branch) | ("joint", parent_a, parent_b)
    start_label: Tuple[int, int]
    round: int
    delta: Fraction
    polyline: List[Point] = field(default_factory=list)
    path: Optional[Polyline] = None  # the polyline's integer form, once it is grown
    # weave-line crossings as (param, letter, side), side the sign of
    # (weave-line tangent) x (strand tangent)
    crossings: List[tuple] = field(default_factory=list)
    chord: Optional[str] = None

    def label_at(self, param: Optional[Param] = None) -> Tuple[int, int]:
        """The ordered sheet pair just before ``param`` (default: the end)."""
        return walk_sheets(self.start_label, self.crossings, param)[0]


class ForestBuilder:
    """Grows all strands of the augmentation forest for one bent weave."""

    def __init__(self, bent: BentWeave):
        self.bent = bent
        self.weave = bent.weave
        self.obstacles: List[Segment] = list(self.weave.segments) + list(bent.bent_segments)
        # tagged (letter, segment id), so a crossing names the line and its
        # letter; every slot below the top, a lower end not at a vertex, is
        # a join of two segments
        vertex_points = {v.point for v in self.weave.vertices}
        self.weave_lines = PolylineSet(
            ((seg.points, (seg.letter, seg.id)) for seg in self.obstacles),
            joins=[seg.points[-1] for seg in self.obstacles if seg.points[-1] not in vertex_points])
        # the weave-line corners at each height, in obstacle order
        self._corners: Dict[Fraction, List[Point]] = {}
        for seg in self.obstacles:
            for corner in seg.points:
                self._corners.setdefault(corner[1], []).append(corner)
        self._top_name_by_x = {x: name for name, x in bent.top_positions.items()}
        # chord name -> letter of the weave line that reaches the top boundary there
        self.name_to_letter = {self._top_name_by_x[seg.points[0][0]]: seg.letter
                               for seg in self.obstacles if seg.points[0][1] == 0}
        self.strands: List[Strand] = []
        self.walls = PolylineSet()  # the strands met so far, tagged by id
        self.joints: List[dict] = []  # creation events in processing order
        self.born_at: Dict[int, dict] = {}  # child strand id -> its creation joint

    def scan_vertices(self):
        return sorted(self.weave.trivalent_vertices(), key=lambda v: (-v.row, v.position))

    # ----- propagation -----
    def _new_strand(self, origin, label, rnd) -> Strand:
        strand = Strand(len(self.strands), origin, label, rnd,
                        OFFSET_SCALE / (len(self.strands) + 2))
        self.strands.append(strand)
        return strand

    def propagate_seed(self, vertex: WeaveVertex, branch: str, edge: Optional[Segment],
                       rnd: int) -> Strand:
        """Grow a branch of ``vertex``: up ``edge``, or rightward if it is None."""
        # every branch of a letter-k vertex carries the ordered label (k, k+1)
        label = (vertex.letter, vertex.letter + 1)
        strand = self._new_strand(("branch", vertex.id, branch), label, rnd)
        strand.polyline = [vertex.point]
        if edge is None:
            self._march_right(strand, vertex.point, label)
        else:
            self._hug(strand, edge, len(edge.points) - 2)
        self._finalize(strand)
        return strand

    def propagate_joint(self, parent_a: Strand, parent_b: Strand, pa: Param, pb: Param,
                        label, point, rnd) -> Strand:
        strand = self._new_strand(("joint", parent_a.id, parent_b.id), label, rnd)
        # emanate just above the joint so the rightward leg is parallel to,
        # not collinear with, a horizontal parent leg; and up-left off a
        # parent leg that is vertical there, so the lift does not run along it
        delta = strand.delta
        vertical = any(parent.polyline[index][0] == parent.polyline[index + 1][0]
                       for parent, (index, _, _) in ((parent_a, pa), (parent_b, pb)))
        lift = (point[0] - delta / 2 if vertical else point[0], point[1] + delta)
        strand.polyline = [point, lift]
        # the lift itself may hop over weave lines squeezed near the joint;
        # fold those conjugations into the label the march starts with
        label, _ = walk_sheets(label, self.events_along([point, lift]))
        self._march_right(strand, lift, label)
        self._finalize(strand)
        return strand

    def _march_right(self, strand: Strand, start: Point, label):
        """Run right from ``start`` to the first weave line carrying the
        label's sheet pair, conjugating the label by each line crossed on
        the way, then climb that line.  Where the gap between the last line
        crossed (or ``start``) and that line is at most delta, the strand's
        delta shrinks to half the gap."""
        x0, y0 = start
        corner = next((c for c in self._corners.get(y0, ()) if c[0] > x0), None)
        if corner is not None:
            raise NonGenericGeometry("weave-line corner on ray at %r" % (corner,))
        prev_x = x0
        ray = [start, (self.bent.marked_x, y0)]  # every weave line lies left of marked_x
        for _, (k, seg_id), (index, _, _), pt, _ in self.weave_lines.crossings(ray):
            x = Fraction(pt[0], pt[2])
            if {label[0], label[1]} == {k, k + 1}:
                if x - strand.delta <= prev_x:
                    strand.delta = (x - prev_x) / 2
                strand.polyline.append((x - strand.delta, y0))
                self._hug(strand, self.obstacles[seg_id], index)
                return
            label = tuple(transpose(s, k) for s in label)
            prev_x = x
        raise PropagationError(
            "rightward flowline from %r with label %r found no matching edge"
            % (strand.origin, strand.start_label))

    def _hug(self, strand: Strand, seg: Segment, index: int):
        """Climb ``seg`` from the top of its sub-segment ``index``, then the
        segments above it up to a chord, offset left by delta."""
        while True:
            strand.polyline += [(x - strand.delta, y) for x, y in seg.points[index::-1]]
            if seg.above is None:
                strand.chord = self._top_name_by_x[seg.points[0][0]]
                return
            seg, index = seg.above, len(seg.above.points) - 2

    def events_along(self, poly) -> List[tuple]:
        """The weave-line crossings of ``poly`` as sorted (param, letter, side)."""
        return [(param, letter, side) for param, (letter, _), _, _, side
                in self.weave_lines.crossings(poly)]

    def _finalize(self, strand: Strand):
        """Record all weave-line crossings and verify label bookkeeping."""
        strand.path = prepare(strand.polyline)
        strand.crossings = self.events_along(strand.path)
        final = strand.label_at()
        m = self.name_to_letter[strand.chord]
        if {final[0], final[1]} != {m, m + 1}:
            raise NonGenericGeometry(
                "strand %d label %r inconsistent with chord %s (letter %d)"
                % (strand.id, final, strand.chord, m))

    # ----- rounds -----
    def build(self):
        for rnd, vertex in enumerate(self.scan_vertices(), start=1):
            new = [self.propagate_seed(vertex, branch, edge, rnd)
                   for branch, edge in zip("abc", vertex.upper + [None])]
            self._extend_round(new, rnd)
        return self

    def _extend_round(self, new: List[Strand], rnd: int):
        """Run creations to a fixed point, always at the least crossing point.
        Each new strand is met once with ``walls`` (the older rounds' strands
        and the new ones before it) and then joins them.  A creation joint
        records its parents in (ij, jk) order and its twist bit: 1 exactly
        when the parent tangents there satisfy d_ij x d_jk > 0."""
        events: List[tuple] = []
        done = 0  # new[:done] are in walls
        for _ in range(MAX_CREATION_STEPS):
            for sn in new[done:]:
                for pn, oid, po, pt, side in self.walls.crossings(sn.path):
                    label = sn.label_at(pn)
                    child_label = compose_labels([label, self.strands[oid].label_at(po)])
                    if child_label is not None:
                        first = label[0] == child_label[0]  # sn is the ij-parent
                        events.append((*exact_point(pt), sn.id, oid, pn, po, child_label,
                                       (sn.id, oid) if first else (oid, sn.id),
                                       int((side > 0) != first)))
                self.walls.add(sn.path, sn.id)
                done += 1
            if not events:
                return
            event = min(events, key=lambda e: e[:4])
            events.remove(event)
            x, y, a_id, b_id, pa, pb, child_label, parents, twist = event
            parent_a, parent_b = self.strands[a_id], self.strands[b_id]
            child = self.propagate_joint(parent_a, parent_b, pa, pb, child_label, (x, y), rnd)
            joint = {
                "parents": parents,
                "twist": twist,
                "params": {a_id: pa, b_id: pb},
                "point": (x, y),
                "child": child.id,
            }
            self.joints.append(joint)
            self.born_at[child.id] = joint
            new.append(child)
        raise PropagationError("round %d exceeded %d creation steps (gapped guard)"
                               % (rnd, MAX_CREATION_STEPS))

    # ----- assembly into a SpectralNetwork -----
    def to_network(self) -> SpectralNetwork:
        net = SpectralNetwork()
        initial = {v.id: net.add_vertex("initial", v.point).id for v in self.scan_vertices()}

        def describe(sid, start, _stop):
            strand = self.strands[sid]
            label = strand.label_at(start) if start else strand.start_label
            return label, strand.round, strand.round

        net.add_cut_walls(
            [(s.id, initial[s.origin[1]] if s.origin[0] == "branch" else None,
              s.polyline, s.chord) for s in self.strands],
            [(j["point"], j["child"], j["params"]) for j in self.joints],
            describe)
        return net


def build_forest_strands(bent: BentWeave) -> ForestBuilder:
    """Grow the forest once.  The weave's bottom must be a reduced word; a
    non-generic coincidence raises NonGenericGeometry."""
    bottom = BraidWord(bent.strand_count, bent.weave.bottom)
    if length(demazure_product(bottom)) != len(bottom):
        raise ValueError("weave bottom %s is not a reduced word" % bottom)
    return ForestBuilder(bent).build()
