"""D4-trees, soliton classes in surface homology, and BPS indices.

Each wall of a forest network determines a rooted flow tree: the wall itself
plus, recursively, the parent segments feeding each creation joint, with
leaves at branch points.  The tree's lift to the weave surface L (up one
sheet, back down the other, closed at branch points and capped along the
boundary to the marked points) is a relative 1-cycle in H_1(L, T).  Its
class is computed exactly by intersection pairing against a pool of lifted
test curves running from boundary to boundary, expressed in the basis of
the right-edge (b-branch) tree classes s_1, ..., s_l.

All geometry is exact rational.  A degeneracy raises NonGenericGeometry,
which propagates to the caller; nothing here retries (transport around a
loop re-jitters the loop, in ``Transport._loop_transport``).
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .forest import ForestBuilder
from .geometry import (
    NonGenericGeometry,
    Param,
    Point,
    PolylineSet,
    interp,
    transpose,
    truncated,
    walk_sheets,
)
from .laurent import FactoredMatrix

# where a wall's BPS entries are based: a parameter just past its birth point
BIRTH_PARAM: Param = (0, Fraction(1, 997))
# how close caps and boundary arcs run to the top boundary: a cap's first
# leg runs CAP_EPS right of its start, up to height -CAP_EPS/2
CAP_EPS = Fraction(1, 2 ** 24)


class LiftedPiece:
    """An oriented path on the surface: base polyline + evolving sheet.

    ``events`` is a sorted list of weave-line crossings (param, letter,
    side); the local sheet before the first event is ``start_sheet``.
    ``orientation`` multiplies this piece's contribution to intersection
    pairings and its boundary.  ``pairings`` memoizes the path's test-curve
    pairings for every start sheet; copies made by ``relift`` share it.
    """

    def __init__(self, polyline, start_sheet: int, events, orientation: int):
        self.polyline = list(polyline)
        self.start_sheet = start_sheet
        self.events = sorted(events)
        self.orientation = orientation
        self.pairings: Dict["PairingLines", list] = {}

    def relift(self, start_sheet: int, orientation: int) -> "LiftedPiece":
        """The same path and events, lifted from another start sheet."""
        twin = copy.copy(self)
        twin.start_sheet, twin.orientation = start_sheet, orientation
        return twin

    def end_sheet(self) -> int:
        return walk_sheets((self.start_sheet,), self.events)[0][0]


class PairingLines:
    """Test curves: segments, each lifted to every sheet.  Row
    ``line * n + sheet - 1`` of the pairing matrix is the lift of the
    ``line``-th segment starting on ``sheet``.  A piece's crossings with all
    the lines are found in one query and read off for all n lifts at once.
    """

    def __init__(self, lines: Sequence[Sequence[Point]], builder: ForestBuilder, n: int):
        self.n, self.records = n, []
        self.lines = PolylineSet((line, k) for k, line in enumerate(lines))
        for k, line in enumerate(lines):
            events = builder.events_along(line)
            # inverse sheet permutations after each prefix of events:
            # which lift of the line is on a given sheet there
            perm = tuple(range(n + 1))
            inverses = [perm]
            for _, letter, _ in events:
                perm = tuple(transpose(s, letter) for s in perm)
                inverses.append(tuple(sorted(range(n + 1), key=perm.__getitem__)))
            self.records.append((k * n - 1, [param for param, _, _ in events], inverses))
        self.rows = len(lines) * n

    def pairing(self, piece: LiftedPiece) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The rows of the test lifts the piece meets and its pairings with
        them, before its orientation is applied; computed once for all
        start sheets."""
        if self not in piece.pairings:
            params = [p for p, _, _ in piece.events]
            perms = [tuple(range(self.n + 1))]  # start sheet -> sheet after each event
            for _, letter, _ in piece.events:
                perms.append(tuple(transpose(s, letter) for s in perms[-1]))
            totals: List[Dict[int, int]] = [{} for _ in range(self.n)]
            for pa, k, pb, _, side in self.lines.crossings(piece.polyline):
                base, keys, inverses = self.records[k]
                inverse = inverses[bisect_left(keys, pb)]
                perm = perms[bisect_left(params, pa)]
                for total, sheet in zip(totals, perm[1:]):
                    row = base + inverse[sheet]
                    # side is (line tangent) x (piece tangent); the pairing
                    # counts (piece tangent) x (line tangent)
                    total[row] = total.get(row, 0) - side
            piece.pairings[self] = [(tuple(total), tuple(total.values()))
                                    for total in totals]
        return piece.pairings[self][piece.start_sheet - 1]


@dataclass(frozen=True)
class SolitonClass:
    """A soliton's homology data: monomial exponents, sign, fiber parity.

    ``sign`` is the product of the tree's seed signs; ``h_parity`` counts the
    creation twists picked up at joints, mod 2.  Evaluation at q = -1 folds
    the parity into the sign (``effective_sign``), which is the coefficient
    that enters augmentations and transport matrices.
    """

    monomial: Tuple[int, ...]
    sign: int
    h_parity: int

    @property
    def effective_sign(self) -> int:
        return -self.sign if self.h_parity else self.sign

    def concat(self, other: "SolitonClass", twist: int) -> "SolitonClass":
        """Concatenation at a creation joint with the joint's twist bit."""
        mono = tuple(a + b for a, b in zip(self.monomial, other.monomial))
        return SolitonClass(mono, self.sign * other.sign,
                            (self.h_parity + other.h_parity + twist) % 2)


def quadratic_refinement(exponents) -> int:
    """Q(x) = sum x_i (x_i - 1) / 2, a quadratic refinement of the pairing."""
    return sum(x * (x - 1) // 2 for x in exponents)


@dataclass
class D4Tree:
    """Rooted flowtree of a wall: the wall plus recursive parent segments."""

    root_strand: int
    pieces: List[tuple]  # (strand_id, end_param or None) in discovery order
    joints: List[dict]


def tree_of_strand(builder: ForestBuilder, strand_id: int) -> D4Tree:
    pieces: List[tuple] = []
    used_joints: List[dict] = []

    def collect(sid: int, end_param):
        pieces.append((sid, end_param))
        strand = builder.strands[sid]
        if strand.origin[0] == "joint":
            joint = builder.born_at[sid]
            used_joints.append(joint)
            for pid in joint["parents"]:
                collect(pid, joint["params"][pid])

    collect(strand_id, None)
    return D4Tree(strand_id, pieces, used_joints)


class HomologyEngine:
    """Exact H_1(L, T) classes for flowtrees and boundary arcs."""

    def __init__(self, builder: ForestBuilder):
        self.builder = builder
        self.bent = builder.bent
        self.weave = builder.weave
        self.obstacles = builder.obstacles
        n = self.weave.strand_count
        self.marked = (self.bent.marked_x, Fraction(0))
        # bounding depths
        lows = [min(p[1] for p in seg.points) for seg in self.obstacles]
        self.y_deep = min(lows) - 1
        highs_x = [max(p[0] for p in seg.points) for seg in self.obstacles]
        self.x_max = max(highs_x + [self.bent.marked_x])
        # generator s_k: the class of the b-strand that leaves a branch point
        # along its top-right edge and ends at chord z_k; ordered by k
        b_strands = sorted((int(s.chord[2:]), s.id) for s in builder.strands
                           if s.origin[0] == "branch" and s.origin[2] == "b")
        self.gen_names = tuple("s_%d" % k for k, _ in b_strands)
        self.basis_strands = [sid for _, sid in b_strands]
        self._tests = self._make_tests(n)
        # lifts of the strand pieces the forest fixes, by (strand, end param)
        self._strand_pieces: Dict[tuple, List[LiftedPiece]] = {}
        self._recent_caps: Dict[Point, LiftedPiece] = {}
        # basis: cycle classes s_1..s_l, then boundary-arc classes through
        # the marked points t_1..t_n (these may satisfy relations; Gaussian
        # elimination prefers the s-columns, so arc usage is minimized)
        self._basis_chains = ([self.tree_chain(sid) for sid in self.basis_strands]
                              + [self.arc_chain(i) for i in range(1, n + 1)])
        self.n_cycles = len(self.basis_strands)
        columns = [self._pairing_vector(chain) for chain in self._basis_chains]
        self.matrix = [list(row) for row in zip(*columns)]
        self._factored = FactoredMatrix(self.matrix)
        # the cycle columns must be independent (arc columns may overlap)
        rank = sum(c < self.n_cycles for c in self._factored.pivots)
        if rank != self.n_cycles:
            raise NonGenericGeometry(
                "test curves span rank %d < %d generators" % (rank, self.n_cycles))

    # ----- test curve pool -----
    def _make_tests(self, n: int) -> PairingLines:
        # vertical lines run past the boundary arcs' deep leg so those
        # crossings count; horizontal lines distinguish branch points
        # stacked in one column
        xs = [Fraction(1, 3) + k for k in range(math.ceil(self.x_max + Fraction(2, 3)))]
        ys = [Fraction(-1, 3) - k for k in range(math.ceil(-self.y_deep - Fraction(1, 3)))]
        return PairingLines([[(x, Fraction(0)), (x, self.y_deep - 2)] for x in xs]
                            + [[(Fraction(-3), y), (self.x_max + 3, y)] for y in ys],
                            self.builder, n)

    # ----- chains -----
    def cap(self, start: Point, start_sheet: int, orientation: int) -> LiftedPiece:
        """A path from ``start`` to the marked point.  It depends on
        ``start`` alone, so caps at the few most recent starts share their
        weave-line events and test-curve pairings (a path transport caps
        each wall crossing point 2n + 2 times in a row)."""
        cap = self._recent_caps.pop(start, None)
        if cap is None:
            poly = self.cap_polyline(start)
            cap = LiftedPiece(poly, 1, self.builder.events_along(poly), 1)
        self._recent_caps[start] = cap
        if len(self._recent_caps) > 4:
            del self._recent_caps[next(iter(self._recent_caps))]
        return cap.relift(start_sheet, orientation)

    def cap_polyline(self, start: Point) -> List[Point]:
        """The base path of every cap at ``start``."""
        return [start, (start[0] + CAP_EPS, -CAP_EPS / 2), self.marked]

    def _strand_lifts(self, sid: int, end_param: Optional[Param]) -> List[LiftedPiece]:
        """Both lifts of a strand, cut at ``end_param`` (default: its end)."""
        strand = self.builder.strands[sid]
        i0, t0 = end_param or (len(strand.polyline) - 2, Fraction(1))
        # params on the cut segment rescale to the shortened segment
        events = [((i0, p[1] / t0) if p[0] == i0 else p, letter, side)
                  for p, letter, side in strand.crossings if p < (i0, t0)]
        lab = strand.start_label
        piece = LiftedPiece(truncated(strand.polyline, (i0, t0)), lab[0], events, 1)
        return [piece, piece.relift(lab[1], -1)]

    def tree_chain(self, strand_id: int,
                   root_param: Optional[Param] = None) -> List[LiftedPiece]:
        """Lifted chain of a wall's flowtree, capped at the root's end.

        With ``root_param`` the root wall is truncated there and capped at
        the truncation point instead of at its chord: the resulting class is
        the wall's soliton class based at that parameter (the detour class
        used by parallel transport).
        """
        tree = tree_of_strand(self.builder, strand_id)
        pieces: List[LiftedPiece] = []
        for sid, end_param in tree.pieces:
            if sid == strand_id and root_param is not None:
                pieces += self._strand_lifts(sid, root_param)
                continue
            key = (sid, end_param)
            if key not in self._strand_pieces:
                self._strand_pieces[key] = self._strand_lifts(sid, end_param)
            pieces += self._strand_pieces[key]
        # caps at the root's endpoint (chord end, or the truncation point)
        root = self.builder.strands[strand_id]
        if root_param is None:
            end = root.polyline[-1]
        else:
            end = interp(root.polyline, root_param)
        final = root.label_at(root_param)
        pieces.append(self.cap(end, final[0], 1))
        pieces.append(self.cap(end, final[1], -1))
        self._check_boundary(pieces)
        return pieces

    def arc_chain(self, marked_index: int) -> List[LiftedPiece]:
        """Boundary arc from marked lift t_i rightward around the surface."""
        mx, _ = self.marked
        poly = [
            self.marked,
            (self.x_max + 2, -CAP_EPS),
            (self.x_max + 2, self.y_deep - 1),
            (Fraction(-2), self.y_deep - 1),
            (Fraction(-2), -CAP_EPS),
            (mx - CAP_EPS, -CAP_EPS),
            self.marked,
        ]
        return [LiftedPiece(poly, marked_index, self.builder.events_along(poly), 1)]

    def _check_boundary(self, pieces: Sequence[LiftedPiece]):
        residue: Dict[tuple, int] = {}

        def add(point, sheet, mult):
            key = (point, sheet)
            residue[key] = residue.get(key, 0) + mult
            if not residue[key]:
                del residue[key]

        for piece in pieces:
            add(piece.polyline[0], piece.start_sheet, -piece.orientation)
            add(piece.polyline[-1], piece.end_sheet(), piece.orientation)
        # identify branch-point sheets: at a trivalent vertex with letter k,
        # sheets k and k+1 name the same surface point
        for vertex in self.weave.trivalent_vertices():
            k = vertex.letter
            lo = (vertex.point, k)
            hi = (vertex.point, k + 1)
            if lo in residue and hi in residue:
                s = residue.pop(lo) + residue.pop(hi)
                if s:
                    residue[lo] = s
        leftovers = {key for key in residue if key[0] != self.marked}
        if leftovers:
            raise AssertionError("chain boundary off the marked points: %r"
                                 % sorted(leftovers)[:4])

    # ----- classes -----
    def _pairing_vector(self, pieces: Sequence[LiftedPiece]) -> List[int]:
        target = [0] * self._tests.rows
        for piece in pieces:
            rows, values = self._tests.pairing(piece)
            for row, value in zip(rows, values):
                target[row] += piece.orientation * value
        return target

    def class_of_chain(self, pieces: Sequence[LiftedPiece]):
        """(cycle exponents s_1..s_l, boundary-arc exponents t_1..t_n)."""
        solution = self._factored.solve(self._pairing_vector(pieces))
        if solution is None:
            raise NonGenericGeometry("pairing vector outside basis span")
        scale = self._factored.scale
        if any(value % scale for value in solution):
            raise NonGenericGeometry("non-integral class coefficients %s"
                                     % [Fraction(v, scale) for v in solution])
        exps = [value // scale for value in solution]
        return tuple(exps[: self.n_cycles]), tuple(exps[self.n_cycles:])


class SolitonCatalog:
    """Soliton classes with signs for every wall of a forest network.

    The sign convention is recursive and local:

    * a branch-point wall (seed) carries sign (-1)^Q of its full capped
      class, with Q the quadratic refinement sum x_i(x_i-1)/2;
    * a creation child carries the product of its parents' signs times the
      joint twist (-1)^g, g the twist bit the forest records at the joint:
      1 exactly when the parent tangents there satisfy d_ij x d_jk > 0
      (the ij-parent being the one whose label at the joint shares the
      child's starting lower sheet);
    * a boundary arc through the marked point on sheet i carries sign
      (-1)^(Q + l + 1) with l the number of branch points.

    The convention is pinned by requiring seed walls ending at their own
    dual chords to contribute +s_i, the known cancelling pairs to sum to
    zero, and all reference augmentation tables to be reproduced; the twist
    bit g is recorded as ``h_parity`` so that signs multiply and parities
    add at every joint.
    """

    def __init__(self, builder: ForestBuilder):
        self.builder = builder
        self.engine = HomologyEngine(builder)
        self._sign_parity: Dict[int, Tuple[int, int]] = {}
        self._full_class: Dict[int, tuple] = {}

    # ----- per-strand data -----
    def full_class(self, sid: int):
        if sid not in self._full_class:
            self._full_class[sid] = self.engine.class_of_chain(
                self.engine.tree_chain(sid))
        return self._full_class[sid]

    def sign_parity(self, sid: int) -> Tuple[int, int]:
        """The seed-sign product of the strand's tree and the parity of the
        twists at its joints."""
        if sid not in self._sign_parity:
            joint = self.builder.born_at.get(sid)
            if joint is None:
                cyc, _arc = self.full_class(sid)
                value = (-1 if quadratic_refinement(cyc) % 2 else 1, 0)
            else:
                (s1, h1), (s2, h2) = map(self.sign_parity, joint["parents"])
                value = (s1 * s2, (h1 + h2 + joint["twist"]) % 2)
            self._sign_parity[sid] = value
        return self._sign_parity[sid]

    def soliton(self, sid: int) -> SolitonClass:
        """The wall's soliton class, based at its chord end."""
        cyc, _arc = self.full_class(sid)
        return SolitonClass(cyc, *self.sign_parity(sid))

    def arc_soliton(self, marked_index: int) -> SolitonClass:
        """Signed class of the boundary arc through marked point i."""
        cyc, _arc = self.engine.class_of_chain(self.engine.arc_chain(marked_index))
        ell = len(self.engine.gen_names)
        q = quadratic_refinement(cyc) + ell + 1
        return SolitonClass(cyc, -1 if q % 2 else 1, 0)

    # ----- BPS indices -----
    def bps_table(self) -> Dict[int, Dict[SolitonClass, int]]:
        """Recursive vanilla BPS indices per wall via the Hori-Vafa rule.

        Initial walls carry mu = 1 on their soliton class; at each creation
        joint the child's entries are the convolutions mu1 * mu2 over
        concatenations of parent classes based at the joint, including the
        joint's twist bit.  Classes are based at each wall's birth point so
        the composition is literal concatenation.
        """
        table: Dict[int, Dict[SolitonClass, int]] = {}
        for strand in self.builder.strands:
            sid = strand.id
            if strand.origin[0] == "branch":
                cyc, _ = self.engine.class_of_chain(
                    self.engine.tree_chain(sid, root_param=BIRTH_PARAM))
                table[sid] = {SolitonClass(cyc, self.sign_parity(sid)[0], 0): 1}
            else:
                joint = self.builder.born_at[sid]
                g = joint["twist"]
                pij, pjk = joint["parents"]
                entries: Dict[SolitonClass, int] = {}
                for rho1, mu1 in self._based_at(pij, joint["params"][pij]).items():
                    for rho2, mu2 in self._based_at(pjk, joint["params"][pjk]).items():
                        rho = rho1.concat(rho2, g)
                        entries[rho] = entries.get(rho, 0) + mu1 * mu2
                table[sid] = {r: m for r, m in entries.items() if m}
        return table

    def _based_at(self, sid: int, param: Param) -> Dict[SolitonClass, int]:
        """The wall's index entries rebased at ``param``."""
        cyc, _ = self.engine.class_of_chain(
            self.engine.tree_chain(sid, root_param=param))
        return {SolitonClass(cyc, *self.sign_parity(sid)): 1}

    def bps_table_bruteforce(self) -> Dict[int, Dict[SolitonClass, int]]:
        """Oracle: enumerate every flowtree per wall and sum signed classes.

        Backward extension from a wall point stops at branch points and
        splits at creation joints into the two parents; forest networks are
        creative, so each wall has exactly one flowtree.  Classes come from
        the full geometric chain of each tree (exact homology solve), signs
        from walking the tree bottom-up; no Hori-Vafa recursion is used, so
        agreement with ``bps_table`` checks both the homological additivity
        at joints and the twist bookkeeping.
        """
        return {strand.id: {self._tree_soliton(tree_of_strand(self.builder, strand.id)): 1}
                for strand in self.builder.strands}

    def _tree_soliton(self, tree: D4Tree) -> SolitonClass:
        cyc, _ = self.engine.class_of_chain(
            self.engine.tree_chain(tree.root_strand, root_param=BIRTH_PARAM))
        sign = 1
        h = 0
        for sid, _ep in tree.pieces:
            strand = self.builder.strands[sid]
            if strand.origin[0] == "branch":
                seed_cyc, _ = self.full_class(sid)
                sign *= -1 if quadratic_refinement(seed_cyc) % 2 else 1
        for joint in tree.joints:
            h = (h + joint["twist"]) % 2
        return SolitonClass(cyc, sign, h)
