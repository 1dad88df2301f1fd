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
which propagates to the caller; nothing here or in transport retries.
"""

from __future__ import annotations

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
    Polyline,
    PolylineSet,
    ScaledPoint,
    exact_point,
    param_of,
    point_key,
    prepare,
    sheet_prefixes,
    truncated,
    walk_sheets,
)
from .laurent import FactoredMatrix

# where a wall's BPS entries are based: a parameter just past its birth point
BIRTH_PARAM: Param = param_of(0, Fraction(1, 997))
# how close caps and boundary arcs run to the top boundary: a cap's first
# leg runs CAP_EPS right of its start, up to height -CAP_EPS/2
CAP_EPS = Fraction(1, 2 ** 24)


class LiftedPath:
    """A base polyline in integer form and its sorted weave-line crossings
    (param, letter, side).  A chain lifts it as the triple (path, start
    sheet, orientation): the sheet before the first event, and the sign of
    the triple's contribution to pairings and boundary.  ``pairings`` holds
    the path's test-curve pairings for every start sheet, filled by
    ``PairingLines.pairing``."""

    __slots__ = ("polyline", "events", "pairings")

    def __init__(self, polyline, events):
        self.polyline = prepare(polyline)
        self.events = events
        self.pairings = None


class PairingLines:
    """Test curves: segments, each lifted to every sheet.  Row
    ``line * n + sheet - 1`` of the pairing matrix is the lift of the
    ``line``-th segment starting on ``sheet``.  A path's crossings with all
    the lines are found in one query and read off for all n lifts at once.
    """

    def __init__(self, lines: Sequence[Sequence[Point]], builder: ForestBuilder, n: int):
        self.n, self.records = n, []
        lines = [prepare(line) for line in lines]
        self.lines = PolylineSet((line, k) for k, line in enumerate(lines))
        for k, line in enumerate(lines):
            events = builder.events_along(line)
            # inverse sheet permutations after each prefix of events:
            # which lift of the line is on a given sheet there
            inverses = [tuple(sorted(range(n + 1), key=perm.__getitem__))
                        for perm in sheet_prefixes(events, n)]
            self.records.append((k * n - 1, [param for param, _, _ in events], inverses))
        self.rows = len(lines) * n

    def pairing(self, path: LiftedPath) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Per start sheet, the rows of the test lifts the path's lift
        meets and its pairings with them, before the orientation is
        applied; computed once."""
        if path.pairings is None:
            params = [p for p, _, _ in path.events]
            perms = sheet_prefixes(path.events, self.n)
            totals: List[Dict[int, int]] = [{} for _ in range(self.n)]
            for pa, k, pb, _, side in self.lines.crossings(path.polyline):
                base, keys, inverses = self.records[k]
                inverse = inverses[bisect_left(keys, pb)]
                perm = perms[bisect_left(params, pa)]
                for total, sheet in zip(totals, perm[1:]):
                    row = base + inverse[sheet]
                    # side is (line tangent) x (path tangent); the pairing
                    # counts (path tangent) x (line tangent)
                    total[row] = total.get(row, 0) - side
            path.pairings = [(tuple(total), tuple(total.values())) for total in totals]
        return path.pairings


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


def tree_of_strand(builder: ForestBuilder, strand_id: int) -> Tuple[List[tuple], List[dict]]:
    """A wall's flowtree (D4-tree): its pieces (strand id, end param; None
    for the root) in discovery order, and the joints where they meet."""
    pieces: List[tuple] = []
    joints: List[dict] = []

    def collect(sid: int, end_param):
        pieces.append((sid, end_param))
        if builder.strands[sid].origin[0] == "joint":
            joint = builder.born_at[sid]
            joints.append(joint)
            for pid in joint["parents"]:
                collect(pid, joint["params"][pid])

    collect(strand_id, None)
    return pieces, joints


class HomologyEngine:
    """Exact H_1(L, T) classes for flowtrees and boundary arcs."""

    def __init__(self, builder: ForestBuilder):
        self.builder = builder
        self.bent = builder.bent
        self.weave = builder.weave
        self.obstacles = builder.obstacles
        n = self.weave.strand_count
        self.marked = (self.bent.marked_x, Fraction(0))
        self._marked_key = point_key(self.marked)
        self._branches = [(point_key(v.point), v.letter) for v in self.weave.trivalent_vertices()]
        if not self.obstacles:
            raise ValueError("weave has no weave lines: its top word is empty")
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
        self._recent_caps: Dict[ScaledPoint, LiftedPath] = {}
        # the boundary arc, one path for every marked lift
        arc = prepare([self.marked, (self.x_max + 2, -CAP_EPS), (self.x_max + 2, self.y_deep - 1),
                       (Fraction(-2), self.y_deep - 1), (Fraction(-2), -CAP_EPS),
                       (self.marked[0] - CAP_EPS, -CAP_EPS), self.marked])
        self._arc = LiftedPath(arc, builder.events_along(arc))
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
    def cap(self, start: ScaledPoint) -> LiftedPath:
        """The path from ``start``, a ``point_key``, to the marked point,
        kept for the few most recent starts with its weave-line events and
        test-curve pairings.  A path transport caps its start once; a
        free-transport miss caps its sub-path's two ends once each, and a
        Stokes miss caps its wall crossing point once, between the misses
        of the two sub-paths that meet there.  A memo hit caps nothing, so
        the caps kept also serve the next path from the same start or to
        the same end, as the other path of a homotopic pair."""
        cap = self._recent_caps.pop(start, None)
        if cap is None:
            path = Polyline(self.cap_points(start))
            cap = LiftedPath(path, self.builder.events_along(path))
        self._recent_caps[start] = cap
        if len(self._recent_caps) > 4:
            del self._recent_caps[next(iter(self._recent_caps))]
        return cap

    def cap_points(self, start: ScaledPoint) -> List[ScaledPoint]:
        """A cap's scaled points: ``start``, (x + CAP_EPS, -CAP_EPS / 2), the marked point."""
        (x, _, d), (en, ed) = start, CAP_EPS.as_integer_ratio()
        return [start, (2 * (x * ed + en * d), -en * d, 2 * d * ed), self._marked_key]

    def _strand_lifts(self, sid: int, end_param: Optional[Param]) -> List[tuple]:
        """Both lifts of a strand, cut at ``end_param`` (default: its end)."""
        strand = self.builder.strands[sid]
        path, events = strand.path, strand.crossings
        if end_param is not None:
            i0, _, t0 = end_param
            # params on the cut segment rescale to the shortened segment
            events = [(param_of(i0, p[2] / t0) if p[0] == i0 else p, letter, side)
                      for p, letter, side in events if p < end_param]
            path = truncated(path, end_param)
        path, lab = LiftedPath(path, events), strand.start_label
        return [(path, lab[0], 1), (path, lab[1], -1)]

    def tree_chain(self, strand_id: int,
                   root_param: Optional[Param] = None) -> List[tuple]:
        """Lifted chain of a wall's flowtree, capped at the root's end.

        With ``root_param`` the root wall is truncated there and capped at
        the truncation point instead of at its chord: the resulting class is
        the wall's soliton class based at that parameter (the detour class
        used by parallel transport).
        """
        chain: List[tuple] = []
        # only the root piece has no end param
        for sid, end_param in tree_of_strand(self.builder, strand_id)[0]:
            chain += self._strand_lifts(sid, end_param or root_param)
        # caps at the end of the root's lift, which comes first
        final = self.builder.strands[strand_id].label_at(root_param)
        cap = self.cap(chain[0][0].polyline.ends[1])
        chain += [(cap, final[0], 1), (cap, final[1], -1)]
        self._check_boundary(chain)
        return chain

    def arc_chain(self, marked_index: int) -> List[tuple]:
        """Boundary arc from marked lift t_i rightward around the surface."""
        return [(self._arc, marked_index, 1)]

    def _check_boundary(self, chain: Sequence[tuple]):
        residue: Dict[tuple, int] = {}  # by (scaled point in lowest terms, sheet)

        def add(key, mult):
            value = residue.pop(key, 0) + mult
            if value:
                residue[key] = value

        for path, sheet, orientation in chain:
            start, end = path.polyline.ends
            add((start, sheet), -orientation)
            add((end, walk_sheets((sheet,), path.events)[0][0]), orientation)
        # identify branch-point sheets: at a trivalent vertex with letter k,
        # sheets k and k+1 name the same surface point
        for key, k in self._branches:
            lo, hi = (key, k), (key, k + 1)
            if lo in residue and hi in residue:
                s = residue.pop(lo) + residue.pop(hi)
                if s:
                    residue[lo] = s
        leftovers = sorted((exact_point(key), sheet)
                           for key, sheet in residue if key != self._marked_key)
        if leftovers:
            raise NonGenericGeometry("chain boundary off the marked points: %r" % leftovers[:4])

    # ----- classes -----
    def _pairing_vector(self, chain: Sequence[tuple]) -> List[int]:
        target = [0] * self._tests.rows
        for path, sheet, orientation in chain:
            rows, values = self._tests.pairing(path)[sheet - 1]
            for row, value in zip(rows, values):
                target[row] += orientation * value
        return target

    def class_of_chain(self, chain: Sequence[tuple]):
        """(cycle exponents s_1..s_l, boundary-arc exponents t_1..t_n) of a
        chain of (LiftedPath, start sheet, orientation) triples."""
        solution = self._factored.solve(self._pairing_vector(chain))
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

    def soliton(self, sid: int, param: Optional[Param] = None) -> SolitonClass:
        """The wall's soliton class, based at ``param`` (default: its chord
        end)."""
        if param is None:
            cyc, _arc = self.full_class(sid)
        else:
            cyc, _arc = self.engine.class_of_chain(self.engine.tree_chain(sid, param))
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

        The forest is creative, so each wall has one flowtree and one entry
        of index 1.  An initial wall carries its soliton class; at each
        creation joint the child carries the concatenation of its parents'
        classes based at the joint, with the joint's twist bit.  Classes are
        based at each wall's birth point so the composition is literal
        concatenation.
        """
        table: Dict[int, Dict[SolitonClass, int]] = {}
        for strand in self.builder.strands:
            sid = strand.id
            if strand.origin[0] == "branch":
                rho = self.soliton(sid, BIRTH_PARAM)
            else:
                joint = self.builder.born_at[sid]
                pij, pjk = joint["parents"]
                rho = self.soliton(pij, joint["params"][pij]).concat(
                    self.soliton(pjk, joint["params"][pjk]), joint["twist"])
            table[sid] = {rho: 1}
        return table

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
        return {strand.id: {self._tree_soliton(strand.id): 1} for strand in self.builder.strands}

    def _tree_soliton(self, sid: int) -> SolitonClass:
        pieces, joints = tree_of_strand(self.builder, sid)
        cyc, _ = self.engine.class_of_chain(self.engine.tree_chain(sid, root_param=BIRTH_PARAM))
        sign = math.prod(-1 if quadratic_refinement(self.full_class(pid)[0]) % 2 else 1
                         for pid, _ in pieces if self.builder.strands[pid].origin[0] == "branch")
        return SolitonClass(cyc, sign, sum(joint["twist"] for joint in joints) % 2)
