"""D4-trees, soliton classes in surface homology, and BPS indices.

Each wall of a forest network determines a rooted flow tree: the wall itself
plus, recursively, the parent segments feeding each creation joint, with
leaves at branch points.  The tree's lift to the weave surface L (up one
sheet, back down the other, closed at branch points and capped along the
boundary to the marked points) is a relative 1-cycle in H_1(L, T), written
in the basis of the right-edge (b-branch) tree classes s_1, ..., s_l.
Classes are walks in the letter basis.  Join the marked point to every
branch point by a tree in the disk: the disk retracts onto it, and L rel T
onto its preimage, where each branch point's edge joins the two sheets of
its transposition and the other lifts retract away.  So H_1(L, T) is free
on one letter per cut (below; Fox's free calculus), and s_j is a word in the
letters: walking each b-strand's words gives an l x l integer matrix M,
unimodular exactly when s is a basis, and the letters' s-classes are M^-1.
Pairing against a pool of lifted test curves, boundary to boundary, is
built on the first ``class_of_chain`` only, for the ``bps_table_bruteforce``
oracle.

Each cut is a slit from a branch point b up to (bx - by/1000, 0); the
slits are parallel and disjoint, so the freely reduced word of a loop's
(cut, side) crossings with them is its class in pi_1 of the lower
half-plane less the branch points, based at the marked point.  Slit k lies
on the line f = 1000 X - Y = c_k, and a point on it lies on its left side,
half open, as in the crossing-number test for points in polygons (Hormann
and Agathos 2001): a segment whose f runs from f0 to f1 crosses the slit
exactly where min(f0, f1) <= c_k < max(f0, f1) and the crossing lies
strictly above b, on the side sign(f0 - f1), in the order of c_k along f
(``slits_along``).  So a path leaving a point on a cut to the right, or
arriving at one from the right, crosses the cut there, at an end, a
corner or a point it meets twice, and a segment along a cut crosses it
nowhere: every cap, wall and path below the top boundary has a word, that
of the curve moved just left where it meets a cut.  A path through b,
which ends the cut, crosses nothing there, so a cap through b reads as the
cap just left of it.  A capped lift's class and end marked sheet depend
on its marked start sheet t and word alone, and add along the word (Fox's
covering cocycle): the engine builds a letter table per (t, cut) once,
from the cut with the rightmost top leftward, reading each letter off its
cut, with no loop built.  The loop from the marked point left along the
top line, down the right side of cut k, round its branch point b, up its
left side and back across it reads v^-1 (k, -1) v, v the top word right
of k, and transposes b's two sheets carried up the cut and along the top
line to the marked point: so k's letter transposes their walks through
v^-1.  A hexavalent or tetravalent weave vertex on a cut, which the walk
up it would pass over, or a weave line crossing a cut on the top line
raises.  Each letter is a transposition, class c from one sheet to the
other, -c back and 0 elsewhere, so a walk ignores the side crossed, and a
letter and its inverse cancel.

A wall's class at p is C + walk(m1, w) - walk(m2, w), with W(p) its cut
crossings before p then the cap's, w = W(p0)^-1 W(p), (m1, m2) its label's
sheets at its base p0 through the cap there, and C the class at p0: for a
seed, p0 is its birth param and C the walk from m2 of W(p0)^-1 (k) W(p0),
k its branch point's cut; for a child, p0 is its start J and C the sum of
its parents' classes at J.  Walks add along a word, so the engine keeps
per wall, once the letters hold their classes and parents first, the walk
state (C plus the class walked from m1 less that from m2, and the two end
sheets) after W(p0)^-1 and after each of the wall's cut crossings: the
class at p is the state after the crossings before p, a prefix found by
bisection, walked on along p's cap word alone.

A cap runs from its start right and up to its corner (x + CAP_EPS,
-CAP_EPS/2), then to the marked point.  The engine crosses the top line
y = -CAP_EPS/2, from left of every line to below the marked point, once
with the weave lines and once with the slits, and keeps each crossing's x,
the sheet permutation from each weave line to the end and the slit word.
No weave-line or slit vertex lies in -CAP_EPS/2 <= y < 0 (the engine
raises otherwise) and every line lies left of the marked point, so a line
that enters the thin triangle of the second leg and the top line right of
the corner leaves it through the other of the two, once, and the lines of
one table do not meet there: the second leg crosses the top line's lines
right of the corner, in the same order and on the same sides.  So a cap's
events and word are its first leg's, the events queried and the slits
read off the cut lines, then the top line's past the corner, found by
bisection, and every class, word and permutation is the whole cap's.  A
corner on a weave line's top-line crossing is the whole cap's corner hit;
one on a slit's lies left of it, half open.

A marked-point value t_i is the class of the boundary arc: from the marked
point right, down below every line, left, up and back right along the top
line.  Every slit top lies left of the marked point (the engine raises
otherwise), so the arc crosses each slit once, rightward, by increasing top
x: its word ``arc_word`` is the top word, and t_i is the walk of that word
from marked sheet i, with no solve.

All geometry is exact rational.  A degeneracy raises NonGenericGeometry,
which propagates to the caller; nothing here or in transport retries.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .forest import ForestBuilder
from .geometry import (NonGenericGeometry, Param, Point, Polyline, PolylineSet, Ratio,
                       ScaledPoint, exact_point, interp, lowest_terms, param_of, point_key,
                       prepare, sheet_prefixes, transpose, truncated, walk_sheets)
from .laurent import FactoredMatrix
from .weave import LAYOUT_SCALE

# where a wall's BPS entries are based: a parameter just past its birth point
BIRTH_PARAM: Param = param_of(0, Fraction(1, 997))
# how close caps run to the top boundary: a cap's first leg runs CAP_EPS
# right of its start, up to height -CAP_EPS/2, and its second leg crosses
# what that line crosses right of there
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
        joint = builder.born_at.get(sid)
        if joint is not None:
            joints.append(joint)
            for pid in joint["parents"]:
                collect(pid, joint["params"][pid])

    collect(strand_id, None)
    return pieces, joints


class HomologyEngine:
    """Exact H_1(L, T) classes for flowtrees and free paths, and the slit
    words and letter table that wall classes and each t_i are read off.
    The test-curve pairing (``_tests``, ``matrix``, ``_factored``) is built
    on the first ``class_of_chain``."""

    def __init__(self, builder: ForestBuilder):
        self.builder = builder
        self.bent = builder.bent
        self.weave = builder.weave
        self.obstacles = builder.obstacles
        branch = self.weave.trivalent_vertices()
        self._branches = [(lowest_terms(*v.at), v.letter) for v in branch]
        if not self.obstacles:
            raise ValueError("weave has no weave lines: its top word is empty")
        # bounding depths
        self.y_deep = Fraction(min(y for seg in self.obstacles for _, y in seg.ints),
                               LAYOUT_SCALE) - 1
        self.x_max = exact_point(self.bent.marked)[0]  # every weave line lies left of it
        self._marked_key = lowest_terms(*self.bent.marked)
        # generator s_k: the class of the b-strand that leaves a branch point
        # along its top-right edge and ends at chord z_k; ordered by k
        b_strands = sorted((int(s.chord[2:]), s.id) for s in builder.strands
                           if s.origin[0] == "branch" and s.origin[2] == "b")
        self.gen_names = tuple("s_%d" % k for k, _ in b_strands)
        self.basis_strands = [sid for _, sid in b_strands]
        self._cut_of = {v.id: k for k, v in enumerate(branch)}
        # one slit per branch point, all parallel, up to the top boundary,
        # each on its own line 1000 x - y = c: by increasing c, c in lowest
        # terms, the cut and its branch point's y as (n, m), y = n / m, and
        # each c's float, which slits_along screens by
        self.cuts = [[(x, y), (x - y / 1000, Fraction(0))]
                     for x, y in (exact_point(key) for key, _ in self._branches)]
        by_c = sorted((1000 * x - y, k, y) for k, ((x, y), _) in enumerate(self.cuts))
        if len({c for c, _, _ in by_c}) != len(by_c):
            raise NonGenericGeometry("two branch cuts are collinear")
        if any(x >= self.x_max for _, (x, _) in self.cuts):
            raise NonGenericGeometry("a slit top lies at or right of the marked point")
        self._cut_lines = [(*c.as_integer_ratio(), k, *y.as_integer_ratio()) for c, k, y in by_c]
        self._cut_floats = [float(c) for c, _, _ in by_c]
        # the letters walk up the cuts, and a weave-line query passes over a
        # line's end met there, such as a hexavalent or tetravalent vertex
        for v in self.weave.vertices:
            x, y, d = v.at
            if v.kind != "trivalent" and any((1000 * x - y) * cm == cn * d and n * d <= y * m <= 0
                                             for cn, cm, _, n, m in self._cut_lines):
                raise NonGenericGeometry("%s weave vertex %d lies on a cut" % (v.kind, v.id))
        # right of every slit's top x, c / 1000, the cap word is [] (see cap_word)
        self._cuts_right = max((cn / (1000 * cm) for cn, cm, *_ in self._cut_lines),
                               default=-math.inf)
        # the top line y = -CAP_EPS/2, crossed once per table: a cap's second
        # leg crosses what it crosses right of the cap's corner (see
        # cap_sheets); every slit's vertices, a branch point and a top on
        # y = 0, are weave-line vertices or out of the strip
        e, d = CAP_EPS.as_integer_ratio()
        rows = builder.weave_lines.segments
        if any(-e * s <= 2 * d * y < 0 for *_, y0, _, dy, s in rows for y in (y0, y0 + dy)):
            raise NonGenericGeometry("a weave-line or slit vertex lies in -CAP_EPS/2 <= y < 0")
        top = prepare([(Fraction(math.floor(min(row[0] for row in rows)) - 1), -CAP_EPS / 2),
                       (self.x_max, -CAP_EPS / 2)])
        lines, slits = builder.weave_lines.crossings(top), self.slits_along(top.ints, top.scale)
        self._top_lines = top_table([pt for _, _, _, pt, _ in lines])
        self._top_cuts = top_table([interp(top, param) for param, _, _ in slits])
        # per crossing of the top line, the sheet permutation from there to its end
        n = self.weave.strand_count
        perms = [tuple(range(n + 1))]
        for _, (letter, _), *_ in reversed(lines):
            perms.append(tuple(perms[-1][transpose(s, letter)] for s in range(n + 1)))
        # the top word: each slit crossed once, rightward, by increasing top x
        self._top_perms, self.arc_word = perms[::-1], [(cut, side) for _, cut, side in slits]
        # each wall's cut crossings
        self._wall_slits = [self.slits_along(strand.path.ints, strand.path.scale)
                            for strand in builder.strands]
        self._letters: Dict[Tuple[int, int], tuple] = {}  # (marked sheet, cut) -> class, end
        for at in reversed(range(len(self.arc_word))):  # the letters build from the right
            self._add_letter(at)
        # each wall's letter-free origin part, the b-strands' first
        bases = {sid: self._origin(sid) for sid in self.basis_strands}
        # the letters' classes in the s-basis: the columns of M^-1, M's
        # column j being s_j in the letter basis
        factored = FactoredMatrix([list(row) for row in zip(*self._basis_columns(bases))])
        if not len(factored.pivots) == len(self.cuts) == len(self.basis_strands) \
                or factored.scale != 1:
            raise NonGenericGeometry("the b-strands' letter matrix is not unimodular")
        inverse = [tuple(factored.solve([int(j == k) for j in range(len(self.cuts))]))
                   for k in range(len(self.cuts))]
        for (t, k), (unit, end) in self._letters.items():
            self._letters[t, k] = tuple(unit[k] * v for v in inverse[k]), end
        self._origins: List[list] = []  # per wall, in id order: parents first
        for sid in range(len(builder.strands)):
            self._origins.append(self._walked(sid, bases[sid] if sid in bases else self._origin(sid)))

    # ----- test curve pool -----
    @cached_property
    def _tests(self) -> PairingLines:
        # vertical lines run from the top boundary to below every weave
        # line, so no chain passes under one; horizontal lines distinguish
        # branch points stacked in one column
        xs = [Fraction(1, 3) + k for k in range(math.ceil(self.x_max + Fraction(2, 3)))]
        ys = [Fraction(-1, 3) - k for k in range(math.ceil(-self.y_deep - Fraction(1, 3)))]
        return PairingLines([[(x, Fraction(0)), (x, self.y_deep - 2)] for x in xs]
                            + [[(Fraction(-3), y), (self.x_max + 3, y)] for y in ys],
                            self.builder, self.weave.strand_count)

    @cached_property
    def _basis_chains(self) -> List[List[tuple]]:
        return [self.tree_chain(sid) for sid in self.basis_strands]

    @cached_property
    def matrix(self) -> List[List[int]]:
        """The test curves' pairings with s_1..s_l, one column each."""
        return [list(row) for row in zip(*map(self._pairing_vector, self._basis_chains))]

    @cached_property
    def _factored(self) -> FactoredMatrix:
        """``matrix`` factored; the test curves must tell s_1..s_l apart."""
        factored = FactoredMatrix(self.matrix)
        if len(factored.pivots) != len(self.basis_strands):
            raise NonGenericGeometry("test curves span rank %d < %d generators"
                                     % (len(factored.pivots), len(self.basis_strands)))
        return factored

    # ----- chains -----
    def cap(self, start: ScaledPoint) -> LiftedPath:
        """The path from ``start``, a ``point_key``, to the marked point,
        with its weave-line events: the root cap of a tree chain."""
        path = Polyline(self.cap_points(start))
        return LiftedPath(path, self.builder.events_along(path))

    def cap_sheets(self, start: ScaledPoint) -> Tuple[int, ...]:
        """The sheet permutation of the cap at ``start``, a ``point_key``:
        sheet s there reaches sheet ``[s - 1]`` at the marked point.  The
        first leg is queried; the second crosses the top line's weave lines
        right of the corner, whose permutation is kept.  A corner on one of
        them raises the corner hit the whole cap's query raises."""
        leg = self.cap_points(start)[:2]
        after, hit = self._past(self._top_lines, leg[1])
        sheets = walk_sheets(tuple(range(1, self.weave.strand_count + 1)),
                             self.builder.events_along(Polyline(leg)))[0]
        if hit:
            raise NonGenericGeometry("polyline corner hit at %r" % (exact_point(leg[1]),))
        return tuple(map(self._top_perms[after].__getitem__, sheets))

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

    def _check_boundary(self, chain: Sequence[tuple]):
        residue = defaultdict(int)  # by (scaled point in lowest terms, sheet)
        for path, sheet, orientation in chain:
            start, end = path.polyline.ends
            residue[start, sheet] -= orientation
            residue[end, walk_sheets((sheet,), path.events)[0][0]] += orientation
        # identify branch-point sheets: at a trivalent vertex with letter k,
        # sheets k and k+1 name the same surface point
        for key, k in self._branches:
            if residue.get((key, k)) and residue.get((key, k + 1)):
                residue[key, k] += residue.pop((key, k + 1))
        leftovers = sorted((exact_point(key), sheet) for (key, sheet), value in residue.items()
                           if value and key != self._marked_key)
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

    def class_of_chain(self, chain: Sequence[tuple]) -> Tuple[int, ...]:
        """The exponents of s_1..s_l in the class of a chain of (LiftedPath,
        start sheet, orientation) triples."""
        solution = self._factored.solve(self._pairing_vector(chain))
        if solution is None:
            raise NonGenericGeometry("pairing vector outside basis span")
        scale = self._factored.scale
        if any(value % scale for value in solution):
            raise NonGenericGeometry("non-integral class coefficients %s"
                                     % [Fraction(v, scale) for v in solution])
        return tuple(value // scale for value in solution)

    # ----- slit words -----
    def cap_word(self, point: ScaledPoint) -> List[tuple]:
        """The (cut, side) crossings of the cap at ``point``, at y <= 0, in
        order, a point on a cut read as left of it: the first leg's
        (``slits_along``, on the corner's scale), then the top line's right
        of the corner (see ``cap_sheets``).  The corner lies on a slit
        exactly where it lies at that slit's top-line crossing, and then
        left of it, so the top line's crossing there is the cap's.  A point
        whose float x is past every slit top's is right of every slit, as
        floats round monotonically, and so is its cap, which runs right to
        (x + CAP_EPS, -CAP_EPS / 2) and on to the marked point: its word is
        []."""
        if point[0] / point[2] > self._cuts_right:
            return []
        (x, y, d), corner = self.cap_points(point)[:2]
        r = corner[2] // d
        leg = self.slits_along([(x * r, y * r), corner[:2]], corner[2])
        return [(cut, side) for _, cut, side in leg] \
            + self.arc_word[self._past(self._top_cuts, corner)[0]:]

    def slits_along(self, ints, s: int) -> List[tuple]:
        """The cut crossings (param, cut, side) of the path through the
        integer points ``ints`` on scale ``s``, sorted, a point on a cut read
        as left of it (see the module docstring): a segment whose f =
        1000 X - Y runs from f0 to f1 crosses cut k, on f = c_k, exactly where
        min(f0, f1) <= c_k < max(f0, f1) and the crossing lies strictly above
        k's branch point, on the side sign(f0 - f1), in the order of c_k
        along f.  Only the cuts whose float c lies in the float range of f
        are decided in integers: floats round monotonically.  Every caller's
        path lies below y = 0 but at its ends, so it meets a slit's top at
        an end or not at all."""
        floats, rows, out = self._cut_floats, self._cut_lines, []
        for i, ((x0, y0), (x1, y1)) in enumerate(zip(ints, ints[1:])):
            f0, f1 = 1000 * x0 - y0, 1000 * x1 - y1
            lo, hi, side = (f0, f1, -1) if f0 < f1 else (f1, f0, 1)
            near = range(bisect_left(floats, lo / s), bisect_right(floats, hi / s))
            for cn, cm, k, n, m in map(rows.__getitem__, near if side < 0 else reversed(near)):
                c = cn * s
                if lo * cm <= c < hi * cm:
                    # |c_k - f0| and |c_k - f1|, times s cm: the crossing's
                    # height is the ends' heights, each weighted by the other's
                    a, b = abs(c - f0 * cm), abs(c - f1 * cm)
                    if a * (y1 * m - n * s) + b * (y0 * m - n * s) > 0:
                        out.append(((i, a / (a + b), Ratio(a, a + b)), k, side))
        return out

    def walkable(self, path: Polyline) -> Polyline:
        """``path``, whose slit word is a class only below the top boundary
        and off the branch points, the punctures: a point at y >= 0, or a
        branch point on the path, at an end, a corner or inside a segment,
        raises.  A branch point is decided in integers only on the path's
        segments whose float box holds its float, once the path's float box
        does: floats round monotonically, so every segment through it is."""
        s, ints, floats = path.scale, path.ints, path.floats
        for x, y in ints:
            if y >= 0:
                raise NonGenericGeometry("path point at or above y = 0: %r"
                                         % (exact_point((x, y, s)),))
        lo_x, hi_x, lo_y, hi_y = path.box
        for key, _ in self._branches:
            x, y, d = key
            fx, fy = x / d, y / d
            if lo_x <= fx <= hi_x and lo_y <= fy <= hi_y and any(
                    min(ax, bx) <= fx <= max(ax, bx) and min(ay, by) <= fy <= max(ay, by)
                    and on_segment(key, p, q, s)
                    for p, q, (ax, ay), (bx, by) in zip(ints, ints[1:], floats, floats[1:])):
                raise NonGenericGeometry("path %s a branch point: %r" % (
                    "end at" if key in path.ends else "through", exact_point(key)))
        return path

    @staticmethod
    def _past(table: tuple, corner: ScaledPoint) -> Tuple[int, bool]:
        """How many of a ``top_table``'s crossings lie strictly left of
        ``corner``, and whether the next lies at its x.  Floats round
        monotonically, so the bisection is exact but on a float tie, which
        integers decide."""
        floats, exact = table
        x, _, d = corner
        at = bisect_left(floats, x / d)
        for tx, td in exact[at: bisect_right(floats, x / d)]:
            if tx * d >= x * td:
                return at, tx * d == x * td
            at += 1
        return at, False

    def walk(self, sheet: int, word) -> tuple:
        """The class and end marked sheet of slit ``word``'s loop lifted from marked ``sheet``."""
        cls = (0,) * len(self.gen_names)
        for cut, _ in word:
            step, sheet = self._letters[sheet, cut]
            cls = tuple(map(add, cls, step))
        return cls, sheet

    def _add_letter(self, at: int):
        """The letters of cut k = ``arc_word[at][0]``, with formal classes:
        +e_k from the lower marked sheet of its transposition, -e_k from the
        upper, 0 elsewhere.  It transposes its branch point's two sheets,
        carried up the cut to the top line, along it to the marked point
        and back through v^-1, v the top word right of k, already in the
        table (see the module docstring).  A weave line crossing the cut on
        the top line raises: the walk would not say which side of it the
        pair turns on."""
        k = self.arc_word[at][0]
        (x, y), _ = self.cuts[k]
        cut = prepare([(x, y), (x - (y + CAP_EPS / 2) / 1000, -CAP_EPS / 2)])
        after, hit = self._past(self._top_lines, cut.ends[1])
        if hit:
            raise NonGenericGeometry("a weave line crosses cut %d on the top line" % k)
        letter = self._branches[k][1]
        pair = walk_sheets((letter, letter + 1), self.builder.events_along(cut))[0]
        t1, t2 = (self.walk(self._top_perms[after][s], self.arc_word[:at:-1])[1] for s in pair)
        for t in range(1, self.weave.strand_count + 1):
            end = {t1: t2, t2: t1}.get(t, t)
            unit = (end > t) - (end < t)
            self._letters[t, k] = tuple(unit if j == k else 0 for j in range(len(self.cuts))), end

    def _basis_columns(self, bases: Dict[int, tuple]) -> List[Tuple[int, ...]]:
        """Each s_j in the letter basis: b-strand j's chord-end class, walked
        as ``wall_class`` walks it, from its ``_origin`` part in ``bases``,
        while the letters are formal."""
        return [self._step(self._walked(sid, bases[sid])[-1],
                           self.cap_word(self.builder.strands[sid].path.ends[1]))[0]
                for sid in self.basis_strands]

    def _wall_word(self, sid: int, param: Optional[Param], word: list) -> list:
        """Wall ``sid``'s cut crossings before ``param``, then ``word``: a
        wall point on a cut reads as left of it (``between``)."""
        return [(cut, side) for _, cut, side in between(self._wall_slits[sid], None, param)] + word

    def wall_class(self, sid: int, param: Optional[Param], word: list) -> Tuple[int, ...]:
        """Wall ``sid``'s soliton class based at ``param`` (None: its chord
        end), where ``word`` is the ``cap_word`` there (see the module
        docstring): its walk state after its cut crossings before ``param``,
        a prefix of them found by bisection (``between``), walked on along
        ``word``."""
        states = self._origins[sid]
        return self._step(states[len(between(self._wall_slits[sid], None, param))], word)[0]

    def _step(self, state: tuple, word: list) -> tuple:
        """A walk state (class, sheet 1, sheet 2) walked on along ``word``:
        the class plus walk(sheet 1, word) minus walk(sheet 2, word), and
        the two walks' end sheets."""
        cls, s1, s2 = state
        (c1, s1), (c2, s2) = self.walk(s1, word), self.walk(s2, word)
        return tuple(map(sub, map(add, cls, c1), c2)), s1, s2

    def _origin(self, sid: int) -> tuple:
        """Wall ``sid``'s origin part that no letter changes, (W(p0), (m1, m2))."""
        strand, joint = self.builder.strands[sid], self.builder.born_at.get(sid)
        p0 = param_of(0, 0) if joint else BIRTH_PARAM
        point = interp(strand.path, p0)
        sheets = self.cap_sheets(point)
        return (self._wall_word(sid, p0, self.cap_word(point)),
                tuple(sheets[s - 1] for s in strand.label_at(p0)))

    def _walked(self, sid: int, part: tuple) -> List[tuple]:
        """Wall ``sid``'s walk states from its ``_origin`` ``part``, with the
        letters as they stand: (C, m1, m2) walked along W(p0)^-1, then on
        along each of the wall's cut crossings in turn."""
        base, (m1, m2) = part
        prefix, joint = [(cut, -side) for cut, side in reversed(base)], self.builder.born_at.get(sid)
        if joint is None:
            cut = self._cut_of[self.builder.strands[sid].origin[1]]
            cls = self.walk(m2, prefix + [(cut, 1)] + base)[0]
        else:  # base is J's cap word: the child crosses no cut before p0
            cls = tuple(map(add, *(self.wall_class(pid, joint["params"][pid], base)
                                   for pid in joint["parents"])))
        states = [self._step((cls, m1, m2), prefix)]
        for _, cut, side in self._wall_slits[sid]:
            states.append(self._step(states[-1], [(cut, side)]))
        return states

    # ----- monodromy loops -----
    def clearance(self, center: Point) -> Fraction:
        """Min distance from ``center`` to all weave-line and wall segments
        not through it, read from the forest's tables: the least nonzero
        exact squared distance, in integers on the center's scale times each
        segment's, floored to a rational root."""
        px, py, pd = point_key(center)
        best, builder = None, self.builder
        for *_, x, y, dx, dy, s in builder.weave_lines.segments + builder.walls.segments:
            n, m = _seg_distance2((px * s, py * s), (x * pd, y * pd), ((x + dx) * pd, (y + dy) * pd))
            m *= (pd * s) ** 2
            if n and (best is None or n * best[1] < best[0] * m):
                best = n, m
        if best is None:
            raise NonGenericGeometry("no features near %r" % (center,))
        return _rational_sqrt_floor(Fraction(*best))

    def loop(self, center: Point) -> List[Point]:
        """A small closed quadrilateral about ``center``, a branch point or
        a joint, at half its clearance, corners jittered off the axes so
        they avoid walls and weave lines: the path of its monodromy.
        Transport round a degenerate one raises."""
        cx, cy = center
        r = self.clearance(center) / 2
        e = r / 313
        return [(cx + r, cy + e), (cx + e, cy + r), (cx - r, cy + 2 * e),
                (cx - 2 * e, cy - r), (cx + r, cy + e)]


def top_table(points: list) -> tuple:
    """The x of each scaled point, crossings of the top line in order: as
    floats and as (x, d), the point's x over its scale."""
    return [x / d for x, _, d in points], [(x, d) for x, _, d in points]


def between(crossings: list, lo: Optional[Param], hi: Optional[Param]) -> list:
    """The crossings, sorted by their param (side last), between ``lo``
    and ``hi`` (None: the path's start or end).  A point on a cut lies left
    of it, so one at ``lo`` is kept where it leaves to the right (side -1)
    and one at ``hi`` where it arrives from the right (side +1)."""
    first = 0 if lo is None else bisect_left(crossings, lo, key=itemgetter(0))
    last = len(crossings) if hi is None else bisect_right(crossings, hi, key=itemgetter(0))
    first += first < last and crossings[first][0] == lo and crossings[first][-1] > 0
    last -= first < last and crossings[last - 1][0] == hi and crossings[last - 1][-1] < 0
    return crossings[first:last]


def on_a_segment(rows, point: ScaledPoint) -> bool:
    """Whether the scaled ``point`` lies on a closed segment of the rows of
    a ``PolylineSet`` table.  A row is decided in integers only where its
    float box holds the point's float: floats round monotonically, so every
    row through the point is decided."""
    x, y, d = point
    fx, fy = x / d, y / d
    for lo_x, hi_x, lo_y, hi_y, _, _, x0, y0, dx, dy, s in rows:
        if lo_x <= fx <= hi_x and lo_y <= fy <= hi_y \
                and on_segment(point, (x0, y0), (x0 + dx, y0 + dy), s):
            return True
    return False


def on_segment(point: ScaledPoint, start, end, s: int) -> bool:
    """Whether the scaled ``point`` lies on the closed segment from
    ``start`` to ``end``, integer points on scale ``s``."""
    (x, y, d), (x0, y0), (x1, y1) = point, start, end
    # point minus the start, scaled by d * s, is t d (end - start)
    dx, dy, wx, wy = x1 - x0, y1 - y0, x * s - x0 * d, y * s - y0 * d
    return wx * dy == wy * dx and 0 <= wx * dx + wy * dy <= d * (dx * dx + dy * dy)


def freely_reduced(word: List[tuple]) -> tuple:
    """The free reduction of a word of (cut, side) letters."""
    out: List[tuple] = []
    for cut, side in word:
        if out and out[-1] == (cut, -side):
            out.pop()
        else:
            out.append((cut, side))
    return tuple(out)


def _seg_distance2(p, a, b) -> Tuple:
    """Squared distance from point to segment as (numerator, denominator),
    exact for integer points on one scale: past an end, to that end, and in
    between ((p - a) x (b - a))^2 / |b - a|^2."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    dx, dy, wx, wy = bx - ax, by - ay, px - ax, py - ay
    dot, L2 = wx * dx + wy * dy, dx * dx + dy * dy
    if dot <= 0:
        return wx * wx + wy * wy, 1
    if dot >= L2:
        return (px - bx) ** 2 + (py - by) ** 2, 1
    cross = wx * dy - wy * dx
    return cross * cross, L2


def _rational_sqrt_floor(d2: Fraction) -> Fraction:
    """A positive rational lower bound for sqrt(d2), for d2 > 0: then
    numerator * denominator >= 1, so its isqrt is at least 1."""
    return Fraction(math.isqrt(d2.numerator * d2.denominator), d2.denominator)


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
    * t_i, the boundary arc walked from marked sheet i (``arc_word``),
      carries sign (-1)^(Q + l + 1) with l the number of branch points.

    The convention is pinned by requiring seed walls ending at their own
    dual chords to contribute +s_i, the known cancelling pairs to sum to
    zero, and all reference augmentation tables to be reproduced; the twist
    bit g is recorded as ``h_parity`` so that signs multiply and parities
    add at every joint.
    """

    def __init__(self, builder: ForestBuilder):
        self.builder = builder
        self.engine = HomologyEngine(builder)

    # ----- per-strand data -----
    def sign_parity(self, sid: int) -> Tuple[int, int]:
        """The seed-sign product of the strand's tree and the parity of the
        twists at its joints."""
        joint = self.builder.born_at.get(sid)
        if joint is None:
            return -1 if quadratic_refinement(self._class(sid, None)) % 2 else 1, 0
        (s1, h1), (s2, h2) = map(self.sign_parity, joint["parents"])
        return s1 * s2, (h1 + h2 + joint["twist"]) % 2

    def soliton(self, sid: int, param: Optional[Param] = None) -> SolitonClass:
        """The wall's soliton class, based at ``param`` (default: its chord
        end)."""
        return SolitonClass(self._class(sid, param), *self.sign_parity(sid))

    def _class(self, sid: int, param: Optional[Param]) -> Tuple[int, ...]:
        """The engine's ``wall_class`` at ``param`` (None: the chord end),
        read with the cap word there."""
        path = self.builder.strands[sid].path
        point = path.ends[1] if param is None else interp(path, param)
        return self.engine.wall_class(sid, param, self.engine.cap_word(point))

    def arc_soliton(self, marked_index: int) -> SolitonClass:
        """Signed t_i: the walk of the engine's ``arc_word`` from marked sheet i."""
        cls = self.engine.walk(marked_index, self.engine.arc_word)[0]
        q = quadratic_refinement(cls) + len(self.engine.gen_names) + 1
        return SolitonClass(cls, -1 if q % 2 else 1, 0)

    # ----- BPS indices -----
    def bps_table(self) -> List[SolitonClass]:
        """Each wall's BPS class, in id order, via the Hori-Vafa rule.

        The forest is creative, so each wall has one flowtree and one class,
        of vanilla index 1, based at its birth point.  A child's class is
        walked from its parents' sum at the joint (``wall_class``), its sign
        and parity are theirs with the joint's twist (``sign_parity``).
        """
        return [self.soliton(strand.id, BIRTH_PARAM) for strand in self.builder.strands]

    def bps_table_bruteforce(self) -> List[SolitonClass]:
        """Oracle: each wall's class from its flowtree, in id order.

        Backward extension from a wall point stops at branch points and
        splits at creation joints into the two parents; forest networks are
        creative, so each wall has exactly one flowtree.  Classes come from
        the full geometric chain of each tree (exact homology solve), signs
        from walking the tree bottom-up; no Hori-Vafa recursion is used, so
        agreement with ``bps_table`` checks both the homological additivity
        at joints and the twist bookkeeping.
        """
        return [self._tree_soliton(strand.id) for strand in self.builder.strands]

    def _tree_soliton(self, sid: int) -> SolitonClass:
        engine = self.engine
        pieces, joints = tree_of_strand(self.builder, sid)
        cls = engine.class_of_chain(engine.tree_chain(sid, root_param=BIRTH_PARAM))
        seeds = [engine.class_of_chain(engine.tree_chain(pid)) for pid, _ in pieces
                 if self.builder.strands[pid].origin[0] == "branch"]
        sign = math.prod(-1 if quadratic_refinement(c) % 2 else 1 for c in seeds)
        return SolitonClass(cls, sign, sum(joint["twist"] for joint in joints) % 2)
