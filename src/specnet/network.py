"""Spectral-network graph core: walls, vertex taxonomy, consistency, JSON.

A network is a directed graph of walls (edges decorated with an ordered sheet
pair) and vertices (initial branch points, interaction joints, benign
crossings).  Both the combinatorial (weave) and numerical (WKB) pipelines
build the same structure; routes are polylines with exact-rational or float
coordinates respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence, Tuple

SCHEMA = "spectral-network/1"

OPEN_END_PREFIX = "end:"  # target marker for walls running off to a chord/ray


@dataclass
class Wall:
    id: int
    label: Tuple[int, int]  # ordered sheet pair (i, j), i != j
    source: int  # vertex id
    target: str | int  # vertex id, or "end:<ray name>" open-end marker
    route: List[Tuple]  # polyline points (Fraction or float pairs)
    mass: float | int
    stage: int

    def __post_init__(self):
        i, j = self.label
        if i == j:
            raise ValueError("wall label must have distinct sheets")
        if self.mass < 0:
            raise ValueError("wall mass must be nonnegative")


VERTEX_KINDS = (
    "initial",
    "interaction_creation",
    "interaction_hexavalent",
    "non_interaction",
    "inconsistent",
)


@dataclass
class NetworkVertex:
    id: int
    kind: str
    position: Tuple
    incoming: List[int] = field(default_factory=list)  # wall ids
    outgoing: List[int] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in VERTEX_KINDS:
            raise ValueError("unknown vertex kind %r" % self.kind)


def classify_vertex(stubs: Sequence[Tuple[Tuple[int, int], str]]) -> str:
    """Classify a vertex from (label, role) stubs, role in {'in', 'out'}.

    Local models: initial (3 outgoing, one sheet pair); creation joint
    (in (ij),(jk); out (ij),(jk),(ik)); hexavalent (those three in and out);
    non-interaction (two transversal walls with disjoint or misaligned
    pairs passing through); inconsistent (a creation-shaped crossing whose
    (ik) output is missing).
    """
    ins = sorted(label for label, role in stubs if role == "in")
    outs = sorted(label for label, role in stubs if role == "out")
    if not ins and len(outs) == 3 and len({frozenset(l) for l in outs}) == 1:
        return "initial"
    composed = compose_labels(ins)
    if len(ins) == 2:
        if composed is not None and outs == sorted(ins + [composed]):
            return "interaction_creation"
        if outs == ins:
            if composed is not None:
                return "inconsistent"
            return "non_interaction"
    if len(ins) == 3 and outs == ins and composed in ins:
        return "interaction_hexavalent"
    raise ValueError("no local model matches stubs %r" % (stubs,))


def compose_labels(labels) -> Optional[Tuple[int, int]]:
    """The (i,k) produced by a pair (i,j),(j,k) among ``labels``, if any."""
    for a in labels:
        for b in labels:
            if a is not b and a[1] == b[0] and a[0] != b[1]:
                return (a[0], b[1])
    return None


class SpectralNetwork:
    def __init__(self, cutoff: Optional[float] = None):
        # each indexed by id
        self.vertices: List[NetworkVertex] = []
        self.walls: List[Wall] = []
        self.cutoff = cutoff

    # ----- construction -----
    def add_vertex(self, kind: str, position) -> NetworkVertex:
        vertex = NetworkVertex(len(self.vertices), kind, tuple(position))
        self.vertices.append(vertex)
        return vertex

    def add_wall(self, label, source: int, target, route, mass, stage) -> Wall:
        wall = Wall(len(self.walls), tuple(label), source, target, list(route),
                    mass, stage)
        self.walls.append(wall)
        self.vertices[source].outgoing.append(wall.id)
        if isinstance(target, int):
            self.vertices[target].incoming.append(wall.id)
        return wall

    def add_cut_walls(self, paths, joints, describe):
        """Add wall paths cut at their creation joints.

        ``paths`` lists (path id, initial vertex id or None for a path born
        at a joint, points, open end name); ``joints`` lists (point, child
        path id, {parent path id: param}), each param a tuple led by its
        segment index.  Each joint becomes a creation vertex, and each path
        is cut at the joints it parents into walls chained through them.
        ``describe(path id, start, stop)`` gives the (label, mass, stage) of
        the piece between two cuts (None at the path's own ends)."""
        born: Dict[int, int] = {}
        cuts: Dict[int, List[tuple]] = {path[0]: [] for path in paths}
        for point, child, params in joints:
            born[child] = self.add_vertex("interaction_creation", point).id
            for pid, param in params.items():
                cuts[pid].append((param, born[child], point))
        for pid, source, points, end in paths:
            source = born[pid] if source is None else source
            start, first = None, points[0]
            ends = sorted(cuts[pid]) + [(None, OPEN_END_PREFIX + end, None)]
            for stop, target, point in ends:
                lo = start[0] + 1 if start else 1
                route = [first] + (points[lo: stop[0] + 1] + [point] if stop else points[lo:])
                label, mass, stage = describe(pid, start, stop)
                self.add_wall(label, source, target, route, mass, stage)
                source, start, first = target, stop, point

    def inconsistent_vertices(self) -> List[int]:
        return [v.id for v in self.vertices if v.kind == "inconsistent"]

    def stubs(self, vertex_id: int):
        vertex = self.vertices[vertex_id]
        return ([(self.walls[w].label, "in") for w in vertex.incoming]
                + [(self.walls[w].label, "out") for w in vertex.outgoing])

    def validate_decorations(self):
        """Assert every vertex matches its local model."""
        for vertex in self.vertices:
            kind = classify_vertex(self.stubs(vertex.id))
            if kind != vertex.kind:
                raise ValueError("vertex %d stored as %s but classifies as %s"
                                 % (vertex.id, vertex.kind, kind))


def is_flow_acyclic(net: SpectralNetwork) -> bool:
    """True iff the wall digraph has no decoration-compatible directed cycle.

    Wall u feeds wall w when u ends at w's source vertex and either the
    labels agree (continuation through a joint) or w's label composes from
    u's at a creation joint ((i,j) into (i,k) or (k,j)).
    """
    feeds: Dict[int, List[int]] = {u.id: [] for u in net.walls}
    for u in net.walls:
        if not isinstance(u.target, int):
            continue
        for wid in net.vertices[u.target].outgoing:
            w = net.walls[wid]
            if w.label == u.label or w.label[0] == u.label[0] or w.label[1] == u.label[1]:
                feeds[u.id].append(wid)
    try:
        TopologicalSorter(feeds).prepare()
    except CycleError:
        return False
    return True


# ----- serialization -----

def _point_to_json(point):
    return [str(c) if type(c) is Fraction else float(c) for c in point]


def network_doc(net: SpectralNetwork) -> dict:
    """The JSON document of a network, as ``network_to_json`` encodes it."""
    return {
        "schema": SCHEMA,
        "cutoff": net.cutoff,
        "vertices": [
            {"id": v.id, "kind": v.kind, "position": _point_to_json(v.position),
             "incoming": list(v.incoming), "outgoing": list(v.outgoing)}
            for v in net.vertices
        ],
        "walls": [
            {"id": w.id, "label": list(w.label), "source": w.source,
             "target": w.target, "route": [_point_to_json(p) for p in w.route],
             "mass": w.mass, "stage": w.stage}
            for w in net.walls
        ],
    }


def network_to_json(net: SpectralNetwork) -> str:
    return to_json(network_doc(net))


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's float text


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    json's C encoder runs only without indent; its pure-Python one visits
    every value through generators.  This writer builds each container's
    text with one join, and a list of finite floats or of strings with one
    ``str.join`` over ``float.__repr__`` (json's own float text) or json's
    C string escaper.  Dict keys must be strings; a value of a type json
    cannot encode raises ValueError.
    """
    return _json_value(obj, "\n")


def _json_value(obj, newline: str) -> str:
    """One value's text; ``newline`` is a newline and the value's indent."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        return "[" + inner + _json_items(obj, inner) + newline + "]" if obj else "[]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise ValueError("JSON object keys must be strings")
        return ("{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json_value(value, inner)
            for key, value in sorted(obj.items())]) + newline + "}")
    raise ValueError("cannot encode %s as JSON" % type(obj).__name__)


def _json_items(items, inner: str) -> str:
    """The items of a non-empty list or tuple, each on its own line.

    A list of floats or of strings, or a list of non-empty lists of them
    (route points), is written by ``str.join`` alone.  A mixed list raises
    TypeError there, and a nan or an infinity shows as an "n" in the float
    text; both take the general path, value by value.
    """
    sep = "," + inner
    first = items[0]
    rows = type(first) is list and all(type(row) is list and row for row in items)
    leaf = first[0] if rows else first
    write = (float.__repr__ if isinstance(leaf, float)
             else encode_basestring_ascii if isinstance(leaf, str) else None)
    if write is not None:
        try:
            if rows:
                deeper = inner + "  "
                text = ("[" + deeper + (inner + "]" + sep + "[" + deeper).join(
                    [("," + deeper).join(map(write, row)) for row in items]) + inner + "]")
            else:
                text = sep.join(map(write, items))
        except TypeError:  # not all of the leaf's type
            pass
        else:
            if write is encode_basestring_ascii or "n" not in text:
                return text
    return sep.join([_json_value(item, inner) for item in items])

