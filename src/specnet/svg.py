"""Deterministic SVG rendering of spectral networks.

Walls are polyline paths colored by their (unordered) sheet pair; initial
vertices draw as open triangles and creation joints as filled dots, with an
optional weave-line underlay.  Output is byte-deterministic for a fixed
network: walls and vertices are drawn in id order and floats use a fixed
format.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .network import SpectralNetwork

# fixed hue table per unordered sheet pair, cycled for higher ranks
_PALETTE = ["#c62828", "#1565c0", "#2e7d32", "#ef6c00", "#6a1b9a",
            "#00838f", "#9e9d24", "#ad1457", "#4e342e", "#37474f"]


def _pair_color(label: Tuple[int, int]) -> str:
    i, j = sorted(label)
    index = (i - 1) + (j - 1) * (j - 2) // 2  # rank of the pair (i<j)
    return _PALETTE[index % len(_PALETTE)]


def _fmt(x) -> str:
    return "%.4f" % float(x)


def export_svg(net: SpectralNetwork, underlay: Optional[List[List[Tuple]]] = None) -> str:
    """Render the network on a 640 x 480 canvas; an empty network yields
    axes only.

    ``underlay`` is an optional list of polylines (e.g. weave lines) drawn
    in light gray beneath the walls.
    """
    width, height = 640, 480
    points: List[Tuple[float, float]] = []
    for wall in net.walls:
        points.extend((float(p[0]), float(p[1])) for p in wall.route)
    for vertex in net.vertices:
        points.append((float(vertex.position[0]), float(vertex.position[1])))
    for poly in underlay or []:
        points.extend((float(p[0]), float(p[1])) for p in poly)
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
    else:
        lo_x = lo_y = -1.0
        hi_x = hi_y = 1.0
    pad_x = 0.05 * (hi_x - lo_x or 1.0)
    pad_y = 0.05 * (hi_y - lo_y or 1.0)
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y
    sx = width / (hi_x - lo_x)
    sy = height / (hi_y - lo_y)

    def tx(p):
        return ((float(p[0]) - lo_x) * sx, height - (float(p[1]) - lo_y) * sy)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d">' % (width, height, width, height)]
    out.append('<rect width="%d" height="%d" fill="white"/>' % (width, height))
    # axes through the origin when visible, else frame edges
    ox, oy = tx((0.0, 0.0))
    ox = min(max(ox, 0.0), float(width))
    oy = min(max(oy, 0.0), float(height))
    out.append('<line x1="0" y1="%s" x2="%d" y2="%s" stroke="#cccccc" '
               'stroke-width="1"/>' % (_fmt(oy), width, _fmt(oy)))
    out.append('<line x1="%s" y1="0" x2="%s" y2="%d" stroke="#cccccc" '
               'stroke-width="1"/>' % (_fmt(ox), _fmt(ox), height))
    for poly in underlay or []:
        path = " ".join("%s,%s" % tuple(map(_fmt, tx(p))) for p in poly)
        out.append('<polyline points="%s" fill="none" stroke="#dddddd" '
                   'stroke-width="2"/>' % path)
    for wall in net.walls:
        path = " ".join("%s,%s" % tuple(map(_fmt, tx(p))) for p in wall.route)
        out.append('<polyline points="%s" fill="none" stroke="%s" '
                   'stroke-width="1.5"><title>wall %d %s</title></polyline>'
                   % (path, _pair_color(wall.label), wall.id, wall.label))
    for vertex in net.vertices:
        x, y = tx(vertex.position)
        if vertex.kind == "initial":
            r = 5.0
            pts = "%s,%s %s,%s %s,%s" % (
                _fmt(x), _fmt(y - r), _fmt(x - 0.866 * r), _fmt(y + 0.5 * r),
                _fmt(x + 0.866 * r), _fmt(y + 0.5 * r))
            out.append('<polygon points="%s" fill="white" stroke="black" '
                       'stroke-width="1.2"/>' % pts)
        else:  # builders store only initial and creation vertices
            out.append('<circle cx="%s" cy="%s" r="3.5" fill="black"/>'
                       % (_fmt(x), _fmt(y)))
    out.append("</svg>")
    return "\n".join(out) + "\n"
