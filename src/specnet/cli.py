"""Command-line interface: build networks, compute invariants, export.

Subcommands: weave-network, augmentation, nonabelianize, bps, wkb-trace,
compare.  A key=value config file can override any of a subcommand's own
arguments (compare takes none); the environment variable SPECNET_FIXTURES
points at an alternative fixture root.  All outputs are deterministic for
a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from typing import Dict, Optional

from .forest import build_forest_strands
from .laurent import LaurentPoly, parse_laurent
from .network import network_doc, network_to_json
from .nonabel import LocalSystemRank1, Transport, augmentation
from .soliton_bps import SolitonCatalog
from .svg import export_svg
from .weave import bend_weave, parse_weave

FIXTURE_ENV = "SPECNET_FIXTURES"


def fixture_root() -> str:
    root = os.environ.get(FIXTURE_ENV)
    if root:
        return root
    return os.path.join(os.path.dirname(__file__), "fixtures")


def _load_weave_text(spec: str) -> str:
    """Weave input: a path, '-' for stdin, or a packaged fixture name."""
    if spec == "-":
        return sys.stdin.read()
    if os.path.exists(spec):
        with open(spec) as handle:
            return handle.read()
    packaged = os.path.join(fixture_root(), spec + ".weave")
    if os.path.exists(packaged):
        with open(packaged) as handle:
            return handle.read()
    raise FileNotFoundError("no weave file or fixture named %r" % spec)


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _weave_underlay(builder):
    return [[(float(p[0]), float(p[1])) for p in seg.points]
            for seg in builder.obstacles]


def cmd_weave_network(args) -> int:
    bent = bend_weave(parse_weave(_load_weave_text(args.input)))
    builder = build_forest_strands(bent)
    net = builder.to_network()
    if args.format == "svg":
        _emit(export_svg(net, underlay=_weave_underlay(builder)), args.out)
    elif args.format == "json":
        _emit(network_to_json(net) + "\n", args.out)
    else:
        lines = ["vertices: %d  walls: %d" % (len(net.vertices), len(net.walls))]
        for wall in sorted(net.walls.values(), key=lambda w: w.id):
            lines.append("wall %d label %s source %s target %s"
                         % (wall.id, wall.label, wall.source, wall.target))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_augmentation(args) -> int:
    bent = bend_weave(parse_weave(_load_weave_text(args.input)))
    table = augmentation(bent)
    doc = {name: str(value) for name, value in sorted(table.items())}
    if args.format == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        width = max(len(k) for k in doc)
        _emit("".join("%-*s = %s\n" % (width, k, v)
                      for k, v in sorted(doc.items())), args.out)
    return 0


def cmd_nonabelianize(args) -> int:
    bent = bend_weave(parse_weave(_load_weave_text(args.input)))
    builder = build_forest_strands(bent)
    transport = Transport(builder)
    rng = random.Random(args.seed)
    loops = [("branch", v.id, transport.branch_monodromy(v.id))
             for v in builder.weave.trivalent_vertices()]
    loops += [("joint", j["child"], transport.joint_monodromy(j))
              for j in builder.joints]
    systems = [LocalSystemRank1.random(transport, rng)
               for _ in range(args.systems)]
    failures = 0
    lines = []
    for kind, ident, matrix in loops:
        exact = transport.is_identity(matrix)
        numeric = all(
            ls.evaluate(matrix[i][j]) == (1 if i == j else 0)
            for ls in systems
            for i in range(transport.n) for j in range(transport.n))
        ok = exact and numeric
        failures += not ok
        lines.append("%s %-3s monodromy: %s" %
                     (kind, ident, "identity" if ok else "NOT IDENTITY"))
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def cmd_bps(args) -> int:
    bent = bend_weave(parse_weave(_load_weave_text(args.input)))
    builder = build_forest_strands(bent)
    catalog = SolitonCatalog(builder)
    table = catalog.bps_table()
    gens = catalog.engine.gen_names
    rows = []
    for sid in sorted(table):
        strand = builder.strands[sid]
        for rho, mu in sorted(table[sid].items(),
                              key=lambda item: item[0].monomial):
            mono = LaurentPoly.monomial(gens, rho.monomial, 1)
            rows.append({"wall": sid, "chord": strand.chord,
                         "class": str(mono),
                         "index": mu * rho.effective_sign})
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        lines = ["wall %-3d chord %-4s mu %+d  class %s"
                 % (r["wall"], r["chord"], r["index"], r["class"])
                 for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_wkb_trace(args) -> int:
    from .wkb import SpectralCurve, build_wkb_network

    curve = SpectralCurve(args.curve)
    net = build_wkb_network(curve, args.theta, args.mass, args.radius)
    wants_svg = args.format == "svg" or (
        args.format is None and (args.out or "").endswith(".svg"))
    if wants_svg:
        _emit(export_svg(net), args.out)
    else:
        doc = network_doc(net)
        doc["theta"] = args.theta
        # every tenth charge and the last, which is not repeated when it
        # is itself a tenth
        doc["charges"] = {
            str(w.id): [[Z.real, Z.imag] for Z in w.charges[:-1:10] + [w.charges[-1]]]
            for w in net.traced}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _load_table(path: str) -> Dict[str, str]:
    if not os.path.exists(path):
        candidate = os.path.join(fixture_root(), path)
        if os.path.exists(candidate):
            path = candidate
    if not path.endswith(".json"):
        bent = bend_weave(parse_weave(_load_weave_text(path)))
        return {k: str(v) for k, v in augmentation(bent).items()}
    with open(path) as handle:
        return json.load(handle)


def cmd_compare(args) -> int:
    computed = _load_table(args.computed)
    expected = _load_table(args.fixture)
    names = sorted(set(computed) | set(expected))
    gens = tuple(sorted({g for text in list(computed.values())
                         + list(expected.values())
                         for g in _gen_names(text)}))
    for name in names:
        a = computed.get(name)
        b = expected.get(name)
        if a is None or b is None or \
                parse_laurent(a, gens) != parse_laurent(b, gens):
            sys.stdout.write("mismatch at %s: computed %s expected %s\n"
                             % (name, a, b))
            return 1
    sys.stdout.write("tables agree on %d chords\n" % len(names))
    return 0


def _gen_names(text: str):
    return re.findall(r"[st]_\d+", text)


def _apply_config_file(args, parser, path: str):
    """Override ``args`` from the key=value lines of ``path``.  A key names
    one of the subcommand's own arguments and is converted by its type."""
    own = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            action = own.get(key)
            if action is None:
                raise ValueError("unknown config key %r" % key)
            value = value.strip()
            if action.type is not None:
                value = action.type(value)
            if action.choices is not None and value not in action.choices:
                raise ValueError("config key %r must be one of %s, got %r"
                                 % (key, ", ".join(action.choices), value))
            setattr(args, key, value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specnet",
        description="Spectral networks from weaves and spectral curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def weave_command(name, summary, func, formats=("table", "json")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", help="weave file, fixture name, or '-'")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="key=value file overriding flags")
        p.set_defaults(func=func)
        return p

    weave_command("weave-network", "build a forest network", cmd_weave_network,
                  ("table", "json", "svg"))
    weave_command("augmentation", "chord augmentation table", cmd_augmentation)
    p = weave_command("nonabelianize", "monodromy identity report",
                      cmd_nonabelianize, formats=())
    p.add_argument("--systems", type=int, default=20,
                   help="random rank-1 local systems to evaluate")
    p.add_argument("--seed", type=int, default=0)
    weave_command("bps", "BPS index table", cmd_bps)
    p = sub.add_parser("wkb-trace", help="trace a polynomial spectral curve")
    p.add_argument("--curve", required=True, help='e.g. "w^3 - 3*w + x"')
    p.add_argument("--theta", type=float, default=0.3)
    p.add_argument("--mass", type=float, default=12.0)
    p.add_argument("--radius", type=float, default=8.0)
    p.add_argument("--format", choices=("json", "svg"), default=None,
                   help="default: svg if --out ends in .svg, else json")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_wkb_trace)
    p = sub.add_parser("compare", help="diff two augmentation tables exactly")
    p.add_argument("computed", help="table JSON or weave input")
    p.add_argument("fixture", help="reference table JSON")
    p.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        _apply_config_file(args, sub.choices[args.command], args.config)
    if args.command == "wkb-trace" and not all(
            math.isfinite(v) and v > 0 for v in (args.mass, args.radius)):
        raise ValueError("mass cutoff and radius must be positive "
                         "and finite for wkb commands")
    try:
        return args.func(args)
    except (ValueError, RuntimeError, FileNotFoundError) as err:
        sys.stderr.write("error [%s]: %s\n" % (args.command, err))
        return 2


if __name__ == "__main__":
    sys.exit(main())
