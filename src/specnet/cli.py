"""Command-line interface: build networks, compute invariants, export.

Subcommands: weave-network, augmentation, nonabelianize, bps, wkb-trace,
compare.  A key=value config file can override any flag; the environment
variable SPECNET_FIXTURES points at an alternative fixture root.  All
outputs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Dict, Optional

from .forest import build_forest_strands
from .laurent import parse_laurent
from .network import network_to_json
from .nonabel import LocalSystemRank1, Transport, augmentation
from .soliton_bps import SolitonCatalog
from .svg import export_svg
from .weave import bend_weave, parse_weave

FIXTURE_ENV = "SPECNET_FIXTURES"


@dataclass
class RunConfig:
    command: str
    input: Optional[str] = None
    theta: float = 0.3
    mass: float = 12.0
    radius: float = 8.0
    max_rounds: int = 12
    format: str = "table"
    seed: int = 0
    systems: int = 20
    out: Optional[str] = None

    def validate(self):
        if self.command == "wkb-trace":
            if not (self.mass > 0 and self.radius > 0):
                raise ValueError("mass cutoff and radius must be positive "
                                 "and finite for wkb commands")


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


def cmd_weave_network(cfg: RunConfig) -> int:
    bent = bend_weave(parse_weave(_load_weave_text(cfg.input)))
    builder = build_forest_strands(bent)
    net = builder.to_network()
    if cfg.format == "svg":
        _emit(export_svg(net, underlay=_weave_underlay(builder)), cfg.out)
    elif cfg.format == "json":
        _emit(network_to_json(net) + "\n", cfg.out)
    else:
        lines = ["vertices: %d  walls: %d" % (len(net.vertices), len(net.walls))]
        for wall in sorted(net.walls.values(), key=lambda w: w.id):
            lines.append("wall %d label %s source %s target %s"
                         % (wall.id, wall.label, wall.source, wall.target))
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_augmentation(cfg: RunConfig) -> int:
    bent = bend_weave(parse_weave(_load_weave_text(cfg.input)))
    table = augmentation(bent)
    doc = {name: str(value) for name, value in sorted(table.items())}
    if cfg.format == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)
    else:
        width = max(len(k) for k in doc)
        _emit("".join("%-*s = %s\n" % (width, k, v)
                      for k, v in sorted(doc.items())), cfg.out)
    return 0


def cmd_nonabelianize(cfg: RunConfig) -> int:
    bent = bend_weave(parse_weave(_load_weave_text(cfg.input)))
    builder = build_forest_strands(bent)
    transport = Transport(builder)
    rng = random.Random(cfg.seed)
    loops = [("branch", v.id, transport.branch_monodromy(v.id))
             for v in builder.weave.trivalent_vertices()]
    loops += [("joint", j["child"], transport.joint_monodromy(j))
              for j in builder.joints]
    systems = [LocalSystemRank1.random(transport, rng)
               for _ in range(cfg.systems)]
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
    _emit("\n".join(lines) + "\n", cfg.out)
    return 1 if failures else 0


def cmd_bps(cfg: RunConfig) -> int:
    bent = bend_weave(parse_weave(_load_weave_text(cfg.input)))
    builder = build_forest_strands(bent)
    catalog = SolitonCatalog(builder)
    table = catalog.bps_table()
    gens = catalog.engine.gen_names
    from .laurent import LaurentPoly
    rows = []
    for sid in sorted(table):
        strand = builder.strands[sid]
        for rho, mu in sorted(table[sid].items(),
                              key=lambda item: item[0].monomial):
            mono = LaurentPoly.monomial(gens, rho.monomial, 1)
            rows.append({"wall": sid, "chord": strand.chord,
                         "class": str(mono),
                         "index": mu * rho.effective_sign})
    if cfg.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", cfg.out)
    else:
        lines = ["wall %-3d chord %-4s mu %+d  class %s"
                 % (r["wall"], r["chord"], r["index"], r["class"])
                 for r in rows]
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_wkb_trace(cfg: RunConfig) -> int:
    from .wkb import SpectralCurve, build_wkb_network

    curve = SpectralCurve(cfg.input)
    net = build_wkb_network(curve, cfg.theta, cfg.mass, cfg.radius,
                            max_rounds=cfg.max_rounds)
    wants_svg = cfg.format == "svg" or (cfg.out or "").endswith(".svg")
    if wants_svg:
        _emit(export_svg(net), cfg.out)
    else:
        doc = json.loads(network_to_json(net))
        doc["theta"] = cfg.theta
        doc["charges"] = {
            str(w.id): [[Z.real, Z.imag] for Z in w.charges[::10] + [w.charges[-1]]]
            for w in net.traced}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


def _load_table(path: str) -> Dict[str, str]:
    if not os.path.exists(path):
        candidate = os.path.join(fixture_root(), path)
        if os.path.exists(candidate):
            path = candidate
    if path.endswith(".weave") or not path.endswith(".json"):
        bent = bend_weave(parse_weave(_load_weave_text(path)))
        return {k: str(v) for k, v in augmentation(bent).items()}
    with open(path) as handle:
        return json.load(handle)


def cmd_compare(cfg: RunConfig, fixture: str) -> int:
    computed = _load_table(cfg.input)
    expected = _load_table(fixture)
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
    import re
    return re.findall(r"[st]_\d+", text)


def _apply_config_file(cfg: RunConfig, path: str):
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not hasattr(cfg, key):
                raise ValueError("unknown config key %r" % key)
            current = getattr(cfg, key)
            if isinstance(current, bool):
                value = value.lower() in ("1", "true", "yes")
            elif isinstance(current, int):
                value = int(value)
            elif isinstance(current, float):
                value = float(value)
            setattr(cfg, key, value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specnet",
        description="Spectral networks from weaves and spectral curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="weave file, fixture name, or '-'")
        p.add_argument("--format", choices=("table", "json", "svg"),
                       default="table")
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="key=value file overriding flags")
        p.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("weave-network", help="build a forest network"))
    common(sub.add_parser("augmentation", help="chord augmentation table"))
    p = sub.add_parser("nonabelianize", help="monodromy identity report")
    common(p)
    p.add_argument("--systems", type=int, default=20,
                   help="random rank-1 local systems to evaluate")
    common(sub.add_parser("bps", help="BPS index table"))
    p = sub.add_parser("wkb-trace", help="trace a polynomial spectral curve")
    p.add_argument("--curve", required=True, help='e.g. "w^3 - 3*w + x"')
    p.add_argument("--theta", type=float, default=0.3)
    p.add_argument("--mass", type=float, default=12.0)
    p.add_argument("--radius", type=float, default=8.0)
    p.add_argument("--max-rounds", type=int, default=12)
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("compare", help="diff two augmentation tables exactly")
    p.add_argument("computed", help="table JSON or weave input")
    p.add_argument("fixture", help="reference table JSON")
    p.add_argument("--config", default=None)

    args = parser.parse_args(argv)
    cfg = RunConfig(command=args.command)
    if args.command == "wkb-trace":
        cfg.input = args.curve
        cfg.theta = args.theta
        cfg.mass = args.mass
        cfg.radius = args.radius
        cfg.max_rounds = args.max_rounds
        cfg.format = args.format
        cfg.out = args.out
        cfg.seed = args.seed
    elif args.command == "compare":
        cfg.input = args.computed
    else:
        cfg.input = args.input
        cfg.format = args.format
        cfg.out = args.out
        cfg.seed = args.seed
        if args.command == "nonabelianize":
            cfg.systems = args.systems
    if getattr(args, "config", None):
        _apply_config_file(cfg, args.config)
    cfg.validate()
    try:
        if args.command == "weave-network":
            return cmd_weave_network(cfg)
        if args.command == "augmentation":
            return cmd_augmentation(cfg)
        if args.command == "nonabelianize":
            return cmd_nonabelianize(cfg)
        if args.command == "bps":
            return cmd_bps(cfg)
        if args.command == "wkb-trace":
            return cmd_wkb_trace(cfg)
        if args.command == "compare":
            return cmd_compare(cfg, args.fixture)
    except (ValueError, RuntimeError, FileNotFoundError) as err:
        sys.stderr.write("error [%s]: %s\n" % (args.command, err))
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
