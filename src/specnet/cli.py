"""Command-line interface: build networks, compute invariants, export.

Subcommands: weave-network, augmentation, nonabelianize, bps, wkb-trace,
compare.  Each line ``key = value`` of a config file is read as the flag
``--key=value`` after the command line, so it overrides a flag and is
checked by the same parser (compare takes no config file); the environment
variable SPECNET_FIXTURES points at an alternative fixture root.  All
outputs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Dict, Optional

from .forest import build_forest_strands
from .laurent import LaurentPoly, parse_laurent
from .network import network_doc, network_to_json, to_json
from .nonabel import Transport, augmentation
from .soliton_bps import SolitonCatalog
from .svg import export_svg
from .weave import bend_weave, parse_weave

FIXTURE_ENV = "SPECNET_FIXTURES"


def fixture_root() -> str:
    root = os.environ.get(FIXTURE_ENV)
    if root:
        return root
    return os.path.join(os.path.dirname(__file__), "fixtures")


def _read_input(spec: str, suffix: str) -> str:
    """Input text: '-' for stdin, a path, or a packaged fixture name (the
    suffix ``.weave`` or ``.json`` may be left off)."""
    if spec == "-":
        return sys.stdin.read()
    name = spec if spec.endswith(suffix) else spec + suffix
    found = [path for path in (spec, os.path.join(fixture_root(), name))
             if os.path.exists(path)]
    if not found:
        raise FileNotFoundError("no %s file or fixture named %r" % (suffix[1:], spec))
    # a file wins over a directory of the same name; what is not a file is
    # opened only when nothing else is found, so its own error names it
    with open(next((path for path in found if os.path.isfile(path)), found[0])) as handle:
        return handle.read()


def _load_weave(spec: str):
    return bend_weave(parse_weave(_read_input(spec, ".weave")))


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_weave_network(args) -> int:
    bent = _load_weave(args.input)
    builder = build_forest_strands(bent)
    net = builder.to_network()
    if args.format == "svg":
        _emit(export_svg(net, underlay=[seg.points for seg in builder.obstacles]), args.out)
    elif args.format == "json":
        _emit(network_to_json(net) + "\n", args.out)
    else:
        lines = ["vertices: %d  walls: %d" % (len(net.vertices), len(net.walls))]
        for wall in net.walls:
            lines.append("wall %d label %s source %s target %s"
                         % (wall.id, wall.label, wall.source, wall.target))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_augmentation(args) -> int:
    bent = _load_weave(args.input)
    table = augmentation(bent)
    doc = {name: str(value) for name, value in sorted(table.items())}
    if args.format == "json":
        _emit(to_json(doc) + "\n", args.out)
    else:
        width = max(len(k) for k in doc)
        _emit("".join("%-*s = %s\n" % (width, k, v)
                      for k, v in sorted(doc.items())), args.out)
    return 0


def cmd_nonabelianize(args) -> int:
    bent = _load_weave(args.input)
    builder = build_forest_strands(bent)
    transport = Transport(builder)
    # decided exactly: an identity matrix is the identity under every local system
    loops = [("branch", v.id, transport.is_identity(transport.branch_monodromy(v.id)))
             for v in builder.weave.trivalent_vertices()]
    loops += [("joint", j["child"], transport.is_identity(transport.joint_monodromy(j)))
              for j in builder.joints]
    _emit("\n".join("%s %-3s monodromy: %s" % (kind, ident, "identity" if ok else "NOT IDENTITY")
                    for kind, ident, ok in loops) + "\n", args.out)
    return 0 if all(ok for _, _, ok in loops) else 1


def cmd_bps(args) -> int:
    bent = _load_weave(args.input)
    builder = build_forest_strands(bent)
    catalog = SolitonCatalog(builder)
    gens = catalog.engine.gen_names
    rows = [{"wall": strand.id, "chord": strand.chord,
             "class": str(LaurentPoly.monomial(gens, rho.monomial)),
             "index": rho.effective_sign}
            for strand, rho in zip(builder.strands, catalog.bps_table())]
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        lines = ["wall %-3d chord %-4s mu %+d  class %s"
                 % (r["wall"], r["chord"], r["index"], r["class"])
                 for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_wkb_trace(args) -> int:
    # read off the module at call time, so a wrapper patched onto
    # specnet.wkb.build_wkb_network (as the benchmark's check does) is called
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
        _emit(to_json(doc) + "\n", args.out)
    return 0


def _load_table(spec: str) -> Dict[str, object]:
    """A table JSON, of strings, or the augmentation table of a weave
    input, of ``LaurentPoly``s."""
    if spec.endswith(".json"):
        table = json.loads(_read_input(spec, ".json"))
        if not (isinstance(table, dict) and all(isinstance(v, str) for v in table.values())):
            raise ValueError("%r is not a JSON object of strings" % spec)
        return table
    return augmentation(_load_weave(spec))


def cmd_compare(args) -> int:
    computed = _load_table(args.computed)
    expected = _load_table(args.fixture)
    names = sorted(set(computed) | set(expected))
    gens = tuple(sorted({g for table in (computed, expected)
                         for value in table.values() for g in _gen_names(value)}))
    for name in names:
        a = computed.get(name)
        b = expected.get(name)
        if a is None or b is None or _in_gens(a, gens) != _in_gens(b, gens):
            sys.stdout.write("mismatch at %s: computed %s expected %s\n"
                             % (name, a, b))
            return 1
    sys.stdout.write("tables agree on %d chords\n" % len(names))
    return 0


def _gen_names(value):
    """The generators a table value names: those in a string, or those of
    a polynomial's that some term has a nonzero exponent of, as its text
    names them."""
    if isinstance(value, str):
        return re.findall(r"[st]_\d+", value)
    return [g for g, column in zip(value.gens, zip(*value.terms)) if any(column)]


def _in_gens(value, gens) -> LaurentPoly:
    """A table value as a polynomial in ``gens``: a string read by
    ``parse_laurent``, a polynomial's terms re-keyed, every generator it
    has a nonzero exponent of being in ``gens``."""
    if isinstance(value, str):
        return parse_laurent(value, gens)
    at = [value.gens.index(g) if g in value.gens else None for g in gens]
    return LaurentPoly(gens, {tuple(0 if i is None else m[i] for i in at): c
                              for m, c in value.terms.items()})


def _config_flags(path: str):
    """The ``key = value`` lines of a config file as ``--key=value`` flags;
    blank lines and ``#`` comments are skipped, and any other line without
    ``=`` is an error."""
    flags = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                key, equals, value = line.partition("=")
                if not equals:
                    raise ValueError("config file %s line %d is not key = value: %r"
                                     % (path, number, line))
                flags.append("--%s=%s" % (key.strip().replace("_", "-"), value.strip()))
    return flags


# flags whose value can start with '-' (a negative phase, a wrong negative
# mass): argparse reads "-1e-3" or "-inf" after a space as an option
NUMBER_FLAGS = ("--theta", "--mass", "--radius")


def _join_number_values(argv):
    """argv with each token that starts with '-' and follows a number flag
    (or a prefix of one) joined to it by '=', so argparse reads it as the
    flag's value."""
    out = []
    for token in argv:
        last = out[-1] if out else ""
        if token.startswith("-") and len(last) > 2 and any(
                flag.startswith(last) for flag in NUMBER_FLAGS):
            out[-1] = last + "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _parser():
    """The whole parser tree, with each subcommand's ``cmd_`` function, and
    the names of the subcommands that take --config, built on the first
    call only: parsing leaves it as it was, so every later ``main`` call in
    the process reuses it."""
    parser = argparse.ArgumentParser(
        prog="specnet",
        description="Spectral networks from weaves and spectral curves.")
    sub = parser.add_subparsers(dest="command", required=True)
    takes_config = set()

    def config_option(p, name, **kwargs):
        p.add_argument("--config", default=None, **kwargs)
        takes_config.add(name)

    def weave_command(name, summary, func, formats=("table", "json")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", help="weave file, fixture name, or '-'")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None)
        config_option(p, name, help="key=value file overriding flags")
        p.set_defaults(func=func)
        return p

    weave_command("weave-network", "build a forest network", cmd_weave_network,
                  ("table", "json", "svg"))
    weave_command("augmentation", "chord augmentation table", cmd_augmentation)
    p = weave_command("nonabelianize", "monodromy identity report",
                      cmd_nonabelianize, formats=())
    # the report is decided exactly; this one is still accepted for old
    # command lines, until ROADMAP item 2 deletes it
    p.add_argument("--systems", type=int, default=20, help="no effect")
    weave_command("bps", "BPS index table", cmd_bps)
    p = sub.add_parser("wkb-trace", help="trace a polynomial spectral curve")
    p.add_argument("--curve", required=True, help='e.g. "w^3 - 3*w + x"')
    p.add_argument("--theta", type=float, default=0.3)
    p.add_argument("--mass", type=float, default=12.0)
    p.add_argument("--radius", type=float, default=8.0)
    p.add_argument("--format", choices=("json", "svg"), default=None,
                   help="default: svg if --out ends in .svg, else json")
    p.add_argument("--out", default=None)
    config_option(p, "wkb-trace")
    p.set_defaults(func=cmd_wkb_trace)
    p = sub.add_parser("compare", help="diff two augmentation tables exactly")
    p.add_argument("computed", help="table JSON or weave input")
    p.add_argument("fixture", help="reference table JSON")
    p.set_defaults(func=cmd_compare)
    return parser, frozenset(takes_config)


# --config alone: main reads the config path with it before the one full
# parse, so a config file can give a required flag such as --curve.  A
# missing value (nargs="?") is left to the full parse to report.
_CONFIG_OPTION = argparse.ArgumentParser(add_help=False)
_CONFIG_OPTION.add_argument("--config", nargs="?")


def main(argv=None) -> int:
    parser, takes_config = _parser()
    argv = _join_number_values(sys.argv[1:] if argv is None else argv)
    args = None
    try:
        # specnet itself takes no option but -h, so argv[0] names the
        # subcommand; one without --config leaves its usage error to argparse
        path = (_CONFIG_OPTION.parse_known_args(argv)[0].config
                if argv and argv[0] in takes_config else None)
        args = parser.parse_args(argv + (_config_flags(path) if path else []))
        if getattr(args, "config", None) != path:
            raise ValueError("config file %s names another config file" % path)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as err:
        # a config file that cannot be read: the command line alone names
        # the subcommand, and a usage error in it is reported first
        if args is None:
            args = parser.parse_args(argv)
        sys.stderr.write("error [%s]: %s\n" % (args.command, err))
        return 2


if __name__ == "__main__":
    sys.exit(main())
