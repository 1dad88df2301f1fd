"""Record the outputs the benchmark's op checks compare against.

Run from the root of a checkout, on the commit whose outputs are the
reference (ROADMAP aim 2 keeps them identical):

    python3 perfbench/record_expected.py

It writes ``perfbench/expected.json`` (stdout digests of weave-network,
augmentation and bps per fixture, monodromy loop and chord counts, and the
WKB graphs with masses of the anchor traces) and the augmentation table of
each fixture that has no packaged table, under ``perfbench/tables/``.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (  # noqa: E402
    AIRY, CUBIC, EXPECTED_PATH, FIXTURES, STORED_TABLES, CliWeave, WkbTrace,
    _run_cli, graph_of)


def _stdout(argv):
    code, out, err, _ = _run_cli(argv)
    if code != 0:
        raise SystemExit("%s failed: %s %s" % (" ".join(argv), code, err))
    return out


def main():
    doc = {"digests": {}, "monodromy_loops": {}, "chords": {}, "wkb_graphs": {}}
    for fixture in FIXTURES:
        for sub in ("weave-network", "augmentation", "bps"):
            out = _stdout(CliWeave.argv(sub, fixture))
            doc["digests"]["%s %s" % (sub, fixture)] = \
                hashlib.sha256(out.encode()).hexdigest()
            if sub == "augmentation":
                table = json.loads(out)
                doc["chords"][fixture] = len(table)
                if fixture in STORED_TABLES:
                    os.makedirs(os.path.dirname(STORED_TABLES[fixture]), exist_ok=True)
                    with open(STORED_TABLES[fixture], "w") as handle:
                        handle.write(out)
        out = _stdout(CliWeave.argv("nonabelianize", fixture))
        doc["monodromy_loops"][fixture] = len(out.splitlines())
    for curve, theta in WkbTrace.ANCHORS:
        text, mass, radius = AIRY if curve == "airy" else CUBIC
        code, out, _, _ = _run_cli(["wkb-trace", "--curve", text, "--theta", repr(theta),
                                    "--mass", repr(mass), "--radius", repr(radius)])
        if code == 0:
            doc["wkb_graphs"]["%s %r" % (curve, theta)] = graph_of(json.loads(out))
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
