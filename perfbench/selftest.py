"""Self-test of the op checks: an op whose output differs from a corrupted
expected value must be counted as failed, and not as a known failure.

    python3 perfbench/selftest.py

Exits 0 when every check catches its corruption.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import summarize  # noqa: E402
from workloads import CliWeave, Op, WkbTrace  # noqa: E402


def counted_failed(workload, op):
    summary = summarize([(op.label, workload.run(op), 1.0)])
    return summary["failed"] == 1 and len(summary["unexpected"]) == 1


def main():
    cases = []
    cli = CliWeave()
    cli.setup(0)
    op = Op("bps mutation_a", ("bps", "mutation_a"))
    cases.append(("cli op passes before corruption", cli.run(op).ok))
    digest = cli.expected["digests"]["bps mutation_a"]
    cli.expected["digests"]["bps mutation_a"] = digest[::-1]
    cases.append(("corrupted bps digest fails the op", counted_failed(cli, op)))

    wkb = WkbTrace()
    wkb.setup(0)
    op = Op("airy theta=0.0", ("airy", 0.0))
    cases.append(("wkb op passes before corruption", wkb.run(op).ok))
    wall = wkb.expected["wkb_graphs"]["airy 0.0"]["walls"][0]
    wall[3] *= 1 + 1e-6
    cases.append(("corrupted Airy wall mass fails the op", counted_failed(wkb, op)))

    for name, passed in cases:
        print("%s: %s" % ("ok  " if passed else "FAIL", name))
    return 0 if all(passed for _, passed in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
