"""Every ``BENCH_*.json`` at the repository root holds what its summary says.

A BENCH file records alternating parent/change pairs of
``perfbench/run.py`` runs, each result object verbatim, and per workload and
side the median and quartiles of every end-to-end metric, with the number of
pairs the change won.  These checks recompute the summary from the runs and
hold the file's claim to its stated rule.
"""

import json
import statistics
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BETTER = {m["name"]: m["better"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _pairs(runs):
    """{workload: [(first run, second run) per pair, in pair order]}."""
    by_pair = defaultdict(list)
    for run in runs:
        by_pair[run["workload"], run["pair"]].append(run)
    out = defaultdict(list)
    for (workload, _), pair in sorted(by_pair.items()):
        out[workload].append(pair)
    return out


@pytest.fixture(params=BENCH_FILES, ids=[path.name for path in BENCH_FILES])
def bench(request):
    return json.loads(request.param.read_text())


def test_every_run_is_correct_and_sides_alternate(bench):
    """Every run is correct, each pair runs both sides on one seed, the side
    run first alternates, no change run fails a larger share of its ops
    than its parent, and the claimed workload has at least ten pairs."""
    commits = {"parent": bench["parent"], "change": bench["change"]}
    for run in bench["runs"]:
        assert run["result"]["correct"] is True, run
        assert run["commit"] == commits[run["side"]], run
        assert run["command"] == bench["commands"][run["workload"]].replace(
            "<seed>", str(run["seed"])), run
    for workload, pairs in _pairs(bench["runs"]).items():
        firsts = []
        for pair in pairs:
            assert [run["side"] for run in pair] in (["parent", "change"], ["change", "parent"])
            assert pair[0]["seed"] == pair[1]["seed"]
            parent, change = sorted(pair, key=lambda run: run["side"] == "change")
            assert change["result"]["failed"] * parent["result"]["attempted"] <= \
                parent["result"]["failed"] * change["result"]["attempted"], pair
            firsts.append(pair[0]["side"])
        assert all(a != b for a, b in zip(firsts, firsts[1:])), workload
    assert len(_pairs(bench["runs"])[bench["claim"]["workload"]]) >= 10


def test_summary_is_recomputed_from_the_runs(bench):
    """Medians, quartiles (``statistics.quantiles``, inclusive method) and
    the pairs the change won, per workload, side and metric."""
    summary = {}
    for workload, pairs in _pairs(bench["runs"]).items():
        rows = summary[workload] = {}
        for metric, better in BETTER.items():
            values = {side: [run["result"]["metrics"][metric]["value"]
                             for pair in pairs for run in pair if run["side"] == side]
                      for side in ("parent", "change")}
            row = rows[metric] = {}
            for side, vals in values.items():
                q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
                row[side] = {"median": statistics.median(vals), "q1": q1, "q3": q3}
            sign = 1 if better == "higher" else -1
            row["change_won"] = sum(sign * (c - p) > 0 for p, c in zip(*values.values()))
    assert bench["summary"] == summary


RULE = ("change wins >= 9 of >= 10 alternating pairs and the median gap exceeds "
        "the parent's interquartile range")


def test_claim_holds_under_its_rule(bench):
    """The file states the one claim rule, and its runs meet it: on the
    claimed workload the change beats the parent on the claimed metric, in
    the metric's better direction, in at least 9 of at least 10 pairs, and
    the gap between the two medians exceeds the parent's interquartile
    range."""
    claim = bench["claim"]
    assert claim["rule"] == RULE
    sign = 1 if BETTER[claim["metric"]] == "higher" else -1
    pairs = [sorted(pair, key=lambda run: run["side"] == "change")
             for pair in _pairs(bench["runs"])[claim["workload"]]]
    parent, change = ([run["result"]["metrics"][claim["metric"]]["value"] for run in side]
                      for side in zip(*pairs))
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    assert len(pairs) >= 10 and won >= 9, (won, len(pairs))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gap = sign * (statistics.median(change) - statistics.median(parent))
    assert gap > q3 - q1, (gap, q3 - q1)
