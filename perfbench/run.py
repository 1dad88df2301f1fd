"""specnet benchmark: one workload per run, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_weave --seed 1 --seconds 30 --trace 0

Workloads: cli_weave, transport_paths, wkb_trace (see workloads.py).  The
run measures whole cycles of ops, as many as cover ``--seconds`` seconds
at the workload's nominal cycle time on the reference box, checks
every op's output, prints each metric by name with its unit and, as its
last line, one JSON object {correct, attempted, failed, metrics}.

``--trace 0`` gives the end-to-end metrics; their times are rescaled to
nominal machine speed by a reference loop timed around every op (see
"machine speed" below).  ``--trace 1`` is a separate
run that wraps the specnet callables listed in spans.py, runs the traced
set-up, one untraced and one traced pass of ``trace_cycles`` cycles each,
and gives the per-layer metrics; its spans are written to
``perfbench/out/``.  BLAS threads are pinned to 1; nothing runs in other
threads or processes.

Everything the run reports is also written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

import resource
import time

# Interpreter start-up is CPU-bound, so the CPU time used so far stands in
# for the wall time between interpreter start and this line.
_usage = resource.getrusage(resource.RUSAGE_SELF)
STARTUP_S = _usage.ru_utime + _usage.ru_stime

# ----- machine speed -----
#
# A shared machine's speed swings by tens of percent from second to second
# and from minute to minute, and a run's raw times swing with it.  So a
# fixed reference loop runs right before and right after every op (and
# every set-up, and the imports), and each time is rescaled by
# REF_NOMINAL_MS over the mean of the two reference samples around it: the
# gated times are the times the op would take on a machine that runs the
# loop in REF_NOMINAL_MS.  The loop allocates no container objects, so the
# heap the program leaves behind (and its garbage collections) does not
# change the loop's time; it runs outside every op timing.  Raw times are
# printed and kept beside the rescaled ones.

REF_LOOP = 50_000
REF_NOMINAL_MS = 4.0  # the loop's typical time on a 2-core x86-64 box


def ref_ms():
    """One timing of the reference loop, in ms."""
    began = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    return (time.perf_counter() - began) * 1e3


def timed(call):
    """(result, scale) of ``call()``: scale turns the seconds it took into
    seconds at nominal machine speed."""
    before = ref_ms()
    result = call()
    return result, REF_NOMINAL_MS * 2 / (before + ref_ms())


REF_AT_START = ref_ms()  # the reference sample before start-up's imports
T_SCRIPT = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3


def context(seed):
    """What the numbers depend on besides the code under test."""
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    src_lines = 0
    pkg = os.path.join(SRC, "specnet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as handle:
                src_lines += sum(1 for _ in handle)
    return {"seed": seed, "commit": _commit(), "python": platform.python_version(),
            "numpy": version("numpy"), "sympy": version("sympy"),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def _commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ----- running ops -----

def run_cycles(workload, first, count, recorder=None):
    """Run ``count`` whole cycles of ops, starting at cycle ``first``:
    a list of (label, outcome, scale)."""
    outcomes = []
    prepare = getattr(workload, "prepare", None)
    for index in range(first, first + count):
        for op in workload.cycle(index):
            if prepare:
                prepare(op)

            def call():
                if recorder is None:
                    return workload.run(op)
                with recorder.span("op", op.label):
                    return workload.run(op)

            outcome, scale = timed(call)
            outcomes.append((op.label, outcome, scale))
    return outcomes


def cycles_for(workload, seconds):
    """Whole cycles covering ``seconds`` at the workload's nominal cycle
    time.  The count depends on nothing measured, so a run's op mix (and
    which op each percentile falls on) is the same on every commit."""
    return math.ceil(seconds / workload.cycle_seconds)


# A quantile of a few dozen op times read off one or two order statistics
# jumps with the noise on those few ops.  The Harrell-Davis estimator
# (Biometrika 69, 1982) weights every order statistic by a beta kernel
# centred on the quantile, so the ops around it all count.

def _betainc(a, b, x):
    """The regularised incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 / max(abs(1.0 - (a + b) * x / (a + 1)), tiny)
    f = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return front * f


def quantile(samples, p):
    """Harrell-Davis estimate of the ``p`` quantile of ``samples``."""
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    n = len(samples)
    if n <= 10:
        return max(samples), 100.0, 0
    return quantile(samples, (n - 10) / n), 100.0 * (n - 10) / n, 10


def summarize(outcomes):
    """Counts and op times of (label, outcome, scale) triples; ``seconds``
    are at nominal machine speed, ``raw_seconds`` as measured."""
    attempted = len(outcomes)
    good = sum(1 for _, o, _ in outcomes if o.ok)
    failed = attempted - good
    unexpected = [(label, o.detail) for label, o, _ in outcomes
                  if not o.ok and not o.expected_failure]
    seconds = [o.seconds * scale for _, o, scale in outcomes]
    raw = [o.seconds for _, o, _ in outcomes]
    return {"ops": outcomes, "attempted": attempted, "failed": failed, "good": good,
            "unexpected": unexpected, "ops_per_s": good / sum(seconds),
            "seconds": seconds, "raw_seconds": raw, "raw_ops_per_s": good / sum(raw)}


# ----- the two kinds of run -----

def end_to_end(workload, args, imports):
    def one_setup():
        began = time.perf_counter()
        workload.setup(args.seed)
        return time.perf_counter() - began

    imports_s, imports_scale = imports
    setups = [timed(one_setup) for _ in range(SETUP_REPEATS)]
    setup_raw = imports_s + statistics.median(s for s, _ in setups)
    setup_s = imports_s * imports_scale + statistics.median(s * k for s, k in setups)
    cycles = cycles_for(workload, args.seconds)
    outcomes = run_cycles(workload, 0, cycles)
    s = summarize(outcomes)
    value, pct, beyond = tail(s["seconds"])
    raw_value, _, _ = tail(s["raw_seconds"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "op_p50_ms": (quantile(s["seconds"], 0.5) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "success_ratio": (s["good"] / s["attempted"], "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "op_tail_ms": "p%.1f of %d samples, %d beyond; Harrell-Davis"
                      % (pct, s["attempted"], beyond),
        "setup_s": "imports %.4f s + median of %d set-ups %s, raw" % (
            imports_s, len(setups), ", ".join("%.4f" % x for x, _ in setups)),
    }
    scales = [k for _, _, k in outcomes]
    extra = {"failed_ratio": (s["failed"] / s["attempted"], "ratio"),
             "cycles": (cycles, "count"),
             "raw.ops_per_s": (s["raw_ops_per_s"], "1/s"),
             "raw.op_p50_ms": (quantile(s["raw_seconds"], 0.5) * 1e3, "ms"),
             "raw.op_tail_ms": (raw_value * 1e3, "ms"),
             "raw.setup_s": (setup_raw, "s"),
             "speed_scale.min": (min(scales), "ratio"),
             "speed_scale.median": (statistics.median(scales), "ratio"),
             "speed_scale.max": (max(scales), "ratio")}
    return s, metrics, notes, extra


def per_layer(workload, args):
    import spans

    rec = spans.Recorder()
    rec.install()
    with rec.span("setup", "setup"):
        workload.setup(args.seed)
    rec.uninstall()
    cycles = workload.trace_cycles
    plain = run_cycles(workload, 0, cycles)
    rec.install()
    try:
        traced = run_cycles(workload, cycles, cycles, recorder=rec)
    finally:
        rec.uninstall()
    self_s, calls, per_root = rec.analyse()
    sp, st = summarize(plain), summarize(traced)

    empty = (Counter(), Counter())
    op_rows = [per_root.get(r, empty) for r in sorted(rec.labels)
               if rec.labels[r] != "setup"]
    op_seconds = sum(o.seconds for _, o, _ in traced)
    class_s = sum(self_row["soliton_bps.class_of_chain"]
                  + self_row["laurent.solve_rational"] for self_row, _ in op_rows)
    cubic_sheets = [calls_row["wkb.sheets_at"]
                    for (label, o, _), (_, calls_row) in zip(traced, op_rows)
                    if label.startswith("cubic") and o.ok]
    detours = rec.children_named("nonabel.soliton_coefficient", "soliton_bps.tree_chain")
    loops = rec.children_named("nonabel.monodromy", "nonabel.transport_path")

    metrics = {}
    for key in ("soliton_bps.class_of_chain", "laurent.solve_rational",
                "soliton_bps.tree_chain", "nonabel.transport_path",
                "nonabel.transport_free", "nonabel.matmul", "soliton_bps.engine_init",
                "forest.build", "wkb.trace_wall", "wkb.sheets_at", "wkb.pair_values_at"):
        metrics[key + "_s"] = (self_s[key], "s")
        metrics[key + "_calls"] = (calls[key], "count")
    for key in ("nonabel.transport_short", "soliton_bps.bps_table",
                "nonabel.augmentation", "nonabel.monodromy",
                "nonabel.local_system_eval", "weave.parse_bend",
                "network.to_json", "wkb.curve_parse", "wkb.branch_points"):
        metrics[key + "_s"] = (self_s[key], "s")
    metrics["cli.self_s"] = (self_s["cli.main"], "s")
    metrics["wkb.network_self_s"] = (self_s["wkb.network"], "s")
    metrics["nonabel.detour_hit_ratio"] = (
        sum(1 for c in detours if c == 0) / len(detours) if detours else 0.0, "ratio")
    metrics["nonabel.loop_retries"] = (sum(c - 1 for c in loops), "count")
    for key in ("forest.strands", "wkb.samples", "wkb.root_collisions"):
        metrics[key] = (rec.counts[key], "count")
    metrics["trace.overhead_ratio"] = (st["ops_per_s"] / sp["ops_per_s"], "ratio")
    metrics["trace.class_solve_share"] = (class_s / op_seconds, "ratio")
    metrics["wkb.sheets_at_per_cubic"] = (
        statistics.mean(cubic_sheets) if cubic_sheets else 0.0, "count")

    notes = {"trace.class_solve_share": "class_of_chain + solve_rational self time "
                                         "over %.3f s of traced op time" % op_seconds,
             "wkb.sheets_at_per_cubic": "per successful cubic trace: %s"
                                        % (cubic_sheets or "none")}
    os.makedirs(OUT, exist_ok=True)
    rec.write(os.path.join(OUT, "spans-%s-seed%d.json.gz" % (workload.name, args.seed)))
    combined = summarize(plain + traced)
    return combined, metrics, notes, {"spans": (len(rec.parent), "count")}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "specnet")):
        sys.stderr.write("perfbench: no specnet sources under %s; run from the "
                         "root of a specnet checkout\n" % SRC)
        return 2
    sys.path.insert(0, SRC)

    import specnet.cli  # noqa: F401  (the path every workload enters by)
    if args.workload == "wkb_trace" or args.trace:
        import specnet.wkb  # noqa: F401
    imports_s = STARTUP_S + time.perf_counter() - T_SCRIPT
    imports_scale = REF_NOMINAL_MS * 2 / (REF_AT_START + ref_ms())

    workload = WORKLOADS[args.workload]()
    ctx = context(args.seed)
    if args.trace:
        summary, metrics, notes, extra = per_layer(workload, args)
    else:
        summary, metrics, notes, extra = end_to_end(workload, args, (imports_s, imports_scale))

    print("context: " + " ".join("%s=%s" % kv for kv in ctx.items()))
    print("workload %s: %d ops, %d failed (closed loop, 1 client)"
          % (workload.name, summary["attempted"], summary["failed"]))
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        note = notes.get(name)
        print("%-32s %14.6g %-6s%s" % (name, value, unit, "  (%s)" % note if note else ""))
    for label, detail in summary["unexpected"]:
        print("UNEXPECTED FAILURE %s: %s" % (label, detail))
    correct = not summary["unexpected"]
    result = {"correct": correct, "attempted": summary["attempted"],
              "failed": summary["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (workload.name, args.seed, args.trace)), "w") as handle:
        json.dump({"context": ctx, "result": result, "notes": notes,
                   "extra": {k: v for k, (v, _) in extra.items()},
                   "ops": [[label, o.seconds, scale, o.ok, o.detail]
                           for label, o, scale in summary["ops"]]}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
