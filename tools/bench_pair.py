"""Run the benchmark on two checkouts in pairs and compare both sides.

    python tools/bench_pair.py [--out PATH] PARENT CHANGE WORKLOAD [WORKLOAD ...]

PARENT and CHANGE are the roots of two smallrank checkouts.  Both are
byte-compiled first (``python -m compileall -q src perfbench``): a copy
whose source mtimes were reset, run with PYTHONDONTWRITEBYTECODE set,
otherwise recompiles ``perfbench/workloads.py`` on every run, which adds
1-2.5 MiB to ``peak_rss_mb``.  Then, for each workload in turn and for
seeds 1 to 10, it runs ``perfbench/run.py --workload WORKLOAD --seed S
--seconds 10 --trace 0`` in one checkout and then the other, the parent
first on odd seeds and the change first on even ones.  It prints each
run's verdict.  A run that exits non-zero, or prints no result line, is
reported with the last line of its stderr, and its pair is left out; the
pairs already finished are kept.  Then, for each end-to-end metric, it
prints the median and quartiles of both sides, the ratio of the medians,
the pairs (one seed each) that the change won by the direction
``BENCHMARK.json`` gives the metric, ties counting for neither, and
whether the change's median is within the metric's ``bound`` of the
parent's: ``ok``, or ``WORSE`` when it is worse by more than that share.
That is the rule by which a change that claims no gain is judged.  Within
the bound, a change that loses at least 9 of 10 pairs and whose median is
worse than the parent's by more than the parent's quartile spread reads
``SLOWER``: the rule by which a claimed gain is judged, turned round, so
a consistent slowdown inside the bound is named, not read as ``ok``.  An
``ok`` reads ``unresolved`` instead when the parent's own quartile spread
is wider than the bound times its median, so the runs cannot tell a
change within the bound from none, unless every run of the change beats
every run of the parent.  ``summary`` computes one metric's row from the
runs of both sides, and it can be imported and called on its own.  Last
it prints the median ``attempted`` count of both sides, as
``peak_rss_mb`` grows with the number of latency samples a run keeps.
With ``--out PATH`` it also writes what it printed to the JSON file PATH:
for each workload, the number of pairs, the median ``attempted`` of each
side and, for each metric, the median and quartiles of each side, the
pairs won and the verdict; and the Python version, the git revision of
each checkout (with ``+dirty`` appended when it has uncommitted changes)
and the CPU model from ``/proc/cpuinfo`` (``null`` where one cannot be
read).  A WORKLOAD that the parent's ``BENCHMARK.json``
does not list is refused before any run, with exit status 2 and the
names it lists on stderr.  The exit status is 1 when a workload ends with
fewer than two finished pairs, too few to compare, and 0 otherwise.
Stdlib only.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SECONDS = 10


def _run(root, workload, seed):
    # (metrics {name: value}, attempted count, verdict) of one benchmark
    # run, or (None, None, reason) for a run that gave no result
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    try:
        if proc.returncode:
            raise ValueError("exit %d" % proc.returncode)
        result = json.loads(proc.stdout.splitlines()[-1])
    except (ValueError, IndexError) as e:
        last = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        return None, None, "NO RESULT (%s): %s" % (e, last)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    verdict = "correct" if result["correct"] else "FAILED %d" % result["failed"]
    return metrics, result["attempted"], verdict


def _spread(values):
    # median, first and third quartile
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summary(parent, change, higher, bound):
    """One metric's row from the paired runs ``parent[i]``, ``change[i]``.

    ``higher`` is whether a higher value is better, and ``bound`` the share
    by which the change's median may be worse than the parent's, or None
    for a metric with no bound.  Returns ``{"parent": {"median", "q1",
    "q3"}, "change": {...}, "won": pairs won, "verdict": verdict}``, the
    verdict ``-`` with no bound, else ``WORSE``, ``SLOWER``,
    ``unresolved`` or ``ok`` as the module's docstring defines them.
    """
    sign = 1 if higher else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    spreads = {"parent": _spread(parent), "change": _spread(change)}
    (mid, q1, q3), new = spreads["parent"], spreads["change"][0]
    if bound is None:
        verdict = "-"
    elif (new < mid * (1 - bound)) if higher else (new > mid * (1 + bound)):
        verdict = "WORSE"
    elif 10 * lost >= 9 * len(parent) and sign * (mid - new) > q3 - q1:
        verdict = "SLOWER"
    elif q3 - q1 > bound * abs(mid) and not all(sign * (c - p) > 0 for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "ok"
    row = {side: dict(zip(("median", "q1", "q3"), spread)) for side, spread in spreads.items()}
    row.update(won=won, verdict=verdict)
    return row


def _compare(roots, workload, metrics):
    # run the pairs of one workload, print its table and return it as
    # {"pairs", "attempted", "metrics"}, or None with too few pairs
    runs = {side: [] for side in roots}
    attempted = {side: [] for side in roots}
    for seed in SEEDS:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        pair = {}
        for side in order:
            result, count, verdict = _run(roots[side], workload, seed)
            print("%-10s seed %2d %-6s %s" % (workload, seed, side, verdict), flush=True)
            if result is not None:
                pair[side] = (result, count)
        if len(pair) == 2:
            for side, (result, count) in pair.items():
                runs[side].append(result)
                attempted[side].append(count)
    if len(runs["parent"]) < 2:
        print("%s: %d finished pairs, too few to compare" % (workload, len(runs["parent"])))
        return None
    rows = {}
    print("%-16s %28s %28s %8s %5s %10s" % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
                                            "ratio", "won", "bound"))
    for name in runs["parent"][0]:
        parent, change = ([m[name] for m in runs[side]] for side in roots)
        row = rows[name] = summary(parent, change, *metrics.get(name, (False, None)))
        cells = ["%10.6g [%6.4g, %6.4g]" % (row[side]["median"], row[side]["q1"], row[side]["q3"])
                 for side in ("parent", "change")]
        mid, new = row["parent"]["median"], row["change"]["median"]
        ratio = "%8.3f" % (new / mid) if mid else "%8s" % "-"
        print("%-16s %28s %28s %s %2d/%d %10s" % (name, cells[0], cells[1], ratio, row["won"], len(parent),
                                                   row["verdict"]))
    medians = {side: statistics.median(attempted[side]) for side in roots}
    print("%s median attempted: parent %g, change %g" % (workload, medians["parent"], medians["change"]))
    return {"pairs": len(runs["parent"]), "attempted": medians, "metrics": rows}


def _revision(root):
    # the git revision checked out at root, with "+dirty" appended when
    # "git status --porcelain" lists any change, or None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    if head.returncode or status.returncode:
        return None
    return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def _cpu_model():
    # the first "model name" of /proc/cpuinfo, or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return None


def main(argv):
    out = None
    if argv[:1] == ["--out"] and len(argv) > 1:
        out, argv = argv[1], argv[2:]
    if len(argv) < 3:
        print("usage: python tools/bench_pair.py [--out PATH] PARENT CHANGE WORKLOAD [WORKLOAD ...]",
              file=sys.stderr)
        return 2
    roots = {"parent": argv[0], "change": argv[1]}
    with open(os.path.join(roots["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    unknown = [w for w in argv[2:] if w not in names]
    if unknown:
        print("bench_pair.py: unknown workload %s; BENCHMARK.json lists %s"
              % (", ".join(unknown), ", ".join(names)), file=sys.stderr)
        return 2
    metrics = {m["name"]: (m["better"] == "higher", m.get("bound")) for m in bench["end_to_end"]}
    for root in roots.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=root, check=True)
    results = {workload: _compare(roots, workload, metrics) for workload in argv[2:]}
    if out is not None:
        report = {
            "python": platform.python_version(),
            "cpu": _cpu_model(),
            "revisions": {side: _revision(root) for side, root in roots.items()},
            "seeds": list(SEEDS),
            "seconds": SECONDS,
            "workloads": results,
        }
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 1 if None in results.values() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
