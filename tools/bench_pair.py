"""Run the benchmark on two checkouts in pairs and compare both sides.

    python tools/bench_pair.py PARENT CHANGE WORKLOAD

PARENT and CHANGE are the roots of two smallrank checkouts.  Both are
byte-compiled first (``python -m compileall -q src perfbench``): a copy
whose source mtimes were reset, run with PYTHONDONTWRITEBYTECODE set,
otherwise recompiles ``perfbench/workloads.py`` on every run, which adds
1-2.5 MiB to ``peak_rss_mb``.  Then, for seeds 1 to 10, it runs
``perfbench/run.py --workload WORKLOAD --seed S --seconds 10 --trace 0``
in one checkout and then the other, the parent first on odd seeds and the
change first on even ones.  It prints each run's verdict, then for each
end-to-end metric the median and quartiles of both sides, the ratio of
the medians, and the pairs (one seed each) that the change won by the
direction ``BENCHMARK.json`` gives the metric, ties counting for neither.
Last it prints the median ``attempted`` count of both sides, as
``peak_rss_mb`` grows with the number of latency samples a run keeps.
Stdlib only.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SECONDS = 10


def _run(root, workload, seed):
    # the metrics {name: value} of one benchmark run, its attempted count
    # and its verdict
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    verdict = "correct" if result["correct"] else "FAILED %d" % result["failed"]
    return metrics, result["attempted"], verdict


def _spread(values):
    # median, first and third quartile
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv):
    if len(argv) != 3:
        print("usage: python tools/bench_pair.py PARENT CHANGE WORKLOAD", file=sys.stderr)
        return 2
    roots = {"parent": argv[0], "change": argv[1]}
    workload = argv[2]
    with open(os.path.join(roots["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        higher = {m["name"]: m["better"] == "higher" for m in json.load(fh)["end_to_end"]}
    for root in roots.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=root, check=True)
    runs = {side: [] for side in roots}
    attempted = {side: [] for side in roots}
    for seed in SEEDS:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for side in order:
            metrics, count, verdict = _run(roots[side], workload, seed)
            runs[side].append(metrics)
            attempted[side].append(count)
            print("seed %2d %-6s %s" % (seed, side, verdict), flush=True)
    print("%-16s %28s %28s %8s %5s" % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
                                       "ratio", "won"))
    for name in runs["parent"][0]:
        parent, change = ([m[name] for m in runs[side]] for side in roots)
        cells = ["%10.6g [%6.4g, %6.4g]" % _spread(values) for values in (parent, change)]
        mid = statistics.median(parent)
        ratio = "%8.3f" % (statistics.median(change) / mid) if mid else "%8s" % "-"
        sign = 1 if higher.get(name, False) else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        print("%-16s %28s %28s %s %2d/%d" % (name, cells[0], cells[1], ratio, won, len(parent)))
    print("median attempted: parent %g, change %g"
          % tuple(statistics.median(attempted[side]) for side in roots))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
