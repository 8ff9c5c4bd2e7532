"""Run the benchmark on two checkouts in pairs and print both medians.

    python tools/bench_pair.py PARENT CHANGE WORKLOAD

PARENT and CHANGE are the roots of two smallrank checkouts.  Both are
byte-compiled first (``python -m compileall -q src perfbench``): a copy
whose source mtimes were reset, run with PYTHONDONTWRITEBYTECODE set,
otherwise recompiles ``perfbench/workloads.py`` on every run, which adds
1-2.5 MiB to ``peak_rss_mb``.  Then, for seeds 1 to 5, it runs
``perfbench/run.py --workload WORKLOAD --seed S --seconds 10 --trace 0``
in one checkout and then the other, the parent first on odd seeds and the
change first on even ones.  It prints each run's verdict, then the median
of each end-to-end metric on both sides and their ratio.  Stdlib only.
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 6)
SECONDS = 10


def _run(root, workload, seed):
    # the metrics {name: value} of one benchmark run, and its verdict
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, "correct" if result["correct"] else "FAILED %d" % result["failed"]


def main(argv):
    if len(argv) != 3:
        print("usage: python tools/bench_pair.py PARENT CHANGE WORKLOAD", file=sys.stderr)
        return 2
    roots = {"parent": argv[0], "change": argv[1]}
    workload = argv[2]
    for root in roots.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=root, check=True)
    runs = {side: [] for side in roots}
    for seed in SEEDS:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for side in order:
            metrics, verdict = _run(roots[side], workload, seed)
            runs[side].append(metrics)
            print("seed %d %-6s %s" % (seed, side, verdict), flush=True)
    print("%-16s %14s %14s %8s" % ("median", "parent", "change", "ratio"))
    for name in runs["parent"][0]:
        parent, change = (statistics.median(m[name] for m in runs[side]) for side in roots)
        ratio = "%8.3f" % (change / parent) if parent else "%8s" % "-"
        print("%-16s %14.6g %14.6g %s" % (name, parent, change, ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
