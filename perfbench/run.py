"""smallrank benchmark: one closed-loop client, one workload per run.

Usage, from the root of a smallrank checkout:

    python3 perfbench/run.py --workload classgroup --seed 1 --seconds 10 --trace 0

One client in one process sends the next request only after the previous
one returned, over a request list made from ``--seed`` (workloads.py).
``--trace 0`` runs whole passes over the list, as many as come closest to
``--seconds``, and prints the end-to-end metrics; ``--trace 1`` runs a
fixed prefix of the list once untraced and once with every public
function of the package wrapped (tracer.py), and prints the per-layer
metrics.  Every output is checked.  Times are scaled to a reference speed
(speed.py).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record`` with the default seed stores the per-request output digests
in expected.json; every later run with that seed compares against them.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 0
SETUP_INTERPRETERS = 9

# Runs in a fresh interpreter: the time to import the package and serve the
# workload's warm-up request, which is what work moved into import time or
# into first-call caches adds to.  The kernel runs after the timed part.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import smallrank, smallrank.cli
exec(sys.argv[2])
elapsed = time.perf_counter() - t0
exec(sys.argv[3])
print(repr(elapsed), repr(kernel_seconds(time.perf_counter)))
"""

FUNCTION_ROWS = (
    ("exactlattice.hnf_canonicalize", ("calls", "self_s")),
    ("exactlattice.mat_inv", ("calls", "self_s")),
    ("exactlattice.mat_det", ("calls", "self_s")),
    ("quadforms.reduce", ("calls", "self_s")),
    ("quadforms.compose", ("calls", "self_s")),
    ("quadrings.QuadIdeal", ("calls", "self_s")),
    ("quadrings.multiply", ("calls",)),
    ("quadrings.class_semigroup", ("self_s",)),
    ("quarticrings.QuarticRing.mul", ("calls",)),
    ("quarticrings.is_maximal_at_p", ("calls", "self_s")),
    ("cubes.triple_from_cube", ("calls",)),
    ("cubicrings.CubicRing.mul", ("calls",)),
    ("padic.balanced_count", ("calls",)),
    ("cli.main", ("self_s",)),
)

UNITS = {"calls": "count", "self_s": "s", "self_share": "ratio", "errors": "count"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="store the digests of the default seed")
    return ap.parse_args(argv)


def measure_setup(src, warmup):
    """Median over fresh interpreters of import + warm-up, at reference speed."""
    cmd = [sys.executable, "-I", "-c", SETUP_CHILD, src, warmup, speed.KERNEL_SOURCE]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)  # writes .pyc files
    raw, scaled = [], []
    for _ in range(SETUP_INTERPRETERS):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
        elapsed, kernel = (float(v) for v in out.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * speed.REF_S / kernel)
    return statistics.median(scaled), statistics.median(raw)


class Outcomes:
    """Check results and output digests, one slot per request of the list."""

    def __init__(self, wl, n, digest):
        self.wl = wl
        self.digest = digest
        self.digests = [None] * n
        self.errors = [None] * n
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def record(self, i, req, out, escaped, first):
        """Check an output on first sight; on repeats compare its digest."""
        self.attempted += 1
        if first:
            err = "escaped %s" % escaped if escaped else self.wl.check(req, out)
            if err is None:
                self.digests[i] = self.digest(self.wl.canonical(req, out))
            else:
                self.errors[i] = err
        elif self.errors[i] is None and (
            escaped or self.digest(self.wl.canonical(req, out)) != self.digests[i]
        ):
            self.errors[i] = "output changed between passes"
        if self.errors[i] is not None:
            self._fail(self.errors[i], 1)

    def compare_expected(self, expected, passes):
        """Fail every attempt of a request whose digest differs from the record."""
        if expected is None:
            return
        if len(expected) != len(self.digests):
            self._fail("recorded digests are for another request list", passes * len(self.digests))
            return
        for want, got in zip(expected, self.digests):
            if want is not None and got is not None and want != got:
                self._fail("output differs from the recorded digest", passes)

    def _fail(self, err, count):
        self.failed += count
        if len(self.examples) < 5 and err not in self.examples:
            self.examples.append(err)


def call(wl, req):
    """One request: (output, name of an escaped exception, start, seconds)."""
    t0 = time.perf_counter()
    try:
        out, escaped = wl.execute(req), None
    except Exception as e:  # counted as a failed request by Outcomes
        out, escaped = None, type(e).__name__
    return out, escaped, t0, time.perf_counter() - t0


def probe_defects(wl):
    """Run the workload's known-defect probes once; count those still failing.

    The probes are not part of the request list: they count neither in
    ``attempted`` nor in ``failed``, and they run after the measured part.
    """
    probes = getattr(wl, "defect_probes", ())
    failing = 0
    for req in probes:
        out, escaped, _, _ = call(wl, req)
        failing += bool(escaped or wl.check(req, out))
    return failing, len(probes)


def load_expected(name, seed):
    if seed != DEFAULT_SEED or not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(name)


def store_expected(name, digests):
    data = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            data = json.load(fh)
    data[name] = digests
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def quantile(sorted_vals, q):
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def warm_up(wl):
    exec(wl.warmup, {"smallrank": sys.modules["smallrank"]})


def timed_run(wl, requests, seconds, src, outcomes):
    setup_s, setup_raw = measure_setup(src, wl.warmup)
    warm_up(wl)
    probe = speed.SpeedProbe()
    starts, raw = [], []
    passes = 0
    begin = time.perf_counter()
    while True:
        for i, req in enumerate(requests):
            probe.maybe()
            out, escaped, t0, dt = call(wl, req)
            starts.append(t0)
            raw.append(dt)
            outcomes.record(i, req, out, escaped, passes == 0)
        passes += 1
        # whole passes only, as many as come closest to the time asked for
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / passes / 2 >= seconds:
            break
    probe.probe()
    scaled = probe.scale(starts, raw)
    lat = sorted(scaled)
    n = len(lat)
    metrics = {
        "ops_per_s": (n / sum(lat), "ops/s"),
        "latency_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(lat, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    rawlat = sorted(raw)
    notes = [
        "%d requests/pass x %d passes = %d latency samples, %d beyond p90"
        % (len(requests), passes, n, n - int(0.9 * n) - 1),
        "wall %.2f s; kernel median %.3f ms, scale to %.3f ms reference"
        % (time.perf_counter() - begin, probe.median_kernel() * 1e3, speed.REF_S * 1e3),
        "unscaled: %.4g ops/s, p50 %.4g ms, p90 %.4g ms, setup %.4g s"
        % (n / sum(raw), quantile(rawlat, 0.5) * 1e3, quantile(rawlat, 0.9) * 1e3, setup_raw),
        "setup_s: median of %d fresh interpreters (import + warm-up request)" % SETUP_INTERPRETERS,
    ]
    return passes, metrics, notes


def trace_run(wl, requests, root, outcomes):
    from tracer import LAYERS, Tracer

    subset = requests[: wl.trace_requests]
    warm_up(wl)
    probe = speed.SpeedProbe()

    def one_pass(first):
        starts, raw = [], []
        for i, req in enumerate(subset):
            probe.maybe()
            tracer.request_id = i
            out, escaped, t0, dt = call(wl, req)
            starts.append(t0)
            raw.append(dt)
            if first:
                outcomes.record(i, req, out, escaped, True)
            else:
                outputs.append((i, req, out, escaped))
        probe.probe()
        return sum(raw), sum(probe.scale(starts, raw))

    tracer = Tracer()
    outputs = []
    _, untraced = one_pass(True)
    tracer.install()
    try:
        traced_raw, traced = one_pass(False)
    finally:
        tracer.uninstall()
    for i, req, out, escaped in outputs:  # tracing must not change any output
        outcomes.record(i, req, out, escaped, False)
    tracer.write(os.path.join(root, ".bench_build", "perfbench", "spans-%s.bin" % wl.name))

    by_name, by_layer, children = tracer.summary()
    to_ref = traced / traced_raw
    metrics = {}
    for layer in LAYERS:
        calls, self_s = by_layer[layer]
        metrics[layer + ".calls"] = (calls, "count")
        metrics[layer + ".self_s"] = (self_s * to_ref, "s")
        metrics[layer + ".self_share"] = (self_s / traced_raw, "ratio")
        metrics[layer + ".errors"] = (tracer.errors[layer], "count")
    for name, fields in FUNCTION_ROWS:
        calls, self_s = by_name.get(name, (0, 0.0))
        for field in fields:
            value = calls if field == "calls" else self_s * to_ref
            metrics["%s.%s" % (name, field)] = (value, UNITS[field])
    maximal = by_name.get("quarticrings.is_maximal_at_p", (0, 0.0))[0]
    candidates = children.get(("quarticrings.is_maximal_at_p", "exactlattice.hnf_canonicalize"), 0)
    metrics["quarticrings.maximality_candidates_per_call"] = (
        candidates / maximal if maximal else 0.0,
        "1/call",
    )
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    notes = [
        "%d requests traced, %d spans; untraced %.3f s, traced %.3f s at reference speed; peak RSS %.0f MiB"
        % (len(subset), len(tracer.start), untraced, traced,
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    ]
    return metrics, notes


def main(argv=None):
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "smallrank", "__init__.py")):
        print("no smallrank sources under %s; run from the root of a checkout" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print("unknown workload %r; one of %s" % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_build", "perfbench", wl.name)
    requests = wl.generate(args.seed, workdir)
    outcomes = Outcomes(wl, len(requests), workloads.digest_of)

    if args.trace:
        metrics, notes = trace_run(wl, requests, root, outcomes)
    else:
        passes, metrics, notes = timed_run(wl, requests, args.seconds, src, outcomes)
        outcomes.compare_expected(load_expected(wl.name, args.seed), passes)
        metrics["ok_frac"] = (1 - outcomes.failed / outcomes.attempted, "ratio")
        if args.record and args.seed == DEFAULT_SEED:
            store_expected(wl.name, outcomes.digests)

    defects, probes = probe_defects(wl)
    if args.trace:
        metrics["cli.known_defect_failures"] = (defects, "count")
    if probes:
        notes.append(
            "known defect: %d of %d indefinite compose probes still fail (not in attempted/failed)"
            % (defects, probes)
        )

    print("workload %s, seed %d, trace %d" % (wl.name, args.seed, args.trace))
    notes.append("failed_frac %.6f (%d of %d attempted)" % (outcomes.failed / outcomes.attempted, outcomes.failed, outcomes.attempted))
    for line in notes + ["failure: " + e for e in outcomes.examples]:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print("  %-48s %14.6g %s" % (name, value, unit))
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
