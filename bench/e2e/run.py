#!/usr/bin/env python3
"""End-to-end benchmark of dynagg: six workloads over the paper's dynamic
protocols, timed in fresh processes and checked for correct output.

Suite mode (what a person runs):

    python3 bench/e2e/run.py [--seed N] [--reps 7] [--out FILE]

builds the harness into build-bench/, runs every workload once per
repetition (interleaved, one process at a time), then one traced pass per
workload. It checks every output, prints every end-to-end and per-layer
metric by name with its unit, writes a results JSON (default
build-bench/e2e/results.json) and exits non-zero if any repetition failed.

Single-workload mode (the interface BENCHMARK.json declares):

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

repeats NAME in fresh processes for S seconds (at least three times). The
last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of one extra traced process with --trace 1.

See bench/e2e/README.md for the metrics, workloads and pair procedure.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
HARNESS = BUILD / "dynagg_bench"
WORK = BUILD / "e2e"

DEFAULT_REPS = 7
MIN_REPS = 3               # single-workload mode repeats at least this often
SETUPS_PER_REP = 3         # cold set-up processes per timed repetition
PROCESS_TIMEOUT_S = 170
ASYNC_REPLAY_TOLERANCE = 0.15


def accuracy_reset_failure(table, spec):
    """Fig 9 shape: converged before the failure, recovered after it. A
    sketch that never forgets the dead hosts stays near 0.86 * survivors;
    across 32 seeds the recovered rms peaked at 0.23 * survivors."""
    rms = table["rms"]
    n = spec["hosts"]
    survivors = n * (1.0 - spec["failure.fraction"])
    fail_round = spec["failure.round"]
    errors = []
    if not rms[fail_round - 1] < 0.15 * n:
        errors.append(f"rms {rms[fail_round - 1]:g} at the failure round is "
                      f"not below 0.15 * hosts")
    if not rms[-1] < 0.4 * survivors:
        errors.append(f"final rms {rms[-1]:g} is not below 0.4 * survivors")
    if not rms[-1] < rms[fail_round] / 2:
        errors.append(f"final rms {rms[-1]:g} did not recover to half the "
                      f"post-failure rms {rms[fail_round]:g}")
    return errors


def accuracy_push(table, spec):
    v = table["rms_tail_mean"][0]
    return [] if v < 1e-9 else [f"rms_tail_mean {v:g} is not below 1e-9"]


def accuracy_churn(table, spec):
    rms = table["rms"]
    errors = []
    if not max(rms[10:]) < 5.0:
        errors.append(f"rms after round 10 peaks at {max(rms[10:]):g}, "
                      f"not below 5")
    if not rms[-1] < 4.0:
        errors.append(f"final rms {rms[-1]:g} is not below 4")
    return errors


def accuracy_async(table, spec):
    errors = []
    rate = table["delivery_rate"][0]
    loss = spec["net.loss"]
    if not abs(rate - (1.0 - loss)) < 0.002:
        errors.append(f"delivery_rate {rate:g} is not 1 - loss = "
                      f"{1 - loss:g} within 0.002")
    if table["msgs_per_host_round"][0] != 1.0:
        errors.append("push-flow sent other than one message per host-tick")
    if not table["final_rms"][0] < 0.5:
        errors.append(f"final_rms {table['final_rms'][0]:g} is not below 0.5")
    return errors


def accuracy_stream(table, spec):
    """Top-16 of 256 Zipf keys: a random guess scores 16/256 = 0.06."""
    errors = []
    if table["sketch_bytes"][0] != 2 * 128 * 8:
        errors.append(f"sketch_bytes {table['sketch_bytes'][0]:g} != 2048")
    for col in ("hh_precision_16", "hh_recall_16"):
        if not table[col][0] >= 0.375:
            errors.append(f"{col} {table[col][0]:g} is below 0.375")
    return errors


# name -> (spec file, expected-output file, accuracy check). Accuracy bounds
# hold for any seed; the expected output holds for the spec's own seed.
WORKLOADS = {
    "push_1m": ("push_1m", "push_1m", accuracy_push),
    "push_1m_mt": ("push_1m_mt", "push_1m", accuracy_push),
    "reset_failure": ("reset_failure", "reset_failure",
                      accuracy_reset_failure),
    "churn_revert": ("churn_revert", "churn_revert", accuracy_churn),
    "async_lossy": ("async_lossy", "async_lossy", accuracy_async),
    "stream_zipf": ("stream_zipf", "stream_zipf", accuracy_stream),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "host_rounds_per_s": "host-rounds/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (name, unit, workloads it is measured on; None = every workload). The
# per_layer list of BENCHMARK.json is the subset measured on every workload
# (plus the work counters); the rest is printed and recorded here only.
ALL = None
PER_LAYER = [
    ("scenario.setup_ms", "ms", ALL),
    ("scenario.unspanned_pct", "%", ALL),
    ("scenario.render_ms", "ms", ALL),
    ("env.build_ms", "ms", ALL),
    ("env.plan_ns_per_host_round", "ns", ALL),
    ("env.plan_cache_rebuilds", "count", ALL),
    ("env.alive_bitmap_rebuilds", "count", ALL),
    ("env.gossip_exchanges", "count", ALL),
    ("agg.build_ms", "ms", ALL),
    ("agg.apply_ns_per_host_round", "ns", ALL),
    ("agg.state_bytes_per_host", "bytes", ALL),
    ("agg.computed_gb_per_s", "GB/s", ALL),
    ("sim.scatter_ns_per_host_round", "ns", {"push_1m_mt"}),
    ("sim.pool_dispatch_ms", "ms", {"push_1m_mt"}),
    ("sim.pool_wait_ms", "ms", {"push_1m_mt"}),
    ("sim.deposit_bytes", "bytes", ALL),
    ("sim.record_ns_per_host_round", "ns", ALL),
    ("sim.record_useful_frac", "fraction", ALL),
    ("sim.metric_eval_ns_per_host", "ns", ALL),
    ("sim.churn_plan_ms", "ms", {"churn_revert"}),
    ("sim.churn_apply_ms", "ms", {"churn_revert"}),
    ("sim.churn_joins", "count", ALL),
    ("sim.churn_rebirths", "count", ALL),
    ("common.rng_draws", "count", ALL),
    ("agg.async_tick_ns_per_msg", "ns", {"async_lossy"}),
    ("net.decide_ns_per_msg", "ns", {"async_lossy"}),
    ("net.queue_ns_per_msg", "ns", {"async_lossy"}),
    ("agg.async_deliver_ns_per_msg", "ns", {"async_lossy"}),
    ("net.messages_sent", "count", {"async_lossy"}),
    ("net.messages_dropped", "count", {"async_lossy"}),
    ("net.inflight_peak", "count", {"async_lossy"}),
    ("obs.overhead_pct", "%", ALL),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


class BenchError(Exception):
    """A set-up problem: the benchmark cannot run at all."""


def log(msg=""):
    print(msg, flush=True)


# ------------------------------------------------------------ set-up ---

def load_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    for m in bench["end_to_end"]:
        if END_TO_END_UNITS.get(m["name"]) != m["unit"]:
            raise BenchError(f"BENCHMARK.json metric {m['name']} is not "
                             f"measured by run.py with unit {m['unit']}")
    for m in bench["per_layer"]:
        if PER_LAYER_UNITS.get(m["name"]) != m["unit"]:
            raise BenchError(f"BENCHMARK.json metric {m['name']} is not "
                             f"measured by run.py with unit {m['unit']}")
    return bench


def build():
    """Configures build-bench/ once and (re)builds the harness."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no dynagg source tree at {ROOT}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "dynagg_bench",
                  "-j", jobs])
    with open(BUILD / "build.log", "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                logf.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def harness(*args):
    """Runs one harness process; returns (parsed JSON or None, error)."""
    try:
        proc = subprocess.run([str(HARNESS), *map(str, args)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {PROCESS_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, (proc.stderr.strip() or f"exit {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparseable harness output"


def spec_facts(path, seed):
    """The spec keys the checks and rates need (hosts, rounds, ...)."""
    facts = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" not in line:
            continue
        key, value = (s.strip() for s in line.split("=", 1))
        try:
            facts[key] = int(value)
        except ValueError:
            try:
                facts[key] = float(value)
            except ValueError:
                facts[key] = value
    facts["effective_seed"] = facts["seed"] if seed is None else seed
    return facts


def parse_csv(text):
    """column -> values of a one-table CSV rendered by RenderTables."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, v in zip(header, line.split(",")):
            cols[h].append(float(v))
    return cols


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# --------------------------------------------------------- workloads ---

class Workload:
    """One workload's samples, outputs and failures across a run."""

    def __init__(self, name, seed):
        spec_name, expected_name, check = WORKLOADS[name]
        self.name = name
        self.spec = HERE / "workloads" / f"{spec_name}.scenario"
        self.expected = HERE / "expected" / f"{expected_name}.csv"
        self.check = check
        self.facts = spec_facts(self.spec, seed)
        self.host_rounds = self.facts["hosts"] * self.facts["rounds"]
        self.seed_args = [] if seed is None else [f"--seed={seed}"]
        self.samples = {m: [] for m in END_TO_END_UNITS}
        self.attempted = 0
        self.failures = []
        self.reference = None   # first output bytes seen
        self.reference_error = None
        self.trace = None       # the traced pass's harness JSON
        self.checks = []        # cross-check results (warnings)

    def out_path(self, tag):
        WORK.mkdir(parents=True, exist_ok=True)
        return WORK / f"{self.name}.{tag}.csv"

    def judge_reference(self, text):
        """The expected file (own seed only), then the any-seed accuracy
        bounds; None when the output is right."""
        if (self.facts["effective_seed"] == self.facts["seed"] and
                text != self.expected.read_text()):
            return f"output differs from {self.expected.name}"
        try:
            errors = self.check(parse_csv(text), self.facts)
        except (KeyError, IndexError, ValueError) as e:
            errors = [f"output not in the expected shape ({e!r})"]
        return "; ".join(errors) or None

    def check_output(self, path, what):
        """The first output is judged; every later one must match it byte
        for byte, and shares its verdict."""
        text = path.read_text()
        if self.reference is None:
            self.reference = text
            self.reference_error = self.judge_reference(text)
        elif text != self.reference:
            return f"{what}: output differs from the first repetition"
        return self.reference_error and f"{what}: {self.reference_error}"

    def run_setup(self):
        self.attempted += 1
        result, error = harness("setup", self.spec, *self.seed_args)
        if error:
            self.failures.append(f"setup: {error}")
        else:
            self.samples["setup_s"].append(result["setup_s"])

    def run_timed(self, rep):
        self.attempted += 1
        out = self.out_path(rep)
        result, error = harness("run", self.spec, *self.seed_args,
                                f"--out={out}")
        if error is None:
            error = self.check_output(out, f"repetition {rep}")
        if error:
            self.failures.append(error)
            return
        self.samples["wall_s"].append(result["wall_s"])
        self.samples["host_rounds_per_s"].append(
            self.host_rounds / result["wall_s"])
        self.samples["peak_rss_mb"].append(result["peak_rss_mb"])

    def run_traced(self):
        self.attempted += 1
        out = self.out_path("traced")
        trace_out = WORK / f"{self.name}.trace.json"
        result, error = harness("trace", self.spec, *self.seed_args,
                                f"--out={out}", f"--trace-out={trace_out}")
        if error is None:
            error = self.check_output(out, "traced pass")
        if error:
            self.failures.append(error)
            return
        self.trace = result
        self.trace_path = trace_out
        self.cross_check()

    def per_layer(self):
        """name -> value for every per-layer metric this workload has."""
        if self.trace is None:
            return {}
        values = dict(self.trace["metrics"])
        if self.samples["wall_s"]:
            untraced = statistics.median(self.samples["wall_s"])
            values["obs.overhead_pct"] = 100.0 * (
                self.trace["traced_wall_s"] / untraced - 1.0)
        return values

    def cross_check(self):
        """Outside timing against the engine; a miss is a warning."""
        checks = self.trace["checks"]
        metrics = self.trace["metrics"]
        if "async_replay_s" in checks:
            # Judged against the wall time of the same process's traced run:
            # the untraced median comes from other processes, minutes away
            # on a shared host, and is shown for reference.
            replay = checks["async_replay_s"]
            share = replay / self.trace["traced_wall_s"]
            untraced = ""
            if self.samples["wall_s"]:
                wall = statistics.median(self.samples["wall_s"])
                untraced = (f", {100 * replay / wall:.1f}% of the untraced "
                            f"wall_s median")
            self.checks.append({
                "check": "async replay spans vs wall time",
                "ok": abs(share - 1.0) <= ASYNC_REPLAY_TOLERANCE,
                "detail": (f"interleaved replay {replay:.3f} s = "
                           f"{100 * share:.1f}% of the traced wall "
                           f"{self.trace['traced_wall_s']:.3f} s{untraced}; "
                           f"stages timed apart sum to "
                           f"{checks['async_isolated_s']:.3f} s")})
            table = parse_csv(self.reference)
            same = (f"{checks['async_replay_delivery_rate']:.6g}" ==
                    f"{table['delivery_rate'][0]:.6g}" and
                    f"{checks['async_replay_final_rms']:.6g}" ==
                    f"{table['final_rms'][0]:.6g}")
            self.checks.append({
                "check": "async replay outputs vs engine",
                "ok": same,
                "detail": (f"replay delivery_rate "
                           f"{checks['async_replay_delivery_rate']:.6g}, "
                           f"final_rms {checks['async_replay_final_rms']:.6g}"
                           f"; engine {table['delivery_rate'][0]:.6g}, "
                           f"{table['final_rms'][0]:.6g}")})
        if metrics.get("sim.churn_apply_ms", 0) > 0:
            apply_s = metrics["sim.churn_apply_ms"] / 1e3
            limit = checks["unspanned_s"]
            self.checks.append({
                "check": "churn apply vs unspanned trial time",
                "ok": apply_s < limit,
                "detail": (f"ChurnPlan::Apply replay {apply_s:.3f} s against "
                           f"{limit:.3f} s unspanned "
                           f"({metrics['scenario.unspanned_pct']:.1f}% of "
                           f"{checks['trial_s']:.3f} s)")})
        for c in self.checks:
            if not c["ok"]:
                log(f"WARNING {self.name}: {c['check']}: {c['detail']}")

    def end_to_end(self):
        """name -> {unit, median, q1, q3, n, samples}."""
        out = {}
        for name, unit in END_TO_END_UNITS.items():
            values = self.samples[name]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            out[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                         "n": len(values), "samples": values}
        return out


# ------------------------------------------------------------ output ---

def print_workload(w, bounds):
    log(f"\n== {w.name}  ({w.facts['hosts']} hosts x {w.facts['rounds']} "
        f"rounds, seed {w.facts['effective_seed']})")
    log(f"  {'end-to-end metric':<32} {'unit':<14} {'median':>12} "
        f"{'q1':>12} {'q3':>12} {'n':>3}  bound")
    for name, m in w.end_to_end().items():
        bound = bounds.get(name)
        log(f"  {name:<32} {m['unit']:<14} {m['median']:>12.6g} "
            f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['n']:>3}  "
            f"{'' if bound is None else f'{100 * bound:.0f}%'}")
    failed_frac = len(w.failures) / max(1, w.attempted)
    log(f"  {'failed_frac':<32} {'fraction':<14} {failed_frac:>12.6g} "
        f"{'':>12} {'':>12} {w.attempted:>3}  +0")
    values = w.per_layer()
    if values:
        log(f"  {'per-layer metric (traced pass)':<32} {'unit':<14} "
            f"{'value':>12}")
        for name, unit, applies in PER_LAYER:
            if applies is ALL or w.name in applies:
                log(f"  {name:<32} {unit:<14} {values.get(name, 0.0):>12.6g}")
    for f in w.failures:
        log(f"  FAILED: {f}")


def provenance(workloads, seed, reps, info):
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            return proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            return None

    def first_line(path, prefix=""):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line
        except OSError:
            pass
        return None

    status = git("status", "--porcelain")
    return {
        "git_describe": git("describe", "--always", "--tags", "--dirty"),
        "git_dirty": None if status is None else bool(status),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "machine": platform.machine(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "hardware_concurrency": info.get("hardware_concurrency"),
        "affinity_cpus": info.get("affinity_cpus"),
        "transparent_hugepage": first_line(
            "/sys/kernel/mm/transparent_hugepage/enabled"),
        "seed": seed,
        "repetitions": reps,
        "spec_sha256": {w.name: hashlib.sha256(w.spec.read_bytes())
                        .hexdigest() for w in workloads},
    }


# -------------------------------------------------------------- modes ---

def run_suite(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    info, error = harness("info")
    if error:
        raise BenchError(f"harness info: {error}")
    workloads = [Workload(name, args.seed) for name in WORKLOADS]
    for rep in range(args.reps):
        log(f"repetition {rep + 1}/{args.reps}")
        for w in workloads:
            for _ in range(SETUPS_PER_REP):
                w.run_setup()
            w.run_timed(rep)
    log("traced pass")
    for w in workloads:
        w.run_traced()
    # Workloads sharing an expected file must agree byte for byte under any
    # seed (push_1m_mt is push_1m on the parallel scatter).
    by_expected = {}
    for w in workloads:
        if w.reference is not None:
            first = by_expected.setdefault(w.expected, w)
            if w.reference != first.reference:
                w.failures.append(f"output differs from {first.name}'s")

    for w in workloads:
        print_workload(w, bounds)
    results = {
        "provenance": provenance(workloads, args.seed, args.reps, info),
        "workloads": {
            w.name: {
                "spec": str(w.spec.relative_to(ROOT)),
                "seed": w.facts["effective_seed"],
                "hosts": w.facts["hosts"],
                "rounds": w.facts["rounds"],
                "attempted": w.attempted,
                "failed": len(w.failures),
                "failed_frac": len(w.failures) / max(1, w.attempted),
                "failures": w.failures,
                "end_to_end": w.end_to_end(),
                "per_layer": {name: {"unit": PER_LAYER_UNITS[name],
                                     "value": v}
                              for name, v in w.per_layer().items()},
                "cross_checks": w.checks,
                "trace_json": (str(w.trace_path.relative_to(ROOT))
                               if w.trace else None),
            } for w in workloads},
    }
    out = Path(args.out) if args.out else WORK / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    failed = sum(len(w.failures) for w in workloads)
    log(f"\nwrote {out}; {failed} failed of "
        f"{sum(w.attempted for w in workloads)} attempted")
    return 1 if failed else 0


def run_workload(args, bench):
    w = Workload(args.workload, args.seed)
    seconds = args.seconds if args.seconds is not None else \
        bench["run_seconds"]
    start = time.monotonic()
    rep = 0
    while rep < MIN_REPS or time.monotonic() - start < seconds:
        for _ in range(SETUPS_PER_REP):
            w.run_setup()
        w.run_timed(rep)
        rep += 1
    if args.trace:
        w.run_traced()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print_workload(w, bounds)

    metrics = {}
    if args.trace:
        values = w.per_layer()
        if values:
            metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                                   "unit": m["unit"]}
                       for m in bench["per_layer"]}
    else:
        e2e = w.end_to_end()
        if all(m["name"] in e2e for m in bench["end_to_end"]):
            metrics = {m["name"]: {"value": e2e[m["name"]]["median"],
                                   "unit": m["unit"]}
                       for m in bench["end_to_end"]}
    failed = len(w.failures)
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": w.attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if failed == 0 and metrics else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="override every workload's seed")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (BENCHMARK.json interface)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="single-workload mode: seconds to repeat for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single-workload mode: report per-layer metrics")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="suite mode: interleaved repetitions")
    parser.add_argument("--out", help="suite mode: results JSON path")
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    try:
        bench = load_benchmark_json()
        build()
        if args.workload:
            return run_workload(args, bench)
        return run_suite(args, bench)
    except (BenchError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
