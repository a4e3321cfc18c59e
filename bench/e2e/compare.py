#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results (bench/e2e/run.py).

    python3 bench/e2e/compare.py BASE.json HEAD.json [BASE2.json HEAD2.json ...]

BASE is the parent commit, HEAD the change. More than one pair of files
pools their repetitions per side, in argument order, so runs taken in
alternating order (base first, then head first, ...) form the pairs.

For every (end-to-end metric, workload) pair it applies the metric's bound
from BENCHMARK.json:

  REGRESSION   HEAD's median is worse than BASE's by more than the bound.
  unresolved   BASE's interquartile spread is wider than the bound, unless
               every HEAD repetition beats every BASE repetition.
  gain         HEAD wins at least 9 of 10 pairs (ties count for neither, at
               least 10 pairs) and the medians differ by more than BASE's
               interquartile distance.
  ok           none of the above.

It also lists per-layer counters (work counts) that differ between the
traced passes, and workloads where HEAD failed more repetitions. Exit
status: 1 if any REGRESSION or extra failure, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
COUNT_UNITS = ("count", "bytes")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def pooled(results, workload, metric):
    samples = []
    for r in results:
        m = r["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
        if m:
            samples.extend(m["samples"])
    return samples


def verdict(base, head, bound, lower_is_better):
    q1, bmed, q3 = quartiles(base)
    hmed = statistics.median(head)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (hmed - bmed) / bmed
    spread = (q3 - q1) / bmed
    beats = (lambda h, b: h < b) if lower_is_better else (lambda h, b: h > b)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if beats(h, b))
    all_beat = all(beats(h, b) for h in head for b in base)
    if worse > bound:
        text = "REGRESSION"
    elif spread > bound and not all_beat:
        text = "unresolved"
    elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
          abs(hmed - bmed) > q3 - q1):
        text = "gain"
    else:
        text = "ok"
    return bmed, hmed, worse, spread, wins, len(pairs), text


def main(argv):
    if len(argv) < 3 or len(argv) % 2 == 0:
        print(__doc__, file=sys.stderr)
        return 2
    files = [json.loads(Path(p).read_text()) for p in argv[1:]]
    base, head = files[0::2], files[1::2]
    bench = json.loads(BENCHMARK.read_text())
    workloads = [w for w in base[0]["workloads"] if w in head[0]["workloads"]]

    bad = 0
    print(f"{'workload':<14} {'metric':<18} {'base':>11} {'head':>11} "
          f"{'worse':>7} {'spread':>7} {'bound':>6} {'wins':>7}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            b = pooled(base, w, m["name"])
            h = pooled(head, w, m["name"])
            if not b or not h:
                print(f"{w:<14} {m['name']:<18} missing samples")
                continue
            bmed, hmed, worse, spread, wins, pairs, text = verdict(
                b, h, m["bound"], m["better"] == "lower")
            bad += text == "REGRESSION"
            print(f"{w:<14} {m['name']:<18} {bmed:>11.5g} {hmed:>11.5g} "
                  f"{100 * worse:>6.1f}% {100 * spread:>6.1f}% "
                  f"{100 * m['bound']:>5.0f}% {wins:>3}/{pairs:<3}  {text}")

    for w in workloads:
        bf = sum(r["workloads"][w]["failed"] for r in base)
        hf = sum(r["workloads"][w]["failed"] for r in head)
        if hf > bf:
            bad += 1
            print(f"{w}: HEAD failed {hf} repetitions, BASE {bf}")
        bl = base[0]["workloads"][w]["per_layer"]
        hl = head[0]["workloads"][w]["per_layer"]
        for name, m in bl.items():
            if m["unit"] in COUNT_UNITS and name in hl and \
                    hl[name]["value"] != m["value"]:
                print(f"{w}: counter {name} moved {m['value']:g} -> "
                      f"{hl[name]['value']:g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
