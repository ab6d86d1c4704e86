#!/usr/bin/env python3
"""Diff two BENCH_*.json files and flag regressions.

Usage:
    benchdiff.py BASELINE.json CANDIDATE.json [--threshold PCT]

Walks both JSON trees in parallel and reports every numeric leaf that
moved, as `path: baseline -> candidate (+X.X%)`. Each metric's direction
is inferred from its name:

  * higher is worse (regression when it grows): names containing `ms`,
    `latency`, `_us`, `imbalance`, `shed`, `timeouts`, `failures`,
    `evictions`, `burn` (SLO burn rates from the `slo` block: burning
    error budget faster is strictly worse), `resident_bytes` (retained
    memory in the `history`/`cache` blocks: growth past the threshold
    means the process got fatter, while `budget_bytes` stays a
    configuration echo);
  * lower is worse (regression when it shrinks): names containing
    `speedup`, `throughput`, `rps`, `hit_rate`, or equal to `ok`;
  * everything else (sizes, counts, configuration echoes) is
    informational only and never fails the diff.

Exits 1 when any directional metric regressed by more than `--threshold`
percent (default 10), else 0. Missing counterparts (a key present on one
side only) are reported but never fatal: bench files legitimately gain
fields between versions.

Degraded runs: when either file carries a top-level `"degraded": true`
(the bench ran with fewer cores than its largest requested thread
count), parallelism-sensitive metrics — speedups, imbalance, per-thread
run times, worker busy/idle splits — are demoted to informational: the
deltas are still printed but cannot fail the diff, and a warning is
emitted. Machine-independent serial timings stay gated.

stdlib-only on purpose — CI runs it with a bare python3.
"""

import argparse
import json
import sys

# Substrings that classify a metric name; checked against the last
# path segment, lowercased. Order matters: the first match wins, and
# lower-is-worse is checked first so "throughput_ms_avg"-style names
# would classify by the more specific token list below if ever added.
LOWER_IS_WORSE = ("speedup", "throughput", "rps", "hit_rate")
HIGHER_IS_WORSE = (
    "ms",
    "latency",
    "_us",
    "imbalance",
    "shed",
    "timeouts",
    "failures",
    "evictions",
    # SLO and retention keys: `slo.*.fast_burn`/`slow_burn` and
    # `history.resident_bytes`/`cache.resident_bytes`. The full
    # "resident_bytes" token (not "bytes") keeps `budget_bytes` and
    # matrix-size echoes neutral.
    "burn",
    "resident_bytes",
)
# Exact last-segment names with a direction.
LOWER_IS_WORSE_EXACT = ("ok",)


def direction(path):
    """-1 if lower values regress, +1 if higher values regress, 0 neutral."""
    lowered = path.lower()
    # Configuration echoes and matrix shapes describe the run, they don't
    # measure it: never directional, whatever their names contain.
    if lowered.startswith(("config.", "lhs.", "rhs.")):
        return 0
    leaf = lowered.rsplit(".", 1)[-1]
    # Strip an array index suffix like "runs[2]" -> "runs".
    if "[" in leaf:
        leaf = leaf.split("[", 1)[0]
    # The leaf name decides when it can (`p95` can't — fall back to the
    # whole path, so `latency_ms.p95` still reads as a latency).
    for name in (leaf, lowered):
        if name in LOWER_IS_WORSE_EXACT or any(t in name for t in LOWER_IS_WORSE):
            return -1
        if any(t in name for t in HIGHER_IS_WORSE):
            return +1
    return 0


def parallelism_sensitive(path):
    """True for metrics that only mean something with real cores behind
    them: speedup curves, worker-balance gauges, and the per-thread run
    times they are derived from. Serial timings are not included — they
    are one-core numbers wherever they run."""
    lowered = path.lower()
    if "speedup" in lowered or "imbalance" in lowered or "worker_" in lowered:
        return True
    leaf = lowered.rsplit(".", 1)[-1]
    return lowered.startswith("runs[") and leaf == "ms"


def walk(base, cand, path, out):
    """Collects (path, base, cand) numeric pairs and one-sided keys."""
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in sorted(set(base) | set(cand)):
            sub = f"{path}.{key}" if path else key
            if key not in base:
                out["only_candidate"].append(sub)
            elif key not in cand:
                out["only_baseline"].append(sub)
            else:
                walk(base[key], cand[key], sub, out)
    elif isinstance(base, list) and isinstance(cand, list):
        for i in range(max(len(base), len(cand))):
            sub = f"{path}[{i}]"
            if i >= len(base):
                out["only_candidate"].append(sub)
            elif i >= len(cand):
                out["only_baseline"].append(sub)
            else:
                walk(base[i], cand[i], sub, out)
    elif isinstance(base, bool) or isinstance(cand, bool):
        # bool is an int subclass; treat as non-numeric.
        pass
    elif isinstance(base, (int, float)) and isinstance(cand, (int, float)):
        out["pairs"].append((path, float(base), float(cand)))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="regression tolerance in percent (default 10)",
    )
    args = ap.parse_args(argv)

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.candidate) as f:
        cand = json.load(f)

    out = {"pairs": [], "only_baseline": [], "only_candidate": []}
    walk(base, cand, "", out)

    degraded = bool(base.get("degraded")) or bool(cand.get("degraded"))
    if degraded:
        sides = [
            name
            for name, doc in (("baseline", base), ("candidate", cand))
            if doc.get("degraded")
        ]
        print(
            f"warning: degraded run ({', '.join(sides)}): fewer cores than "
            "requested threads; speedup/imbalance/per-thread timings are "
            "informational only"
        )

    regressions = []
    for path, b, c in out["pairs"]:
        if c == b:
            continue
        pct = ((c - b) / abs(b) * 100.0) if b != 0 else float("inf")
        d = 0 if degraded and parallelism_sensitive(path) else direction(path)
        regressed = d != 0 and (
            (d > 0 and pct > args.threshold) or (d < 0 and pct < -args.threshold)
        )
        marker = " REGRESSION" if regressed else ""
        pct_text = f"{pct:+.1f}%" if pct != float("inf") else "new-nonzero"
        print(f"{path}: {b:g} -> {c:g} ({pct_text}){marker}")
        if regressed:
            regressions.append(path)

    for path in out["only_baseline"]:
        print(f"{path}: only in baseline")
    for path in out["only_candidate"]:
        print(f"{path}: only in candidate")

    if regressions:
        print(
            f"\n{len(regressions)} metric(s) regressed past "
            f"{args.threshold:g}%: {', '.join(regressions)}"
        )
        return 1
    print(f"\nno regressions past {args.threshold:g}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
