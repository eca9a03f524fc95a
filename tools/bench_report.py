#!/usr/bin/env python3
"""Aggregate bench/BENCH_*.json artifacts into one trajectory report.

Each BENCH_*.json is a Google Benchmark ``--benchmark_out`` file (a
``context`` block plus a ``benchmarks`` array). This tool scans a
directory for them and emits:

  - a markdown table (one row per benchmark run) suitable for pasting
    into EXPERIMENTS.md or reading as a CI artifact, and
  - a machine-readable JSON summary ("trajectory table") with the same
    rows, for downstream diffing across commits.

Rows carry the timing, throughput, and whichever user counters the
bench published (latency percentiles, plan-cache hits, ...), plus the
context facts that make a number comparable at all: build type, core
count, governor. Aggregate runs (``_mean``/``_median``/``_stddev``/
``BigO``) are skipped; per-iteration rows are what the trajectory
tracks.

Ablation legs are paired automatically: a benchmark whose name carries
``simd:0`` (or an ``_BatchScalar`` variant of a ``_Batch`` family) is
the scalar twin of the same name with ``simd:1`` (or ``_Batch``). The
report adds a "SIMD ablation" section with the scalar/vectorized
speedup per pair and flags any pair where the vectorized leg is more
than 5% *slower* than scalar as a regression;
``--fail-on-simd-regression`` turns that into a non-zero exit for CI.

Update-maintenance legs pair another way: a benchmark named
``..._Incremental`` (counting/DRed incremental view maintenance, see
DESIGN.md §16) is the optimized twin of the same name with
``_Recompute`` (full fixpoint per batch). The "IVM ablation" section
reports the recompute/incremental speedup per pair — compared on the
``batch_p50_us`` counter when both legs publish it, since the legs run
different batch counts and real_time includes warm-up — and flags any
pair where the incremental leg is more than 5% slower than recompute;
``--fail-on-ivm-regression`` turns that into a non-zero exit for CI.

Usage:
  tools/bench_report.py [--dir bench] [--out-md FILE] [--out-json FILE]
                        [--fail-on-simd-regression]
                        [--fail-on-ivm-regression]

With no --out-* flags the markdown goes to stdout.
"""

import argparse
import glob
import json
import os
import sys

# Context keys worth carrying into every row (the rest of the context
# block is noise for trajectory purposes).
CONTEXT_KEYS = ("date", "build_type", "library_build_type", "hw_cores",
                "hw_governor", "hw_cpu")

# Google Benchmark's own bookkeeping fields; everything else numeric in
# a benchmark record is a user counter.
STANDARD_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "big_o",
    "rms", "label", "error_occurred", "error_message",
}


def load_artifact(path):
    """Parses one BENCH_*.json into a list of row dicts."""
    with open(path) as f:
        data = json.load(f)
    context = data.get("context", {})
    ctx = {k: context.get(k, "") for k in CONTEXT_KEYS}
    rows = []
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if bench.get("error_occurred"):
            continue
        counters = {
            k: v
            for k, v in bench.items()
            if k not in STANDARD_FIELDS and isinstance(v, (int, float))
        }
        rows.append({
            "artifact": os.path.basename(path),
            "benchmark": bench.get("name", "?"),
            "real_time": bench.get("real_time"),
            "cpu_time": bench.get("cpu_time"),
            "time_unit": bench.get("time_unit", "ns"),
            "iterations": bench.get("iterations"),
            "counters": counters,
            "context": ctx,
        })
    return rows


def fmt_num(v):
    if v is None:
        return ""
    if isinstance(v, float):
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.3f}"
    return str(v)


# Vectorized legs may be at most this much slower than their scalar
# twins before the pair is flagged as a regression.
SIMD_REGRESSION_TOLERANCE = 1.05


def simd_pairs(rows):
    """Pairs scalar/vectorized twins of the same benchmark config.

    Two naming schemes are recognised: an explicit ``simd:0``/``simd:1``
    argument axis, and the ``_BatchScalar``/``_Batch`` family suffix the
    executor benches use. Returns ``(name, scalar_row, simd_row)``
    tuples keyed by the vectorized leg's name.
    """
    scalar, vector = {}, {}
    for row in rows:
        name = row["benchmark"]
        if "simd:0" in name:
            scalar[(row["artifact"], name.replace("simd:0", "simd:1"))] = row
        elif "simd:1" in name:
            vector[(row["artifact"], name)] = row
        elif "_BatchScalar" in name:
            scalar[(row["artifact"], name.replace("_BatchScalar", "_Batch"))] \
                = row
        elif "_Batch" in name:
            vector[(row["artifact"], name)] = row
    pairs = []
    for key in sorted(vector):
        if key in scalar:
            pairs.append((key[1], scalar[key], vector[key]))
    return pairs


def simd_ablation(rows):
    """Computes the speedup table: one entry per scalar/simd pair."""
    table = []
    for name, srow, vrow in simd_pairs(rows):
        if not srow["real_time"] or not vrow["real_time"]:
            continue
        speedup = srow["real_time"] / vrow["real_time"]
        table.append({
            "artifact": vrow["artifact"],
            "benchmark": name,
            "scalar_time": srow["real_time"],
            "simd_time": vrow["real_time"],
            "time_unit": vrow["time_unit"],
            "speedup": speedup,
            "regression": speedup < 1.0 / SIMD_REGRESSION_TOLERANCE,
        })
    return table


# Incremental-maintenance legs may be at most this much slower than
# their recompute twins before the pair is flagged. (The real criterion
# — EXPERIMENTS.md E14 asks for >= 10x — is read off quiet-box
# artifacts; CI machines are too noisy for a ratio gate that tight, so
# the gate only catches incremental being outright *slower*.)
IVM_REGRESSION_TOLERANCE = 1.05


def ivm_pairs(rows):
    """Pairs incremental/recompute twins of the same benchmark config.

    A benchmark named ``..._Incremental`` is the optimized twin of the
    same name with ``_Recompute``. Returns ``(name, recompute_row,
    incremental_row)`` tuples keyed by the incremental leg's name.
    """
    recompute, incremental = {}, {}
    for row in rows:
        name = row["benchmark"]
        if "_Recompute" in name:
            key = (row["artifact"], name.replace("_Recompute",
                                                 "_Incremental"))
            recompute[key] = row
        elif "_Incremental" in name:
            incremental[(row["artifact"], name)] = row
    pairs = []
    for key in sorted(incremental):
        if key in recompute:
            pairs.append((key[1], recompute[key], incremental[key]))
    return pairs


def ivm_ablation(rows):
    """Computes the speedup table: one entry per recompute/inc pair."""
    table = []
    for name, rrow, irow in ivm_pairs(rows):
        # The two legs run different batch counts (incremental batches
        # are cheap, so its leg runs more of them), which makes
        # real_time incomparable; the per-batch p50 counter is the
        # honest basis when both legs publish it.
        rtime = rrow["counters"].get("batch_p50_us") or rrow["real_time"]
        itime = irow["counters"].get("batch_p50_us") or irow["real_time"]
        unit = ("us/batch" if "batch_p50_us" in rrow["counters"]
                and "batch_p50_us" in irow["counters"]
                else rrow["time_unit"])
        if not rtime or not itime:
            continue
        speedup = rtime / itime
        table.append({
            "artifact": irow["artifact"],
            "benchmark": name,
            "recompute_time": rtime,
            "incremental_time": itime,
            "time_unit": unit,
            "speedup": speedup,
            "regression": speedup < 1.0 / IVM_REGRESSION_TOLERANCE,
        })
    return table


def to_markdown(rows):
    lines = ["# Benchmark trajectory", ""]
    by_artifact = {}
    for row in rows:
        by_artifact.setdefault(row["artifact"], []).append(row)
    for artifact in sorted(by_artifact):
        group = by_artifact[artifact]
        ctx = group[0]["context"]
        lines.append(f"## {artifact}")
        lines.append("")
        lines.append(
            f"context: date={ctx['date']} build={ctx['build_type']}"
            f" cores={ctx['hw_cores']} governor={ctx['hw_governor']}")
        lines.append("")
        lines.append("| benchmark | time | cpu | iters | counters |")
        lines.append("|---|---|---|---|---|")
        for row in group:
            unit = row["time_unit"]
            counters = " ".join(
                f"{k}={fmt_num(v)}" for k, v in sorted(row["counters"].items()))
            lines.append(
                f"| {row['benchmark']} | {fmt_num(row['real_time'])} {unit}"
                f" | {fmt_num(row['cpu_time'])} {unit}"
                f" | {fmt_num(row['iterations'])} | {counters} |")
        lines.append("")
    if len(lines) == 2:
        lines.append("(no BENCH_*.json artifacts found)")
    ablation = simd_ablation(rows)
    if ablation:
        lines.append("## SIMD ablation (scalar vs vectorized)")
        lines.append("")
        lines.append("| benchmark | scalar | simd | speedup | |")
        lines.append("|---|---|---|---|---|")
        for entry in ablation:
            unit = entry["time_unit"]
            flag = "**REGRESSION**" if entry["regression"] else ""
            lines.append(
                f"| {entry['benchmark']}"
                f" | {fmt_num(entry['scalar_time'])} {unit}"
                f" | {fmt_num(entry['simd_time'])} {unit}"
                f" | {entry['speedup']:.2f}x | {flag} |")
        lines.append("")
    ivm = ivm_ablation(rows)
    if ivm:
        lines.append("## IVM ablation (incremental vs recompute)")
        lines.append("")
        lines.append("| benchmark | recompute | incremental | speedup | |")
        lines.append("|---|---|---|---|---|")
        for entry in ivm:
            unit = entry["time_unit"]
            flag = "**REGRESSION**" if entry["regression"] else ""
            lines.append(
                f"| {entry['benchmark']}"
                f" | {fmt_num(entry['recompute_time'])} {unit}"
                f" | {fmt_num(entry['incremental_time'])} {unit}"
                f" | {entry['speedup']:.2f}x | {flag} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default="bench",
                        help="directory to scan for BENCH_*.json")
    parser.add_argument("--out-md", default="",
                        help="write markdown here (default: stdout)")
    parser.add_argument("--out-json", default="",
                        help="write the JSON trajectory table here")
    parser.add_argument("--fail-on-simd-regression", action="store_true",
                        help="exit non-zero if a vectorized leg is >5% "
                        "slower than its scalar twin")
    parser.add_argument("--fail-on-ivm-regression", action="store_true",
                        help="exit non-zero if an incremental-maintenance "
                        "leg is >5% slower than its recompute twin")
    args = parser.parse_args(argv)

    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    rows = []
    for path in paths:
        try:
            rows.extend(load_artifact(path))
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_report: skipping {path}: {e}", file=sys.stderr)
    md = to_markdown(rows)
    if args.out_md:
        with open(args.out_md, "w") as f:
            f.write(md)
    else:
        sys.stdout.write(md)
    ablation = simd_ablation(rows)
    ivm = ivm_ablation(rows)
    if args.out_json:
        with open(args.out_json, "w") as f:
            json.dump({"rows": rows, "simd_ablation": ablation,
                       "ivm_ablation": ivm}, f,
                      indent=1, sort_keys=True)
            f.write("\n")
    regressions = [e for e in ablation if e["regression"]]
    for entry in regressions:
        print(f"bench_report: SIMD regression: {entry['benchmark']} "
              f"simd {entry['simd_time']:.3f} vs scalar "
              f"{entry['scalar_time']:.3f} {entry['time_unit']} "
              f"({entry['speedup']:.2f}x)", file=sys.stderr)
    ivm_regressions = [e for e in ivm if e["regression"]]
    for entry in ivm_regressions:
        print(f"bench_report: IVM regression: {entry['benchmark']} "
              f"incremental {entry['incremental_time']:.3f} vs recompute "
              f"{entry['recompute_time']:.3f} {entry['time_unit']} "
              f"({entry['speedup']:.2f}x)", file=sys.stderr)
    print(f"bench_report: {len(paths)} artifact(s), {len(rows)} row(s), "
          f"{len(ablation)} simd pair(s), {len(regressions)} regression(s), "
          f"{len(ivm)} ivm pair(s), "
          f"{len(ivm_regressions)} ivm regression(s)",
          file=sys.stderr)
    if regressions and args.fail_on_simd_regression:
        return 1
    if ivm_regressions and args.fail_on_ivm_regression:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
