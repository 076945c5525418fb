#!/usr/bin/env python3
"""Bench-baseline regression gate for `rgae.bench.v1` documents.

Usage:
    compare_bench.py <report.json> <baseline.json> [options]
    compare_bench.py <report.json> <baseline.json> --update-baseline

Extracts a flat metric set from a bench report (dispatch on its "bench"
field) and diffs it against a committed `rgae.bench_baseline.v1` file:

    micro_ops       per-kernel FLOP totals and call counts from the
                    calibrated profile tree (EXACT — any drift between the
                    cost models in src/ and the closed-form expectations is
                    a hard failure), per-kernel inclusive wall time
                    (latency band), peak RSS (resource band), per-kernel
                    widest-ISA speedup from the `kernel_isa_timings` sweep
                    (info — recorded, never gated)
    serve           per-phase p99 latency (latency band) and throughput
                    (throughput band), peak RSS
    table5_runtime  per-(model, dataset, variant) trial seconds — mean and
                    p99 (latency bands), peak RSS

Tolerance bands (scaled by --tolerance-scale):

    exact        0%   — hard failure even under --timing-advisory
    latency     15%   — current must stay under baseline * 1.15, so an
                        injected 20% latency regression fails the gate;
                        improvements always pass
    throughput  15%   — current must stay above baseline * 0.85
    resource    50%   — peak RSS; allocator noise is real, leaks are not

A metric present in the baseline but missing from the report is always a
hard failure (a deleted kernel or phase is a regression in coverage, not in
speed). Metrics only in the report are listed as warnings and ignored —
run --update-baseline to adopt them.

--timing-advisory demotes latency/throughput/resource violations to
warnings while keeping exactness and coverage hard. This is the CI mode:
committed baselines are recorded on one machine and wall-clock bands do not
transfer, but FLOP counts and metric coverage must.

--update-baseline rewrites <baseline.json> from the report instead of
comparing, creating parent directories as needed.

Exit status: 0 pass, 1 regression(s), 2 usage/parse error.
"""

import json
import math
import os
import sys

BASELINE_SCHEMA = "rgae.bench_baseline.v1"
REPORT_SCHEMA = "rgae.bench.v1"

# kind -> (relative tolerance, direction). "lower" means a higher current
# value is the regression; "higher" means a lower one is.
KINDS = {
    "exact": (0.0, None),
    "latency": (0.15, "lower"),
    "throughput": (0.15, "higher"),
    "resource": (0.50, "lower"),
    "info": (None, None),
}


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def fail_usage(msg):
    print(f"compare_bench.py: {msg}", file=sys.stderr)
    print(__doc__.strip(), file=sys.stderr)
    return 2


def profile_totals(profile):
    """Per-name flops/calls/inclusive_us sums over the whole tree."""
    totals = {}

    def visit(node):
        if not isinstance(node, dict):
            return
        name = node.get("name")
        if isinstance(name, str):
            t = totals.setdefault(name,
                                  {"flops": 0, "calls": 0, "inclusive_us": 0})
            for key in t:
                if is_num(node.get(key)):
                    t[key] += node[key]
        for child in node.get("children") or []:
            visit(child)

    for node in (profile or {}).get("nodes") or []:
        visit(node)
    return totals


def percentile(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    rank = p / 100.0 * (len(sorted_vals) - 1)
    lo = int(rank)
    if lo + 1 >= len(sorted_vals):
        return sorted_vals[-1]
    frac = rank - lo
    return sorted_vals[lo] + frac * (sorted_vals[lo + 1] - sorted_vals[lo])


def extract_metrics(doc):
    """Flat {name: {"kind": k, "value": v}} for one bench report."""
    bench = doc.get("bench")
    metrics = {}

    def add(name, kind, value):
        if is_num(value):
            metrics[name] = {"kind": kind, "value": value}

    memory = doc.get("memory") or {}
    add("memory.peak_rss_bytes", "resource", memory.get("peak_rss_bytes"))

    if bench == "micro_ops":
        for name, t in sorted(profile_totals(doc.get("profile")).items()):
            # The root span only wraps the kernels; its own numbers are the
            # calibration loop, not a kernel.
            if name == "profile.micro_ops":
                continue
            add(f"profile.{name}.flops", "exact", t["flops"])
            add(f"profile.{name}.calls", "exact", t["calls"])
            add(f"profile.{name}.inclusive_us", "latency", t["inclusive_us"])
        for name, want in (doc.get("profile_expect") or {}).items():
            add(f"expect.{name}.flops", "exact", want)
        # ISA sweep: record each kernel's widest-tier speedup over the
        # scalar reference. Info-kind (never gated) — the achievable
        # speedup is a property of the host CPU, not of the code — and
        # keyed "best" rather than per-ISA so a baseline recorded on an
        # AVX2 box still has coverage on a scalar-only one.
        sweep = doc.get("kernel_isa_timings") or {}
        isas = sweep.get("isas") or []
        for kname, entry in sorted((sweep.get("kernels") or {}).items()):
            speedup = (entry or {}).get("speedup_vs_scalar") or {}
            if isas and is_num(speedup.get(isas[-1])):
                add(f"isa.{kname}.best_speedup", "info", speedup[isas[-1]])
    elif bench == "serve":
        serve = doc.get("serve") or {}
        for phase in serve.get("phases") or []:
            if not isinstance(phase, dict):
                continue
            pname = phase.get("name")
            if not isinstance(pname, str):
                continue
            lat = phase.get("latency_us") or {}
            add(f"serve.{pname}.p99_us", "latency", lat.get("p99"))
            add(f"serve.{pname}.throughput_qps", "throughput",
                phase.get("throughput_qps"))
    elif bench == "table5_runtime":
        by_config = {}
        for trial in doc.get("trials") or []:
            if not isinstance(trial, dict):
                continue
            key = "{model}.{dataset}.{variant}".format(
                model=trial.get("model"), dataset=trial.get("dataset"),
                variant=trial.get("variant"))
            if is_num(trial.get("seconds")):
                by_config.setdefault(key, []).append(trial["seconds"])
        for key, seconds in sorted(by_config.items()):
            seconds.sort()
            add(f"trials.{key}.mean_seconds", "latency",
                sum(seconds) / len(seconds))
            add(f"trials.{key}.p99_seconds", "latency",
                percentile(seconds, 99.0))
    else:
        # Unknown bench: still gate on memory (added above) and record the
        # name so a renamed bench cannot silently compare against the wrong
        # baseline.
        pass
    add("dropped_trace_events", "info", doc.get("dropped_trace_events"))
    return metrics


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def update_baseline(report_path, baseline_path):
    doc = load_json(report_path)
    if doc.get("schema") != REPORT_SCHEMA:
        print(f"{report_path}: schema {doc.get('schema')!r} is not "
              f"{REPORT_SCHEMA!r}", file=sys.stderr)
        return 2
    metrics = extract_metrics(doc)
    if not metrics:
        print(f"{report_path}: no baseline metrics could be extracted",
              file=sys.stderr)
        return 2
    baseline = {
        "schema": BASELINE_SCHEMA,
        "bench": doc.get("bench"),
        "metrics": metrics,
    }
    parent = os.path.dirname(os.path.abspath(baseline_path))
    os.makedirs(parent, exist_ok=True)
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"baseline written: {baseline_path} ({len(metrics)} metric(s))")
    return 0


def compare(report_path, baseline_path, tolerance_scale, timing_advisory):
    doc = load_json(report_path)
    baseline = load_json(baseline_path)
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(f"{baseline_path}: schema {baseline.get('schema')!r} is not "
              f"{BASELINE_SCHEMA!r}", file=sys.stderr)
        return 2
    if doc.get("bench") != baseline.get("bench"):
        print(f"bench mismatch: report {doc.get('bench')!r} vs baseline "
              f"{baseline.get('bench')!r}", file=sys.stderr)
        return 2
    current = extract_metrics(doc)
    failures, warnings, compared = [], [], 0
    for name, entry in sorted((baseline.get("metrics") or {}).items()):
        kind = entry.get("kind")
        base = entry.get("value")
        if kind not in KINDS or not is_num(base):
            failures.append(f"{name}: malformed baseline entry {entry!r}")
            continue
        if name not in current:
            failures.append(f"{name}: missing from the report "
                            "(coverage regression)")
            continue
        cur = current[name]["value"]
        compared += 1
        tol, direction = KINDS[kind]
        if kind == "info":
            continue
        if kind == "exact":
            if cur != base:
                failures.append(
                    f"{name}: {cur} != baseline {base} (exact metric)")
            continue
        band = tol * tolerance_scale
        if direction == "lower":
            limit = base * (1.0 + band)
            ok = cur <= limit or math.isclose(cur, limit, rel_tol=1e-9)
            verdict = (f"{name}: {cur:.6g} exceeds baseline {base:.6g} "
                       f"+{band * 100:.0f}% (limit {limit:.6g})")
        else:
            limit = base * (1.0 - band)
            ok = cur >= limit or math.isclose(cur, limit, rel_tol=1e-9)
            verdict = (f"{name}: {cur:.6g} below baseline {base:.6g} "
                       f"-{band * 100:.0f}% (limit {limit:.6g})")
        if not ok:
            if timing_advisory:
                warnings.append(f"{verdict} [advisory]")
            else:
                failures.append(verdict)
    for name in sorted(set(current) - set(baseline.get("metrics") or {})):
        warnings.append(f"{name}: not in baseline (run --update-baseline "
                        "to adopt)")
    for w in warnings:
        print(f"WARN {w}", file=sys.stderr)
    if failures:
        for f_ in failures:
            print(f"FAIL {f_}", file=sys.stderr)
        print(f"FAIL: {len(failures)} regression(s) vs {baseline_path}",
              file=sys.stderr)
        return 1
    mode = " (timing advisory)" if timing_advisory else ""
    print(f"OK: {compared} metric(s) within baseline bands{mode}: "
          f"{baseline_path}")
    return 0


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    paths = []
    update = False
    timing_advisory = False
    tolerance_scale = 1.0
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--update-baseline":
            update = True
        elif arg == "--timing-advisory":
            timing_advisory = True
        elif arg.startswith("--tolerance-scale="):
            try:
                tolerance_scale = float(arg.split("=", 1)[1])
            except ValueError:
                return fail_usage(f"bad --tolerance-scale: {arg}")
            if tolerance_scale <= 0:
                return fail_usage("--tolerance-scale must be positive")
        elif arg.startswith("--"):
            return fail_usage(f"unknown option {arg}")
        else:
            paths.append(arg)
        i += 1
    if len(paths) != 2:
        return fail_usage("expected <report.json> <baseline.json>")
    report_path, baseline_path = paths
    try:
        if update:
            return update_baseline(report_path, baseline_path)
        return compare(report_path, baseline_path, tolerance_scale,
                       timing_advisory)
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare_bench.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
