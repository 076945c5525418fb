#!/usr/bin/env python3
"""Schema checker for the `rgae.bench.v1` documents written by bench binaries
and the `rgae.journal.v1` trial journals written behind `--journal=`.

Usage:
    check_bench_json.py <doc.json> [<doc.json> ...]
    check_bench_json.py --run <bench_binary> [bench args ...]
    check_bench_json.py --journal <journal.jsonl> [...]
    check_bench_json.py --run-journal <bench_binary> [bench args ...]
    check_bench_json.py --run-serve <bench_serve_binary> [bench args ...]
    check_bench_json.py --run-profile <bench_micro_ops_binary> [args ...]

In `--run` mode the bench binary is invoked with `--json=<tempfile>` (plus
any extra arguments, e.g. --benchmark_filter), and the document it writes is
validated — a single ctest-friendly command. `--run-journal` does the same
with `--journal=<tempfile>` and validates every line of the resulting
journal. `--run-serve` runs bench_serve the same way and additionally
validates the document's "serve" section: per-phase latency summaries with
ordered percentiles, cache counters that account for every query, and the
warm phase out-running the cold one in the same report. `--run-profile`
runs bench_micro_ops and
validates the profiler contract: a non-empty `profile` calling-context tree,
per-kernel FLOP totals matching the closed-form `profile_expect` numbers the
bench emits from its calibrated fixed-workload pass EXACTLY (cost-model
drift between src/ and the bench is a hard failure, not a tolerance), at
least one node with a positive achieved GFLOP/s, a positive peak RSS, and
the `kernel_isa_timings` ISA sweep (per-kernel timings under every
compiled-and-supported SIMD tier, consistent with the document's
`kernel_isa`). Every document, regardless of mode, must carry `kernel_isa`
naming the dispatching ISA its numbers were produced under.
Exit status 0 means every document is schema-valid; violations are listed
on stderr.

The checker is intentionally strict about the contract downstream tooling
relies on: sentinel values (-1 "untracked", -2 "untracked lambda") must have
been converted to JSON null, histograms must carry consistent count/sum/
min/max/mean plus monotone non-empty buckets, and trial reports must carry
the full RunReport field set.
"""

import json
import math
import subprocess
import sys
import tempfile
import os

SCHEMA = "rgae.bench.v1"
JOURNAL_SCHEMA = "rgae.journal.v1"

# Every ISA the kernel dispatcher can select (src/kernels/dispatch.h); the
# `kernel_isa` field of every document must name one of these, so a
# document that names a removed tier fails.
KERNEL_ISAS = ["scalar", "avx2"]

TRIAL_REQUIRED = [
    "model", "dataset", "variant", "trial", "seed", "seconds", "scores",
    "pretrain_seconds", "cluster_seconds", "cluster_epochs_run", "failed",
    "failure_reason", "timed_out", "rollbacks", "health_events", "trace",
]

JOURNAL_REQUIRED = [
    "schema", "key", "model", "dataset", "variant", "trial", "seed",
    "scores", "seconds", "pretrain_seconds", "cluster_seconds",
    "cluster_epochs_run", "failed", "failure_reason", "timed_out",
    "rollbacks",
]

# EpochRecord fields that are either a number or null — never a sentinel.
EPOCH_NULLABLE = [
    "acc", "nmi", "ari", "lambda_fr_plain", "lambda_fr_r",
    "lambda_fd_plain", "lambda_fd_r", "omega_size", "omega_acc", "rest_acc",
    "self_links", "self_true_links", "self_false_links", "separability",
]

HIST_REQUIRED = ["count", "sum", "min", "max", "mean", "buckets"]

SERVE_REQUIRED = [
    "model", "dataset", "num_nodes", "workers", "max_batch",
    "cache_capacity", "warm_over_cold_throughput", "phases",
]

SERVE_PHASE_REQUIRED = [
    "name", "queries", "seconds", "throughput_qps", "latency_us", "cache",
    "mutations", "invalidated_rows",
]

LATENCY_REQUIRED = ["count", "mean", "min", "max", "p50", "p95", "p99"]

SERVE_CACHE_REQUIRED = [
    "hits", "misses", "evictions", "invalidations",
]

PROFILE_NODE_REQUIRED = [
    "name", "calls", "inclusive_us", "exclusive_us", "flops", "bytes",
    "gflops", "gbs", "children",
]

MEMORY_REQUIRED = [
    "peak_rss_bytes", "current_rss_bytes", "matrix_allocs", "matrix_bytes",
    "tape_nodes", "tape_bytes",
]


class Checker:
    def __init__(self, path):
        self.path = path
        self.errors = []

    def fail(self, where, message):
        self.errors.append(f"{self.path}: {where}: {message}")

    def expect(self, condition, where, message):
        if not condition:
            self.fail(where, message)
        return condition

    def is_num(self, v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def check_scores(self, scores, where):
        if not self.expect(isinstance(scores, dict), where, "not an object"):
            return
        for key in ("acc", "nmi", "ari"):
            v = scores.get(key)
            self.expect(self.is_num(v), f"{where}.{key}", "missing or non-numeric")

    def check_epoch(self, record, where):
        if not self.expect(isinstance(record, dict), where, "not an object"):
            return
        self.expect(self.is_num(record.get("epoch")), f"{where}.epoch",
                    "missing or non-numeric")
        self.expect(self.is_num(record.get("loss")), f"{where}.loss",
                    "missing or non-numeric")
        for key in EPOCH_NULLABLE:
            self.expect(key in record, f"{where}.{key}", "missing")
            v = record.get(key)
            if v is None:
                continue
            if not self.expect(self.is_num(v), f"{where}.{key}",
                               f"must be number or null, got {v!r}"):
                continue
            # Sentinels must have been nulled by the emitter.
            if key.startswith("lambda_"):
                self.expect(-1.0 <= v <= 1.0, f"{where}.{key}",
                            f"outside [-1,1] (leaked sentinel?): {v}")
            else:
                self.expect(v >= 0, f"{where}.{key}",
                            f"negative (leaked -1 sentinel?): {v}")
        self.expect("upsilon" in record, f"{where}.upsilon", "missing")
        upsilon = record.get("upsilon")
        if upsilon is not None and self.expect(
                isinstance(upsilon, dict), f"{where}.upsilon",
                "must be object or null"):
            for key in ("added_edges", "dropped_edges"):
                self.expect(self.is_num(upsilon.get(key)),
                            f"{where}.upsilon.{key}", "missing or non-numeric")
        self.expect(isinstance(record.get("health"), str),
                    f"{where}.health", "missing or non-string")

    def check_trial(self, trial, where):
        if not self.expect(isinstance(trial, dict), where, "not an object"):
            return
        for key in TRIAL_REQUIRED:
            self.expect(key in trial, f"{where}.{key}", "missing")
        self.check_scores(trial.get("scores", {}), f"{where}.scores")
        self.expect(isinstance(trial.get("failed"), bool),
                    f"{where}.failed", "must be a bool")
        reason = trial.get("failure_reason")
        self.expect(reason is None or isinstance(reason, str),
                    f"{where}.failure_reason", "must be string or null")
        if trial.get("failed") is False:
            self.expect(reason is None, f"{where}.failure_reason",
                        "non-null on a successful trial")
        self.expect(isinstance(trial.get("timed_out"), bool),
                    f"{where}.timed_out", "must be a bool")
        for i, record in enumerate(trial.get("trace") or []):
            self.check_epoch(record, f"{where}.trace[{i}]")
        for i, event in enumerate(trial.get("health_events") or []):
            w = f"{where}.health_events[{i}]"
            if self.expect(isinstance(event, dict), w, "not an object"):
                self.expect(event.get("phase") in ("pretrain", "cluster"),
                            f"{w}.phase", f"bad phase {event.get('phase')!r}")
                self.expect(self.is_num(event.get("epoch")),
                            f"{w}.epoch", "missing or non-numeric")

    def check_histogram(self, hist, where):
        if not self.expect(isinstance(hist, dict), where, "not an object"):
            return
        for key in HIST_REQUIRED:
            self.expect(key in hist, f"{where}.{key}", "missing")
        count = hist.get("count")
        if not self.expect(self.is_num(count) and count >= 0,
                           f"{where}.count", "must be a non-negative number"):
            return
        buckets = hist.get("buckets")
        if not self.expect(isinstance(buckets, list), f"{where}.buckets",
                           "must be an array"):
            return
        bucket_total = 0
        prev_le = -math.inf
        for i, bucket in enumerate(buckets):
            w = f"{where}.buckets[{i}]"
            if not self.expect(isinstance(bucket, dict), w, "not an object"):
                continue
            le = bucket.get("le")
            self.expect(le is None or self.is_num(le), f"{w}.le",
                        "must be number or null (overflow)")
            if le is None:
                self.expect(i == len(buckets) - 1, f"{w}.le",
                            "null (overflow) bucket must come last")
            else:
                self.expect(le > prev_le, f"{w}.le",
                            f"bounds not increasing: {le} after {prev_le}")
                prev_le = le
            n = bucket.get("count")
            if self.expect(self.is_num(n) and n > 0, f"{w}.count",
                           "non-empty buckets only, with positive counts"):
                bucket_total += n
        self.expect(bucket_total == count, f"{where}.buckets",
                    f"bucket counts sum to {bucket_total}, count is {count}")
        if count > 0:
            lo, hi, mean = hist.get("min"), hist.get("max"), hist.get("mean")
            total = hist.get("sum")
            if all(self.is_num(v) for v in (lo, hi, mean, total)):
                self.expect(lo <= mean <= hi, where,
                            f"mean {mean} outside [min {lo}, max {hi}]")
                self.expect(math.isclose(mean * count, total, rel_tol=1e-6,
                                         abs_tol=1e-6),
                            where, f"sum {total} != mean*count {mean * count}")

    def check_latency_summary(self, lat, where, queries=None):
        if not self.expect(isinstance(lat, dict), where, "not an object"):
            return
        for key in LATENCY_REQUIRED:
            self.expect(self.is_num(lat.get(key)), f"{where}.{key}",
                        "missing or non-numeric")
        if not all(self.is_num(lat.get(k)) for k in LATENCY_REQUIRED):
            return
        if queries is not None:
            self.expect(lat["count"] == queries, f"{where}.count",
                        f"{lat['count']} samples for {queries} queries")
        self.expect(
            lat["min"] <= lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"],
            where,
            "percentiles not ordered: min {min} p50 {p50} p95 {p95} "
            "p99 {p99} max {max}".format(**lat))
        self.expect(lat["min"] <= lat["mean"] <= lat["max"], f"{where}.mean",
                    "mean {mean} outside [min {min}, max {max}]".format(**lat))
        self.expect(lat["min"] >= 0, f"{where}.min",
                    f"negative latency {lat['min']}")

    def check_serve_phase(self, phase, where):
        if not self.expect(isinstance(phase, dict), where, "not an object"):
            return
        for key in SERVE_PHASE_REQUIRED:
            self.expect(key in phase, f"{where}.{key}", "missing")
        self.expect(isinstance(phase.get("name"), str) and phase.get("name"),
                    f"{where}.name", "missing or empty")
        queries = phase.get("queries")
        if not self.expect(self.is_num(queries) and queries > 0,
                           f"{where}.queries", "must be a positive number"):
            return
        self.expect(self.is_num(phase.get("seconds"))
                    and phase.get("seconds") > 0,
                    f"{where}.seconds", "must be a positive number")
        self.expect(self.is_num(phase.get("throughput_qps"))
                    and phase.get("throughput_qps") > 0,
                    f"{where}.throughput_qps", "must be a positive number")
        for key in ("mutations", "invalidated_rows"):
            self.expect(self.is_num(phase.get(key)) and phase.get(key) >= 0,
                        f"{where}.{key}", "must be a non-negative number")
        self.check_latency_summary(phase.get("latency_us"),
                                   f"{where}.latency_us", queries)
        cache = phase.get("cache")
        if not self.expect(isinstance(cache, dict), f"{where}.cache",
                           "not an object"):
            return
        for key in SERVE_CACHE_REQUIRED:
            self.expect(self.is_num(cache.get(key)) and cache.get(key) >= 0,
                        f"{where}.cache.{key}",
                        "must be a non-negative number")
        if all(self.is_num(cache.get(k)) for k in ("hits", "misses")):
            # Every query either hit or missed the cache — nothing else
            # touches those two counters.
            self.expect(cache["hits"] + cache["misses"] == queries,
                        f"{where}.cache",
                        f"hits {cache['hits']} + misses {cache['misses']} "
                        f"!= queries {queries}")

    def check_serve(self, serve):
        """The "serve" section bench_serve adds to its rgae.bench.v1 doc."""
        where = "$.serve"
        if not self.expect(isinstance(serve, dict), where,
                           "missing or not an object"):
            return
        for key in SERVE_REQUIRED:
            self.expect(key in serve, f"{where}.{key}", "missing")
        for key in ("model", "dataset"):
            self.expect(isinstance(serve.get(key), str) and serve.get(key),
                        f"{where}.{key}", "missing or empty")
        for key in ("num_nodes", "workers", "max_batch", "cache_capacity"):
            self.expect(self.is_num(serve.get(key)) and serve.get(key) > 0,
                        f"{where}.{key}", "must be a positive number")
        phases = serve.get("phases")
        if not self.expect(isinstance(phases, list) and len(phases) >= 2,
                           f"{where}.phases",
                           "must be an array of at least two phases"):
            return
        by_name = {}
        for i, phase in enumerate(phases):
            self.check_serve_phase(phase, f"{where}.phases[{i}]")
            if isinstance(phase, dict):
                by_name[phase.get("name")] = phase
        cold, warm = by_name.get("cold"), by_name.get("warm")
        if not self.expect(cold is not None and warm is not None,
                           f"{where}.phases",
                           "must contain a 'cold' and a 'warm' phase"):
            return
        cold_qps = cold.get("throughput_qps")
        warm_qps = warm.get("throughput_qps")
        if self.is_num(cold_qps) and self.is_num(warm_qps) and cold_qps > 0:
            self.expect(warm_qps > cold_qps, f"{where}.phases",
                        f"warm throughput {warm_qps:.0f} qps not above cold "
                        f"{cold_qps:.0f} qps — the cache bought nothing")
            ratio = serve.get("warm_over_cold_throughput")
            if self.expect(self.is_num(ratio),
                           f"{where}.warm_over_cold_throughput",
                           "missing or non-numeric"):
                self.expect(
                    math.isclose(ratio, warm_qps / cold_qps, rel_tol=1e-6),
                    f"{where}.warm_over_cold_throughput",
                    f"{ratio} does not match warm/cold "
                    f"{warm_qps / cold_qps}")
        warm_cache = warm.get("cache")
        if isinstance(warm_cache, dict) and self.is_num(
                warm_cache.get("hits")):
            self.expect(warm_cache["hits"] > 0, f"{where}.phases",
                        "warm phase recorded zero cache hits")

    def check_profile_node(self, node, where):
        if not self.expect(isinstance(node, dict), where, "not an object"):
            return
        for key in PROFILE_NODE_REQUIRED:
            self.expect(key in node, f"{where}.{key}", "missing")
        self.expect(isinstance(node.get("name"), str) and node.get("name"),
                    f"{where}.name", "missing or empty")
        for key in ("calls", "inclusive_us", "exclusive_us", "flops",
                    "bytes", "gflops", "gbs"):
            v = node.get(key)
            self.expect(self.is_num(v) and v >= 0, f"{where}.{key}",
                        f"must be a non-negative number, got {v!r}")
        calls = node.get("calls")
        if self.is_num(calls):
            self.expect(calls >= 1, f"{where}.calls",
                        "a materialized node must have been entered")
        incl, excl = node.get("inclusive_us"), node.get("exclusive_us")
        if self.is_num(incl) and self.is_num(excl):
            self.expect(excl <= incl, where,
                        f"exclusive_us {excl} > inclusive_us {incl}")
        children = node.get("children")
        if self.expect(isinstance(children, list), f"{where}.children",
                       "must be an array"):
            for i, child in enumerate(children):
                self.check_profile_node(child, f"{where}.children[{i}]")

    def check_profile_block(self, profile):
        """The `profile` block every rgae.bench.v1 document carries."""
        where = "$.profile"
        if not self.expect(isinstance(profile, dict), where,
                           "missing or not an object"):
            return
        self.expect(isinstance(profile.get("enabled"), bool),
                    f"{where}.enabled", "must be a bool")
        nodes = profile.get("nodes")
        if self.expect(isinstance(nodes, list), f"{where}.nodes",
                       "must be an array"):
            for i, node in enumerate(nodes):
                self.check_profile_node(node, f"{where}.nodes[{i}]")

    def check_memory_block(self, memory):
        where = "$.memory"
        if not self.expect(isinstance(memory, dict), where,
                           "missing or not an object"):
            return
        for key in MEMORY_REQUIRED:
            v = memory.get(key)
            self.expect(self.is_num(v) and v >= 0, f"{where}.{key}",
                        f"must be a non-negative number, got {v!r}")

    def _profile_totals(self, profile):
        """Sums flops/calls per node name across the whole tree."""
        flops, calls, gflops_positive = {}, {}, False

        def visit(node):
            nonlocal gflops_positive
            if not isinstance(node, dict):
                return
            name = node.get("name")
            if isinstance(name, str):
                if self.is_num(node.get("flops")):
                    flops[name] = flops.get(name, 0) + node["flops"]
                if self.is_num(node.get("calls")):
                    calls[name] = calls.get(name, 0) + node["calls"]
            if self.is_num(node.get("gflops")) and node["gflops"] > 0:
                gflops_positive = True
            for child in node.get("children") or []:
                visit(child)

        for node in profile.get("nodes") or []:
            visit(node)
        return flops, calls, gflops_positive

    def check_profile(self, doc):
        """--run-profile: the calibrated profile contract of bench_micro_ops.

        Requires instrumentation on, a non-empty calling-context tree, an
        exact match between the tree's per-kernel FLOP totals and the
        closed-form `profile_expect` numbers, some node achieving a positive
        GFLOP/s, and a positive peak RSS.
        """
        where = "$.profile"
        profile = doc.get("profile")
        if not isinstance(profile, dict):
            return  # Shape errors already reported by check_profile_block.
        self.expect(profile.get("enabled") is True, f"{where}.enabled",
                    "profiling must be on in a --run-profile run")
        nodes = profile.get("nodes")
        if not self.expect(isinstance(nodes, list) and nodes,
                           f"{where}.nodes", "profile tree is empty"):
            return
        flops, calls, gflops_positive = self._profile_totals(profile)
        self.expect(gflops_positive, where,
                    "no node achieved a positive GFLOP/s")
        expect = doc.get("profile_expect")
        if not self.expect(isinstance(expect, dict) and expect,
                           "$.profile_expect",
                           "missing (bench did not run its calibrated "
                           "profile pass)"):
            return
        for name, want in expect.items():
            w = f"{where}[{name!r}]"
            if not self.expect(self.is_num(want) and want > 0,
                               f"$.profile_expect[{name!r}]",
                               f"must be a positive number, got {want!r}"):
                continue
            got = flops.get(name)
            if not self.expect(got is not None, w,
                               "kernel missing from the profile tree"):
                continue
            self.expect(got == want, w,
                        f"FLOP count {got} != closed-form {want} "
                        "(cost-model drift between src/ and the bench)")
            self.expect(calls.get(name, 0) > 0, w, "zero recorded calls")
        memory = doc.get("memory")
        if isinstance(memory, dict):
            peak = memory.get("peak_rss_bytes")
            self.expect(self.is_num(peak) and peak > 0,
                        "$.memory.peak_rss_bytes",
                        f"must be positive in a run, got {peak!r}")
            allocs = memory.get("matrix_allocs")
            self.expect(self.is_num(allocs) and allocs > 0,
                        "$.memory.matrix_allocs",
                        "bench ran kernels but counted no matrix buffers")
        self.check_isa_timings(doc)

    def check_isa_timings(self, doc):
        """The `kernel_isa_timings` section of bench_micro_ops --json runs:
        per-kernel mean microseconds under every compiled-and-supported ISA
        tier plus the speedup each tier achieves over the scalar reference.
        """
        where = "$.kernel_isa_timings"
        sweep = doc.get("kernel_isa_timings")
        if not self.expect(isinstance(sweep, dict), where,
                           "missing (bench did not run its ISA sweep)"):
            return
        self.expect(sweep.get("selected_isa") == doc.get("kernel_isa"),
                    f"{where}.selected_isa",
                    f"{sweep.get('selected_isa')!r} disagrees with the "
                    f"document's kernel_isa {doc.get('kernel_isa')!r}")
        isas = sweep.get("isas")
        if not self.expect(
                isinstance(isas, list) and isas and
                all(i in KERNEL_ISAS for i in isas) and
                isas[0] == "scalar",
                f"{where}.isas",
                f"must be a non-empty list of {KERNEL_ISAS} starting with "
                f"'scalar', got {isas!r}"):
            return
        kernels = sweep.get("kernels")
        if not self.expect(isinstance(kernels, dict) and kernels,
                           f"{where}.kernels", "missing or empty"):
            return
        for name, entry in kernels.items():
            kwhere = f"{where}.kernels[{name!r}]"
            if not self.expect(isinstance(entry, dict), kwhere,
                               "not an object"):
                continue
            for section in ("us", "speedup_vs_scalar"):
                block = entry.get(section)
                swhere = f"{kwhere}.{section}"
                if not self.expect(isinstance(block, dict), swhere,
                                   "missing or not an object"):
                    continue
                self.expect(sorted(block) == sorted(isas), swhere,
                            f"ISA keys {sorted(block)} != swept {sorted(isas)}")
                for isa, v in block.items():
                    self.expect(self.is_num(v) and v > 0,
                                f"{swhere}[{isa!r}]",
                                f"must be a positive number, got {v!r}")
            speedup = entry.get("speedup_vs_scalar")
            if isinstance(speedup, dict):
                self.expect(speedup.get("scalar") == 1.0,
                            f"{kwhere}.speedup_vs_scalar['scalar']",
                            "scalar-vs-scalar speedup must be exactly 1")

    def check_document(self, doc):
        if not self.expect(isinstance(doc, dict), "$", "top level not an object"):
            return
        self.expect(doc.get("schema") == SCHEMA, "$.schema",
                    f"expected {SCHEMA!r}, got {doc.get('schema')!r}")
        self.expect(isinstance(doc.get("bench"), str) and doc.get("bench"),
                    "$.bench", "missing or empty")
        trials = doc.get("trials")
        if self.expect(isinstance(trials, list), "$.trials",
                       "missing or not an array"):
            for i, trial in enumerate(trials):
                self.check_trial(trial, f"$.trials[{i}]")
        metrics = doc.get("metrics")
        if self.expect(isinstance(metrics, dict), "$.metrics",
                       "missing or not an object"):
            for section in ("counters", "gauges", "histograms"):
                self.expect(isinstance(metrics.get(section), dict),
                            f"$.metrics.{section}", "missing or not an object")
            for name, hist in (metrics.get("histograms") or {}).items():
                self.check_histogram(hist, f"$.metrics.histograms[{name!r}]")
        self.expect(doc.get("kernel_isa") in KERNEL_ISAS, "$.kernel_isa",
                    f"must be one of {KERNEL_ISAS}, got "
                    f"{doc.get('kernel_isa')!r}")
        self.check_memory_block(doc.get("memory"))
        self.check_profile_block(doc.get("profile"))
        dropped = doc.get("dropped_trace_events")
        self.expect(self.is_num(dropped) and dropped >= 0,
                    "$.dropped_trace_events", "must be a non-negative number")


def check_file(path, section=None):
    checker = Checker(path)
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        checker.fail("$", f"cannot parse: {e}")
        return checker.errors
    checker.check_document(doc)
    if isinstance(doc, dict):
        if section == "serve":
            checker.check_serve(doc.get("serve"))
        elif section == "profile":
            checker.check_profile(doc)
    return checker.errors


def check_journal_record(checker, record, where):
    """One `rgae.journal.v1` JSONL line (already parsed)."""
    if not checker.expect(isinstance(record, dict), where, "not an object"):
        return
    for key in JOURNAL_REQUIRED:
        checker.expect(key in record, f"{where}.{key}", "missing")
    checker.expect(record.get("schema") == JOURNAL_SCHEMA, f"{where}.schema",
                   f"expected {JOURNAL_SCHEMA!r}, got {record.get('schema')!r}")
    key = record.get("key")
    checker.expect(
        isinstance(key, str) and len(key) == 16
        and all(c in "0123456789abcdef" for c in key),
        f"{where}.key", f"must be a 16-digit lowercase hex hash, got {key!r}")
    checker.expect(record.get("variant") in ("base", "r"),
                   f"{where}.variant", f"bad variant {record.get('variant')!r}")
    checker.check_scores(record.get("scores", {}), f"{where}.scores")
    for name in ("failed", "timed_out"):
        checker.expect(isinstance(record.get(name), bool),
                       f"{where}.{name}", "must be a bool")
    for name in ("trial", "seed", "seconds", "pretrain_seconds",
                 "cluster_seconds", "cluster_epochs_run", "rollbacks"):
        checker.expect(checker.is_num(record.get(name)), f"{where}.{name}",
                       "missing or non-numeric")
    reason = record.get("failure_reason")
    checker.expect(reason is None or isinstance(reason, str),
                   f"{where}.failure_reason", "must be string or null")


def check_journal_file(path):
    checker = Checker(path)
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        checker.fail("$", f"cannot read: {e}")
        return checker.errors
    records = 0
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        where = f"line {i + 1}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            checker.fail(where, f"cannot parse: {e}")
            continue
        records += 1
        check_journal_record(checker, record, where)
    if records == 0:
        checker.fail("$", "journal holds no records")
    return checker.errors


def run_mode(argv, section=None):
    flag = f"--run-{section}" if section else "--run"
    if not argv:
        print(f"{flag} requires a bench binary path", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "bench.json")
        cmd = [argv[0], f"--json={out}"] + argv[1:]
        proc = subprocess.run(cmd)
        if proc.returncode != 0:
            print(f"bench exited with {proc.returncode}: {' '.join(cmd)}",
                  file=sys.stderr)
            return 1
        if not os.path.exists(out):
            print(f"bench did not write {out}", file=sys.stderr)
            return 1
        errors = check_file(out, section=section)
    return report(errors, [out])


def run_journal_mode(argv):
    if not argv:
        print("--run-journal requires a bench binary path", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "journal.jsonl")
        cmd = [argv[0], f"--journal={out}"] + argv[1:]
        proc = subprocess.run(cmd)
        if proc.returncode != 0:
            print(f"bench exited with {proc.returncode}: {' '.join(cmd)}",
                  file=sys.stderr)
            return 1
        if not os.path.exists(out):
            print(f"bench did not write {out}", file=sys.stderr)
            return 1
        errors = check_journal_file(out)
    return report(errors, [out], schema=JOURNAL_SCHEMA)


def report(errors, paths, schema=SCHEMA):
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"FAIL: {len(errors)} schema violation(s)", file=sys.stderr)
        return 1
    print(f"OK: {len(paths)} document(s) schema-valid ({schema})")
    return 0


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    if argv[0] == "--run":
        return run_mode(argv[1:])
    if argv[0] == "--run-serve":
        return run_mode(argv[1:], section="serve")
    if argv[0] == "--run-profile":
        return run_mode(argv[1:], section="profile")
    if argv[0] == "--run-journal":
        return run_journal_mode(argv[1:])
    if argv[0] == "--journal":
        errors = []
        for path in argv[1:]:
            errors.extend(check_journal_file(path))
        return report(errors, argv[1:], schema=JOURNAL_SCHEMA)
    errors = []
    for path in argv:
        errors.extend(check_file(path))
    return report(errors, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
