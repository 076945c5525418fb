#!/usr/bin/env python3
"""Couple-trial benchmark: builds, runs and checks one workload.

    python3 couplebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Paths resolve from this file: the repository root is its parent
directory. The first run configures and builds the bench binary under
`.bench_build/couplebench/`; later runs rebuild incrementally. With
`--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics:

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

The command exits 1 when any output check fails (it still prints the
result line, with "correct": false) and 2 when it cannot run at all.
`--raw <file>` checks a saved bench-binary document instead of running
the binary; the self-test (selftest.py) uses it. See README.md.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "couplebench")
BINARY = os.path.join(BUILD_DIR, "couple_bench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# Whole-command budget; the bench binary gets what the build leaves.
COMMAND_BUDGET_S = 170.0

# Bench-binary probe key -> (per-layer metric, scale from seconds). Probes are
# per-call medians at the first trial's shapes and state.
PROBE_METRICS = {
    "kernels.matmul_transb": ("kernels.matmul_transb_us", 1e6),
    "kernels.bce_sweep": ("kernels.bce_sweep_us", 1e6),
    "kernels.matmul_nn": ("kernels.matmul_nn_us", 1e6),
    "kernels.matmul_transa": ("kernels.matmul_transa_us", 1e6),
    "kernels.decoder_gflops": ("kernels.decoder_gflops", 1.0),
    "kernels.encoder_matmul": ("kernels.encoder_matmul_us", 1e6),
    "kernels.spmm": ("kernels.spmm_us", 1e6),
    "kernels.adam": ("kernels.adam_us", 1e6),
    "tensor.bce_forward": ("tensor.bce_forward_ms", 1e3),
    "tensor.bce_backward": ("tensor.bce_backward_ms", 1e3),
    "tensor.matrix_mb_per_step": ("tensor.matrix_mb_per_step", 1.0),
    "tensor.matrix_allocs_per_step": ("tensor.matrix_allocs_per_step", 1.0),
    "tensor.tape_nodes_per_step": ("tensor.tape_nodes_per_step", 1.0),
    "tensor.adam_step": ("tensor.adam_step_us", 1e6),
    "models.pretrain_step": ("models.pretrain_step_ms", 1e3),
    "models.cluster_step": ("models.cluster_step_ms", 1e3),
    "models.forward": ("models.forward_ms", 1e3),
    "models.backward": ("models.backward_ms", 1e3),
    "models.embed": ("models.embed_ms", 1e3),
    "models.grad_snapshot": ("models.grad_snapshot_ms", 1e3),
    "core.xi": ("core.xi_ms", 1e3),
    "core.upsilon": ("core.upsilon_ms", 1e3),
    "clustering.fit_gmm": ("clustering.fit_gmm_ms", 1e3),
    "clustering.kmeans": ("clustering.kmeans_ms", 1e3),
    "clustering.student_t": ("clustering.student_t_ms", 1e3),
    "graph.generate": ("graph.generate_ms", 1e3),
    "graph.recon_target": ("graph.recon_target_ms", 1e3),
    "metrics.evaluate": ("metrics.evaluate_ms", 1e3),
}


class Fatal(Exception):
    """The benchmark cannot run here (exit 2, no result line)."""


def load_spec():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return names, spec["end_to_end"], spec["per_layer"], units


def pinned_env(traced):
    """The environment the program reads, pinned: every RGAE_* variable is
    cleared (a stray RGAE_EPOCH_SCALE or RGAE_TRIALS cannot shrink a
    workload), then the observability switch is set for the mode."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGAE_")}
    if not traced:
        env["RGAE_OBS_ENABLED"] = "0"  # Forces instrumentation off.
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Fatal(f"no rgae sources under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Concurrent invocations in one checkout share the build tree.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build_locked()


def build_locked():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            raise Fatal("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "couple_bench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise Fatal("build failed")


def run_binary(args, deadline):
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--traced", "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, env=pinned_env(args.trace),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        raise Fatal("bench binary exceeded the command budget")
    if proc.returncode != 0:
        raise Fatal(f"bench binary exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

def half_problems(half):
    """Reasons a trial half is not a correct result (empty when it is)."""
    problems = []
    if half.get("failed") is not False:
        problems.append("failed: " + str(half.get("failure_reason", "")))
    if half.get("timed_out") is not False:
        problems.append("timed out")
    if half.get("nonfinite_losses") != 0:
        problems.append(f"{half.get('nonfinite_losses')} non-finite losses")
    if half.get("embed_finite") is not True:
        problems.append("non-finite embedding")
    for score in ("acc", "nmi", "ari"):
        v = half.get(score)
        if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
            problems.append(f"{score} = {v!r} outside [0, 1]")
    if half.get("variant") == "r" and half.get("omega_ok") is not True:
        problems.append("R half ran no Xi with a non-empty Omega")
    return problems


def round_scores(rnd):
    return [(t["dataset"], h["variant"], h.get("acc"))
            for t in rnd["trials"] for h in t["halves"]]


def round_schedule(rnd):
    """Stretches per public call: one more than the call's TrainSteps."""
    return [[len(call) for call in t["calls_s"]] for t in rnd["trials"]]


def check(raw, problems):
    """Checks every half of every round; returns (attempted, failed)."""
    if raw.get("build_type") != "Release":
        problems.append(
            f"build type {raw.get('build_type')!r} is not Release")
    rounds = list(raw.get("rounds", []))
    if raw.get("traced_round") is not None:
        rounds.append(raw["traced_round"])
    if not rounds:
        problems.append("no rounds ran")
    attempted = failed = 0
    for i, rnd in enumerate(rounds):
        for t in rnd["trials"]:
            for h in t["halves"]:
                attempted += 1
                bad = half_problems(h)
                if bad:
                    failed += 1
                    where = f"round {i} {t['dataset']} {h['variant']}"
                    problems.extend(f"{where}: {p}" for p in bad)
    # Same seed, same ISA: every round repeats the same inputs and scores
    # identically (traced and untraced rounds included).
    if any(round_scores(rnd) != round_scores(rounds[0]) for rnd in rounds):
        problems.append("repeats of the same inputs score differently")
    if any(round_schedule(rnd) != round_schedule(rounds[0])
           for rnd in rounds):
        problems.append("repeats of the same inputs ran different schedules")
    return attempted, failed


def source_digest():
    """Digest of the program and benchmark sources: runs of the same seed and
    ISA are expected to score identically only on the same code."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def check_against_earlier_runs(raw, cache_path, digest, problems):
    """Flags ACC that differs from an earlier run of the same seed and ISA."""
    cache = {}
    if os.path.isfile(cache_path):
        with open(cache_path) as f:
            cache = json.load(f)
    key = f"{raw['workload']}|{raw['seed']}|{raw['kernel_isa']}|{digest}"
    scores = [list(s) for s in round_scores(raw["rounds"][0])]
    if key in cache and cache[key] != scores:
        problems.append(f"scores differ from an earlier run of seed "
                        f"{raw['seed']} on {raw['kernel_isa']}")
    elif key not in cache:
        cache[key] = scores
        os.makedirs(os.path.dirname(cache_path), exist_ok=True)
        with open(cache_path, "w") as f:
            json.dump(cache, f)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def best_trial_seconds(rounds):
    """Wall seconds of each trial of a round. Each public call is split at
    its TrainSteps; every stretch (a step plus the refreshes and checks the
    trainer runs before the next one), and the glue between calls, counts
    with its fastest repeat in the run. Rounds repeat the same deterministic
    work (the check holds them to one schedule), so this is the cost without
    the slow seconds a co-tenant of a shared host causes."""
    best = []
    for i in range(len(rounds[0]["trials"])):
        repeats = [r["trials"][i]["calls_s"] for r in rounds]
        stretches = sum(min(column) for calls in zip(*repeats)
                        for column in zip(*calls))
        glue = min(r["trials"][i]["wall_s"] - sum(map(sum, calls))
                   for r, calls in zip(rounds, repeats))
        best.append(stretches + glue)
    return best


def mean_acc(rnd):
    """(base, R) ACC means over a round's trials."""
    return tuple(statistics.fmean(h["acc"] for t in rnd["trials"]
                                  for h in t["halves"] if h["variant"] == v)
                 for v in ("base", "r"))


def end_to_end_metrics(raw, attempted, failed):
    first = raw["rounds"][0]
    acc_base, acc_r = mean_acc(first)
    trial_seconds = best_trial_seconds(raw["rounds"])
    return {
        "trial_s": statistics.fmean(trial_seconds),
        "epochs_per_s": (sum(t["train_steps"] for t in first["trials"]) /
                         sum(trial_seconds)),
        "setup_s": statistics.median(raw["setup_s"]),
        # One round in a fresh process: later rounds add allocator history.
        "peak_rss_mb": first.get("peak_rss_mb"),
        "acc_r_over_base": acc_r / acc_base,
        "ok_frac": (attempted - failed) / attempted if attempted else None,
    }


def profile_block_metrics(bench_json, trials):
    """Reads the `profile` block of the rgae.bench.v1 document: the share
    of training time spent in named kernel.*/op.* nodes, and GMM fits."""
    with open(bench_json) as f:
        nodes = json.load(f)["profile"]["nodes"]
    named = [0]
    gmm_fits = [0]

    def walk(node):
        if node["name"].startswith(("kernel.", "op.")):
            named[0] += node["exclusive_us"]
        if node["name"] == "kernel.gmm_em":
            gmm_fits[0] += node["calls"]
        for child in node.get("children", []):
            walk(child)

    training = [n for n in nodes if n["name"].startswith("train.")]
    for node in training:
        walk(node)
    total = sum(n["inclusive_us"] for n in training)
    return named[0] / total if total else None, gmm_fits[0] / trials


def per_layer_metrics(raw):
    untraced, traced = raw["rounds"][0], raw["traced_round"]
    probes = raw["layers"][0]
    trial = traced["trials"][0]
    out = {metric: probes[key] * scale
           for key, (metric, scale) in PROBE_METRICS.items() if key in probes}
    out["core.pretrain_s"] = trial["pretrain_s"]
    out["core.cluster_base_s"] = trial["cluster_base_s"]
    out["core.cluster_r_s"] = trial["cluster_r_s"]
    out["core.cluster_epochs_r"] = trial["halves"][-1]["cluster_epochs"]
    out["eval.acc_base"], out["eval.acc_r"] = mean_acc(untraced)
    out["eval.layer_coverage"] = (
        sum(p["covered_s"] for p in raw["layers"]) /
        sum(t["wall_s"] for t in untraced["trials"]))
    out["obs.trace_overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
    (out["obs.profile_named_share"],
     out["clustering.gmm_fits_per_trial"]) = profile_block_metrics(
         raw["bench_json"], len(traced["trials"]))
    return out


def assemble(values, wanted, units, problems):
    """Every wanted metric, by name with its unit; a missing or non-finite
    one is an output error."""
    metrics = {}
    for m in wanted:
        name = m["name"]
        v = values.get(name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {name} missing or not finite: {v!r}")
            continue
        metrics[name] = {"value": v, "unit": units[name]}
    return metrics


def stamp(raw):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": raw.get("workload"), "seed": raw.get("seed"),
            "kernel_isa": raw.get("kernel_isa"), "cpu_model": cpu,
            "nproc": os.cpu_count(), "build_type": raw.get("build_type")}


def evaluate(raw, args, cache_path):
    """Checks a bench-binary document and returns the result object."""
    problems = []
    names, end_to_end, per_layer, units = load_spec()
    if raw.get("workload") not in names:
        problems.append(f"unknown workload {raw.get('workload')!r}")
    attempted = failed = 0
    values = {}
    try:
        attempted, failed = check(raw, problems)
        if cache_path and not problems:
            check_against_earlier_runs(raw, cache_path, source_digest(),
                                       problems)
        values = (per_layer_metrics(raw) if args.trace else
                  end_to_end_metrics(raw, attempted, failed))
    except (KeyError, IndexError, TypeError, ZeroDivisionError,
            statistics.StatisticsError, OSError) as e:
        problems.append(f"malformed bench-binary document: {e!r}")
    metrics = assemble(values, per_layer if args.trace else end_to_end,
                       units, problems)
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)
    if problems and failed == 0:
        failed = 1  # A run-level violation fails the run, not just a half.
    return {"correct": not problems, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw", help="check this bench-binary document "
                        "instead of running the binary")
    parser.add_argument("--cache", help="earlier-runs score cache (default: "
                        "in the build directory; 'none' disables)")
    args = parser.parse_args()
    deadline = time.time() + COMMAND_BUDGET_S

    try:
        if not os.path.isfile(SPEC_PATH):
            raise Fatal(f"missing {SPEC_PATH}")
        names = load_spec()[0]
        if args.workload not in names:
            raise Fatal(f"unknown workload {args.workload!r}; one of {names}")
        if args.raw:
            with open(args.raw) as f:
                raw = json.load(f)
        else:
            build()
            raw = run_binary(args, deadline)
    except Fatal as e:
        print(f"couplebench: {e}", file=sys.stderr)
        return 2

    cache_path = args.cache or os.path.join(BUILD_DIR, "scores_seen.json")
    if args.cache == "none" or args.trace:
        cache_path = None
    result = evaluate(raw, args, cache_path)
    print(json.dumps({"stamp": stamp(raw)}))
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
