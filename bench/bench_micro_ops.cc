// Micro-benchmarks (google-benchmark) for the substrate kernels and the
// paper's two operators. Verifies the complexity claims of Section 4:
// Ξ is O(N·K²·d)-ish and Υ is near-linear in N + |E|, so neither adds a
// meaningful constant to a training epoch (whose cost is dominated by the
// O(N²·d) decoder).
//
// With `--json=<path>` (e.g. `bench_micro_ops --json=BENCH_micro_ops.json`)
// the run enables kernel instrumentation and writes an `rgae.bench.v1`
// document whose `metrics.histograms` section holds the per-kernel
// wall-time histograms (kernel.spmm.us, kernel.matmul.us, op.xi.us, …)
// populated by the instrumented kernels themselves — the repo's
// machine-readable perf snapshot, schema-checked by
// scripts/check_bench_json.py. Without the flag (or with
// RGAE_OBS_ENABLED=0) instrumentation stays off, which is the baseline for
// the "no measurable slowdown when disabled" guarantee.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "bench/bench_common.h"

#include "src/clustering/assignments.h"
#include "src/clustering/kmeans.h"
#include "src/core/operators.h"
#include "src/eval/datasets.h"
#include "src/graph/generators.h"
#include "src/kernels/dispatch.h"
#include "src/metrics/hungarian.h"
#include "src/models/model_factory.h"
#include "src/tensor/optimizer.h"

namespace {

rgae::AttributedGraph MakeGraph(int n) {
  rgae::CitationLikeOptions o;
  o.num_nodes = n;
  o.num_clusters = 7;
  o.feature_dim = 300;
  o.topic_words = 40;
  rgae::Rng rng(1);
  return MakeCitationLike(o, rng);
}

void BM_SpMM(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const rgae::AttributedGraph g = MakeGraph(n);
  const rgae::CsrMatrix filter = g.NormalizedAdjacency();
  const rgae::Matrix x = g.features();
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Multiply(x));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SpMM)->Arg(200)->Arg(400)->Arg(800)->Complexity();

void BM_DenseMatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  rgae::Rng rng(2);
  const rgae::Matrix a = GaussianMatrix(n, 64, 1.0, rng);
  const rgae::Matrix b = GaussianMatrix(64, 32, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
}
BENCHMARK(BM_DenseMatMul)->Arg(200)->Arg(800);

void BM_OperatorXi(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const rgae::AttributedGraph g = MakeGraph(n);
  rgae::Rng rng(3);
  const rgae::Matrix z = GaussianMatrix(n, 16, 1.0, rng);
  const rgae::Matrix p = SoftenHardAssignments(
      z, rgae::KMeans(z, 7, rng).assignments, 7);
  rgae::XiOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(OperatorXi(p, opts));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_OperatorXi)->Arg(200)->Arg(400)->Arg(800)->Complexity();

void BM_OperatorUpsilon(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const rgae::AttributedGraph g = MakeGraph(n);
  rgae::Rng rng(4);
  const rgae::Matrix z = GaussianMatrix(n, 16, 1.0, rng);
  const rgae::Matrix p = SoftenHardAssignments(
      z, rgae::KMeans(z, 7, rng).assignments, 7);
  std::vector<int> omega(n);
  for (int i = 0; i < n; ++i) omega[i] = i;
  rgae::UpsilonOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(OperatorUpsilon(g, z, p, omega, opts));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_OperatorUpsilon)->Arg(200)->Arg(400)->Arg(800)->Complexity();

void BM_KMeans(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  rgae::Rng rng(5);
  const rgae::Matrix z = GaussianMatrix(n, 16, 1.0, rng);
  for (auto _ : state) {
    rgae::Rng seed_rng(7);
    benchmark::DoNotOptimize(rgae::KMeans(z, 7, seed_rng));
  }
}
BENCHMARK(BM_KMeans)->Arg(200)->Arg(800);

void BM_Hungarian(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  rgae::Rng rng(6);
  rgae::Matrix cost(k, k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) cost(i, j) = rng.Uniform(0, 100);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rgae::SolveAssignment(cost));
  }
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(32)->Arg(128);

void BM_GaeTrainStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const rgae::AttributedGraph g = MakeGraph(n);
  rgae::ModelOptions opts;
  auto model = rgae::CreateModel("GAE", g, opts);
  const rgae::CsrMatrix adj = g.Adjacency();
  rgae::TrainContext ctx;
  ctx.recon = rgae::MakeReconTarget(&adj);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->TrainStep(ctx));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GaeTrainStep)->Arg(200)->Arg(400)->Arg(800)->Complexity();

// Fixed-workload calibration pass for the profile block. google-benchmark
// picks iteration counts adaptively, so the kernel work it generates is not
// reproducible; this pass resets the profiler after the adaptive runs and
// replays a hand-counted workload whose closed-form FLOP totals (the same
// cost models as DESIGN.md §6.6) are emitted as the `profile_expect` extra.
// `scripts/check_bench_json.py --run-profile` and the bench baseline gate
// require the profile tree to match these numbers exactly.
void RunCalibratedProfilePass(rgae_bench::BenchObs* obs) {
  constexpr int kReps = 4;
  // All setup runs before the Reset so generator-internal kernels cannot
  // leak into the calibrated tree.
  const rgae::AttributedGraph g = MakeGraph(400);
  const rgae::CsrMatrix filter = g.NormalizedAdjacency();
  const rgae::Matrix x = g.features();
  rgae::Rng rng(11);
  const rgae::Matrix a = GaussianMatrix(256, 128, 1.0, rng);
  const rgae::Matrix b = GaussianMatrix(128, 128, 1.0, rng);
  const rgae::Matrix z = GaussianMatrix(400, 16, 1.0, rng);
  const rgae::Matrix centers = GaussianMatrix(7, 16, 1.0, rng);
  rgae::Parameter param(GaussianMatrix(64, 32, 1.0, rng));
  param.grad = GaussianMatrix(64, 32, 1.0, rng);
  rgae::Adam adam({&param}, {});
  const rgae::CsrMatrix self_adj = g.Adjacency().AddSelfLoops();
  const rgae::ReconTarget recon = rgae::MakeReconTarget(&self_adj);
  rgae::Parameter embed(GaussianMatrix(400, 16, 0.5, rng));

  rgae::obs::Profiler::Global().Reset();
  {
    RGAE_SPAN("profile.micro_ops");
    for (int r = 0; r < kReps; ++r) {
      benchmark::DoNotOptimize(filter.Multiply(x));
      benchmark::DoNotOptimize(MatMul(a, b));
      benchmark::DoNotOptimize(StudentTAssignments(z, centers));
      benchmark::DoNotOptimize(z.Sum());
      adam.Step();
      rgae::Tape tape;
      tape.Backward(tape.InnerProductBceLoss(
          tape.Leaf(&embed), recon.graph, recon.pos_weight, recon.norm));
      embed.ZeroGrad();
    }
  }

  // Closed-form expectations, mirroring the RGAE_KERNEL_WORK annotations.
  const int64_t nnz = filter.nnz();
  const int64_t xc = x.cols();
  const int64_t n = z.rows(), k = centers.rows(), d = z.cols();
  const int64_t adam_elems = static_cast<int64_t>(param.value.size());
  const int64_t en = embed.value.rows(), ed = embed.value.cols();
  const int64_t pairs = en * (en + 1) / 2;
  rgae::obs::JsonValue expect = rgae::obs::JsonValue::MakeObject();
  expect.Set("kernel.spmm",
             rgae::obs::JsonValue(kReps * 2LL * nnz * xc));
  expect.Set("kernel.matmul",
             rgae::obs::JsonValue(kReps * 2LL * a.rows() * a.cols() *
                                  b.cols()));
  expect.Set("kernel.row_softmax",
             rgae::obs::JsonValue(kReps * n * k * (3 * d + 4)));
  expect.Set("kernel.reduce",
             rgae::obs::JsonValue(kReps * static_cast<int64_t>(z.size())));
  expect.Set("kernel.adam", rgae::obs::JsonValue(kReps * 14 * adam_elems));
  expect.Set("kernel.inner_product_bce",
             rgae::obs::JsonValue(kReps * pairs * (2 * ed + 5)));
  expect.Set("kernel.inner_product_bce_grad",
             rgae::obs::JsonValue(kReps * en * en * (2 * ed + 1)));
  obs->SetExtra("profile_expect", std::move(expect));
}

// Mean microseconds per call of `fn` over `reps` timed runs (one untimed
// warmup). steady_clock directly: this sweep compares ISA tiers against
// each other inside one process, so the obs histograms (which aggregate
// across the whole run) are the wrong tool.
double TimeOpUs(int reps, const std::function<void()>& fn) {
  fn();
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() /
         static_cast<double>(reps);
}

// Per-kernel per-ISA timing sweep. Pins each compiled-and-supported ISA
// tier in turn with SetIsaForTesting, times a fixed workload per kernel
// through the public Matrix/CsrMatrix/clustering entry points (the wired
// dispatch path, not the raw stubs), and restores the startup selection.
// Emits the `kernel_isa_timings` JSON section
// (scripts/check_bench_json.py --run-profile validates it) and prints the
// table the README's performance section quotes.
void RunIsaSweep(rgae_bench::BenchObs* obs) {
  const rgae::kernels::Isa selected = rgae::kernels::SelectedIsa();
  const std::vector<rgae::kernels::Isa> isas = rgae::kernels::SupportedIsas();

  // Fixed workloads, sized so the slowest tier stays in the milliseconds.
  const rgae::AttributedGraph g = MakeGraph(800);
  const rgae::CsrMatrix filter = g.NormalizedAdjacency();
  const rgae::Matrix x = g.features();
  rgae::Rng rng(13);
  const rgae::Matrix a = GaussianMatrix(256, 256, 1.0, rng);
  const rgae::Matrix b = GaussianMatrix(256, 256, 1.0, rng);
  const rgae::Matrix z = GaussianMatrix(800, 16, 1.0, rng);
  const rgae::Matrix centers = GaussianMatrix(7, 16, 1.0, rng);
  const rgae::Matrix big = GaussianMatrix(512, 512, 1.0, rng);
  rgae::Parameter param(GaussianMatrix(256, 256, 1.0, rng));
  param.grad = GaussianMatrix(256, 256, 1.0, rng);
  rgae::Adam adam({&param}, {});
  // The fused inner-product decoder at a Pubmed-like shape: forward and
  // backward through the Tape against the self-looped adjacency.
  const rgae::CsrMatrix self_adj = g.Adjacency().AddSelfLoops();
  const rgae::ReconTarget recon = rgae::MakeReconTarget(&self_adj);
  rgae::Parameter embed(GaussianMatrix(800, 16, 0.5, rng));

  struct Op {
    const char* name;
    int reps;
    std::function<void()> run;
  };
  const Op ops[] = {
      {"dense_matmul", 8,
       [&] { benchmark::DoNotOptimize(MatMul(a, b)); }},
      {"matmul_trans_a", 8,
       [&] { benchmark::DoNotOptimize(MatMulTransA(a, b)); }},
      {"matmul_trans_b", 8,
       [&] { benchmark::DoNotOptimize(MatMulTransB(a, b)); }},
      {"spmm", 8,
       [&] { benchmark::DoNotOptimize(filter.Multiply(x)); }},
      {"student_t", 8,
       [&] { benchmark::DoNotOptimize(StudentTAssignments(z, centers)); }},
      // Sum has no vector tier, so this row times the same scalar loop
      // under each ISA; it stays because the committed micro_ops baseline
      // records it.
      {"reduce_sum", 16, [&] { benchmark::DoNotOptimize(big.Sum()); }},
      {"adam_step", 16, [&] { adam.Step(); }},
      {"inner_product_bce", 4,
       [&] {
         rgae::Tape tape;
         const rgae::Var loss = tape.InnerProductBceLoss(
             tape.Leaf(&embed), recon.graph, recon.pos_weight, recon.norm);
         tape.Backward(loss);
         embed.ZeroGrad();
       }},
  };

  // us[op][isa name] -> mean microseconds.
  rgae::obs::JsonValue kernels_json = rgae::obs::JsonValue::MakeObject();
  std::printf("\nkernel ISA sweep (us/op; selected: %s)\n",
              rgae::kernels::IsaName(selected));
  std::printf("  %-18s", "kernel");
  for (rgae::kernels::Isa isa : isas) {
    std::printf(" %10s", rgae::kernels::IsaName(isa));
  }
  std::printf(" %10s\n", "best/scal");
  for (const Op& op : ops) {
    rgae::obs::JsonValue us = rgae::obs::JsonValue::MakeObject();
    rgae::obs::JsonValue speedup = rgae::obs::JsonValue::MakeObject();
    double scalar_us = 0.0, best_us = 0.0;
    std::printf("  %-18s", op.name);
    for (rgae::kernels::Isa isa : isas) {
      rgae::kernels::SetIsaForTesting(isa);
      const double t = TimeOpUs(op.reps, op.run);
      if (isa == rgae::kernels::Isa::kScalar) scalar_us = t;
      best_us = t;  // SupportedIsas() ascends; the last tier is the widest.
      us.Set(rgae::kernels::IsaName(isa), rgae::obs::JsonValue(t));
      speedup.Set(rgae::kernels::IsaName(isa),
                  rgae::obs::JsonValue(t > 0.0 ? scalar_us / t : 0.0));
      std::printf(" %10.1f", t);
    }
    std::printf(" %9.2fx\n",
                best_us > 0.0 ? scalar_us / best_us : 0.0);
    rgae::obs::JsonValue entry = rgae::obs::JsonValue::MakeObject();
    entry.Set("us", std::move(us));
    entry.Set("speedup_vs_scalar", std::move(speedup));
    kernels_json.Set(op.name, std::move(entry));
  }
  rgae::kernels::SetIsaForTesting(selected);

  rgae::obs::JsonValue sweep = rgae::obs::JsonValue::MakeObject();
  sweep.Set("selected_isa",
            rgae::obs::JsonValue(rgae::kernels::IsaName(selected)));
  rgae::obs::JsonValue isa_list = rgae::obs::JsonValue::MakeArray();
  for (rgae::kernels::Isa isa : isas) {
    isa_list.Append(rgae::obs::JsonValue(rgae::kernels::IsaName(isa)));
  }
  sweep.Set("isas", std::move(isa_list));
  sweep.Set("kernels", std::move(kernels_json));
  obs->SetExtra("kernel_isa_timings", std::move(sweep));
}

}  // namespace

int main(int argc, char** argv) {
  // Strips --json/--trace/--log-jsonl before google-benchmark parses the
  // remaining flags (--benchmark_filter etc. keep working).
  rgae_bench::BenchObs obs(&argc, argv, "micro_ops");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (obs.json_requested()) {
    RunIsaSweep(&obs);
    RunCalibratedProfilePass(&obs);
  }
  benchmark::Shutdown();
  return 0;
}
