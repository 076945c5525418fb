// Couple-trial benchmark binary. Runs one workload's trials through the
// public API (MakeDataset, the GAE/DGAE model classes, RGaeTrainer) on one
// thread and prints one JSON document of raw results as the last line of
// stdout.
// run.py builds this binary, pins its environment, checks the results and
// turns them into the benchmark's metrics; README.md describes both.
//
//   couple_bench --workload <name> --seed <n> --seconds <s>
//                [--traced --out-dir <dir>]
//
// Untraced mode repeats rounds (one trial per dataset of the workload) on
// the seed's inputs: three, then until the next round would overrun
// --seconds. Traced mode runs one untraced reference round,
// one traced round with the profiler on and a span per trial phase, then
// times the public calls of each layer on a probe model restored from the
// traced round's R half.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/clustering/assignments.h"
#include "src/clustering/gmm.h"
#include "src/clustering/kmeans.h"
#include "src/core/health.h"
#include "src/core/operators.h"
#include "src/core/rgae_trainer.h"
#include "src/eval/datasets.h"
#include "src/eval/harness.h"
#include "src/kernels/kernels.h"
#include "src/metrics/clustering_metrics.h"
#include "src/models/dgae.h"
#include "src/models/gae.h"
#include "src/models/model_factory.h"
#include "src/obs/memstat.h"
#include "src/obs/profile.h"
#include "src/obs/run_report.h"
#include "src/obs/trace.h"

namespace {

using rgae::obs::JsonValue;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::string model;
  /// One trial per dataset makes a round.
  std::vector<std::string> datasets;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = {
      {"pubmed-dgae", "DGAE", {"Pubmed"}},
      {"airtraffic-gae", "GAE", {"USA", "Europe", "Brazil"}},
  };
  return all;
}

// Rounds before the --seconds budget is consulted: the fewest repeats of
// each stretch that run.py takes the fastest of.
constexpr int kMinRounds = 3;

// Set-up repetitions before the measured rounds, so setup_s is a median
// of many samples even when only kMinRounds rounds fit in the run.
constexpr int kExtraSetups = 19;

// Seed of the trial on the workload's `index`-th dataset: the dataset
// generator and the couple's model/trainer seeds all derive from it.
uint64_t TrialSeed(uint64_t seed, size_t index) {
  return 1 + seed * 64 + index;
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own spans go straight into the existing
// TraceCollector (TraceEnabled stays off, so the library's internal spans do
// not flood it). Inactive spans cost nothing.
// ---------------------------------------------------------------------------

class Span {
 public:
  Span(bool active, const char* name)
      : index_(active ? rgae::obs::TraceCollector::Global().BeginSpan(name)
                      : -1) {}
  ~Span() { rgae::obs::TraceCollector::Global().EndSpan(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// Runs `fn` inside a span named `name` (when traced); returns its seconds.
double Timed(bool traced, const char* name, const std::function<void()>& fn) {
  const Span span(traced, name);
  const auto begin = Clock::now();
  fn();
  return SecondsSince(begin);
}

// ---------------------------------------------------------------------------
// Trials.
// ---------------------------------------------------------------------------

// The library's model class with its PreStep hook stamping the clock, so a
// call's wall time splits at every TrainStep. Rounds repeat identical work,
// so run.py can keep the fastest repeat of each stretch between two steps:
// a slow second on a shared host then costs one stretch, not a whole call.
template <class Model>
class StepStamped final : public Model {
 public:
  StepStamped(const rgae::AttributedGraph& graph,
              const rgae::ModelOptions& options,
              std::vector<Clock::time_point>* stamps)
      : Model(graph, options), stamps_(stamps) {}

 protected:
  void PreStep(const rgae::TrainContext& ctx) override {
    stamps_->push_back(Clock::now());
    Model::PreStep(ctx);
  }

 private:
  std::vector<Clock::time_point>* stamps_;
};

// CreateModel for the workloads' models, stamping into `stamps`.
std::unique_ptr<rgae::GaeModel> CreateStampedModel(
    const std::string& name, const rgae::AttributedGraph& graph,
    const rgae::ModelOptions& options,
    std::vector<Clock::time_point>* stamps) {
  if (name == "GAE") {
    return std::make_unique<StepStamped<rgae::Gae>>(graph, options, stamps);
  }
  if (name == "DGAE") {
    return std::make_unique<StepStamped<rgae::Dgae>>(graph, options, stamps);
  }
  std::fprintf(stderr, "no stamped model for %s\n", name.c_str());
  std::abort();
}

// Everything one trial owns. Built by `SetUp` (the timed set-up), consumed
// by `RunTrial`. Models borrow the graph and the step stamps, so both live
// behind pointers.
struct Trial {
  std::string dataset;
  uint64_t seed = 0;
  rgae::CoupleConfig config;
  std::unique_ptr<rgae::AttributedGraph> graph;
  std::unique_ptr<std::vector<Clock::time_point>> stamps;
  std::unique_ptr<rgae::GaeModel> base_model;
  std::unique_ptr<rgae::GaeModel> r_model;
  std::unique_ptr<rgae::RGaeTrainer> base_trainer;
  std::unique_ptr<rgae::RGaeTrainer> r_trainer;
};

std::vector<Trial> SetUp(const Workload& w, uint64_t seed, bool traced) {
  std::vector<Trial> trials;
  for (size_t i = 0; i < w.datasets.size(); ++i) {
    const Span span(traced, "setup");
    Trial t;
    t.dataset = w.datasets[i];
    t.seed = TrialSeed(seed, i);
    t.config = rgae::MakeCoupleConfig(w.model, t.dataset, t.seed);
    {
      const Span gen(traced, "graph.generate");
      t.graph = std::make_unique<rgae::AttributedGraph>(
          rgae::MakeDataset(t.dataset, t.seed));
    }
    const Span create(traced, "models.create");
    t.stamps = std::make_unique<std::vector<Clock::time_point>>();
    t.stamps->reserve(1024);
    t.base_model = CreateStampedModel(w.model, *t.graph,
                                      t.config.model_options, t.stamps.get());
    t.base_trainer = std::make_unique<rgae::RGaeTrainer>(t.base_model.get(),
                                                         t.config.base);
    t.r_model = CreateStampedModel(w.model, *t.graph, t.config.model_options,
                                   t.stamps.get());
    t.r_trainer = std::make_unique<rgae::RGaeTrainer>(t.r_model.get(),
                                                      t.config.rvariant);
    trials.push_back(std::move(t));
  }
  return trials;
}

struct Half {
  std::string variant;  // "base" or "r".
  rgae::TrainResult result;
  bool embed_finite = true;
  /// R halves: Υ changed the graph, so Ξ returned a non-empty Ω.
  bool omega_ok = true;
  int nonfinite_losses = 0;
};

struct TrialRecord {
  std::string dataset;
  double wall_s = 0.0;
  /// TrainStep epochs of every phase and half (gradient snapshots excluded).
  int train_steps = 0;
  double pretrain_s = 0.0;
  double cluster_base_s = 0.0;
  double cluster_r_s = 0.0;
  /// Each public call (Pretrain, TrainClustering, in call order) split at
  /// its TrainSteps: seconds from the call's start to the first step, from
  /// each step to the next, and from the last step to the call's end.
  std::vector<std::vector<double>> calls_s;
  std::vector<Half> halves;
};

Half MakeHalf(const char* variant, rgae::TrainResult result,
              rgae::GaeModel* model, const rgae::RGaeTrainer* trainer,
              const rgae::AttributedGraph& graph) {
  Half h;
  h.variant = variant;
  h.result = std::move(result);
  h.embed_finite = rgae::AllFinite(model->Embed());
  for (const rgae::EpochRecord& r : h.result.trace) {
    if (!std::isfinite(r.loss)) ++h.nonfinite_losses;
  }
  if (trainer->options().use_operators) {
    h.omega_ok = trainer->self_graph().edges() != graph.edges();
  }
  return h;
}

// Runs one trial: a couple with shared pretraining (second-group models) or
// a couple sharing initial weights (first group).
TrialRecord RunTrial(Trial& t, bool traced) {
  const Span span(traced, "trial");
  TrialRecord rec;
  rec.dataset = t.dataset;
  const auto begin = Clock::now();
  const int pretrain_epochs = t.config.base.pretrain_epochs;
  rgae::RGaeTrainer& b = *t.base_trainer;
  rgae::RGaeTrainer& r = *t.r_trainer;
  rgae::TrainResult base_result, r_result;
  std::vector<Clock::time_point>& stamps = *t.stamps;
  // Times one public call of the trial into `*phase` and `calls_s`.
  auto call = [&](const char* name, double* phase,
                  const std::function<void()>& fn) {
    const Span call_span(traced, name);
    stamps.clear();
    Clock::time_point last = Clock::now();
    fn();
    stamps.push_back(Clock::now());
    std::vector<double> stretches;
    for (const Clock::time_point& stamp : stamps) {
      stretches.push_back(std::chrono::duration<double>(stamp - last).count());
      *phase += stretches.back();
      last = stamp;
    }
    rec.calls_s.push_back(std::move(stretches));
  };

  if (t.base_model->has_clustering_head()) {
    bool pretrain_ok = true;
    call("core.pretrain", &rec.pretrain_s,
         [&] { pretrain_ok = b.Pretrain(); });
    t.r_model->LoadWeights(t.base_model->SaveWeights());
    call("core.cluster_base", &rec.cluster_base_s,
         [&] { base_result = b.TrainClustering(); });
    call("core.cluster_r", &rec.cluster_r_s,
         [&] { r_result = r.TrainClustering(); });
    if (!pretrain_ok) {
      r_result.failed = true;
      r_result.failure_reason = "shared pretrain failed";
    }
    rec.train_steps = pretrain_epochs + base_result.cluster_epochs_run +
                      r_result.cluster_epochs_run;
  } else {
    call("core.pretrain", &rec.pretrain_s, [&] { b.Pretrain(); });
    call("core.cluster_base", &rec.cluster_base_s,
         [&] { base_result = b.TrainClustering(); });
    call("core.pretrain", &rec.pretrain_s, [&] { r.Pretrain(); });
    call("core.cluster_r", &rec.cluster_r_s,
         [&] { r_result = r.TrainClustering(); });
    rec.train_steps = 2 * pretrain_epochs;
  }
  rec.wall_s = SecondsSince(begin);

  rec.halves.push_back(MakeHalf("base", std::move(base_result),
                                t.base_model.get(), &b, *t.graph));
  rec.halves.push_back(
      MakeHalf("r", std::move(r_result), t.r_model.get(), &r, *t.graph));
  return rec;
}

struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Process VmHWM once the round ended (MB).
  double peak_rss_mb = 0.0;
  std::vector<TrialRecord> trials;
};

Round RunRound(std::vector<Trial>& trials, bool traced) {
  Round round;
  const auto begin = Clock::now();
  for (Trial& t : trials) round.trials.push_back(RunTrial(t, traced));
  round.wall_s = SecondsSince(begin);
  round.peak_rss_mb =
      static_cast<double>(rgae::obs::ReadPeakRssBytes()) / 1e6;
  return round;
}

// ---------------------------------------------------------------------------
// Layer probes: each public call timed at the traced trial's real shapes
// and state, on a probe model restored from the R half with
// SaveWeights/LoadWeights, so the trial's own result and RNG streams stay
// untouched. Values are per-call medians in seconds unless noted.
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median seconds of `reps` calls of `fn`, each in its own span.
double P50(const char* name, int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) samples.push_back(Timed(true, name, fn));
  return Median(samples);
}

using Layers = std::map<std::string, double>;

int CeilDiv(int a, int b) { return b > 0 ? (a + b - 1) / b : 0; }

// Per-call medians of every layer, plus the trial's schedule-derived
// coverage term (seconds the decomposition explains) in "covered_s".
Layers ProbeLayers(const Workload& w, Trial& t, const TrialRecord& rec) {
  const Span span(true, "probes");
  const rgae::AttributedGraph& g = *t.graph;
  const rgae::TrainerOptions& ropt = t.config.rvariant;
  const int k = ropt.num_clusters;
  const int n = g.num_nodes();
  rgae::Rng rng(t.seed ^ 0x9E3779B97F4A7C15ULL);
  Layers out;

  // Probe model restored from the R half's final state.
  std::unique_ptr<rgae::GaeModel> probe =
      rgae::CreateModel(w.model, g, t.config.model_options);
  if (probe->has_clustering_head()) probe->InitClusteringHead(k, rng);
  probe->LoadWeights(t.r_model->SaveWeights());
  probe->RestoreAuxState(t.r_model->SaveAuxState());
  rgae::RGaeTrainer probe_trainer(probe.get(), ropt);

  const rgae::Matrix z = probe->Embed();
  const int d = z.cols();
  const rgae::CsrMatrix adj = g.Adjacency();
  const rgae::ReconTarget plain_target = rgae::MakeReconTarget(&adj);
  const rgae::CsrMatrix self_adj = t.r_trainer->self_graph().Adjacency();
  const rgae::ReconTarget self_target = rgae::MakeReconTarget(&self_adj);

  // ---- kernels: the decoder's three N×N×d products and its N² sweep.
  rgae::Matrix s(n, n);
  out["kernels.matmul_transb"] = P50("kernels.matmul_transb", 9, [&] {
    rgae::kernels::MatMulTransB(z.data(), z.data(), s.data(), n, d, n);
  });
  out["kernels.bce_sweep"] = P50("kernels.bce_sweep", 9, [&] {
    volatile double sink =
        rgae::kernels::BceSweep(s.data(), static_cast<int64_t>(n) * n);
    (void)sink;
  });
  rgae::Matrix c(n, n);  // Dense sigmoid(S): no zero entries to skip.
  for (size_t i = 0; i < c.size(); ++i) {
    c.data()[i] = 1.0 / (1.0 + std::exp(-s.data()[i]));
  }
  rgae::Matrix cz(n, d);
  out["kernels.matmul_nn"] = P50("kernels.matmul_nn", 9, [&] {
    cz.Zero();
    rgae::kernels::MatMul(c.data(), z.data(), cz.data(), n, n, d);
  });
  out["kernels.matmul_transa"] = P50("kernels.matmul_transa", 9, [&] {
    cz.Zero();
    rgae::kernels::MatMulTransA(c.data(), z.data(), cz.data(), n, n, d);
  });
  const double decoder_s = out["kernels.matmul_transb"] +
                           out["kernels.matmul_nn"] +
                           out["kernels.matmul_transa"];
  out["kernels.decoder_gflops"] =
      6.0 * static_cast<double>(n) * n * d / decoder_s / 1e9;

  // ---- kernels: the encoder's first layer and the optimizer.
  std::vector<rgae::Parameter*> params = probe->Params();
  const rgae::Matrix& x = g.features();
  const rgae::Parameter* w0 = params.front();
  for (const rgae::Parameter* p : params) {
    if (p->value.rows() == x.cols()) {
      w0 = p;
      break;
    }
  }
  const int hidden = w0->value.cols();
  rgae::Matrix xw(n, hidden);
  out["kernels.encoder_matmul"] = P50("kernels.encoder_matmul", 9, [&] {
    xw.Zero();
    rgae::kernels::MatMul(x.data(), w0->value.data(), xw.data(), n, x.cols(),
                          hidden);
  });
  const rgae::CsrMatrix& filter = probe->filter();
  rgae::Matrix ah(n, hidden);
  out["kernels.spmm"] = P50("kernels.spmm", 9, [&] {
    ah.Zero();
    rgae::kernels::Spmm(filter.row_ptr().data(), filter.col_idx().data(),
                        filter.values().data(), n, xw.data(), hidden,
                        ah.data());
  });
  int total = 0;
  for (const rgae::Parameter* p : params) {
    total += static_cast<int>(p->value.size());
  }
  rgae::Matrix value(1, total, 0.1), grad(1, total, 0.01), m1(1, total),
      m2(1, total);
  out["kernels.adam"] = P50("kernels.adam", 9, [&] {
    rgae::kernels::AdamStep(value.data(), grad.data(), m1.data(), m2.data(),
                            total, 0.9, 0.999, 0.01, 1e-8, 0.1, 0.001);
  });

  // ---- tensor: the fused decoder loss on a tape, forward and backward.
  {
    rgae::Parameter zp(z);
    std::vector<double> fwd, bwd;
    for (int i = 0; i < 5; ++i) {
      rgae::Tape tape;
      const rgae::Var zv = tape.Leaf(&zp);
      rgae::Var loss;
      fwd.push_back(Timed(true, "tensor.bce_forward", [&] {
        loss = tape.InnerProductBceLoss(zv, &self_adj, self_target.pos_weight,
                                        self_target.norm);
      }));
      bwd.push_back(
          Timed(true, "tensor.bce_backward", [&] { tape.Backward(loss); }));
      zp.ZeroGrad();
    }
    out["tensor.bce_forward"] = Median(fwd);
    out["tensor.bce_backward"] = Median(bwd);
  }

  // ---- models: contexts of the two step kinds. First-group models have no
  // clustering step: their R-phase step is a reconstruction step against
  // the Υ-transformed target.
  rgae::TrainContext pretrain_ctx;
  pretrain_ctx.recon = plain_target;
  rgae::TrainContext cluster_ctx;
  cluster_ctx.recon = self_target;
  cluster_ctx.gamma = ropt.gamma;
  const rgae::Matrix xi_scores = probe_trainer.XiScores();
  const rgae::XiResult xi = rgae::OperatorXi(xi_scores, ropt.xi);
  if (probe->has_clustering_head()) {
    cluster_ctx.include_clustering = true;
    cluster_ctx.omega = xi.omega;
  }
  // The step kind the workload runs most.
  const rgae::TrainContext& main_ctx =
      probe->has_clustering_head() ? cluster_ctx : pretrain_ctx;

  // ---- tensor: exact allocation counts of one step (memstat needs the
  // obs switch; the timed probes run with it off).
  rgae::obs::SetEnabled(true);
  const rgae::obs::MemCounters before = rgae::obs::MemCountersNow();
  probe->TrainStep(main_ctx);
  const rgae::obs::MemCounters after = rgae::obs::MemCountersNow();
  rgae::obs::SetEnabled(false);
  out["tensor.matrix_allocs_per_step"] =
      static_cast<double>(after.matrix_allocs - before.matrix_allocs);
  out["tensor.matrix_mb_per_step"] =
      static_cast<double>(after.matrix_bytes - before.matrix_bytes) / 1e6;
  out["tensor.tape_nodes_per_step"] =
      static_cast<double>(after.tape_nodes - before.tape_nodes);

  out["models.pretrain_step"] = P50("models.pretrain_step", 5,
                                    [&] { probe->TrainStep(pretrain_ctx); });
  out["models.cluster_step"] = P50("models.cluster_step", 5,
                                   [&] { probe->TrainStep(cluster_ctx); });
  {
    std::vector<double> fwd, bwd;
    for (int i = 0; i < 5; ++i) {
      rgae::Tape tape;
      rgae::Rng step_rng(rng.Next());
      rgae::Var loss;
      fwd.push_back(Timed(true, "models.forward", [&] {
        loss = probe->BuildLossOnTape(&tape, main_ctx, &step_rng);
      }));
      bwd.push_back(
          Timed(true, "models.backward", [&] { tape.Backward(loss); }));
      for (rgae::Parameter* p : params) p->ZeroGrad();
    }
    out["models.forward"] = Median(fwd);
    out["models.backward"] = Median(bwd);
  }
  out["models.embed"] = P50("models.embed", 9, [&] { probe->Embed(); });
  // Gradient snapshots against the labels' star-shaped oriented graph.
  const rgae::Matrix z_now = probe->Embed();
  std::vector<int> all_nodes(n);
  for (int i = 0; i < n; ++i) all_nodes[i] = i;
  const rgae::CsrMatrix oriented =
      rgae::OperatorUpsilon(g, z_now, rgae::OneHot(g.labels(), k), all_nodes,
                            rgae::UpsilonOptions())
          .Adjacency();
  const rgae::ReconTarget oriented_target = rgae::MakeReconTarget(&oriented);
  out["models.grad_snapshot"] = P50("models.grad_snapshot", 5, [&] {
    probe->ClusteringGradSnapshot(g.labels(), k, {});
    probe->ReconGradSnapshot(oriented_target);
  });
  // Adam::Step on the gradients of one more backward pass.
  {
    rgae::Tape tape;
    rgae::Rng step_rng(rng.Next());
    tape.Backward(probe->BuildLossOnTape(&tape, main_ctx, &step_rng));
    out["tensor.adam_step"] = P50("tensor.adam_step", 9,
                                  [&] { probe->optimizer()->Step(); });
    for (rgae::Parameter* p : params) p->ZeroGrad();
  }

  // ---- core: the operators.
  out["core.xi"] = P50("core.xi", 5, [&] {
    rgae::OperatorXi(probe_trainer.XiScores(), ropt.xi);
  });
  out["core.upsilon"] = P50("core.upsilon", 5, [&] {
    rgae::OperatorUpsilon(g, z, xi_scores, xi.omega, ropt.upsilon);
  });

  // ---- clustering.
  out["clustering.fit_gmm"] =
      P50("clustering.fit_gmm", 5, [&] { rgae::FitGmm(z, k, rng); });
  out["clustering.kmeans"] =
      P50("clustering.kmeans", 5, [&] { rgae::KMeans(z, k, rng); });
  const std::vector<int> hard = rgae::HardAssign(xi_scores);
  const rgae::Matrix means = rgae::ClusterMeans(z, hard, k);
  out["clustering.student_t"] = P50("clustering.student_t", 9, [&] {
    rgae::StudentTAssignments(z, means);
  });

  // ---- graph.
  out["graph.generate"] = P50("graph.generate", 3, [&] {
    rgae::MakeDataset(t.dataset, t.seed);
  });
  out["graph.recon_target"] = P50("graph.recon_target", 9, [&] {
    const rgae::CsrMatrix a = t.r_trainer->self_graph().Adjacency();
    rgae::MakeReconTarget(&a);
  });

  // ---- metrics.
  out["metrics.evaluate"] = P50("metrics.evaluate", 9, [&] {
    rgae::Evaluate(hard, g.labels());
  });

  // ---- coverage: per-call medians times the calls the trial's schedule
  // makes, from its epoch counts and the M₁/M₂ periods.
  const int pre = t.config.base.pretrain_epochs;
  const int eb = rec.halves.front().result.cluster_epochs_run;
  const int er = rec.halves.back().result.cluster_epochs_run;
  // One Υ refresh: Embed, XiScores, OperatorUpsilon, new recon target.
  const double refresh_upsilon = out["models.embed"] + out["core.xi"] +
                                 out["core.upsilon"] +
                                 out["graph.recon_target"];
  double covered = 0.0;
  if (probe->has_clustering_head()) {
    // Shared pretraining, then per half a k-means head init (DGAE), the
    // clustering steps and an evaluation; Ξ/Υ refreshes in the R half.
    covered += pre * out["models.pretrain_step"] +
               (eb + er) * out["models.cluster_step"];
    covered += 2 * (out["clustering.kmeans"] + out["metrics.evaluate"]);
    covered += CeilDiv(er, ropt.m1) * out["core.xi"] +
               CeilDiv(er, ropt.m2) * refresh_upsilon;
  } else {
    // Two pretrainings; the R half refreshes Ξ+Υ every M₂ epochs of its
    // second half, and each half is evaluated through a GMM fit.
    const int start = ropt.first_group_transform_start;
    covered += (pre + start) * out["models.pretrain_step"] +
               (pre - start) * out["models.cluster_step"];
    covered += CeilDiv(pre - start, ropt.m2) *
               (out["core.xi"] + refresh_upsilon);
    covered += 2 * (out["clustering.fit_gmm"] + out["metrics.evaluate"] +
                    out["models.embed"]);
  }
  out["covered_s"] = covered;
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

JsonValue HalfJson(const Half& h) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("variant", h.variant);
  o.Set("failed", h.result.failed);
  o.Set("timed_out", h.result.timed_out);
  o.Set("failure_reason", h.result.failure_reason);
  o.Set("acc", h.result.scores.acc);
  o.Set("nmi", h.result.scores.nmi);
  o.Set("ari", h.result.scores.ari);
  o.Set("cluster_epochs", h.result.cluster_epochs_run);
  o.Set("nonfinite_losses", h.nonfinite_losses);
  o.Set("embed_finite", h.embed_finite);
  o.Set("omega_ok", h.omega_ok);
  return o;
}

JsonValue RoundJson(const Round& round) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("setup_s", round.setup_s);
  o.Set("wall_s", round.wall_s);
  o.Set("peak_rss_mb", round.peak_rss_mb);
  JsonValue trials = JsonValue::MakeArray();
  for (const TrialRecord& rec : round.trials) {
    JsonValue t = JsonValue::MakeObject();
    t.Set("dataset", rec.dataset);
    t.Set("wall_s", rec.wall_s);
    t.Set("train_steps", rec.train_steps);
    t.Set("pretrain_s", rec.pretrain_s);
    t.Set("cluster_base_s", rec.cluster_base_s);
    t.Set("cluster_r_s", rec.cluster_r_s);
    JsonValue calls = JsonValue::MakeArray();
    for (const std::vector<double>& stretches : rec.calls_s) {
      JsonValue call = JsonValue::MakeArray();
      for (double s : stretches) call.Append(JsonValue(s));
      calls.Append(std::move(call));
    }
    t.Set("calls_s", std::move(calls));
    JsonValue halves = JsonValue::MakeArray();
    for (const Half& h : rec.halves) halves.Append(HalfJson(h));
    t.Set("halves", std::move(halves));
    trials.Append(std::move(t));
  }
  o.Set("trials", std::move(trials));
  return o;
}

// One rgae.bench.v1 trial report per half of the traced round.
std::vector<JsonValue> TrialReports(const Workload& w, const Round& round,
                                    const std::vector<Trial>& trials) {
  std::vector<JsonValue> reports;
  for (size_t i = 0; i < round.trials.size(); ++i) {
    for (const Half& h : round.trials[i].halves) {
      rgae::obs::RunReportInfo info;
      info.model = w.model;
      info.dataset = round.trials[i].dataset;
      info.variant = h.variant;
      info.trial = static_cast<int>(i);
      info.seed = trials[i].seed;
      rgae::TrialOutcome outcome;
      outcome.scores = h.result.scores;
      outcome.failed = h.result.failed;
      outcome.timed_out = h.result.timed_out;
      outcome.seconds = h.result.pretrain_seconds + h.result.cluster_seconds;
      outcome.result = h.result;
      reports.push_back(rgae::obs::RunReportJson(info, outcome));
    }
  }
  return reports;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (a == "--out-dir" && has_value) {
      args->out_dir = argv[++i];
    } else if (a == "--traced") {
      args->traced = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: couple_bench --workload <name> --seed <n> "
                 "--seconds <s> [--traced --out-dir <dir>]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : Workloads()) {
    if (candidate.name == args.workload) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  JsonValue doc = JsonValue::MakeObject();
  doc.Set("workload", w->name);
  doc.Set("seed", static_cast<unsigned long long>(args.seed));
  doc.Set("build_type", COUPLEBENCH_BUILD_TYPE);
  doc.Set("kernel_isa",
          rgae::kernels::IsaName(rgae::kernels::SelectedIsa()));

  const auto start = Clock::now();
  std::vector<double> setup_samples;
  auto timed_setup = [&](bool traced) {
    const auto begin = Clock::now();
    std::vector<Trial> trials = SetUp(*w, args.seed, traced);
    setup_samples.push_back(SecondsSince(begin));
    return trials;
  };
  for (int i = 0; i < kExtraSetups; ++i) timed_setup(false);

  JsonValue rounds = JsonValue::MakeArray();
  if (!args.traced) {
    // Repeat rounds on the same inputs (run.py keeps the fastest repeat of
    // each stretch): kMinRounds times, then while the next round fits.
    for (int i = 0;; ++i) {
      std::vector<Trial> trials = timed_setup(false);
      Round round = RunRound(trials, false);
      round.setup_s = setup_samples.back();
      rounds.Append(RoundJson(round));
      if (i + 1 >= kMinRounds &&
          SecondsSince(start) + round.setup_s + round.wall_s > args.seconds) {
        break;
      }
    }
  } else {
    std::vector<Trial> reference = timed_setup(false);
    Round untraced = RunRound(reference, false);
    untraced.setup_s = setup_samples.back();
    rounds.Append(RoundJson(untraced));
    reference.clear();

    // Traced round: profiler on (the `profile` block of the bench
    // document), benchmark spans in the trace collector.
    rgae::obs::SetEnabled(true);
    rgae::obs::SetProfileEnabled(true);
    rgae::obs::Profiler::Global().Reset();
    rgae::obs::MetricsRegistry::Global().Reset();
    std::vector<Trial> trials = timed_setup(true);
    Round traced = RunRound(trials, true);
    traced.setup_s = setup_samples.back();
    rgae::obs::SetProfileEnabled(false);
    rgae::obs::SetEnabled(false);
    doc.Set("traced_round", RoundJson(traced));

    const std::string stem =
        args.out_dir + "/" + w->name + "-seed" + std::to_string(args.seed);
    std::string error;
    const std::string bench_path = stem + ".bench.json";
    if (!rgae::obs::WriteJsonFile(
            rgae::obs::BenchDocument("couple_bench." + w->name,
                                     TrialReports(*w, traced, trials)),
            bench_path, &error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", bench_path.c_str(),
                   error.c_str());
      return 1;
    }
    doc.Set("bench_json", bench_path);

    JsonValue layers = JsonValue::MakeArray();
    for (size_t i = 0; i < trials.size(); ++i) {
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("dataset", trials[i].dataset);
      for (const auto& [name, value] :
           ProbeLayers(*w, trials[i], traced.trials[i])) {
        entry.Set(name, value);
      }
      layers.Append(std::move(entry));
    }
    doc.Set("layers", std::move(layers));

    const std::string trace_path = stem + ".trace.json";
    if (!rgae::obs::TraceCollector::Global().WriteChromeTrace(trace_path,
                                                              &error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", trace_path.c_str(),
                   error.c_str());
      return 1;
    }
  }
  doc.Set("rounds", std::move(rounds));
  JsonValue setups = JsonValue::MakeArray();
  for (double s : setup_samples) setups.Append(JsonValue(s));
  doc.Set("setup_s", std::move(setups));
  std::printf("%s\n", doc.Dump().c_str());
  return 0;
}
