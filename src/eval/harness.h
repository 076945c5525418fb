#ifndef RGAE_EVAL_HARNESS_H_
#define RGAE_EVAL_HARNESS_H_

#include <string>
#include <vector>

#include "src/core/rgae_trainer.h"
#include "src/eval/datasets.h"
#include "src/models/model_factory.h"

namespace rgae {

/// Multi-trial experiment harness used by every table bench. Reproduces the
/// paper's comparison protocol: a couple (𝒟, R-𝒟) shares the same
/// pretrained weights before the clustering phase, then diverges only by
/// the operators Ξ / Υ.

/// One trial of one method.
struct TrialOutcome {
  ClusteringScores scores;
  /// Wall time of the trial's *clustering phase only* — the quantity the
  /// paper's runtime table (Table 5) reports for the second-group couples
  /// it compares, where pretraining is shared per couple and cancels out.
  /// Exception: for first-group models run through `RunCouple`, whose
  /// "clustering" is a closed-form GMM fit, this instead holds
  /// `result.pretrain_seconds` (the phase the operators act on). For total
  /// wall time use `result.pretrain_seconds + result.cluster_seconds`;
  /// see DESIGN.md §3 (Table 5).
  double seconds = 0.0;
  TrainResult result;
  /// True when the trainer's resilience layer gave up on the run (see
  /// `TrainResult::failed`), or, for the R half of a second-group couple,
  /// when the shared pretraining failed; `AggregateTrials` drops such
  /// trials.
  bool failed = false;
  std::string failure_reason;
  /// True when a global stop request ended the run early (the scores are a
  /// partial-state evaluation, see `TrainResult::timed_out`).
  bool timed_out = false;
};

/// Outcomes of the base model and its R-variant for one shared-pretrain
/// trial.
struct CoupleOutcome {
  TrialOutcome base;
  TrialOutcome rmodel;
};

/// Everything needed to run one couple.
struct CoupleConfig {
  std::string model_name;   // "GAE", ..., "GMM-VGAE".
  std::string dataset;      // Registry name; hyper-params resolved from it.
  ModelOptions model_options;
  TrainerOptions base;      // use_operators forced false.
  TrainerOptions rvariant;  // use_operators forced true.
};

/// Builds default trainer options for (dataset, model) with the Appendix-C
/// α₁ / M₁ / M₂ values, scaled epoch counts, and the given seed.
CoupleConfig MakeCoupleConfig(const std::string& model_name,
                              const std::string& dataset, uint64_t seed);

/// Runs one couple on the given graph with shared pretraining.
CoupleOutcome RunCouple(const CoupleConfig& config,
                        const AttributedGraph& graph);

/// Runs a single method (base when `use_operators` is false in `trainer`).
TrialOutcome RunSingle(const std::string& model_name,
                       const AttributedGraph& graph,
                       const ModelOptions& model_options,
                       const TrainerOptions& trainer);

/// Best / mean / standard deviation across trials.
struct Aggregate {
  ClusteringScores best;
  ClusteringScores mean;
  ClusteringScores stddev;
  double best_seconds = 0.0;
  double mean_seconds = 0.0;
  double var_seconds = 0.0;
  /// Per-trial clustering-phase seconds of the surviving trials, in trial
  /// order — the raw sample set behind the percentile columns of the
  /// runtime benches (bench/bench_common.h `SummarizeLatencies`).
  std::vector<double> trial_seconds;
  /// Trials that survived aggregation / trials dropped as failed.
  int num_trials = 0;
  int dropped_trials = 0;
};

/// Aggregates trial outcomes; "best" is the trial with the highest ACC.
/// Failed trials are excluded (their count is reported in
/// `Aggregate::dropped_trials` and logged to stderr); empty or fully-failed
/// inputs yield a zeroed aggregate instead of NaNs, and a single surviving
/// trial gets a zero standard deviation.
Aggregate AggregateTrials(const std::vector<TrialOutcome>& trials);

/// Environment-controlled effort scaling: reads RGAE_TRIALS /
/// RGAE_EPOCH_SCALE (a float multiplier on epoch counts) so the bench suite
/// can be shrunk for smoke runs. Defaults: 3 trials, scale 1.0. A value that
/// is not a number, not finite, not positive or (for the trial count) not
/// an `int` gives the default; scaled epoch counts saturate at INT_MAX.
int NumTrialsFromEnv(int default_trials = 3);
double EpochScaleFromEnv();

/// The positive `int` in environment variable `name`, or `fallback` when it
/// is unset, not a whole decimal number, not positive or out of `int` range.
int PositiveIntFromEnv(const char* name, int fallback);

}  // namespace rgae

#endif  // RGAE_EVAL_HARNESS_H_
