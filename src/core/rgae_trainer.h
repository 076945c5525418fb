#ifndef RGAE_CORE_RGAE_TRAINER_H_
#define RGAE_CORE_RGAE_TRAINER_H_

#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/health.h"
#include "src/core/operators.h"
#include "src/metrics/clustering_metrics.h"
#include "src/models/model.h"

namespace rgae {

class FaultInjector;

/// Failure-handling policy threaded through both training phases. When
/// enabled, the trainer snapshots a `TrainerCheckpoint` every
/// `checkpoint_every` epochs and runs the `NumericalGuard` after every
/// step; on a bad verdict it rolls back to the last good snapshot and
/// retries with a geometrically backed-off learning rate. After
/// `max_rollbacks` recoveries the run is marked failed (see
/// `TrainResult::failed`) instead of crashing or silently emitting NaNs.
struct ResilienceOptions {
  bool enabled = false;
  NumericalGuardOptions guard;
  /// Snapshot period in epochs; 0 derives it from `TrainerOptions::m2`.
  int checkpoint_every = 0;
  /// Recovery budget before the trial is declared failed.
  int max_rollbacks = 3;
  /// Learning-rate multiplier per rollback: retry r runs at
  /// `initial_lr * lr_backoff^r` (anchored on the trainer's starting rate
  /// so a corrupted live rate cannot leak into the retries).
  double lr_backoff = 0.5;
};

/// Training schedule implementing the paper's conceptual design (Eq. 6) on
/// top of any `GaeModel`. With `use_operators == false` this degrades to the
/// original model's training loop, so a couple (𝒟, R-𝒟) differs *only* by
/// the operators — exactly the paper's comparison protocol.
struct TrainerOptions {
  int pretrain_epochs = 100;
  int max_cluster_epochs = 150;
  /// Reconstruction weight γ in L_clus + γ L_bce (Eq. 5).
  double gamma = 0.1;
  /// Number of clusters K; 0 derives it from the graph labels.
  int num_clusters = 0;

  /// Master switch: R-𝒟 when true, plain 𝒟 when false.
  bool use_operators = false;
  XiOptions xi;
  UpsilonOptions upsilon;
  /// Refresh period of Ω (M₁) and of A^self_clus (M₂), in epochs.
  int m1 = 20;
  int m2 = 10;
  /// For first-group models: epoch of the pretraining phase at which the
  /// operators start transforming the reconstruction target.
  int first_group_transform_start = 50;
  /// Table 6: delay (epochs) before Ξ starts sampling; 0 = protection mode.
  int xi_delay_epochs = 0;
  /// Table 7: apply Υ once to the whole node set 𝒱 at the start
  /// (protection-style FD handling) instead of gradually over Ω.
  bool fd_protection = false;
  /// Stop the clustering phase once |Ω| ≥ fraction · |𝒱| (R-models only).
  double convergence_fraction = 0.9;

  /// Record Λ_FR / Λ_FD diagnostics per epoch (adds gradient snapshots).
  bool track_fr_fd = false;
  /// Diagnostics sampling period (1 = every epoch). Gradient snapshots are
  /// as expensive as training steps; figure benches thin them out.
  int track_every = 1;
  /// Record |Ω|, per-subset accuracy, self-graph link statistics per epoch.
  bool track_dynamics = false;
  /// Record ACC/NMI/ARI per epoch (fits a GMM for first-group models).
  bool track_scores = false;

  /// Numerical-health guards + checkpoint/rollback recovery.
  ResilienceOptions resilience;
  /// Borrowed test/bench hook that corrupts model state on a schedule
  /// (see core/fault_injection.h); must outlive the trainer. Null in
  /// production runs.
  FaultInjector* fault_injector = nullptr;

  /// Trial index within a multi-trial harness run; -1 outside one. Carried
  /// into every structured-log record the trainer emits (see src/obs/log.h)
  /// so rollback/failure events are attributable to their trial.
  int trial_id = -1;

  uint64_t seed = 7;
};

/// One row of the training trace; negative values mean "not tracked".
struct EpochRecord {
  int epoch = 0;
  double loss = 0.0;
  double acc = -1.0, nmi = -1.0, ari = -1.0;
  /// Λ_FR of the plain model (Ω = 𝒱) and of the R-model (Ω from Ξ),
  /// both computed at the current state (Fig. 5 semantics).
  double lambda_fr_plain = -2.0, lambda_fr_r = -2.0;
  /// Λ_FD against A (plain) and against Υ(A, P(Ξ(Z)), Ω) (R) (Fig. 6).
  double lambda_fd_plain = -2.0, lambda_fd_r = -2.0;
  int omega_size = -1;
  double omega_acc = -1.0;   // ACC restricted to Ω.
  double rest_acc = -1.0;    // ACC on 𝒱 \ Ω.
  int self_links = -1;       // Edges of the current self-supervision graph.
  int self_true_links = -1;  // ... joining same-label endpoints.
  int self_false_links = -1;
  UpsilonStats upsilon_stats;  // Valid on epochs where Υ ran.
  bool upsilon_ran = false;
  double separability = -1.0;  // Fig. 10 numeric proxy.
  /// Guard verdict for this epoch (kOk unless resilience is enabled and the
  /// epoch survived a non-fatal observation; rolled-back epochs are erased
  /// from the trace, so their verdicts live in `TrainResult::health_log`).
  HealthStatus health = HealthStatus::kOk;
};

/// Result of a full train run.
struct TrainResult {
  ClusteringScores scores;
  std::vector<int> assignments;
  std::vector<EpochRecord> trace;
  double pretrain_seconds = 0.0;
  double cluster_seconds = 0.0;
  int cluster_epochs_run = 0;

  /// True when the resilience layer exhausted its rollback budget; the
  /// scores then reflect the last good checkpoint, not a converged run,
  /// and `AggregateTrials` excludes the trial.
  bool failed = false;
  std::string failure_reason;
  /// True when a global stop was requested (core/stop.h, the bench
  /// binaries' SIGINT/SIGTERM handler) before the schedule completed: the
  /// run stopped at an epoch boundary and the scores reflect the partial
  /// state reached by then. Orthogonal to `failed` — a stopped run is
  /// numerically healthy.
  bool timed_out = false;
  /// Number of checkpoint rollbacks performed across both phases.
  int rollbacks = 0;
  /// Bad verdicts and the recovery actions taken (empty in healthy runs).
  std::vector<HealthEvent> health_log;
  /// Per-epoch guard verdicts of the pretraining phase (resilience only).
  std::vector<HealthStatus> pretrain_health;
};

/// Drives pretraining + clustering for one model instance.
class RGaeTrainer {
 public:
  /// `model` is borrowed and must outlive the trainer.
  RGaeTrainer(GaeModel* model, const TrainerOptions& options);

  /// Runs the reconstruction pretraining phase. For first-group R-models
  /// the operators gradually transform the reconstruction target during
  /// this phase (the paper's Section 5.1 protocol). Returns false when the
  /// resilience layer gave up on the phase (always true otherwise); the
  /// failure details are available via `failed()` / `failure_reason()`.
  bool Pretrain();

  /// Runs the clustering phase (joint embedding + clustering for
  /// second-group models; a no-op refinement returning the pretrained
  /// embedding evaluation for first-group models) and evaluates.
  TrainResult TrainClustering();

  /// Pretrain + TrainClustering.
  TrainResult Run();

  /// Current soft assignments P: the model head when present, otherwise a
  /// GMM fitted on the embedding.
  Matrix CurrentSoftAssignments();

  /// Soft scores fed to operator Ξ. Gaussian posteriors (GMM heads, Eq. 15)
  /// saturate to one-hot rows on well-separated embeddings, which would
  /// snap Ω to 𝒱 in one step; the trainer therefore scores reliability
  /// with the heavy-tailed Student-t kernel (the Eq. 20 kernel DGAE uses)
  /// against the current clusters' means, keeping the two-criteria
  /// selection of Eq. 18 meaningfully gradual. See DESIGN.md §2.
  Matrix XiScores();

  /// Hard predictions + external scores at the current state.
  ClusteringScores EvaluateNow(std::vector<int>* assignments = nullptr);

  GaeModel* model() { return model_; }
  const TrainerOptions& options() const { return options_; }
  int num_clusters() const { return k_; }

  /// The current self-supervision graph A^self_clus.
  const AttributedGraph& self_graph() const { return self_graph_; }

  /// Resilience outcome so far (useful between `Pretrain` and
  /// `TrainClustering`; `TrainResult` carries the same data for full runs).
  bool failed() const { return failed_; }
  bool timed_out() const { return timed_out_; }
  const std::string& failure_reason() const { return failure_reason_; }
  int rollbacks() const { return rollbacks_; }
  const std::vector<HealthEvent>& health_log() const { return health_log_; }

 private:
  // Runs Ξ on the current scores. If α₁/α₂ reject every node (the paper
  // tunes α₁ as the largest value yielding a non-empty Ω), falls back to
  // the most confident max(K, 5% of 𝒱) nodes so protection never silently
  // degrades into training on all nodes.
  std::vector<int> SelectOmega();
  // Rebuilds self_adj_ / recon_ from self_graph_.
  void RefreshReconTarget();
  // Applies Υ with the given reliable set and updates the recon target.
  void ApplyUpsilon(const std::vector<int>& omega, UpsilonStats* stats);
  // Builds the supervised clustering-oriented graph Υ(A, Q', 𝒱).
  CsrMatrix SupervisedOrientedGraph();
  // Fills diagnostics into `record`.
  void TrackEpoch(EpochRecord* record, const std::vector<int>& omega);

  // Snapshot period of the resilience layer (checkpoint_every, or m2).
  int CheckpointEvery() const;
  // Captures model + phase state into `*ckpt`.
  void CaptureTrainerState(int epoch, bool pretrain,
                           const std::vector<int>& omega,
                           TrainerCheckpoint* ckpt);
  // Handles a bad guard verdict: rolls back to `*ckpt` with a backed-off
  // learning rate and returns true, or — once the rollback budget is
  // exhausted — restores the last good state, marks the run failed, and
  // returns false. `omega` may be null during pretraining.
  bool RecoverOrFail(const HealthVerdict& verdict, bool pretrain, int epoch,
                     const TrainerCheckpoint& ckpt, NumericalGuard* guard,
                     std::vector<int>* omega);

  GaeModel* model_;
  TrainerOptions options_;
  int k_;
  Rng rng_;
  AttributedGraph self_graph_;  // Current A^self_clus.
  double initial_lr_;  // Rollback-retry LR anchor (rate at construction).
  CsrMatrix self_adj_;
  ReconTarget recon_;
  std::vector<int> all_nodes_;

  // True once a global stop was requested; checked at epoch boundaries.
  // The first positive check marks the run timed out and logs the stop.
  bool StopRequested(bool pretrain, int epoch);

  // Resilience outcome, accumulated across phases.
  bool failed_ = false;
  bool timed_out_ = false;
  std::string failure_reason_;
  int rollbacks_ = 0;
  std::vector<HealthEvent> health_log_;
  std::vector<HealthStatus> pretrain_health_;
};

}  // namespace rgae

#endif  // RGAE_CORE_RGAE_TRAINER_H_
