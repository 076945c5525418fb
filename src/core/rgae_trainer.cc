#include "src/core/rgae_trainer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "src/clustering/assignments.h"
#include "src/clustering/gmm.h"
#include "src/clustering/kmeans.h"
#include "src/core/fault_injection.h"
#include "src/core/stop.h"
#include "src/metrics/fr_fd.h"
#include "src/metrics/hungarian.h"
#include "src/obs/log.h"
#include "src/obs/trace.h"

namespace rgae {

namespace {

// Raw timing: phase seconds are product fields on TrainResult, not an obs
// span (R8 opt-out).
double Seconds(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)  // Raw timing: see above.
      .count();
}

// Drops trace entries at or after the rollback target epoch so the trace
// reads as one consistent run.
void TruncateTrace(std::vector<EpochRecord>* trace, int epoch) {
  while (!trace->empty() && trace->back().epoch >= epoch) trace->pop_back();
}

}  // namespace

RGaeTrainer::RGaeTrainer(GaeModel* model, const TrainerOptions& options)
    : model_(model),
      options_(options),
      k_(options.num_clusters > 0 ? options.num_clusters
                                  : model->graph().num_clusters()),
      rng_(options.seed),
      self_graph_(model->graph()),
      initial_lr_(model->optimizer() != nullptr
                      ? model->optimizer()->learning_rate()
                      : 0.0) {
  assert(k_ >= 2);
  all_nodes_.resize(model_->graph().num_nodes());
  for (int i = 0; i < model_->graph().num_nodes(); ++i) all_nodes_[i] = i;
  RefreshReconTarget();
}

void RGaeTrainer::RefreshReconTarget() {
  self_adj_ = self_graph_.Adjacency();
  recon_ = MakeReconTarget(&self_adj_);
}

Matrix RGaeTrainer::CurrentSoftAssignments() {
  // Before InitClusteringHead (e.g. XiScores during pretraining) the head's
  // parameters are placeholders, so second-group models also take the GMM
  // path until the head is ready.
  if (model_->clustering_head_ready()) return model_->SoftAssignments();
  // First-group models: fit a GMM on the embedding (Eq. 15 style soft
  // scores come out of the responsibilities directly).
  const Matrix z = model_->Embed();
  Rng fork = rng_.Fork();
  const GmmModel gmm = FitGmm(z, k_, fork);
  return gmm.Responsibilities(z);
}

Matrix RGaeTrainer::XiScores() {
  const Matrix z = model_->Embed();
  const std::vector<int> hard = HardAssign(CurrentSoftAssignments());
  const Matrix means = ClusterMeans(z, hard, k_);
  return StudentTAssignments(z, means);
}

std::vector<int> RGaeTrainer::SelectOmega() {
  const Matrix scores = XiScores();
  const XiResult xi = OperatorXi(scores, options_.xi);
  if (!xi.omega.empty()) return xi.omega;
  const int n = static_cast<int>(xi.lambda1.size());
  const int want = std::max(k_, n / 20);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::partial_sort(order.begin(), order.begin() + want, order.end(),
                    [&](int a, int b) {
                      return xi.lambda1[a] > xi.lambda1[b];
                    });
  std::vector<int> omega(order.begin(), order.begin() + want);
  std::sort(omega.begin(), omega.end());
  return omega;
}

ClusteringScores RGaeTrainer::EvaluateNow(std::vector<int>* assignments) {
  const Matrix p = CurrentSoftAssignments();
  std::vector<int> hard = HardAssign(p);
  ClusteringScores scores;
  if (model_->graph().has_labels()) {
    scores = Evaluate(hard, model_->graph().labels());
  }
  if (assignments != nullptr) *assignments = std::move(hard);
  return scores;
}

void RGaeTrainer::ApplyUpsilon(const std::vector<int>& omega,
                               UpsilonStats* stats) {
  const Matrix z = model_->Embed();
  // Use the Ξ scores so Ω membership and Υ's cluster ids agree.
  const Matrix p = XiScores();
  self_graph_ = OperatorUpsilon(model_->graph(), z, p, omega,
                                options_.upsilon, stats);
  RefreshReconTarget();
}

CsrMatrix RGaeTrainer::SupervisedOrientedGraph() {
  // Υ(A, Q', 𝒱): the clustering-oriented graph built from the supervisory
  // signal over all nodes (used by the Λ_FD diagnostic, Eq. 7).
  assert(model_->graph().has_labels());
  const Matrix z = model_->Embed();
  const Matrix q = OneHot(model_->graph().labels(), k_);
  UpsilonOptions full;  // add + drop, regardless of ablations.
  const AttributedGraph oriented =
      OperatorUpsilon(model_->graph(), z, q, all_nodes_, full);
  return oriented.Adjacency();
}

int RGaeTrainer::CheckpointEvery() const {
  return options_.resilience.checkpoint_every > 0
             ? options_.resilience.checkpoint_every
             : options_.m2;
}

void RGaeTrainer::CaptureTrainerState(int epoch, bool pretrain,
                                      const std::vector<int>& omega,
                                      TrainerCheckpoint* ckpt) {
  ckpt->model = CaptureModel(model_);
  ckpt->self_graph = self_graph_;
  ckpt->omega = omega;
  ckpt->epoch = epoch;
  ckpt->pretrain = pretrain;
}

bool RGaeTrainer::RecoverOrFail(const HealthVerdict& verdict, bool pretrain,
                                int epoch, const TrainerCheckpoint& ckpt,
                                NumericalGuard* guard,
                                std::vector<int>* omega) {
  HealthEvent event;
  event.epoch = epoch;
  event.pretrain = pretrain;
  event.status = verdict.status;

  const bool recoverable =
      !ckpt.empty() && rollbacks_ < options_.resilience.max_rollbacks;
  if (recoverable) {
    std::string restore_error;
    if (RestoreModel(ckpt.model, model_, &restore_error)) {
      ++rollbacks_;
      self_graph_ = ckpt.self_graph;
      RefreshReconTarget();
      if (omega != nullptr) *omega = ckpt.omega;
      // Bounded geometric backoff: even a deterministic divergence replays
      // with a strictly smaller step each retry. Anchored on the trainer's
      // initial rate, not the checkpoint's captured one — a checkpoint
      // taken after an LR corruption (e.g. an injected spike) would
      // otherwise bake the corrupted rate into every retry.
      const double lr = initial_lr_ *
                        std::pow(options_.resilience.lr_backoff, rollbacks_);
      if (model_->optimizer() != nullptr) {
        model_->optimizer()->set_learning_rate(lr);
      }
      guard->Reset();
      event.action = verdict.detail + "; rollback to epoch " +
                     std::to_string(ckpt.epoch) + ", lr " + std::to_string(lr);
      RGAE_COUNT("trainer.rollbacks");
      RGAE_LOG(kWarn)
          .Event("trainer.rollback")
          .Field("trial", options_.trial_id)
          .Field("phase", pretrain ? "pretrain" : "cluster")
          .Field("epoch", epoch)
          .Field("status", HealthStatusName(verdict.status))
          .Field("target_epoch", ckpt.epoch)
          .Field("lr", lr)
          .Field("rollbacks", rollbacks_)
          .Msg(verdict.detail);
      health_log_.push_back(std::move(event));
      return true;
    }
    event.action = verdict.detail + "; restore failed: " + restore_error;
  } else {
    event.action = verdict.detail + "; rollback budget exhausted";
  }

  // Unrecoverable: report the trial failed, but leave the model on its last
  // good state so downstream evaluation stays finite.
  failed_ = true;
  failure_reason_ = std::string(pretrain ? "pretrain" : "cluster") +
                    " epoch " + std::to_string(epoch) + ": " + verdict.detail +
                    " (" + std::to_string(rollbacks_) + " rollbacks)";
  if (!ckpt.empty()) RestoreModel(ckpt.model, model_);
  event.action += "; trial failed";
  RGAE_COUNT("trainer.trials_failed");
  RGAE_LOG(kError)
      .Event("trainer.failed")
      .Field("trial", options_.trial_id)
      .Field("phase", pretrain ? "pretrain" : "cluster")
      .Field("epoch", epoch)
      .Field("status", HealthStatusName(verdict.status))
      .Field("rollbacks", rollbacks_)
      .Msg(verdict.detail);
  health_log_.push_back(std::move(event));
  return false;
}

bool RGaeTrainer::StopRequested(bool pretrain, int epoch) {
  if (!GlobalStopRequested()) return false;
  timed_out_ = true;
  RGAE_COUNT("trainer.stops");
  RGAE_LOG(kWarn)
      .Event("trainer.stop")
      .Field("trial", options_.trial_id)
      .Field("phase", pretrain ? "pretrain" : "cluster")
      .Field("epoch", epoch)
      .Msg("stop requested; stopping at epoch boundary");
  return true;
}

bool RGaeTrainer::Pretrain() {
  RGAE_SPAN("train.pretrain");
  TrainContext ctx;
  ctx.recon = recon_;
  ctx.include_clustering = false;
  const bool first_group = !model_->has_clustering_head();
  const bool resilient = options_.resilience.enabled;
  NumericalGuard guard(options_.resilience.guard);
  TrainerCheckpoint ckpt;

  int epoch = 0;
  while (epoch < options_.pretrain_epochs) {
    if (timed_out_ || StopRequested(/*pretrain=*/true, epoch)) break;
    RGAE_SPAN("epoch.pretrain");
    RGAE_COUNT("trainer.epochs.pretrain");
    // First-group R-models: gradually transform the reconstruction target
    // during pretraining (Section 5.1 protocol).
    if (first_group && options_.use_operators &&
        epoch >= options_.first_group_transform_start &&
        (epoch - options_.first_group_transform_start) % options_.m2 == 0) {
      ApplyUpsilon(SelectOmega(), nullptr);
      ctx.recon = recon_;
    }
    if (resilient && epoch % CheckpointEvery() == 0) {
      CaptureTrainerState(epoch, /*pretrain=*/true, {}, &ckpt);
    }
    if (options_.fault_injector != nullptr) {
      options_.fault_injector->Apply(/*pretrain=*/true, epoch, model_);
    }
    const double loss = model_->TrainStep(ctx);
    if (resilient) {
      const HealthVerdict verdict = guard.CheckStep(loss, model_);
      if (!verdict.ok()) {
        if (!RecoverOrFail(verdict, /*pretrain=*/true, epoch, ckpt, &guard,
                           nullptr)) {
          return false;
        }
        pretrain_health_.resize(ckpt.epoch);
        ctx.recon = recon_;
        epoch = ckpt.epoch;
        continue;
      }
      pretrain_health_.push_back(verdict.status);
    }
    ++epoch;
  }
  return true;
}

TrainResult RGaeTrainer::TrainClustering() {
  RGAE_SPAN("train.cluster");
  TrainResult result;
  const auto begin = std::chrono::steady_clock::now();  // Raw timing: phase clock.
  const int n = model_->graph().num_nodes();

  if (!model_->has_clustering_head() || failed_) {
    // First-group models perform clustering separately from embedding
    // learning: evaluate the (possibly Υ-transformed) pretrained embedding.
    // A run whose pretraining already failed is evaluated at its last good
    // checkpoint and reported as failed instead of trained further.
    result.scores = EvaluateNow(&result.assignments);
    result.cluster_seconds = Seconds(begin);
    result.failed = failed_;
    result.failure_reason = failure_reason_;
    result.timed_out = timed_out_;
    result.rollbacks = rollbacks_;
    result.health_log = health_log_;
    result.pretrain_health = pretrain_health_;
    return result;
  }

  {
    Rng fork = rng_.Fork();
    model_->InitClusteringHead(k_, fork);
  }

  // Table 7 protection mode: one-shot transformation over the whole 𝒱.
  if (options_.use_operators && options_.fd_protection) {
    ApplyUpsilon(all_nodes_, nullptr);
  }

  std::vector<int> omega;  // Empty = clustering loss over all nodes.
  TrainContext ctx;
  ctx.include_clustering = true;
  ctx.gamma = options_.gamma;

  const bool resilient = options_.resilience.enabled;
  NumericalGuard guard(options_.resilience.guard);
  TrainerCheckpoint ckpt;

  int epoch = 0;
  while (epoch < options_.max_cluster_epochs) {
    if (timed_out_ || StopRequested(/*pretrain=*/false, epoch)) break;
    RGAE_SPAN("epoch.cluster");
    RGAE_COUNT("trainer.epochs.cluster");
    const bool xi_active =
        options_.use_operators && epoch >= options_.xi_delay_epochs;
    // Refresh Ω every M₁ epochs.
    if (xi_active &&
        (epoch == options_.xi_delay_epochs ||
         (epoch - options_.xi_delay_epochs) % options_.m1 == 0)) {
      omega = SelectOmega();
    }
    // Refresh A^self_clus every M₂ epochs (gradual correction mode only).
    EpochRecord record;
    record.epoch = epoch;
    if (options_.use_operators && !options_.fd_protection &&
        epoch % options_.m2 == 0) {
      ApplyUpsilon(xi_active ? omega : all_nodes_, &record.upsilon_stats);
      record.upsilon_ran = true;
    }
    // Snapshot before the step (and before any injected fault) so a
    // rollback lands on a state the guard has vetted.
    if (resilient && epoch % CheckpointEvery() == 0) {
      CaptureTrainerState(epoch, /*pretrain=*/false, omega, &ckpt);
    }
    if (options_.fault_injector != nullptr) {
      options_.fault_injector->Apply(/*pretrain=*/false, epoch, model_);
    }
    ctx.recon = recon_;
    ctx.omega = xi_active ? omega : std::vector<int>();
    record.loss = model_->TrainStep(ctx);

    if (resilient) {
      HealthVerdict verdict = guard.CheckStep(record.loss, model_);
      if (verdict.ok()) {
        verdict = guard.CheckSoftAssignments(model_->SoftAssignments());
      }
      if (!verdict.ok()) {
        if (!RecoverOrFail(verdict, /*pretrain=*/false, epoch, ckpt, &guard,
                           &omega)) {
          break;
        }
        TruncateTrace(&result.trace, ckpt.epoch);
        result.cluster_epochs_run = ckpt.epoch;
        epoch = ckpt.epoch;
        continue;
      }
      record.health = verdict.status;
    }

    if ((options_.track_fr_fd || options_.track_dynamics ||
         options_.track_scores) &&
        epoch % options_.track_every == 0) {
      TrackEpoch(&record, xi_active ? omega : all_nodes_);
    }
    result.trace.push_back(std::move(record));
    result.cluster_epochs_run = epoch + 1;

    // Convergence: |Ω| ≥ fraction · |𝒱| (R-models only).
    if (options_.use_operators && xi_active &&
        static_cast<double>(omega.size()) >=
            options_.convergence_fraction * n) {
      break;
    }
    ++epoch;
  }

  result.scores = EvaluateNow(&result.assignments);
  result.cluster_seconds = Seconds(begin);
  result.failed = failed_;
  result.failure_reason = failure_reason_;
  result.timed_out = timed_out_;
  result.rollbacks = rollbacks_;
  result.health_log = health_log_;
  result.pretrain_health = pretrain_health_;
  return result;
}

void RGaeTrainer::TrackEpoch(EpochRecord* record,
                             const std::vector<int>& omega) {
  const AttributedGraph& graph = model_->graph();
  const Matrix p = CurrentSoftAssignments();
  const std::vector<int> hard = HardAssign(p);

  if (options_.track_scores && graph.has_labels()) {
    const ClusteringScores s = Evaluate(hard, graph.labels());
    record->acc = s.acc;
    record->nmi = s.nmi;
    record->ari = s.ari;
    record->separability =
        SeparabilityRatio(model_->Embed(), graph.labels(), k_);
  }

  if (options_.track_dynamics) {
    record->omega_size = static_cast<int>(omega.size());
    if (graph.has_labels() && !omega.empty()) {
      const std::vector<int> aligned =
          AlignLabels(hard, graph.labels(), k_);
      int omega_correct = 0;
      std::vector<char> in_omega(graph.num_nodes(), 0);
      for (int i : omega) in_omega[i] = 1;
      int rest_correct = 0;
      const int rest = graph.num_nodes() - static_cast<int>(omega.size());
      for (int i = 0; i < graph.num_nodes(); ++i) {
        const bool ok = aligned[i] == graph.labels()[i];
        if (in_omega[i]) {
          omega_correct += ok ? 1 : 0;
        } else {
          rest_correct += ok ? 1 : 0;
        }
      }
      record->omega_acc =
          static_cast<double>(omega_correct) / omega.size();
      record->rest_acc =
          rest > 0 ? static_cast<double>(rest_correct) / rest : 0.0;
    }
    record->self_links = self_graph_.num_edges();
    if (graph.has_labels()) {
      int true_links = 0;
      for (const auto& [a, b] : self_graph_.edges()) {
        if (graph.labels()[a] == graph.labels()[b]) ++true_links;
      }
      record->self_true_links = true_links;
      record->self_false_links = self_graph_.num_edges() - true_links;
    }
  }

  if (options_.track_fr_fd && graph.has_labels()) {
    // Λ_FR (Eq. 4): pseudo-supervised vs supervised clustering gradients.
    const std::vector<double> grad_sup =
        model_->ClusteringGradSnapshot(graph.labels(), k_, {});
    const std::vector<double> grad_plain =
        model_->ClusteringGradSnapshot(hard, k_, {});
    // For the R metric, use the actual Ω when the operators are on, or the
    // hypothetical Ξ selection otherwise (the gold curves of Figs. 5-6).
    std::vector<int> r_omega = omega;
    if (!options_.use_operators) {
      r_omega = OperatorXi(XiScores(), options_.xi).omega;
    }
    const std::vector<double> grad_r =
        model_->ClusteringGradSnapshot(hard, k_, r_omega);
    record->lambda_fr_plain = FlatCosine(grad_plain, grad_sup);
    record->lambda_fr_r = FlatCosine(grad_r, grad_sup);

    // Λ_FD (Eq. 7): self-supervised vs supervised reconstruction gradients.
    CsrMatrix oriented = SupervisedOrientedGraph();
    const ReconTarget sup_target = MakeReconTarget(&oriented);
    const std::vector<double> gfd_sup = model_->ReconGradSnapshot(sup_target);
    const CsrMatrix plain_adj = graph.Adjacency();
    const ReconTarget plain_target = MakeReconTarget(&plain_adj);
    const std::vector<double> gfd_plain =
        model_->ReconGradSnapshot(plain_target);
    // R-target: the current transformed graph if operators are on,
    // otherwise a hypothetical one-step Υ(A, P(Ξ(Z)), Ω).
    std::vector<double> gfd_r;
    if (options_.use_operators) {
      gfd_r = model_->ReconGradSnapshot(recon_);
    } else {
      const Matrix xi_scores = XiScores();
      const XiResult xi = OperatorXi(xi_scores, options_.xi);
      const AttributedGraph hypo = OperatorUpsilon(
          graph, model_->Embed(), xi_scores, xi.omega, options_.upsilon);
      CsrMatrix hypo_adj = hypo.Adjacency();
      const ReconTarget hypo_target = MakeReconTarget(&hypo_adj);
      gfd_r = model_->ReconGradSnapshot(hypo_target);
    }
    record->lambda_fd_plain = FlatCosine(gfd_plain, gfd_sup);
    record->lambda_fd_r = FlatCosine(gfd_r, gfd_sup);
  }
}

TrainResult RGaeTrainer::Run() {
  const auto begin = std::chrono::steady_clock::now();  // Raw timing: phase clock.
  Pretrain();  // A failed pretrain short-circuits TrainClustering.
  const double pretrain_seconds = Seconds(begin);
  TrainResult result = TrainClustering();
  result.pretrain_seconds = pretrain_seconds;
  return result;
}

}  // namespace rgae
