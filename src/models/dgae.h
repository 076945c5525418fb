#ifndef RGAE_MODELS_DGAE_H_
#define RGAE_MODELS_DGAE_H_

#include <string>
#include <vector>

#include "src/models/gae.h"

namespace rgae {

/// DGAE (Discriminative Graph Auto-Encoder) — the second-group model the
/// paper introduces in Appendix B: a plain GAE whose clustering phase
/// minimizes KL(Q ‖ P) + γ·L_bce, where P is the Student-t soft assignment
/// of the embeddings against trainable centers (Eq. 20) and Q its sharpened
/// target distribution (Eq. 19), refreshed every `target_refresh` steps.
///
/// The gradient of KL(Q ‖ P) w.r.t. the embeddings used by the tape is the
/// standard DEC form: with u_ij = (1 + ||z_i - μ_j||²)^-1 and row-normalized
/// p, ∂L/∂||z_i - μ_j||² = u_ij (q_ij - p_ij), hence
/// ∂L/∂z_i = 2 Σ_j u_ij (q_ij - p_ij)(z_i - μ_j).
class Dgae : public Gae {
 public:
  Dgae(const AttributedGraph& graph, const ModelOptions& options);

  std::string name() const override { return "DGAE"; }
  Var BuildLossOnTape(Tape* tape, const TrainContext& ctx,
                      Rng* rng) override;
  std::vector<Parameter*> Params() override;

  bool has_clustering_head() const override { return true; }
  bool clustering_head_ready() const override { return head_ready_; }
  void InitClusteringHead(int num_clusters, Rng& rng) override;
  using GaeModel::SoftAssignments;
  Matrix SoftAssignments(const Matrix& z) const override;
  /// Adds the trained DEC centers as a Student-t head (once initialized).
  serve::ModelSnapshot ExportSnapshot() const override;

  std::vector<Matrix> SaveAuxState() const override;
  bool RestoreAuxState(const std::vector<Matrix>& aux) override;

 protected:
  /// Refreshes the DEC target distribution on schedule during the
  /// clustering phase; no-op while pretraining.
  void PreStep(const TrainContext& ctx) override;

 private:
  void RefreshTarget();

  Parameter centers_{Matrix(1, 1)};  // K x d once initialized.
  Matrix target_q_;                  // N x K DEC target distribution.
  int steps_since_refresh_ = 0;
  bool head_ready_ = false;
};

}  // namespace rgae

#endif  // RGAE_MODELS_DGAE_H_
