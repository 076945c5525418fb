#ifndef RGAE_MODELS_GMM_VGAE_H_
#define RGAE_MODELS_GMM_VGAE_H_

#include <string>
#include <vector>

#include "src/clustering/assignments.h"
#include "src/clustering/gmm.h"
#include "src/models/vgae.h"

namespace rgae {

/// GMM-VGAE (Hui et al., 2020): a VGAE whose clustering phase couples the
/// embeddings to a diagonal-covariance Gaussian mixture. The encoder is
/// trained by gradient on a DEC-style KL(Q ‖ R) between the mixture's
/// posterior responsibilities R of the mean embeddings and their sharpened
/// target distribution Q (plus γ-weighted reconstruction and prior KL);
/// the mixture parameters themselves are tracked with warm-started EM
/// refits every `target_refresh` steps. This sidesteps the covariance
/// collapse of naive joint gradient NLL training (see DESIGN.md §2).
/// Second group.
class GmmVgae : public Vgae {
 public:
  GmmVgae(const AttributedGraph& graph, const ModelOptions& options);

  std::string name() const override { return "GMM-VGAE"; }
  Var BuildLossOnTape(Tape* tape, const TrainContext& ctx,
                      Rng* rng) override;
  std::vector<Parameter*> Params() override;

  bool has_clustering_head() const override { return true; }
  bool clustering_head_ready() const override { return head_ready_; }
  void InitClusteringHead(int num_clusters, Rng& rng) override;
  using GaeModel::SoftAssignments;
  Matrix SoftAssignments(const Matrix& z) const override;
  /// Adds the tracked mixture (post-transform: variances = exp(logvars),
  /// softmaxed weights) as a GMM head (once initialized).
  serve::ModelSnapshot ExportSnapshot() const override;

  std::vector<Matrix> SaveAuxState() const override;
  bool RestoreAuxState(const std::vector<Matrix>& aux) override;

 protected:
  /// Runs the warm-started EM refit on schedule during clustering.
  void PreStep(const TrainContext& ctx) override;
  /// Discards mixture gradients after the encoder step (EM owns them).
  void PostStep(const TrainContext& ctx) override;

 private:
  // Converts the parameter blocks to/from a GmmModel.
  GmmModel CurrentMixture() const;
  void StoreMixture(const GmmModel& gmm);
  void RefreshMixture();

  Parameter means_{Matrix(1, 1)};
  Parameter logvars_{Matrix(1, 1)};
  Parameter pi_logits_{Matrix(1, 1)};
  Matrix target_q_;  // DEC target of the responsibilities (N x K).
  int steps_since_refresh_ = 0;
  bool head_ready_ = false;
};

}  // namespace rgae

#endif  // RGAE_MODELS_GMM_VGAE_H_
