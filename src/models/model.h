#ifndef RGAE_MODELS_MODEL_H_
#define RGAE_MODELS_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/serve/snapshot.h"
#include "src/tensor/autograd.h"
#include "src/tensor/optimizer.h"
#include "src/tensor/random.h"

namespace rgae {

/// Shared hyper-parameters of the GAE model zoo. Defaults follow the
/// paper's Appendix B/C (two GCN layers, 32 -> 16, Adam at 0.01).
struct ModelOptions {
  int hidden_dim = 32;
  int latent_dim = 16;
  double learning_rate = 0.01;
  /// Adversarial regularization weight (ARGAE / ARVGAE only).
  double adversarial_weight = 0.1;
  /// Hidden width of the adversarial discriminator.
  int discriminator_hidden = 64;
  /// Discriminator learning rate (the reference ARGA uses 0.001).
  double discriminator_learning_rate = 0.001;
  /// DEC target-distribution refresh period, in steps (DGAE only).
  int target_refresh = 20;
  uint64_t seed = 1;
};

/// A reconstruction target: the self-supervision graph A^self plus the
/// Kipf-style re-weighting derived from its density. Operator Υ swaps the
/// graph; `MakeReconTarget` recomputes the weights.
struct ReconTarget {
  const CsrMatrix* graph = nullptr;
  double pos_weight = 1.0;
  double norm = 1.0;
};

/// Computes pos_weight = (N² - E) / E and norm = N² / (2 (N² - E)) for the
/// given 0/1 graph (E counts stored non-zeros).
ReconTarget MakeReconTarget(const CsrMatrix* graph);

/// Per-step training context assembled by the trainers. When
/// `include_clustering` is false the step optimizes reconstruction only
/// (pretraining / first-group models). `omega` restricts the clustering
/// loss to the reliable set Ω selected by operator Ξ (empty = all nodes).
struct TrainContext {
  ReconTarget recon;
  bool include_clustering = false;
  /// Weight γ of the reconstruction term in L_clus + γ L_bce (Eq. 5).
  double gamma = 0.1;
  std::vector<int> omega;
};

/// Abstract base of the GAE model zoo (GAE, VGAE, ARGAE, ARVGAE, DGAE,
/// GMM-VGAE). A model owns its parameters and optimizer and knows how to
/// run one training step given a `TrainContext`; everything about operators
/// Ξ/Υ, scheduling and evaluation lives in the trainers (`core/`).
class GaeModel {
 public:
  GaeModel(const AttributedGraph& graph, const ModelOptions& options);
  virtual ~GaeModel() = default;

  GaeModel(const GaeModel&) = delete;
  GaeModel& operator=(const GaeModel&) = delete;

  /// Model name as used in the paper's tables ("GAE", "GMM-VGAE", ...).
  virtual std::string name() const = 0;

  /// Runs one optimization step and returns the total loss value. Template
  /// method: `PreStep` hook → `BuildLossOnTape` → backward → Adam step →
  /// `PostStep` hook. Subclasses customize the hooks and the loss, not the
  /// step sequence.
  double TrainStep(const TrainContext& ctx);

  /// Records this model's full training loss for `ctx` on `tape` and
  /// returns the scalar loss node, without touching optimizer or model
  /// state. This is the exact graph `TrainStep` differentiates, exposed so
  /// the analysis tools (`LintTape`, `GradCheck`) can audit it. Stochastic
  /// models draw their sampling noise from `rng`; passing copies of a
  /// fixed-seed `Rng` replays a bit-identical forward.
  virtual Var BuildLossOnTape(Tape* tape, const TrainContext& ctx,
                              Rng* rng) = 0;

  /// All trainable parameters (encoder + any clustering/adversarial heads).
  virtual std::vector<Parameter*> Params() = 0;

  /// Deterministic embedding Z (the mean for variational models).
  Matrix Embed() const;

  /// Freezes the trained encoder, the clustering head (when initialized),
  /// and the serving graph into a self-contained inference artifact
  /// (serve/snapshot.h). The snapshot's tape-free forward reproduces
  /// `Embed()` bit for bit; second-group models additionally freeze their
  /// head so `SoftAssignRows` reproduces `SoftAssignments()`.
  virtual serve::ModelSnapshot ExportSnapshot() const = 0;

  /// True for second-group models carrying a trainable clustering head.
  virtual bool has_clustering_head() const { return false; }
  /// True once `InitClusteringHead` has run; `SoftAssignments` reads the
  /// head's parameters and is only usable from that point.
  virtual bool clustering_head_ready() const { return false; }
  /// Initializes the clustering head from the current embedding (k-means /
  /// GMM fit). Only valid when `has_clustering_head()`.
  virtual void InitClusteringHead(int num_clusters, Rng& rng);
  /// Soft assignment matrix P (N x K): the clustering head applied to the
  /// embedding `z` (N x d), e.g. one `Embed()` shared by several readers.
  /// Only valid when `has_clustering_head()`.
  virtual Matrix SoftAssignments(const Matrix& z) const;
  /// `SoftAssignments(Embed())`.
  Matrix SoftAssignments() const { return SoftAssignments(Embed()); }

  /// Gradient snapshot of the embedded clustering loss L_C(Z, A^clus) built
  /// from the given hard assignments, restricted to `omega` (empty = all
  /// nodes), flattened over all parameters. Used by the Λ_FR diagnostic.
  /// Leaves `Parameter::grad` untouched.
  std::vector<double> ClusteringGradSnapshot(const std::vector<int>& assign,
                                             int num_clusters,
                                             const std::vector<int>& omega);

  /// Gradient snapshot of the reconstruction loss against `target`,
  /// flattened over all parameters. Used by the Λ_FD diagnostic.
  std::vector<double> ReconGradSnapshot(const ReconTarget& target);

  /// Forward-only evaluation of the reconstruction loss of the
  /// deterministic embedding against `target` (no gradients, no sampling).
  double EvalReconLoss(const ReconTarget& target) const;

  /// Model-specific derived state that must survive a checkpoint round trip
  /// but is not a trainable parameter (e.g. DEC target distributions and
  /// refresh counters). The default is stateless. Encoders pack scalar
  /// counters into small matrices; the contents are opaque to callers and
  /// only round-trip through `RestoreAuxState`.
  virtual std::vector<Matrix> SaveAuxState() const { return {}; }
  /// Restores state captured by `SaveAuxState`; returns false when the
  /// blob does not match what this model expects.
  virtual bool RestoreAuxState(const std::vector<Matrix>& aux) {
    return aux.empty();
  }

  /// Copies of all parameter values, for sharing pretrained weights between
  /// a model 𝒟 and its R-𝒟 counterpart.
  std::vector<Matrix> SaveWeights();
  /// Restores weights previously captured by `SaveWeights` and resets the
  /// optimizer state.
  void LoadWeights(const std::vector<Matrix>& weights);

  const AttributedGraph& graph() const { return graph_; }
  const CsrMatrix& adjacency() const { return adjacency_; }
  const CsrMatrix& filter() const { return filter_; }
  const ModelOptions& options() const { return options_; }
  Adam* optimizer() { return adam_.get(); }

 protected:
  /// Hooks around the gradient step of `TrainStep`. `PreStep` runs before
  /// the forward pass (discriminator updates, DEC target refreshes);
  /// `PostStep` after the Adam step (clearing gradients of leaves excluded
  /// from this model's optimizer). Defaults are no-ops.
  virtual void PreStep(const TrainContext& ctx);
  virtual void PostStep(const TrainContext& ctx);

  /// Builds the deterministic embedding on a tape (mean head for
  /// variational models).
  virtual Var EncodeOnTape(Tape* tape) const = 0;

  /// Shared `ExportSnapshot` scaffolding: name, encoder weights, filter and
  /// features. Subclasses add their head parameters on top.
  serve::ModelSnapshot SnapshotBase(const Matrix& w0, const Matrix& w1) const;

  /// Creates the Adam optimizer once all parameters exist; subclasses call
  /// this at the end of their constructors.
  void InitOptimizer();

  const AttributedGraph& graph_;
  ModelOptions options_;
  CsrMatrix features_;   // X as CSR: the encoder's X·W₀ is an SpMM.
  CsrMatrix adjacency_;  // Raw symmetric A (default A^self).
  CsrMatrix filter_;     // Ã = D^-1/2 (A+I) D^-1/2.
  Rng rng_;
  std::unique_ptr<Adam> adam_;
};

}  // namespace rgae

#endif  // RGAE_MODELS_MODEL_H_
