#include "src/models/gmm_vgae.h"

#include <cassert>
#include <cmath>

namespace rgae {

GmmVgae::GmmVgae(const AttributedGraph& graph, const ModelOptions& options)
    : Vgae(graph, options) {}

void GmmVgae::StoreMixture(const GmmModel& gmm) {
  const int k = gmm.num_components();
  const int d = gmm.dim();
  means_ = Parameter(gmm.means);
  Matrix logvars(k, d);
  for (int i = 0; i < k; ++i) {
    for (int c = 0; c < d; ++c) {
      logvars(i, c) = std::log(std::max(gmm.variances(i, c), 1e-10));
    }
  }
  logvars_ = Parameter(std::move(logvars));
  Matrix logits(1, k);
  for (int i = 0; i < k; ++i) {
    logits(0, i) = std::log(std::max(gmm.weights[i], 1e-10));
  }
  pi_logits_ = Parameter(std::move(logits));
}

GmmModel GmmVgae::CurrentMixture() const {
  assert(head_ready_);
  GmmModel gmm;
  gmm.means = means_.value;
  const int k = means_.value.rows();
  const int d = means_.value.cols();
  gmm.variances = Matrix(k, d);
  for (int i = 0; i < k; ++i) {
    for (int c = 0; c < d; ++c) {
      gmm.variances(i, c) = std::exp(logvars_.value(i, c));
    }
  }
  double max_logit = pi_logits_.value(0, 0);
  for (int i = 1; i < k; ++i) {
    max_logit = std::max(max_logit, pi_logits_.value(0, i));
  }
  gmm.weights.assign(k, 0.0);
  double sum = 0.0;
  for (int i = 0; i < k; ++i) {
    gmm.weights[i] = std::exp(pi_logits_.value(0, i) - max_logit);
    sum += gmm.weights[i];
  }
  for (int i = 0; i < k; ++i) gmm.weights[i] /= sum;
  return gmm;
}

namespace {

// Variance floor for the clustering mixture. The encoder minimizes the
// mixture NLL, which it can drive to -inf by collapsing points onto the
// component means while EM shrinks the variances; a generous floor keeps
// the density (and thus the NLL gradient) bounded.
GmmOptions ClusteringMixtureOptions() {
  GmmOptions o;
  o.min_variance = 1e-2;
  return o;
}

}  // namespace

void GmmVgae::InitClusteringHead(int num_clusters, Rng& rng) {
  const Matrix z = Embed();
  StoreMixture(FitGmm(z, num_clusters, rng, ClusteringMixtureOptions()));
  head_ready_ = true;
  target_q_ = DecTargetDistribution(CurrentMixture().Responsibilities(z));
  steps_since_refresh_ = 0;
  // The optimizer intentionally keeps covering only the encoder: mixture
  // parameters are tracked by EM (RefreshMixture), not by gradient — joint
  // gradient training of a GMM NLL degenerates into a single fat component.
}

void GmmVgae::RefreshMixture() {
  GmmModel gmm = CurrentMixture();
  const Matrix z = Embed();
  Matrix resp;  // gmm.Responsibilities(z), from EM's last E-step.
  EmIterations(&gmm, z, /*iterations=*/5, ClusteringMixtureOptions(), &resp);
  StoreMixture(gmm);
  target_q_ = DecTargetDistribution(resp);
  steps_since_refresh_ = 0;
}

Matrix GmmVgae::SoftAssignments(const Matrix& z) const {
  return CurrentMixture().Responsibilities(z);
}

serve::ModelSnapshot GmmVgae::ExportSnapshot() const {
  serve::ModelSnapshot snapshot = Vgae::ExportSnapshot();
  if (head_ready_) {
    // Freeze the post-transform mixture (exp'd variances, softmaxed
    // weights) so the serve-side Responsibilities call is bit-identical to
    // SoftAssignments().
    const GmmModel gmm = CurrentMixture();
    snapshot.head = serve::HeadKind::kGmm;
    snapshot.means = gmm.means;
    snapshot.variances = gmm.variances;
    snapshot.mix_weights = Matrix(1, gmm.num_components());
    for (int k = 0; k < gmm.num_components(); ++k) {
      snapshot.mix_weights(0, k) = gmm.weights[static_cast<size_t>(k)];
    }
  }
  return snapshot;
}

void GmmVgae::PreStep(const TrainContext& ctx) {
  if (!ctx.include_clustering) return;
  assert(head_ready_ && "InitClusteringHead must be called first");
  if (steps_since_refresh_ >= options_.target_refresh) RefreshMixture();
  ++steps_since_refresh_;
}

void GmmVgae::PostStep(const TrainContext& ctx) {
  if (!ctx.include_clustering) return;
  // Discard mixture gradients (EM owns those parameters; adam_ stepped
  // encoder parameters only — see InitClusteringHead).
  means_.ZeroGrad();
  logvars_.ZeroGrad();
  pi_logits_.ZeroGrad();
}

Var GmmVgae::BuildLossOnTape(Tape* tape, const TrainContext& ctx, Rng* rng) {
  if (!ctx.include_clustering) return Vgae::BuildLossOnTape(tape, ctx, rng);
  const Heads heads = SampleOnTape(tape, rng);
  const Var means = tape->Leaf(&means_);
  const Var logvars = tape->Leaf(&logvars_);
  const Var logits = tape->Leaf(&pi_logits_);
  const Var clus = tape->GmmKlLoss(heads.mu, means, logvars, logits,
                                   &target_q_, ctx.omega);
  const Var recon = tape->InnerProductBceLoss(
      heads.z, ctx.recon.graph, ctx.recon.pos_weight, ctx.recon.norm);
  const Var kl = tape->GaussianKlLoss(heads.mu, heads.logvar);
  return tape->AddScalars(
      clus, tape->Scale(tape->AddScalars(recon, kl), ctx.gamma));
}

std::vector<Matrix> GmmVgae::SaveAuxState() const {
  if (!head_ready_) return {};
  Matrix counters(1, 1);
  counters(0, 0) = steps_since_refresh_;
  return {target_q_, counters};
}

bool GmmVgae::RestoreAuxState(const std::vector<Matrix>& aux) {
  if (!head_ready_) return aux.empty();
  if (aux.size() != 2 || aux[1].rows() != 1 || aux[1].cols() != 1) {
    return false;
  }
  target_q_ = aux[0];
  steps_since_refresh_ = static_cast<int>(aux[1](0, 0));
  return true;
}

std::vector<Parameter*> GmmVgae::Params() {
  std::vector<Parameter*> p = Vgae::Params();
  if (head_ready_) {
    p.push_back(&means_);
    p.push_back(&logvars_);
    p.push_back(&pi_logits_);
  }
  return p;
}

}  // namespace rgae
