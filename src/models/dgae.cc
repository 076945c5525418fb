#include "src/models/dgae.h"

#include <cassert>

#include "src/clustering/assignments.h"
#include "src/clustering/kmeans.h"

namespace rgae {

Dgae::Dgae(const AttributedGraph& graph, const ModelOptions& options)
    : Gae(graph, options) {}

void Dgae::InitClusteringHead(int num_clusters, Rng& rng) {
  const Matrix z = Embed();
  const KMeansResult km = KMeans(z, num_clusters, rng);
  centers_ = Parameter(km.centers);
  head_ready_ = true;
  RefreshTarget();
  // Rebuild the optimizer so it covers the new centers parameter.
  InitOptimizer();
}

void Dgae::RefreshTarget() {
  assert(head_ready_);
  const Matrix p = StudentTAssignments(Embed(), centers_.value);
  target_q_ = DecTargetDistribution(p);
  steps_since_refresh_ = 0;
}

Matrix Dgae::SoftAssignments(const Matrix& z) const {
  assert(head_ready_);
  return StudentTAssignments(z, centers_.value);
}

serve::ModelSnapshot Dgae::ExportSnapshot() const {
  serve::ModelSnapshot snapshot = Gae::ExportSnapshot();
  if (head_ready_) {
    snapshot.head = serve::HeadKind::kStudentT;
    snapshot.centers = centers_.value;
  }
  return snapshot;
}

void Dgae::PreStep(const TrainContext& ctx) {
  if (!ctx.include_clustering) return;
  assert(head_ready_ && "InitClusteringHead must be called first");
  if (steps_since_refresh_ >= options_.target_refresh) RefreshTarget();
  ++steps_since_refresh_;
}

Var Dgae::BuildLossOnTape(Tape* tape, const TrainContext& ctx, Rng* rng) {
  if (!ctx.include_clustering) return Gae::BuildLossOnTape(tape, ctx, rng);
  const Var z = encoder_.Encode(tape, &filter_, &features_);
  const Var centers = tape->Leaf(&centers_);
  const Var clus = tape->DecKlLoss(z, centers, &target_q_, ctx.omega);
  const Var recon = tape->InnerProductBceLoss(
      z, ctx.recon.graph, ctx.recon.pos_weight, ctx.recon.norm);
  return tape->AddScalars(clus, tape->Scale(recon, ctx.gamma));
}

std::vector<Matrix> Dgae::SaveAuxState() const {
  if (!head_ready_) return {};
  Matrix counters(1, 1);
  counters(0, 0) = steps_since_refresh_;
  return {target_q_, counters};
}

bool Dgae::RestoreAuxState(const std::vector<Matrix>& aux) {
  if (!head_ready_) return aux.empty();
  if (aux.size() != 2 || aux[1].rows() != 1 || aux[1].cols() != 1) {
    return false;
  }
  target_q_ = aux[0];
  steps_since_refresh_ = static_cast<int>(aux[1](0, 0));
  return true;
}

std::vector<Parameter*> Dgae::Params() {
  std::vector<Parameter*> p = Gae::Params();
  if (head_ready_) p.push_back(&centers_);
  return p;
}

}  // namespace rgae
