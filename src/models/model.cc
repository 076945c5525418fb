#include "src/models/model.h"

#include <cassert>

#include "src/clustering/kmeans.h"
#include "src/metrics/fr_fd.h"

namespace rgae {

ReconTarget MakeReconTarget(const CsrMatrix* graph) {
  assert(graph != nullptr && graph->rows() == graph->cols());
  const double n2 =
      static_cast<double>(graph->rows()) * static_cast<double>(graph->rows());
  double e = 0.0;
  for (double v : graph->values()) {
    if (v != 0.0) e += 1.0;
  }
  ReconTarget t;
  t.graph = graph;
  if (e > 0.0 && e < n2) {
    t.pos_weight = (n2 - e) / e;
    t.norm = n2 / (2.0 * (n2 - e));
  }
  return t;
}

GaeModel::GaeModel(const AttributedGraph& graph, const ModelOptions& options)
    : graph_(graph),
      options_(options),
      features_(CsrMatrix::FromDense(graph.features())),
      adjacency_(graph.Adjacency()),
      filter_(graph.NormalizedAdjacency()),
      rng_(options.seed) {
  assert(graph.num_nodes() > 0);
  assert(features_.rows() > 0 && features_.cols() > 0);
}

void GaeModel::InitOptimizer() {
  Adam::Options opts;
  opts.learning_rate = options_.learning_rate;
  adam_ = std::make_unique<Adam>(Params(), opts);
}

void GaeModel::PreStep(const TrainContext& /*ctx*/) {}

void GaeModel::PostStep(const TrainContext& /*ctx*/) {}

double GaeModel::TrainStep(const TrainContext& ctx) {
  PreStep(ctx);
  Tape tape;
  const Var loss = BuildLossOnTape(&tape, ctx, &rng_);
  adam_->ZeroGrads();
  tape.Backward(loss);
  adam_->Step();
  PostStep(ctx);
  return tape.value(loss)(0, 0);
}

Matrix GaeModel::Embed() const {
  Tape tape;
  const Var z = EncodeOnTape(&tape);
  return tape.value(z);
}

serve::ModelSnapshot GaeModel::SnapshotBase(const Matrix& w0,
                                            const Matrix& w1) const {
  serve::ModelSnapshot snapshot;
  snapshot.model_name = name();
  snapshot.w0 = w0;
  snapshot.w1 = w1;
  snapshot.filter = filter_;
  snapshot.features = features_.ToDense();
  return snapshot;
}

void GaeModel::InitClusteringHead(int /*num_clusters*/, Rng& /*rng*/) {
  assert(false && "model has no clustering head");
}

Matrix GaeModel::SoftAssignments(const Matrix& /*z*/) const {
  assert(false && "model has no clustering head");
  return Matrix();
}

std::vector<double> GaeModel::ClusteringGradSnapshot(
    const std::vector<int>& assign, int num_clusters,
    const std::vector<int>& omega) {
  // Preserve any gradients accumulated by an in-flight training step.
  const std::vector<Parameter*> params = Params();
  std::vector<Matrix> saved;
  saved.reserve(params.size());
  for (Parameter* p : params) {
    saved.push_back(p->grad);
    p->ZeroGrad();
  }
  {
    Tape tape;
    const Var z = EncodeOnTape(&tape);
    const Matrix centers =
        ClusterMeans(tape.value(z), assign, num_clusters);
    const Var loss = tape.KMeansLoss(z, &centers, &assign, omega);
    tape.Backward(loss);
  }
  std::vector<double> flat = FlattenGrads(params);
  for (size_t i = 0; i < params.size(); ++i) params[i]->grad = saved[i];
  return flat;
}

std::vector<double> GaeModel::ReconGradSnapshot(const ReconTarget& target) {
  const std::vector<Parameter*> params = Params();
  std::vector<Matrix> saved;
  saved.reserve(params.size());
  for (Parameter* p : params) {
    saved.push_back(p->grad);
    p->ZeroGrad();
  }
  {
    Tape tape;
    const Var z = EncodeOnTape(&tape);
    const Var loss = tape.InnerProductBceLoss(z, target.graph,
                                              target.pos_weight, target.norm);
    tape.Backward(loss);
  }
  std::vector<double> flat = FlattenGrads(params);
  for (size_t i = 0; i < params.size(); ++i) params[i]->grad = saved[i];
  return flat;
}

double GaeModel::EvalReconLoss(const ReconTarget& target) const {
  Tape tape;
  const Var z = EncodeOnTape(&tape);
  const Var loss = tape.InnerProductBceLoss(z, target.graph,
                                            target.pos_weight, target.norm);
  return tape.value(loss)(0, 0);
}

std::vector<Matrix> GaeModel::SaveWeights() {
  std::vector<Matrix> out;
  for (Parameter* p : Params()) out.push_back(p->value);
  return out;
}

void GaeModel::LoadWeights(const std::vector<Matrix>& weights) {
  const std::vector<Parameter*> params = Params();
  assert(weights.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    assert(weights[i].rows() == params[i]->value.rows() &&
           weights[i].cols() == params[i]->value.cols());
    params[i]->value = weights[i];
    params[i]->ZeroGrad();
  }
  if (adam_) adam_->ResetState();
}

}  // namespace rgae
