#include "src/models/vgae.h"

namespace rgae {

Vgae::Vgae(const AttributedGraph& graph, const ModelOptions& options)
    : GaeModel(graph, options),
      encoder_(graph.feature_dim(), options.hidden_dim, options.latent_dim,
               rng_),
      logvar_head_(options.hidden_dim, options.latent_dim, rng_) {
  InitOptimizer();
}

Vgae::Heads Vgae::SampleOnTape(Tape* tape, Rng* rng) const {
  const Var h = encoder_.Hidden(tape, &filter_, &features_);
  Heads heads;
  heads.mu = encoder_.layer1().Apply(tape, &filter_, h, /*relu=*/false);
  // Initialize the posterior near std ≈ exp(-1): with Glorot weights the
  // raw head outputs ~0, and starting at unit variance (std = 1) drowns the
  // small-magnitude mu signal on small graphs.
  const Var raw_logvar =
      logvar_head_.Apply(tape, &filter_, h, /*relu=*/false);
  const Matrix& mu_shape = tape->value(heads.mu);
  heads.logvar = tape->AddRowBroadcast(
      raw_logvar, tape->Constant(Matrix(1, mu_shape.cols(), -2.0)));
  // z = mu + eps ⊙ exp(0.5 logvar).
  const Matrix& mu_val = tape->value(heads.mu);
  const Var eps = tape->Constant(
      GaussianMatrix(mu_val.rows(), mu_val.cols(), 1.0, *rng));
  const Var std = tape->Exp(tape->Scale(heads.logvar, 0.5));
  heads.z = tape->Add(heads.mu, tape->Hadamard(eps, std));
  return heads;
}

Var Vgae::BuildLossOnTape(Tape* tape, const TrainContext& ctx, Rng* rng) {
  const Heads heads = SampleOnTape(tape, rng);
  const Var recon = tape->InnerProductBceLoss(
      heads.z, ctx.recon.graph, ctx.recon.pos_weight, ctx.recon.norm);
  const Var kl = tape->GaussianKlLoss(heads.mu, heads.logvar);
  return tape->AddScalars(recon, kl);
}

std::vector<Parameter*> Vgae::Params() {
  std::vector<Parameter*> p = encoder_.Params();
  p.push_back(logvar_head_.weight());
  return p;
}

Var Vgae::EncodeOnTape(Tape* tape) const {
  // Deterministic embedding = mu head.
  return encoder_.Encode(tape, &filter_, &features_);
}

serve::ModelSnapshot Vgae::ExportSnapshot() const {
  // The μ head (encoder layer 1) is the deterministic embedding, so the
  // logvar head is not part of the inference artifact.
  return SnapshotBase(encoder_.layer0().weight()->value,
                      encoder_.layer1().weight()->value);
}

}  // namespace rgae
