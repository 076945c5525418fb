#include "src/models/gae.h"

namespace rgae {

Gae::Gae(const AttributedGraph& graph, const ModelOptions& options)
    : GaeModel(graph, options),
      encoder_(graph.feature_dim(), options.hidden_dim, options.latent_dim,
               rng_) {
  InitOptimizer();
}

Var Gae::BuildLossOnTape(Tape* tape, const TrainContext& ctx, Rng* /*rng*/) {
  const Var z = encoder_.Encode(tape, &filter_, &features_);
  return tape->InnerProductBceLoss(z, ctx.recon.graph, ctx.recon.pos_weight,
                                   ctx.recon.norm);
}

std::vector<Parameter*> Gae::Params() { return encoder_.Params(); }

serve::ModelSnapshot Gae::ExportSnapshot() const {
  return SnapshotBase(encoder_.layer0().weight()->value,
                      encoder_.layer1().weight()->value);
}

Var Gae::EncodeOnTape(Tape* tape) const {
  return encoder_.Encode(tape, &filter_, &features_);
}

}  // namespace rgae
