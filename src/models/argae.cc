#include "src/models/argae.h"

namespace rgae {

Discriminator::Discriminator(int in_dim, int hidden_dim, Rng& rng)
    : w1_(GlorotUniform(in_dim, hidden_dim, rng)),
      b1_(Matrix(1, hidden_dim)),
      w2_(GlorotUniform(hidden_dim, 1, rng)),
      b2_(Matrix(1, 1)) {}

Var Discriminator::Logits(Tape* tape, Var z) const {
  const Var h = tape->Relu(tape->AddRowBroadcast(
      tape->MatMul(z, tape->Leaf(&w1_)), tape->Leaf(&b1_)));
  return tape->AddRowBroadcast(tape->MatMul(h, tape->Leaf(&w2_)),
                               tape->Leaf(&b2_));
}

std::vector<Parameter*> Discriminator::Params() {
  return {&w1_, &b1_, &w2_, &b2_};
}

namespace {

Adam::Options DiscAdamOptions(const ModelOptions& options) {
  Adam::Options o;
  o.learning_rate = options.discriminator_learning_rate;
  return o;
}

}  // namespace

Argae::Argae(const AttributedGraph& graph, const ModelOptions& options)
    : Gae(graph, options),
      discriminator_(options.latent_dim, options.discriminator_hidden, rng_),
      disc_adam_(std::make_unique<Adam>(discriminator_.Params(),
                                        DiscAdamOptions(options))),
      gen_target_ones_(graph.num_nodes(), 1, 1.0) {}

void Argae::DiscriminatorStep() {
  const Matrix z_fake = Embed();
  const Matrix z_real =
      GaussianMatrix(z_fake.rows(), z_fake.cols(), 1.0, rng_);
  const Matrix ones(z_fake.rows(), 1, 1.0);
  const Matrix zeros(z_fake.rows(), 1, 0.0);
  Tape tape;
  const Var real_logits =
      discriminator_.Logits(&tape, tape.Constant(z_real));
  const Var fake_logits =
      discriminator_.Logits(&tape, tape.Constant(z_fake));
  const Var loss = tape.AddScalars(tape.BceWithLogits(real_logits, &ones),
                                   tape.BceWithLogits(fake_logits, &zeros));
  disc_adam_->ZeroGrads();
  tape.Backward(loss);
  disc_adam_->Step();
  disc_adam_->ZeroGrads();
}

void Argae::PreStep(const TrainContext& /*ctx*/) { DiscriminatorStep(); }

void Argae::PostStep(const TrainContext& /*ctx*/) {
  disc_adam_->ZeroGrads();
}

Var Argae::BuildLossOnTape(Tape* tape, const TrainContext& ctx,
                           Rng* /*rng*/) {
  const Var z = encoder_.Encode(tape, &filter_, &features_);
  const Var recon = tape->InnerProductBceLoss(
      z, ctx.recon.graph, ctx.recon.pos_weight, ctx.recon.norm);
  const Var gen = tape->BceWithLogits(discriminator_.Logits(tape, z),
                                      &gen_target_ones_);
  return tape->AddScalars(recon, tape->Scale(gen, options_.adversarial_weight));
}

std::vector<Parameter*> Argae::Params() {
  std::vector<Parameter*> p = Gae::Params();
  for (Parameter* d : discriminator_.Params()) p.push_back(d);
  return p;
}

Arvgae::Arvgae(const AttributedGraph& graph, const ModelOptions& options)
    : Vgae(graph, options),
      discriminator_(options.latent_dim, options.discriminator_hidden, rng_),
      disc_adam_(std::make_unique<Adam>(discriminator_.Params(),
                                        DiscAdamOptions(options))),
      gen_target_ones_(graph.num_nodes(), 1, 1.0) {}

void Arvgae::DiscriminatorStep() {
  const Matrix z_fake = Embed();
  const Matrix z_real =
      GaussianMatrix(z_fake.rows(), z_fake.cols(), 1.0, rng_);
  const Matrix ones(z_fake.rows(), 1, 1.0);
  const Matrix zeros(z_fake.rows(), 1, 0.0);
  Tape tape;
  const Var real_logits =
      discriminator_.Logits(&tape, tape.Constant(z_real));
  const Var fake_logits =
      discriminator_.Logits(&tape, tape.Constant(z_fake));
  const Var loss = tape.AddScalars(tape.BceWithLogits(real_logits, &ones),
                                   tape.BceWithLogits(fake_logits, &zeros));
  disc_adam_->ZeroGrads();
  tape.Backward(loss);
  disc_adam_->Step();
  disc_adam_->ZeroGrads();
}

void Arvgae::PreStep(const TrainContext& /*ctx*/) { DiscriminatorStep(); }

void Arvgae::PostStep(const TrainContext& /*ctx*/) {
  disc_adam_->ZeroGrads();
}

Var Arvgae::BuildLossOnTape(Tape* tape, const TrainContext& ctx, Rng* rng) {
  const Heads heads = SampleOnTape(tape, rng);
  const Var recon = tape->InnerProductBceLoss(
      heads.z, ctx.recon.graph, ctx.recon.pos_weight, ctx.recon.norm);
  const Var kl = tape->GaussianKlLoss(heads.mu, heads.logvar);
  const Var gen = tape->BceWithLogits(discriminator_.Logits(tape, heads.z),
                                      &gen_target_ones_);
  return tape->AddScalars(tape->AddScalars(recon, kl),
                          tape->Scale(gen, options_.adversarial_weight));
}

std::vector<Parameter*> Arvgae::Params() {
  std::vector<Parameter*> p = Vgae::Params();
  for (Parameter* d : discriminator_.Params()) p.push_back(d);
  return p;
}

}  // namespace rgae
