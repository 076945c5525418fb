#ifndef RGAE_MODELS_GCN_H_
#define RGAE_MODELS_GCN_H_

#include <vector>

#include "src/graph/csr.h"
#include "src/tensor/autograd.h"
#include "src/tensor/random.h"

namespace rgae {

/// One graph convolutional layer X ↦ φ(Ã X W) (Kipf & Welling), the
/// propagation rule of Section 3.3. Weights are Glorot-initialized; no bias,
/// matching the reference GAE implementations.
class GcnLayer {
 public:
  GcnLayer(int in_dim, int out_dim, Rng& rng);

  /// Applies the layer on a tape: returns φ(filter · x · W) where φ is ReLU
  /// when `relu` and identity otherwise.
  Var Apply(Tape* tape, const CsrMatrix* filter, Var x, bool relu) const;
  /// The same layer over a constant sparse input (the feature matrix X):
  /// x · W is recorded as `Tape::Spmm`, whose bits equal the dense
  /// zero-skipping `MatMul` over x.ToDense(). `x` must outlive the tape.
  Var Apply(Tape* tape, const CsrMatrix* filter, const CsrMatrix* x,
            bool relu) const;

  Parameter* weight() { return &weight_; }
  const Parameter* weight() const { return &weight_; }

 private:
  mutable Parameter weight_;
};

/// The two-layer GCN encoder shared by every model in the zoo
/// (hidden ReLU layer + linear output layer). VGAE-style models add a second
/// output head over the shared hidden layer.
class GcnEncoder {
 public:
  GcnEncoder(int in_dim, int hidden_dim, int out_dim, Rng& rng);

  /// Hidden representation H = ReLU(Ã X W₀), with X·W₀ as an SpMM over
  /// the CSR feature matrix.
  Var Hidden(Tape* tape, const CsrMatrix* filter,
             const CsrMatrix* features) const;
  /// Full embedding Z = Ã H W₁ (linear output).
  Var Encode(Tape* tape, const CsrMatrix* filter,
             const CsrMatrix* features) const;

  GcnLayer& layer0() { return layer0_; }
  GcnLayer& layer1() { return layer1_; }
  const GcnLayer& layer0() const { return layer0_; }
  const GcnLayer& layer1() const { return layer1_; }

  std::vector<Parameter*> Params();

 private:
  GcnLayer layer0_;
  GcnLayer layer1_;
};

}  // namespace rgae

#endif  // RGAE_MODELS_GCN_H_
