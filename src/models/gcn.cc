#include "src/models/gcn.h"

namespace rgae {

GcnLayer::GcnLayer(int in_dim, int out_dim, Rng& rng)
    : weight_(GlorotUniform(in_dim, out_dim, rng)) {}

Var GcnLayer::Apply(Tape* tape, const CsrMatrix* filter, Var x,
                    bool relu) const {
  const Var w = tape->Leaf(&weight_);
  const Var xw = tape->MatMul(x, w);
  const Var axw = tape->Spmm(filter, xw);
  return relu ? tape->Relu(axw) : axw;
}

Var GcnLayer::Apply(Tape* tape, const CsrMatrix* filter, const CsrMatrix* x,
                    bool relu) const {
  const Var w = tape->Leaf(&weight_);
  const Var xw = tape->Spmm(x, w);
  const Var axw = tape->Spmm(filter, xw);
  return relu ? tape->Relu(axw) : axw;
}

GcnEncoder::GcnEncoder(int in_dim, int hidden_dim, int out_dim, Rng& rng)
    : layer0_(in_dim, hidden_dim, rng), layer1_(hidden_dim, out_dim, rng) {}

Var GcnEncoder::Hidden(Tape* tape, const CsrMatrix* filter,
                       const CsrMatrix* features) const {
  return layer0_.Apply(tape, filter, features, /*relu=*/true);
}

Var GcnEncoder::Encode(Tape* tape, const CsrMatrix* filter,
                       const CsrMatrix* features) const {
  const Var h = Hidden(tape, filter, features);
  return layer1_.Apply(tape, filter, h, /*relu=*/false);
}

std::vector<Parameter*> GcnEncoder::Params() {
  return {layer0_.weight(), layer1_.weight()};
}

}  // namespace rgae
