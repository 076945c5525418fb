#include "src/models/gcn.h"

#include <gtest/gtest.h>

#include "src/graph/graph.h"

namespace rgae {
namespace {

CsrMatrix TriangleFilter() {
  AttributedGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  return g.NormalizedAdjacency();
}

TEST(GcnLayerTest, OutputShape) {
  Rng rng(1);
  GcnLayer layer(5, 3, rng);
  const CsrMatrix filter = TriangleFilter();
  Tape tape;
  const Var x = tape.Constant(Matrix(3, 5, 1.0));
  const Var y = layer.Apply(&tape, &filter, x, /*relu=*/false);
  EXPECT_EQ(tape.value(y).rows(), 3);
  EXPECT_EQ(tape.value(y).cols(), 3);
}

TEST(GcnLayerTest, ReluClampsOutput) {
  Rng rng(2);
  GcnLayer layer(4, 6, rng);
  const CsrMatrix filter = TriangleFilter();
  Tape tape;
  Matrix features(3, 4);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) features(i, j) = (i + j) % 2 ? 1.0 : -1.0;
  }
  const Var y = layer.Apply(&tape, &filter, tape.Constant(features),
                            /*relu=*/true);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 6; ++j) EXPECT_GE(tape.value(y)(i, j), 0.0);
  }
}

TEST(GcnLayerTest, MatchesManualComputation) {
  Rng rng(3);
  GcnLayer layer(2, 2, rng);
  const CsrMatrix filter = TriangleFilter();
  Matrix x(3, 2, {1, 0, 0, 1, 1, 1});
  Tape tape;
  const Var y =
      layer.Apply(&tape, &filter, tape.Constant(x), /*relu=*/false);
  const Matrix expected = filter.Multiply(MatMul(x, layer.weight()->value));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_NEAR(tape.value(y)(i, j), expected(i, j), 1e-12);
    }
  }
}

TEST(GcnLayerTest, SparseInputMatchesDenseInputBitForBit) {
  // The encoder's first layer takes X as CSR; its output and its weight
  // gradient must keep the bits of the dense zero-skipping path.
  const CsrMatrix filter = TriangleFilter();
  const Matrix x(3, 5, {0.0, 1.5, -0.0, 0.25, 0.0,  //
                        0.0, 0.0, 0.0, 0.0, 0.0,    //
                        -2.0, 0.5, 3.0, 0.0, 1.0});
  const CsrMatrix sparse_x = CsrMatrix::FromDense(x);
  const Matrix target(3, 4, 1.0);
  Matrix outputs[2];
  Matrix grads[2];
  for (int sparse = 0; sparse < 2; ++sparse) {
    Rng rng(8);
    GcnLayer layer(5, 4, rng);
    Tape tape;
    const Var y =
        sparse ? layer.Apply(&tape, &filter, &sparse_x, /*relu=*/true)
               : layer.Apply(&tape, &filter, tape.Constant(x), /*relu=*/true);
    layer.weight()->ZeroGrad();
    tape.Backward(tape.BceWithLogits(y, &target));
    outputs[sparse] = tape.value(y);
    grads[sparse] = layer.weight()->grad;
  }
  for (size_t i = 0; i < outputs[0].size(); ++i) {
    EXPECT_EQ(outputs[1].data()[i], outputs[0].data()[i]) << "output " << i;
  }
  EXPECT_GT(grads[0].FrobeniusNorm(), 0.0);
  for (size_t i = 0; i < grads[0].size(); ++i) {
    EXPECT_EQ(grads[1].data()[i], grads[0].data()[i]) << "grad " << i;
  }
}

TEST(GcnEncoderTest, TwoLayerShapes) {
  Rng rng(4);
  GcnEncoder encoder(10, 8, 4, rng);
  const CsrMatrix filter = TriangleFilter();
  const CsrMatrix features = CsrMatrix::FromDense(Matrix(3, 10, 0.5));
  Tape tape;
  const Var h = encoder.Hidden(&tape, &filter, &features);
  const Var z = encoder.Encode(&tape, &filter, &features);
  EXPECT_EQ(tape.value(h).rows(), 3);
  EXPECT_EQ(tape.value(h).cols(), 8);
  EXPECT_EQ(tape.value(z).rows(), 3);
  EXPECT_EQ(tape.value(z).cols(), 4);
}

TEST(GcnEncoderTest, ParamsExposeBothLayers) {
  Rng rng(5);
  GcnEncoder encoder(10, 8, 4, rng);
  const std::vector<Parameter*> params = encoder.Params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->value.rows(), 10);
  EXPECT_EQ(params[0]->value.cols(), 8);
  EXPECT_EQ(params[1]->value.rows(), 8);
  EXPECT_EQ(params[1]->value.cols(), 4);
}

TEST(GcnEncoderTest, GradientsFlowToBothLayers) {
  Rng rng(6);
  GcnEncoder encoder(4, 3, 2, rng);
  const CsrMatrix filter = TriangleFilter();
  const CsrMatrix features = CsrMatrix::FromDense(Matrix(3, 4, 1.0));
  Matrix target(3, 2, 1.0);
  Tape tape;
  const Var z = encoder.Encode(&tape, &filter, &features);
  const Var loss = tape.BceWithLogits(z, &target);
  for (Parameter* p : encoder.Params()) p->ZeroGrad();
  tape.Backward(loss);
  for (Parameter* p : encoder.Params()) {
    EXPECT_GT(p->grad.FrobeniusNorm(), 0.0);
  }
}

TEST(GcnEncoderTest, FilterSmoothsNeighborFeatures) {
  // On a triangle with symmetric normalization, identical inputs stay
  // identical after convolution (smoothing preserves constants up to the
  // filter's row sums).
  Rng rng(7);
  GcnLayer layer(1, 1, rng);
  const CsrMatrix filter = TriangleFilter();
  Tape tape;
  const Var y = layer.Apply(&tape, &filter, tape.Constant(Matrix(3, 1, 1.0)),
                            /*relu=*/false);
  // All rows identical by symmetry.
  EXPECT_NEAR(tape.value(y)(0, 0), tape.value(y)(1, 0), 1e-12);
  EXPECT_NEAR(tape.value(y)(1, 0), tape.value(y)(2, 0), 1e-12);
}

}  // namespace
}  // namespace rgae
