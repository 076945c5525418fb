#include "src/tensor/autograd.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/kernels/kernels.h"
#include "src/tensor/random.h"

namespace rgae {
namespace {

// Finite-difference check: perturbs every entry of `param` and compares the
// numeric gradient of `loss_fn` (which must rebuild the forward pass from
// the parameter's current value and return the scalar loss) against the
// analytic gradient accumulated in `param->grad`.
void CheckGradient(Parameter* param,
                   const std::function<double()>& loss_fn,
                   double tolerance = 1e-5, double eps = 1e-5) {
  const Matrix analytic = param->grad;
  for (int r = 0; r < param->value.rows(); ++r) {
    for (int c = 0; c < param->value.cols(); ++c) {
      const double saved = param->value(r, c);
      param->value(r, c) = saved + eps;
      const double up = loss_fn();
      param->value(r, c) = saved - eps;
      const double down = loss_fn();
      param->value(r, c) = saved;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic(r, c), numeric, tolerance)
          << "at (" << r << "," << c << ")";
    }
  }
}

Matrix RandomMatrix(int r, int c, Rng& rng, double scale = 0.5) {
  Matrix m(r, c);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) m(i, j) = rng.Gaussian(0.0, scale);
  }
  return m;
}

CsrMatrix SmallGraph(int n) {
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    t.push_back({i, j, 1.0});
    t.push_back({j, i, 1.0});
  }
  return CsrMatrix::FromTriplets(n, n, std::move(t));
}

TEST(TapeTest, LeafAndConstantValues) {
  Parameter p(Matrix(2, 2, 3.0));
  Tape tape;
  const Var leaf = tape.Leaf(&p);
  const Var c = tape.Constant(Matrix(2, 2, 4.0));
  EXPECT_DOUBLE_EQ(tape.value(leaf)(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(tape.value(c)(1, 1), 4.0);
  EXPECT_EQ(tape.size(), 2);
}

TEST(TapeTest, AddSubForward) {
  Parameter a(Matrix(1, 2, {1, 2}));
  Parameter b(Matrix(1, 2, {10, 20}));
  Tape tape;
  const Var sum = tape.Add(tape.Leaf(&a), tape.Leaf(&b));
  const Var diff = tape.Sub(tape.Leaf(&a), tape.Leaf(&b));
  EXPECT_DOUBLE_EQ(tape.value(sum)(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(tape.value(diff)(0, 0), -9.0);
}

TEST(TapeTest, ReluForwardClampsNegatives) {
  Parameter a(Matrix(1, 3, {-1, 0, 2}));
  Tape tape;
  const Var r = tape.Relu(tape.Leaf(&a));
  EXPECT_DOUBLE_EQ(tape.value(r)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(tape.value(r)(0, 2), 2.0);
}

TEST(TapeTest, ReluKeepsTheBranchingBits) {
  // Relu's forward and backward take no branch on the data. Compared as
  // bit patterns with std::max(x, 0.0) and `if (v > 0.0) ga += g` over ±0,
  // ±inf, NaN of either sign, subnormals and normals. A second consumer of
  // x, run first in the backward sweep, seeds x's gradient with NaN where
  // v <= 0, and those entries must keep it.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  const std::vector<double> xs = {0.0,    -0.0,    inf,    -inf,
                                  nan,    -nan,    denorm, -denorm,
                                  1e-310, -1e-310, tiny,   -tiny,
                                  2.5,    -2.5,    -0.75,  0.75};
  const int n = static_cast<int>(xs.size());
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  Parameter x(Matrix(1, n, xs));
  std::vector<double> seed_scale(xs.size(), 1.0);
  for (int i = 0; i < n; ++i) {
    if (!(xs[i] > 0.0) && i % 2 == 1) seed_scale[i] = nan;
  }
  const Matrix seed_matrix(1, n, seed_scale);
  const Matrix targets(1, n, 1.0);
  Tape tape;
  const Var leaf = tape.Leaf(&x);
  const Var r = tape.Relu(leaf);
  const Var h = tape.Hadamard(leaf, tape.Constant(seed_matrix));
  tape.Backward(tape.AddScalars(tape.BceWithLogits(r, &targets),
                                tape.BceWithLogits(h, &targets)));
  for (int i = 0; i < n; ++i) {
    const double v = tape.value(r)(0, i);
    ASSERT_EQ(bits(v), bits(std::max(xs[i], 0.0))) << "x=" << xs[i];
    double want = 0.0 + tape.grad(h)(0, i) * seed_matrix(0, i);
    if (v > 0.0) want += tape.grad(r)(0, i);
    EXPECT_EQ(bits(tape.grad(leaf)(0, i)), bits(want)) << "x=" << xs[i];
  }
  // The tape's gradient buffers start at +0.0 and only accumulate, so a
  // -0.0 can reach ReluGrad only through a direct call.
  std::vector<double> value(xs.size()), ga(xs.size()), g(xs.size());
  Rng rng(8);
  for (int i = 0; i < n; ++i) {
    value[i] = std::max(xs[i], 0.0);
    g[i] = i % 3 == 0 ? xs[(i + 5) % n] : rng.Gaussian();
    ga[i] = value[i] > 0.0 ? rng.Gaussian() : (i % 2 == 0 ? -0.0 : nan);
  }
  std::vector<double> want = ga;
  for (int i = 0; i < n; ++i) {
    if (value[i] > 0.0) want[i] += g[i];
  }
  kernels::ReluGrad(value.data(), g.data(), ga.data(), n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(bits(ga[i]), bits(want[i])) << "value=" << value[i];
  }
}

// Scalar reduction helper: builds mean-BCE against an all-ones target,
// which exercises a smooth scalarization for gradient checks.
Var ScalarizeBce(Tape* tape, Var v, const Matrix* target) {
  return tape->BceWithLogits(v, target);
}

TEST(TapeTest, MatMulGradientViaBce) {
  Rng rng(2);
  Parameter a(RandomMatrix(3, 4, rng));
  Parameter b(RandomMatrix(4, 2, rng));
  Matrix target(3, 2, 1.0);
  auto forward = [&]() {
    Tape tape;
    const Var prod = tape.MatMul(tape.Leaf(&a), tape.Leaf(&b));
    return tape.value(ScalarizeBce(&tape, prod, &target))(0, 0);
  };
  {
    Tape tape;
    const Var prod = tape.MatMul(tape.Leaf(&a), tape.Leaf(&b));
    const Var loss = ScalarizeBce(&tape, prod, &target);
    a.ZeroGrad();
    b.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&a, forward);
  CheckGradient(&b, forward);
}

TEST(TapeTest, ConstantOperandGetsNoGradientBuffer) {
  // The encoder's first layer: Constant(X) · Leaf(W). Backward must skip
  // dX (no buffer, grad_flow false) and leave dW bit-identical to the
  // gradient it gets when X is a trainable leaf instead.
  Rng rng(21);
  const Matrix x = RandomMatrix(5, 4, rng);
  Parameter w(RandomMatrix(4, 3, rng));
  const Matrix target(5, 3, 1.0);

  Tape tape;
  const Var xc = tape.Constant(x);
  const Var shift = tape.Add(xc, tape.Constant(Matrix(5, 4, 0.25)));
  const Var prod = tape.MatMul(shift, tape.Leaf(&w));
  const Var loss = ScalarizeBce(&tape, prod, &target);
  w.ZeroGrad();
  tape.Backward(loss);
  EXPECT_TRUE(tape.grad(xc).empty());
  EXPECT_TRUE(tape.grad(shift).empty());  // Computed from constants only.
  EXPECT_FALSE(tape.grad(prod).empty());
  const std::vector<TapeNodeView> views = tape.NodeViews();
  EXPECT_FALSE(views[shift.id].grad_flow[0]);
  EXPECT_FALSE(views[shift.id].grad_flow[1]);
  EXPECT_FALSE(views[prod.id].grad_flow[0]);
  EXPECT_TRUE(views[prod.id].grad_flow[1]);

  Parameter x_leaf(x);
  Parameter w_ref(w.value);
  Tape ref;
  const Var ref_prod = ref.MatMul(
      ref.Add(ref.Leaf(&x_leaf), ref.Constant(Matrix(5, 4, 0.25))),
      ref.Leaf(&w_ref));
  ref.Backward(ScalarizeBce(&ref, ref_prod, &target));
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(w.grad(r, c), w_ref.grad(r, c));
  }
  EXPECT_NE(x_leaf.grad(0, 0), 0.0);
}

TEST(TapeTest, ElementwiseOpsGradient) {
  Rng rng(3);
  Parameter a(RandomMatrix(2, 3, rng));
  Parameter b(RandomMatrix(2, 3, rng));
  Matrix target(2, 3, 0.5);
  auto forward = [&]() {
    Tape tape;
    const Var x =
        tape.Hadamard(tape.Add(tape.Leaf(&a), tape.Leaf(&b)),
                      tape.Sub(tape.Leaf(&a), tape.Leaf(&b)));
    const Var y = tape.Scale(tape.Tanh(x), 0.7);
    return tape.value(ScalarizeBce(&tape, y, &target))(0, 0);
  };
  {
    Tape tape;
    const Var x =
        tape.Hadamard(tape.Add(tape.Leaf(&a), tape.Leaf(&b)),
                      tape.Sub(tape.Leaf(&a), tape.Leaf(&b)));
    const Var y = tape.Scale(tape.Tanh(x), 0.7);
    const Var loss = ScalarizeBce(&tape, y, &target);
    a.ZeroGrad();
    b.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&a, forward);
  CheckGradient(&b, forward);
}

TEST(TapeTest, ExpGradient) {
  Rng rng(4);
  Parameter a(RandomMatrix(2, 2, rng, 0.3));
  Matrix target(2, 2, 1.0);
  auto forward = [&]() {
    Tape tape;
    const Var e = tape.Exp(tape.Leaf(&a));
    return tape.value(ScalarizeBce(&tape, e, &target))(0, 0);
  };
  {
    Tape tape;
    const Var e = tape.Exp(tape.Leaf(&a));
    const Var loss = ScalarizeBce(&tape, e, &target);
    a.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&a, forward);
}

TEST(TapeTest, ReluGradientAwayFromKink) {
  // Entries chosen away from zero so the subgradient is unambiguous.
  Parameter a(Matrix(2, 2, {1.0, -1.0, 0.5, -2.0}));
  Matrix target(2, 2, 1.0);
  auto forward = [&]() {
    Tape tape;
    const Var r = tape.Relu(tape.Leaf(&a));
    return tape.value(ScalarizeBce(&tape, r, &target))(0, 0);
  };
  {
    Tape tape;
    const Var r = tape.Relu(tape.Leaf(&a));
    const Var loss = ScalarizeBce(&tape, r, &target);
    a.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&a, forward);
  // Negative entries must receive exactly zero gradient.
  EXPECT_DOUBLE_EQ(a.grad(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(a.grad(1, 1), 0.0);
}

TEST(TapeTest, SpmmGradient) {
  Rng rng(5);
  const CsrMatrix g = SmallGraph(4).SymmetricallyNormalized();
  Parameter x(RandomMatrix(4, 3, rng));
  Matrix target(4, 3, 1.0);
  auto forward = [&]() {
    Tape tape;
    const Var y = tape.Spmm(&g, tape.Leaf(&x));
    return tape.value(ScalarizeBce(&tape, y, &target))(0, 0);
  };
  {
    Tape tape;
    const Var y = tape.Spmm(&g, tape.Leaf(&x));
    const Var loss = ScalarizeBce(&tape, y, &target);
    x.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&x, forward);
}

TEST(TapeTest, AddRowBroadcastGradient) {
  Rng rng(6);
  Parameter a(RandomMatrix(3, 2, rng));
  Parameter bias(RandomMatrix(1, 2, rng));
  Matrix target(3, 2, 1.0);
  auto forward = [&]() {
    Tape tape;
    const Var y = tape.AddRowBroadcast(tape.Leaf(&a), tape.Leaf(&bias));
    return tape.value(ScalarizeBce(&tape, y, &target))(0, 0);
  };
  {
    Tape tape;
    const Var y = tape.AddRowBroadcast(tape.Leaf(&a), tape.Leaf(&bias));
    const Var loss = ScalarizeBce(&tape, y, &target);
    a.ZeroGrad();
    bias.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&a, forward);
  CheckGradient(&bias, forward);
}

TEST(TapeTest, GatherRowsGradient) {
  Rng rng(7);
  Parameter a(RandomMatrix(5, 2, rng));
  Matrix target(3, 2, 1.0);
  const std::vector<int> rows = {4, 0, 4};  // Duplicate row tests scatter-add.
  auto forward = [&]() {
    Tape tape;
    const Var y = tape.GatherRows(tape.Leaf(&a), rows);
    return tape.value(ScalarizeBce(&tape, y, &target))(0, 0);
  };
  {
    Tape tape;
    const Var y = tape.GatherRows(tape.Leaf(&a), rows);
    const Var loss = ScalarizeBce(&tape, y, &target);
    a.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&a, forward);
}

TEST(TapeTest, InnerProductBceGradient) {
  Rng rng(8);
  const CsrMatrix target = SmallGraph(5);
  Parameter z(RandomMatrix(5, 3, rng));
  const double pos_weight = 3.0, norm = 0.8;
  auto forward = [&]() {
    Tape tape;
    const Var loss = tape.InnerProductBceLoss(tape.Leaf(&z), &target,
                                              pos_weight, norm);
    return tape.value(loss)(0, 0);
  };
  {
    Tape tape;
    const Var loss = tape.InnerProductBceLoss(tape.Leaf(&z), &target,
                                              pos_weight, norm);
    z.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&z, forward, 1e-5);
}

TEST(TapeTest, GaussianKlGradient) {
  Rng rng(9);
  Parameter mu(RandomMatrix(4, 3, rng));
  Parameter logvar(RandomMatrix(4, 3, rng, 0.3));
  auto forward = [&]() {
    Tape tape;
    const Var loss = tape.GaussianKlLoss(tape.Leaf(&mu), tape.Leaf(&logvar));
    return tape.value(loss)(0, 0);
  };
  {
    Tape tape;
    const Var loss = tape.GaussianKlLoss(tape.Leaf(&mu), tape.Leaf(&logvar));
    mu.ZeroGrad();
    logvar.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&mu, forward);
  CheckGradient(&logvar, forward);
}

TEST(TapeTest, GaussianKlIsZeroAtStandardNormal) {
  Parameter mu(Matrix(3, 2, 0.0));
  Parameter logvar(Matrix(3, 2, 0.0));
  Tape tape;
  const Var loss = tape.GaussianKlLoss(tape.Leaf(&mu), tape.Leaf(&logvar));
  EXPECT_NEAR(tape.value(loss)(0, 0), 0.0, 1e-12);
}

TEST(TapeTest, KMeansLossGradient) {
  Rng rng(10);
  Parameter z(RandomMatrix(6, 2, rng));
  const Matrix centers = RandomMatrix(2, 2, rng);
  const std::vector<int> assign = {0, 1, 0, 1, 0, 1};
  const std::vector<int> omega = {0, 2, 5};
  auto forward = [&]() {
    Tape tape;
    const Var loss =
        tape.KMeansLoss(tape.Leaf(&z), &centers, &assign, omega);
    return tape.value(loss)(0, 0);
  };
  {
    Tape tape;
    const Var loss =
        tape.KMeansLoss(tape.Leaf(&z), &centers, &assign, omega);
    z.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&z, forward);
  // Rows outside omega get zero gradient.
  EXPECT_DOUBLE_EQ(z.grad(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(z.grad(3, 1), 0.0);
}

TEST(TapeTest, DecKlGradient) {
  Rng rng(11);
  Parameter z(RandomMatrix(5, 2, rng));
  Parameter centers(RandomMatrix(3, 2, rng));
  // A valid target distribution (rows sum to 1).
  Matrix q(5, 3);
  for (int i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 3; ++j) {
      q(i, j) = 0.3 + 0.5 * ((i + j) % 3);
      sum += q(i, j);
    }
    for (int j = 0; j < 3; ++j) q(i, j) /= sum;
  }
  const std::vector<int> omega = {0, 1, 3};
  auto forward = [&]() {
    Tape tape;
    const Var loss =
        tape.DecKlLoss(tape.Leaf(&z), tape.Leaf(&centers), &q, omega);
    return tape.value(loss)(0, 0);
  };
  {
    Tape tape;
    const Var loss =
        tape.DecKlLoss(tape.Leaf(&z), tape.Leaf(&centers), &q, omega);
    z.ZeroGrad();
    centers.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&z, forward);
  CheckGradient(&centers, forward);
}

TEST(TapeTest, GmmNllGradient) {
  Rng rng(12);
  Parameter z(RandomMatrix(5, 2, rng));
  Parameter means(RandomMatrix(3, 2, rng));
  Parameter logvars(RandomMatrix(3, 2, rng, 0.2));
  Parameter logits(RandomMatrix(1, 3, rng, 0.4));
  const std::vector<int> omega = {0, 2, 4};
  auto forward = [&]() {
    Tape tape;
    const Var loss =
        tape.GmmNllLoss(tape.Leaf(&z), tape.Leaf(&means),
                        tape.Leaf(&logvars), tape.Leaf(&logits), omega);
    return tape.value(loss)(0, 0);
  };
  {
    Tape tape;
    const Var loss =
        tape.GmmNllLoss(tape.Leaf(&z), tape.Leaf(&means),
                        tape.Leaf(&logvars), tape.Leaf(&logits), omega);
    z.ZeroGrad();
    means.ZeroGrad();
    logvars.ZeroGrad();
    logits.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&z, forward, 2e-5);
  CheckGradient(&means, forward, 2e-5);
  CheckGradient(&logvars, forward, 2e-5);
  CheckGradient(&logits, forward, 2e-5);
}

TEST(TapeTest, BceWithLogitsGradientAndValue) {
  Parameter logits(Matrix(2, 1, {0.0, 0.0}));
  Matrix target(2, 1, {1.0, 0.0});
  Tape tape;
  const Var loss = tape.BceWithLogits(tape.Leaf(&logits), &target);
  // BCE at logit 0 is log(2) regardless of the target.
  EXPECT_NEAR(tape.value(loss)(0, 0), std::log(2.0), 1e-12);
  logits.ZeroGrad();
  tape.Backward(loss);
  EXPECT_NEAR(logits.grad(0, 0), (0.5 - 1.0) / 2.0, 1e-12);
  EXPECT_NEAR(logits.grad(1, 0), (0.5 - 0.0) / 2.0, 1e-12);
}

TEST(TapeTest, AddScalarsCombinesLosses) {
  Parameter mu(Matrix(2, 2, 0.5));
  Parameter logvar(Matrix(2, 2, 0.1));
  Tape tape;
  const Var l1 = tape.GaussianKlLoss(tape.Leaf(&mu), tape.Leaf(&logvar));
  const Var l2 = tape.Scale(l1, 2.0);
  const Var total = tape.AddScalars(l1, l2);
  EXPECT_NEAR(tape.value(total)(0, 0), 3.0 * tape.value(l1)(0, 0), 1e-12);
}

TEST(TapeTest, GradAccumulatesWhenParamUsedTwice) {
  Parameter a(Matrix(1, 1, 1.0));
  Matrix target(1, 1, 0.0);
  // loss = bce(a + a): gradient should be that of 2a.
  Tape tape;
  const Var sum = tape.Add(tape.Leaf(&a), tape.Leaf(&a));
  const Var loss = tape.BceWithLogits(sum, &target);
  a.ZeroGrad();
  tape.Backward(loss);
  const double sig = 1.0 / (1.0 + std::exp(-2.0));
  EXPECT_NEAR(a.grad(0, 0), 2.0 * sig, 1e-10);
}


TEST(TapeTest, GmmKlGradientOnZ) {
  Rng rng(13);
  Parameter z(RandomMatrix(5, 2, rng));
  Parameter means(RandomMatrix(3, 2, rng));
  Parameter logvars(RandomMatrix(3, 2, rng, 0.2));
  Parameter logits(RandomMatrix(1, 3, rng, 0.4));
  Matrix q(5, 3);
  for (int i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 3; ++j) {
      q(i, j) = 0.2 + 0.6 * ((i + j) % 3);
      sum += q(i, j);
    }
    for (int j = 0; j < 3; ++j) q(i, j) /= sum;
  }
  const std::vector<int> omega = {0, 2, 3};
  auto forward = [&]() {
    Tape tape;
    const Var loss =
        tape.GmmKlLoss(tape.Leaf(&z), tape.Leaf(&means), tape.Leaf(&logvars),
                       tape.Leaf(&logits), &q, omega);
    return tape.value(loss)(0, 0);
  };
  {
    Tape tape;
    const Var loss =
        tape.GmmKlLoss(tape.Leaf(&z), tape.Leaf(&means), tape.Leaf(&logvars),
                       tape.Leaf(&logits), &q, omega);
    z.ZeroGrad();
    means.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&z, forward, 2e-5);
  // Mixture parameters are EM-owned: the op must not write gradients.
  EXPECT_DOUBLE_EQ(means.grad.FrobeniusNorm(), 0.0);
}

TEST(TapeTest, GmmKlIsZeroWhenTargetMatchesResponsibilities) {
  // If Q equals the responsibilities exactly, KL(Q||R) = 0.
  Rng rng(14);
  Parameter z(RandomMatrix(4, 2, rng));
  Parameter means(RandomMatrix(2, 2, rng));
  Parameter logvars(Matrix(2, 2, 0.0));
  Parameter logits(Matrix(1, 2, 0.0));
  Matrix q;
  {
    Tape tape;
    // First pass with a uniform target just to extract responsibilities.
    Matrix uniform(4, 2, 0.5);
    const Var loss =
        tape.GmmKlLoss(tape.Leaf(&z), tape.Leaf(&means), tape.Leaf(&logvars),
                       tape.Leaf(&logits), &uniform);
    (void)loss;
    // Recompute responsibilities directly for the target.
    q = Matrix(4, 2);
    for (int i = 0; i < 4; ++i) {
      double s[2];
      for (int j = 0; j < 2; ++j) {
        double d2 = 0.0;
        for (int c = 0; c < 2; ++c) {
          const double diff = z.value(i, c) - means.value(j, c);
          d2 += diff * diff;
        }
        s[j] = -0.5 * d2;
      }
      const double m = std::max(s[0], s[1]);
      const double z0 = std::exp(s[0] - m), z1 = std::exp(s[1] - m);
      q(i, 0) = z0 / (z0 + z1);
      q(i, 1) = z1 / (z0 + z1);
    }
  }
  Tape tape;
  const Var loss =
      tape.GmmKlLoss(tape.Leaf(&z), tape.Leaf(&means), tape.Leaf(&logvars),
                     tape.Leaf(&logits), &q);
  EXPECT_NEAR(tape.value(loss)(0, 0), 0.0, 1e-9);
}


// Deep-composition gradient check: a GCN-like chain
// relu(S·(relu(S·X·W0))·W1) through the BCE decoder, differentiated w.r.t.
// both weight matrices.
class DeepCompositionTest : public ::testing::TestWithParam<int> {};

TEST_P(DeepCompositionTest, ChainedGradientsMatchFiniteDifferences) {
  Rng rng(GetParam() * 7 + 1);
  const CsrMatrix s = SmallGraph(5).AddSelfLoops().SymmetricallyNormalized();
  const CsrMatrix target = SmallGraph(5);
  const Matrix x = RandomMatrix(5, 4, rng);
  Parameter w0(RandomMatrix(4, 3, rng));
  Parameter w1(RandomMatrix(3, 2, rng));
  auto forward = [&]() {
    Tape tape;
    const Var h = tape.Relu(
        tape.Spmm(&s, tape.MatMul(tape.Constant(x), tape.Leaf(&w0))));
    const Var z = tape.Spmm(&s, tape.MatMul(h, tape.Leaf(&w1)));
    const Var loss = tape.InnerProductBceLoss(z, &target, 2.0, 0.7);
    return tape.value(loss)(0, 0);
  };
  {
    Tape tape;
    const Var h = tape.Relu(
        tape.Spmm(&s, tape.MatMul(tape.Constant(x), tape.Leaf(&w0))));
    const Var z = tape.Spmm(&s, tape.MatMul(h, tape.Leaf(&w1)));
    const Var loss = tape.InnerProductBceLoss(z, &target, 2.0, 0.7);
    w0.ZeroGrad();
    w1.ZeroGrad();
    tape.Backward(loss);
  }
  CheckGradient(&w0, forward, 5e-5);
  CheckGradient(&w1, forward, 5e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepCompositionTest, ::testing::Range(1, 5));

}  // namespace
}  // namespace rgae
