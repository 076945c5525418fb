#ifndef RGAE_TENSOR_AUTOGRAD_H_
#define RGAE_TENSOR_AUTOGRAD_H_

#include <array>
#include <vector>

#include "src/graph/csr.h"
#include "src/tensor/matrix.h"

namespace rgae {

/// A trainable tensor: value + gradient accumulator + Adam state.
///
/// Parameters are owned by models and outlive any single `Tape`. A forward
/// pass registers them on a tape with `Tape::Leaf`; `Tape::Backward`
/// accumulates into `grad`; the optimizer then consumes `grad` and the model
/// calls `ZeroGrad` before the next step.
struct Parameter {
  explicit Parameter(Matrix v)
      : value(std::move(v)),
        grad(value.rows(), value.cols()),
        adam_m(value.rows(), value.cols()),
        adam_v(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.Zero(); }

  Matrix value;
  Matrix grad;
  Matrix adam_m;
  Matrix adam_v;
};

class Tape;

/// Handle to a node on a `Tape`. Carries the owning tape so every op can
/// reject handles from another tape (or default-constructed ones) instead of
/// silently indexing into the wrong node list.
struct Var {
  int id = -1;
  const Tape* tape = nullptr;
  bool valid() const { return id >= 0 && tape != nullptr; }
};

/// Introspection view of one recorded tape node, consumed by the tape linter
/// (`src/analysis/tape_lint.h`). `inputs` holds node ids (-1 = unused slot);
/// `grad_flow[i]` says whether `Backward` propagates a gradient into
/// `inputs[i]` (false for inputs that need none — constants and nodes
/// computed only from constants — and for the EM-owned mixture operands of
/// `GmmKlLoss`).
struct TapeNodeView {
  int id = -1;
  const char* op = "";
  std::array<int, 4> inputs{{-1, -1, -1, -1}};
  std::array<bool, 4> grad_flow{{false, false, false, false}};
  const Parameter* param = nullptr;  // Non-null for parameter leaves.
  int rows = 0;
  int cols = 0;
};

/// Reverse-mode automatic differentiation tape over dense matrices.
///
/// A tape records one forward computation; `Backward` walks it in reverse
/// and accumulates gradients into intermediate nodes and registered
/// `Parameter`s. Tapes are cheap to construct; models build a fresh tape per
/// training step.
///
/// Each node records at `Push` whether it requires a gradient: `Leaf` does,
/// `Constant` does not, and every other op does when any input does.
/// `Backward` computes no gradient for an input without the bit (the
/// encoder's dX = G·W₀ᵀ into the constant feature matrix, for one), and
/// `NodeViews` reports such inputs with `grad_flow = false`.
///
/// Beyond elementwise/matmul primitives, the tape provides *fused* scalar
/// losses used by the GAE model zoo. Fusing keeps the O(N²) decoder math in
/// one place:
///
///  * `InnerProductBceLoss` — the GAE/VGAE reconstruction loss
///    `L_bce(sigmoid(Z Zᵀ), A_self)` with Kipf-style positive re-weighting.
///    One tiled kernel (`kernels::InnerProductBce`/`InnerProductBceGrad`)
///    builds only the upper triangle of S = Z Zᵀ, takes one exp per node
///    pair and caches σ(S) as a packed triangle: no N×N buffer exists in
///    forward or backward. Gradients are bit-identical to the unfused
///    dense composition on every ISA; the loss value is summed in a fixed
///    tiled order (DESIGN.md §9).
///  * `GaussianKlLoss`       — the VGAE prior KL term.
///  * `KMeansLoss`           — embedded k-means `L_C(Z, A_clus)` with fixed
///                             centers/assignments (Proposition 2 form).
///  * `DecKlLoss`            — DGAE's KL(Q ‖ P) with Student-t soft
///                             assignments (Appendix B, Eqs. 19–20).
///  * `GmmNllLoss`           — GMM-VGAE's mixture negative log-likelihood.
///  * `BceWithLogits`        — discriminator loss for ARGAE/ARVGAE.
///
/// All loss nodes are 1x1 matrices. Losses that drive the clustering head
/// accept an optional node subset (the reliable set Ω from operator Ξ).
///
/// Every op validates its operands at node-creation time — shapes (via the
/// inference rules in `src/analysis/shape.h`), `Var` ownership, null
/// external operands, and index ranges — and throws `TapeError` with a
/// descriptive message on any violation, in all build types. `Backward` on a
/// non-scalar node, a second `Backward`, or recording after `Backward` throw
/// as well. `src/analysis/tape_lint.h` adds a post-forward dataflow audit on
/// top of the `NodeViews` introspection below.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // ---- Leaves -------------------------------------------------------------

  /// Registers a trainable parameter. Gradients flow into `p->grad`.
  Var Leaf(Parameter* p);
  /// A constant leaf; no gradient is propagated.
  Var Constant(Matrix value);

  // ---- Structural / elementwise ops ---------------------------------------

  /// a * b.
  Var MatMul(Var a, Var b);
  /// s * x for a constant sparse matrix `s` (graph filter or feature
  /// matrix). `s` must outlive the tape.
  Var Spmm(const CsrMatrix* s, Var x);
  /// a + b (same shape).
  Var Add(Var a, Var b);
  /// a - b (same shape).
  Var Sub(Var a, Var b);
  /// a ⊙ b (same shape).
  Var Hadamard(Var a, Var b);
  /// s * a.
  Var Scale(Var a, double s);
  /// max(a, 0) elementwise.
  Var Relu(Var a);
  /// exp(a) elementwise.
  Var Exp(Var a);
  /// tanh(a) elementwise.
  Var Tanh(Var a);
  /// a + row-broadcast bias; bias must be 1 x a.cols().
  Var AddRowBroadcast(Var a, Var bias);
  /// Selects rows of `a` in the given order.
  Var GatherRows(Var a, std::vector<int> rows);

  // ---- Fused scalar losses -------------------------------------------------

  /// Weighted binary cross-entropy between sigmoid(Z Zᵀ) and the 0/1 target
  /// graph. Positive entries are weighted by `pos_weight`; the mean over all
  /// N² entries is multiplied by `norm` (Kipf & Welling's conventions, which
  /// all the paper's models follow). `target` must outlive the tape.
  Var InnerProductBceLoss(Var z, const CsrMatrix* target, double pos_weight,
                          double norm);

  /// VGAE prior KL with Kipf's normalization:
  /// -(0.5/N²) Σ (1 + logvar - mu² - exp(logvar)).
  Var GaussianKlLoss(Var mu, Var logvar);

  /// Embedded k-means loss with constant centers and hard assignments,
  /// averaged over `rows` (all rows when empty): Σ ||z_i - μ_{a_i}||² / |Ω|.
  Var KMeansLoss(Var z, const Matrix* centers, const std::vector<int>* assign,
                 std::vector<int> rows = {});

  /// DEC-style KL(Q ‖ P) where P is the Student-t soft assignment of `z`
  /// against trainable `centers` and Q is a constant target distribution
  /// (rows of Q must sum to 1). Restricted to `rows` when non-empty; Q is
  /// indexed by *original* node id.
  Var DecKlLoss(Var z, Var centers, const Matrix* target_q,
                std::vector<int> rows = {});

  /// Negative log-likelihood of `z` under a diagonal-covariance Gaussian
  /// mixture with trainable means (K x d), log-variances (K x d) and mixture
  /// logits (1 x K). Restricted to `rows` when non-empty.
  Var GmmNllLoss(Var z, Var means, Var logvars, Var pi_logits,
                 std::vector<int> rows = {});

  /// DEC-style KL(Q ‖ R) where R are the posterior responsibilities of `z`
  /// under the mixture described by (means, logvars, pi_logits) and Q is a
  /// constant target distribution indexed by original node id. Gradients
  /// flow ONLY into `z`: the mixture parameters are owned by an external EM
  /// loop (GMM-VGAE), so their leaves receive no gradient from this op.
  /// Restricted to `rows` when non-empty.
  Var GmmKlLoss(Var z, Var means, Var logvars, Var pi_logits,
                const Matrix* target_q, std::vector<int> rows = {});

  /// Mean binary cross-entropy between sigmoid(logits) and constant targets
  /// (same shape). Used by the ARGAE discriminator/generator losses.
  Var BceWithLogits(Var logits, const Matrix* targets);

  /// a + b for two scalar (1x1) nodes.
  Var AddScalars(Var a, Var b);

  // ---- Execution ------------------------------------------------------------

  /// Value of a node.
  const Matrix& value(Var v) const;
  /// Gradient accumulated at a node (valid after Backward).
  const Matrix& grad(Var v) const;

  /// Runs reverse-mode accumulation from the scalar node `loss` (seeds 1).
  /// Parameter leaves receive gradients in `Parameter::grad` (accumulated,
  /// not overwritten). May be called once per tape; a second call throws
  /// `TapeError`.
  void Backward(Var loss);

  /// Number of recorded nodes.
  int size() const { return static_cast<int>(nodes_.size()); }

  // ---- Introspection (tape linter) ----------------------------------------

  /// Per-node views of the recorded graph, in recording (topological) order.
  std::vector<TapeNodeView> NodeViews() const;
  /// True once `Backward` has run.
  bool backward_done() const { return backward_done_; }

 private:
  enum class Op {
    kLeaf,
    kConstant,
    kMatMul,
    kSpmm,
    kAdd,
    kSub,
    kHadamard,
    kScale,
    kRelu,
    kExp,
    kTanh,
    kAddRowBroadcast,
    kGatherRows,
    kInnerProductBce,
    kGaussianKl,
    kKMeans,
    kDecKl,
    kGmmNll,
    kGmmKl,
    kBceWithLogits,
    kAddScalars,
  };

  struct Node {
    Op op;
    int a = -1, b = -1, c = -1, d = -1;
    bool requires_grad = false;  // Set by Push; see the class comment.
    Matrix value;
    Matrix grad;
    Parameter* param = nullptr;
    double scalar = 0.0;
    double w1 = 0.0, w2 = 0.0;  // loss weights (pos_weight, norm).
    Matrix aux;                 // op-specific forward cache.
    Matrix aux2;
    const CsrMatrix* sparse = nullptr;
    const Matrix* ext = nullptr;
    const std::vector<int>* ext_idx = nullptr;
    std::vector<int> indices;
  };

  int Push(Node node);
  /// Throws `TapeError` unless `v` is a live handle onto this tape; `op`
  /// names the caller in the message.
  void CheckVar(const char* op, Var v) const;
  Node& node(Var v) { return nodes_[v.id]; }
  const Node& node(Var v) const { return nodes_[v.id]; }
  bool RequiresGrad(int id) const {
    return id >= 0 && nodes_[id].requires_grad;
  }
  void EnsureGrad(int id);
  /// Gradient buffer of input `id` (created on first use), or null when
  /// the input requires no gradient and Backward should skip it.
  Matrix* InputGrad(int id);
  void BackwardNode(int id);

  std::vector<Node> nodes_;
  bool backward_done_ = false;
};

}  // namespace rgae

#endif  // RGAE_TENSOR_AUTOGRAD_H_
