#ifndef RGAE_ANALYSIS_SHAPE_H_
#define RGAE_ANALYSIS_SHAPE_H_

#include <stdexcept>
#include <string>
#include <vector>

namespace rgae {

class CsrMatrix;

/// Error thrown when a `Tape` op records a malformed node: a shape mismatch,
/// an invalid or foreign-tape `Var`, a null external operand, or `Backward`
/// misuse. Raised at node-creation time so the failure points at the
/// offending op instead of surfacing three ops later as UB or a garbage
/// gradient.
class TapeError : public std::runtime_error {
 public:
  explicit TapeError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Dimensions of a tape node. A plain aggregate so the shape rules below are
/// usable symbolically (the linter and its tests exercise them without
/// materializing matrices).
struct Shape {
  int rows = 0;
  int cols = 0;

  bool operator==(const Shape& o) const {
    return rows == o.rows && cols == o.cols;
  }
  bool operator!=(const Shape& o) const { return !(*this == o); }

  bool scalar() const { return rows == 1 && cols == 1; }
  /// "3x4".
  std::string ToString() const;
};

// Shape-inference rules, one per `Tape` op family. Each validates its
// operand shapes and returns the op's output shape; every violation throws
// `TapeError` with a message naming the op and the offending dimensions.

/// (m,k) x (k,n) -> (m,n).
Shape InferMatMul(const Shape& a, const Shape& b);
/// Sparse (m,n) x dense (n,d) -> (m,d).
Shape InferSpmm(const Shape& s, const Shape& x);
/// Same-shape binary op (Add/Sub/Hadamard); `op` names the caller.
Shape InferElementwise(const char* op, const Shape& a, const Shape& b);
/// a + row-broadcast bias; bias must be 1 x a.cols.
Shape InferAddRowBroadcast(const Shape& a, const Shape& bias);
/// Row selection; every index must be in [0, a.rows).
Shape InferGatherRows(const Shape& a, const std::vector<int>& rows);
/// BCE(sigmoid(Z Zᵀ), target): target must be square with z.rows rows, and
/// the decoder's packed σ cache of z.rows·(z.rows+1)/2 entries must fit in
/// an int (z.rows <= 65535).
Shape InferInnerProductBce(const Shape& z, const Shape& target);
/// The decoder's target contract: its positives (stored non-zero entries)
/// are symmetric, (i,j) positive exactly when (j,i) is. Structural zeros
/// need no mirror. `target` must be square.
void CheckSymmetricPositives(const char* op, const CsrMatrix& target);
/// Prior KL: mu and logvar must agree.
Shape InferGaussianKl(const Shape& mu, const Shape& logvar);
/// Embedded k-means: centers (K,d) with d = z.cols, one assignment in
/// [0, K) per embedding row, optional Ω subset of rows.
Shape InferKMeans(const Shape& z, const Shape& centers,
                  const std::vector<int>& assign, const std::vector<int>& rows);
/// DEC KL: centers (K,d) with d = z.cols, target Q (z.rows, K).
Shape InferDecKl(const Shape& z, const Shape& centers, const Shape& target_q,
                 const std::vector<int>& rows);
/// Mixture losses (GmmNll/GmmKl): means and logvars (K,d) with d = z.cols,
/// mixture logits (1,K); `op` names the caller.
Shape InferGmmMixture(const char* op, const Shape& z, const Shape& means,
                      const Shape& logvars, const Shape& pi_logits,
                      const std::vector<int>& rows);
/// GmmKl additionally takes the constant target Q (z.rows, K).
Shape InferGmmKl(const Shape& z, const Shape& means, const Shape& logvars,
                 const Shape& pi_logits, const Shape& target_q,
                 const std::vector<int>& rows);
/// Elementwise BCE: targets must match the logits shape.
Shape InferBceWithLogits(const Shape& logits, const Shape& targets);
/// Scalar addition: both operands must be 1x1.
Shape InferAddScalars(const Shape& a, const Shape& b);

/// Validates a row-subset argument (the reliable set Ω) against a node count.
/// Throws unless every index is in [0, num_rows).
void CheckRowSubset(const char* op, const std::vector<int>& rows,
                    int num_rows);

}  // namespace rgae

#endif  // RGAE_ANALYSIS_SHAPE_H_
