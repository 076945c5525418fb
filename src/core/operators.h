#ifndef RGAE_CORE_OPERATORS_H_
#define RGAE_CORE_OPERATORS_H_

#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/tensor/matrix.h"

namespace rgae {

/// Configuration of the sampling operator Ξ (Algorithm 1). `alpha2 < 0`
/// selects the paper's default α₂ = α₁ / 2. The `use_alpha*` switches
/// implement the Table-8 ablations (a disabled criterion always passes).
struct XiOptions {
  double alpha1 = 0.3;
  double alpha2 = -1.0;
  bool use_alpha1 = true;
  bool use_alpha2 = true;

  double EffectiveAlpha2() const { return alpha2 < 0.0 ? alpha1 / 2.0 : alpha2; }
};

/// Output of operator Ξ.
struct XiResult {
  /// Reliable ("decidable") node ids Ω, ascending.
  std::vector<int> omega;
  /// First high-confidence score λ¹ per node (Eq. 16).
  std::vector<double> lambda1;
  /// Second high-confidence score λ² per node (Eq. 17).
  std::vector<double> lambda2;
};

/// Operator Ξ — the protection mechanism against Feature Randomness.
///
/// Takes the soft clustering-assignment matrix P' (n x K, rows on the
/// simplex; when the base model produces hard assignments, convert them
/// first with `SoftenHardAssignments`) and selects the nodes whose first
/// high-confidence score clears α₁ and whose (λ¹ - λ²) margin clears α₂
/// (Eq. 18). Complexity O(N·K), O(N·K²·d) including the Eq.-15 softening.
XiResult OperatorXi(const Matrix& soft_assignments, const XiOptions& options);

/// Eq. (15): converts hard assignments into soft scores by Gaussian
/// similarity to the cluster representatives under per-cluster diagonal
/// variances, both estimated from the embeddings.
Matrix SoftenHardAssignments(const Matrix& z,
                             const std::vector<int>& hard_assignments, int k);

/// Configuration of the graph-transforming operator Υ (Algorithm 2). The
/// switches implement the Table-9 ablations.
struct UpsilonOptions {
  bool add_edges = true;
  bool drop_edges = true;
};

/// Statistics of one Υ application (drives the Fig. 4/9 benches).
struct UpsilonStats {
  int added_edges = 0;
  int added_true = 0;    // Added edges joining same-ground-truth-label nodes.
  int added_false = 0;
  int dropped_edges = 0;
  int dropped_true = 0;  // Dropped edges that joined same-label nodes.
  int dropped_false = 0;
  std::vector<int> centroids;  // Π: one representative node per cluster.
};

/// Operator Υ — the correction mechanism against Feature Drift.
///
/// Starting from the *original* sparse graph A, connects each reliable node
/// with its cluster's centroid node (Π, the Ω-member nearest to the mean of
/// the reliable embeddings of that cluster) when both agree on the cluster,
/// and drops edges between reliable nodes of different clusters. The result
/// converges to K star-shaped sub-graphs as Ω → 𝒱.
///
/// `z` are the embeddings, `p` the soft assignments (n x K), `omega` the
/// reliable set from Ξ (pass all of 𝒱 for the one-shot protection variant).
/// If `stats` is non-null and the graph has labels, edge-quality statistics
/// are recorded.
AttributedGraph OperatorUpsilon(const AttributedGraph& original,
                                const Matrix& z, const Matrix& p,
                                const std::vector<int>& omega,
                                const UpsilonOptions& options,
                                UpsilonStats* stats = nullptr);

/// The edges of `OperatorUpsilon(original, z, p, omega, options, stats)`
/// (canonical, ascending, as `AttributedGraph::edges()` holds them), with
/// the same `stats`, but without copying the graph's features and labels:
/// for a caller that keeps its own copy of the graph and commits the edges
/// with `AttributedGraph::SetEdges`.
std::vector<std::pair<int, int>> OperatorUpsilonEdges(
    const AttributedGraph& original, const Matrix& z, const Matrix& p,
    const std::vector<int>& omega, const UpsilonOptions& options,
    UpsilonStats* stats = nullptr);

}  // namespace rgae

#endif  // RGAE_CORE_OPERATORS_H_
