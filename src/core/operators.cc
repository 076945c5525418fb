#include "src/core/operators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "src/clustering/assignments.h"
#include "src/kernels/kernels.h"
#include "src/obs/trace.h"

namespace rgae {

XiResult OperatorXi(const Matrix& soft_assignments, const XiOptions& options) {
  RGAE_TIMED_KERNEL("op.xi");
  const int n = soft_assignments.rows();
  const int k = soft_assignments.cols();
  // Cost model: one comparison sweep over the n·k assignment matrix.
  RGAE_KERNEL_WORK("op.xi", static_cast<int64_t>(n) * k,
                   8LL * n * k);
  assert(k >= 2);
  XiResult result;
  result.lambda1.resize(n);
  result.lambda2.resize(n);
  const double alpha2 = options.EffectiveAlpha2();
  // First and second high-confidence scores (Eqs. 16-17).
  kernels::TopTwo(soft_assignments.data(), n, k, result.lambda1.data(),
                  result.lambda2.data());
  for (int i = 0; i < n; ++i) {
    const double l1 = result.lambda1[i];
    const double l2 = result.lambda2[i];
    const bool pass1 = !options.use_alpha1 || l1 >= options.alpha1;
    const bool pass2 = !options.use_alpha2 || (l1 - l2) >= alpha2;
    if (pass1 && pass2) result.omega.push_back(i);
  }
  if (obs::Enabled()) {
    RGAE_COUNT("op.xi.calls");
    static obs::Gauge* const omega_size =
        obs::MetricsRegistry::Global().GetGauge("op.xi.omega_size");
    omega_size->Set(static_cast<double>(result.omega.size()));
  }
  return result;
}

Matrix SoftenHardAssignments(const Matrix& z,
                             const std::vector<int>& hard_assignments,
                             int k) {
  const Matrix variances = ClusterVariances(z, hard_assignments, k);
  // Cluster representatives = per-cluster means of the embeddings.
  Matrix means(k, z.cols());
  std::vector<int> counts(k, 0);
  for (int i = 0; i < z.rows(); ++i) {
    const int c = hard_assignments[i];
    ++counts[c];
    for (int j = 0; j < z.cols(); ++j) means(c, j) += z(i, j);
  }
  for (int c = 0; c < k; ++c) {
    if (counts[c] > 0) {
      for (int j = 0; j < z.cols(); ++j) means(c, j) /= counts[c];
    }
  }
  return GaussianSoftAssignments(z, means, variances);
}

AttributedGraph OperatorUpsilon(const AttributedGraph& original,
                                const Matrix& z, const Matrix& p,
                                const std::vector<int>& omega,
                                const UpsilonOptions& options,
                                UpsilonStats* stats) {
  AttributedGraph out = original;  // A's nodes, features and labels.
  out.SetEdges(OperatorUpsilonEdges(original, z, p, omega, options, stats));
  return out;
}

std::vector<std::pair<int, int>> OperatorUpsilonEdges(
    const AttributedGraph& original, const Matrix& z, const Matrix& p,
    const std::vector<int>& omega, const UpsilonOptions& options,
    UpsilonStats* stats) {
  RGAE_TIMED_KERNEL("op.upsilon");
  const int k = p.cols();
  assert(z.rows() == original.num_nodes() && p.rows() == original.num_nodes());
  UpsilonStats local_stats;
  UpsilonStats* st = stats != nullptr ? stats : &local_stats;
  *st = UpsilonStats();
  st->centroids.assign(k, -1);

  // A^self_clus starts from A (Alg. 2, l.4).
  if (omega.empty()) return original.edges();

  const std::vector<int> hard = HardAssign(p);

  // Guideline 1: per-cluster mean of reliable embeddings, then Π[j] =
  // 1-NN(μ̃_j, Ω).
  Matrix mu(k, z.cols());
  std::vector<int> counts(k, 0);
  for (int i : omega) {
    const int c = hard[i];
    ++counts[c];
    for (int j = 0; j < z.cols(); ++j) mu(c, j) += z(i, j);
  }
  for (int c = 0; c < k; ++c) {
    if (counts[c] > 0) {
      for (int j = 0; j < z.cols(); ++j) mu(c, j) /= counts[c];
    }
  }
  for (int c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;  // No reliable node for this cluster yet.
    double best = std::numeric_limits<double>::max();
    for (int i : omega) {
      const double d = RowSquaredDistance(z, i, mu, c);
      if (d < best) {
        best = d;
        st->centroids[c] = i;
      }
    }
  }

  // Guideline 2: add star edges; drop cross-cluster edges within Ω. A star
  // edge joins two nodes of one cluster and a dropped edge two of different
  // clusters, so no edit undoes another, and the per-node edits of
  // Algorithm 2 come down to one merge of the sorted star edges into the
  // original edges, less the dropped ones.
  std::vector<char> in_omega(original.num_nodes(), 0);
  for (int i : omega) in_omega[i] = 1;
  const bool labeled = original.has_labels();
  const auto same_label = [&](int a, int b) {
    return original.labels()[a] == original.labels()[b];
  };
  std::vector<std::pair<int, int>> star;
  if (options.add_edges) {
    for (int i : omega) {
      const int centroid = st->centroids[hard[i]];
      // Only connect when the centroid itself agrees on the cluster.
      if (centroid >= 0 && centroid != i && hard[centroid] == hard[i]) {
        star.push_back(std::minmax(i, centroid));
      }
    }
    std::sort(star.begin(), star.end());
    star.erase(std::unique(star.begin(), star.end()), star.end());
  }
  const auto add = [&](const std::pair<int, int>& e) {
    ++st->added_edges;
    if (labeled) ++(same_label(e.first, e.second) ? st->added_true
                                                  : st->added_false);
  };
  std::vector<std::pair<int, int>> edges;
  edges.reserve(original.edges().size() + star.size());
  auto next_star = star.begin();
  for (const std::pair<int, int>& e : original.edges()) {
    for (; next_star != star.end() && *next_star < e; ++next_star) {
      add(*next_star);
      edges.push_back(*next_star);
    }
    if (next_star != star.end() && *next_star == e) ++next_star;  // Linked.
    const auto [a, b] = e;
    if (options.drop_edges && in_omega[a] && in_omega[b] &&
        hard[a] != hard[b]) {
      ++st->dropped_edges;
      if (labeled) ++(same_label(a, b) ? st->dropped_true : st->dropped_false);
      continue;
    }
    edges.push_back(e);
  }
  for (; next_star != star.end(); ++next_star) {
    add(*next_star);
    edges.push_back(*next_star);
  }
  if (obs::Enabled()) {
    RGAE_COUNT("op.upsilon.calls");
    static obs::Counter* const added =
        obs::MetricsRegistry::Global().GetCounter("op.upsilon.added_edges");
    static obs::Counter* const dropped =
        obs::MetricsRegistry::Global().GetCounter("op.upsilon.dropped_edges");
    added->Inc(st->added_edges);
    dropped->Inc(st->dropped_edges);
  }
  return edges;
}

}  // namespace rgae
