#include "src/graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace rgae {

namespace {

// Draws cluster sizes that sum to `n`: balanced when imbalance == 0, skewed
// toward earlier clusters as imbalance -> 1.
std::vector<int> DrawClusterSizes(int n, int k, double imbalance, Rng& rng) {
  std::vector<double> weights(k);
  for (int c = 0; c < k; ++c) {
    weights[c] = 1.0 + imbalance * rng.Uniform() * k;
  }
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<int> sizes(k, 1);  // Every cluster gets at least one node.
  int assigned = k;
  for (int c = 0; c < k; ++c) {
    const int extra = static_cast<int>((n - k) * weights[c] / total);
    sizes[c] += extra;
    assigned += extra;
  }
  for (int c = 0; assigned < n; ++assigned, c = (c + 1) % k) ++sizes[c];
  return sizes;
}

}  // namespace

AttributedGraph MakeCitationLike(const CitationLikeOptions& o, Rng& rng) {
  assert(o.num_nodes > 0 && o.num_clusters > 0 && o.feature_dim > 0);
  assert(o.num_clusters * o.topic_words <= o.feature_dim);
  AttributedGraph g(o.num_nodes);

  // Labels: contiguous block assignment, then shuffled node order so that
  // node id carries no cluster information.
  const std::vector<int> sizes =
      DrawClusterSizes(o.num_nodes, o.num_clusters, o.imbalance, rng);
  std::vector<int> perm(o.num_nodes);
  for (int i = 0; i < o.num_nodes; ++i) perm[i] = i;
  rng.Shuffle(&perm);
  std::vector<int> labels(o.num_nodes);
  {
    int next = 0;
    for (int c = 0; c < o.num_clusters; ++c) {
      for (int s = 0; s < sizes[c]; ++s) labels[perm[next++]] = c;
    }
  }
  g.set_labels(labels);
  std::vector<std::vector<int>> members(o.num_clusters);
  for (int i = 0; i < o.num_nodes; ++i) members[labels[i]].push_back(i);

  // Edges: sparse SBM sampled by expected edge counts per block pair, which
  // keeps generation O(E) instead of O(N²).
  EdgeBatch batch(&g);
  auto sample_edges = [&](const std::vector<int>& us,
                          const std::vector<int>& vs, double expected,
                          bool same) {
    const int target = static_cast<int>(std::lround(expected));
    int attempts = 0;
    int added = 0;
    const int max_attempts = target * 20 + 50;
    while (added < target && attempts < max_attempts) {
      ++attempts;
      const int u = us[rng.UniformInt(static_cast<int>(us.size()))];
      const int v = vs[rng.UniformInt(static_cast<int>(vs.size()))];
      if (u == v) continue;
      if (same || labels[u] != labels[v]) {
        if (batch.Add(u, v)) ++added;
      }
    }
  };
  std::vector<int> all(o.num_nodes);
  for (int i = 0; i < o.num_nodes; ++i) all[i] = i;
  for (int c = 0; c < o.num_clusters; ++c) {
    // Each intra edge covers two endpoints: expected edges = n_c * deg / 2.
    sample_edges(members[c], members[c],
                 members[c].size() * o.intra_degree / 2.0, /*same=*/true);
  }
  sample_edges(all, all, o.num_nodes * o.inter_degree / 2.0, /*same=*/false);
  batch.Commit();

  // Features: per-cluster topic words + background noise.
  Matrix x(o.num_nodes, o.feature_dim);
  for (int i = 0; i < o.num_nodes; ++i) {
    const int c = labels[i];
    const int topic_begin = c * o.topic_words;
    for (int j = 0; j < o.feature_dim; ++j) {
      const bool topical = j >= topic_begin && j < topic_begin + o.topic_words;
      const double p = topical ? o.word_on_prob : o.word_noise_prob;
      if (rng.Bernoulli(p)) x(i, j) = 1.0;
    }
  }
  g.set_features(std::move(x));
  g.NormalizeFeatureRows();
  return g;
}

AttributedGraph MakeAirTrafficLike(const AirTrafficLikeOptions& o, Rng& rng) {
  assert(o.num_nodes > 0 && o.num_levels > 0);
  AttributedGraph g(o.num_nodes);

  // Activity levels (balanced), shuffled over node ids.
  std::vector<int> labels(o.num_nodes);
  for (int i = 0; i < o.num_nodes; ++i) labels[i] = i % o.num_levels;
  rng.Shuffle(&labels);
  g.set_labels(labels);

  // Chung-Lu weights: expected degree grows geometrically with the level,
  // with lognormal jitter so that neighboring levels overlap slightly.
  std::vector<double> weight(o.num_nodes);
  double total_weight = 0.0;
  for (int i = 0; i < o.num_nodes; ++i) {
    const double mean_deg =
        o.base_degree * std::pow(o.level_ratio, labels[i]);
    weight[i] = mean_deg * std::exp(rng.Gaussian(0.0, o.degree_jitter));
    total_weight += weight[i];
  }
  // Edge sampling: number of edges = total expected degree / 2; endpoints
  // drawn proportionally to weight (classic Chung-Lu approximation).
  const int target_edges = static_cast<int>(total_weight / 2.0);
  std::vector<double> cumulative(o.num_nodes);
  double acc = 0.0;
  for (int i = 0; i < o.num_nodes; ++i) {
    acc += weight[i];
    cumulative[i] = acc;
  }
  auto draw_node = [&]() {
    const double x = rng.Uniform() * acc;
    return static_cast<int>(std::lower_bound(cumulative.begin(),
                                             cumulative.end(), x) -
                            cumulative.begin());
  };
  EdgeBatch batch(&g);
  int added = 0;
  int attempts = 0;
  const int max_attempts = target_edges * 30 + 100;
  while (added < target_edges && attempts < max_attempts) {
    ++attempts;
    const int u = draw_node();
    const int v = draw_node();
    if (u == v) continue;
    if (batch.Add(u, v)) ++added;
  }
  batch.Commit();

  g.SetOneHotDegreeFeatures(o.max_degree_bucket);
  g.NormalizeFeatureRows();  // One-hot rows are already unit norm; harmless.
  return g;
}

}  // namespace rgae
