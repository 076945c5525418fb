#include "src/graph/corrupt.h"

#include <numeric>
#include <utility>
#include <vector>

namespace rgae {

int AddRandomEdges(AttributedGraph* g, int count, Rng& rng) {
  const int n = g->num_nodes();
  if (n < 2 || count <= 0) return 0;  // No addable pair exists.
  // A (near-)complete graph exhausts max_attempts instead of looping
  // forever: the return value reports how many edges actually fit.
  EdgeBatch batch(g);
  int added = 0;
  int attempts = 0;
  const int max_attempts = count * 50 + 100;
  while (added < count && attempts < max_attempts) {
    ++attempts;
    const int u = rng.UniformInt(n);
    const int v = rng.UniformInt(n);
    if (u == v) continue;
    if (batch.Add(u, v)) ++added;
  }
  batch.Commit();
  return added;
}

int DropRandomEdges(AttributedGraph* g, int count, Rng& rng) {
  // Each draw picks one of the edges still kept, by position in a pool that
  // swaps its last entry into the hole; the survivors are committed once.
  const std::vector<std::pair<int, int>>& edges = g->edges();
  std::vector<int> pool(edges.size());
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<char> drop(edges.size(), 0);
  int dropped = 0;
  while (dropped < count && !pool.empty()) {
    const int idx = rng.UniformInt(static_cast<int>(pool.size()));
    drop[pool[idx]] = 1;
    pool[idx] = pool.back();
    pool.pop_back();
    ++dropped;
  }
  std::vector<std::pair<int, int>> kept;
  kept.reserve(edges.size() - dropped);
  for (size_t i = 0; i < edges.size(); ++i) {
    if (!drop[i]) kept.push_back(edges[i]);
  }
  g->SetEdges(std::move(kept));
  return dropped;
}

void AddFeatureNoise(AttributedGraph* g, double stddev, Rng& rng) {
  Matrix* x = g->mutable_features();
  if (x->empty()) return;  // Featureless graphs: nothing to perturb.
  for (int r = 0; r < x->rows(); ++r) {
    double* p = x->row(r);
    for (int c = 0; c < x->cols(); ++c) p[c] += rng.Gaussian(0.0, stddev);
  }
}

int DropFeatureColumns(AttributedGraph* g, int count, Rng& rng) {
  Matrix* x = g->mutable_features();
  std::vector<int> cols(x->cols());
  for (int c = 0; c < x->cols(); ++c) cols[c] = c;
  rng.Shuffle(&cols);
  const int to_drop = std::min(count, x->cols());
  for (int i = 0; i < to_drop; ++i) {
    for (int r = 0; r < x->rows(); ++r) (*x)(r, cols[i]) = 0.0;
  }
  return to_drop;
}

}  // namespace rgae
