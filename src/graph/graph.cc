#include "src/graph/graph.h"

#include <algorithm>
#include <cassert>
#include <tuple>

namespace rgae {

namespace {

std::pair<int, int> Canonical(int u, int v) {
  return {std::min(u, v), std::max(u, v)};
}

}  // namespace

int AttributedGraph::num_clusters() const {
  int k = 0;
  for (int label : labels_) k = std::max(k, label + 1);
  return k;
}

bool AttributedGraph::AddEdge(int u, int v) {
  assert(u >= 0 && u < num_nodes_ && v >= 0 && v < num_nodes_);
  if (u == v) return false;
  const std::pair<int, int> e = Canonical(u, v);
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), e);
  if (it != edges_.end() && *it == e) return false;
  edges_.insert(it, e);
  return true;
}

bool AttributedGraph::RemoveEdge(int u, int v) {
  const std::pair<int, int> e = Canonical(u, v);
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), e);
  if (it == edges_.end() || *it != e) return false;
  edges_.erase(it);
  return true;
}

bool AttributedGraph::HasEdge(int u, int v) const {
  if (u == v) return false;
  return std::binary_search(edges_.begin(), edges_.end(), Canonical(u, v));
}

void AttributedGraph::SetEdges(std::vector<std::pair<int, int>> edges) {
  bool sorted = true;
  for (size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    assert(u >= 0 && u < num_nodes_ && v >= 0 && v < num_nodes_);
    sorted = sorted && u < v && (i == 0 || edges[i - 1] < edges[i]);
  }
  if (!sorted) {
    for (auto& [u, v] : edges) std::tie(u, v) = Canonical(u, v);
    std::erase_if(edges, [](const auto& e) { return e.first == e.second; });
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  edges_ = std::move(edges);
}

int AttributedGraph::Degree(int u) const {
  int d = 0;
  for (const auto& [a, b] : edges_) {
    if (a == u || b == u) ++d;
  }
  return d;
}

std::vector<int> AttributedGraph::Degrees() const {
  std::vector<int> deg(num_nodes_, 0);
  for (const auto& [a, b] : edges_) {
    ++deg[a];
    ++deg[b];
  }
  return deg;
}

CsrMatrix AttributedGraph::Adjacency() const {
  std::vector<int> row_ptr(static_cast<size_t>(num_nodes_) + 1, 0);
  for (const auto& [a, b] : edges_) {
    ++row_ptr[a + 1];
    ++row_ptr[b + 1];
  }
  for (int r = 0; r < num_nodes_; ++r) row_ptr[r + 1] += row_ptr[r];
  // One pass in edge order fills every row ascending: row r takes the a of
  // each edge (a, r) in ascending a, and all of them come before the edges
  // (r, b), which follow in ascending b.
  std::vector<int> col_idx(edges_.size() * 2);
  std::vector<int> next(row_ptr.begin(), row_ptr.end() - 1);
  for (const auto& [a, b] : edges_) {
    col_idx[next[a]++] = b;
    col_idx[next[b]++] = a;
  }
  std::vector<double> values(col_idx.size(), 1.0);
  return CsrMatrix::FromSortedRows(num_nodes_, num_nodes_, std::move(row_ptr),
                                   std::move(col_idx), std::move(values));
}

CsrMatrix AttributedGraph::NormalizedAdjacency() const {
  return Adjacency().AddSelfLoops().SymmetricallyNormalized();
}

void AttributedGraph::SetOneHotDegreeFeatures(int max_degree) {
  assert(max_degree >= 0);
  const std::vector<int> deg = Degrees();
  Matrix x(num_nodes_, max_degree + 1);
  for (int i = 0; i < num_nodes_; ++i) {
    x(i, std::min(deg[i], max_degree)) = 1.0;
  }
  features_ = std::move(x);
}

void AttributedGraph::NormalizeFeatureRows() { NormalizeRowsL2(&features_); }

double AttributedGraph::EdgeHomophily() const {
  assert(has_labels());
  if (edges_.empty()) return 0.0;
  int same = 0;
  for (const auto& [a, b] : edges_) {
    if (labels_[a] == labels_[b]) ++same;
  }
  return static_cast<double>(same) / edges_.size();
}

bool EdgeBatch::Add(int u, int v) {
  if (u == v || graph_->HasEdge(u, v)) return false;
  const auto [a, b] = Canonical(u, v);
  return added_.insert(static_cast<int64_t>(a) * graph_->num_nodes() + b)
      .second;
}

void EdgeBatch::Commit() {
  // Keys u·n + v sort as the pairs (u, v) do.
  std::vector<int64_t> keys(added_.begin(), added_.end());
  std::sort(keys.begin(), keys.end());
  const int n = graph_->num_nodes();
  const std::vector<std::pair<int, int>>& old = graph_->edges();
  std::vector<std::pair<int, int>> merged;
  merged.reserve(old.size() + keys.size());
  auto next_old = old.begin();
  for (const int64_t key : keys) {
    const std::pair<int, int> e(static_cast<int>(key / n),
                                static_cast<int>(key % n));
    for (; next_old != old.end() && *next_old < e; ++next_old) {
      merged.push_back(*next_old);
    }
    merged.push_back(e);
  }
  merged.insert(merged.end(), next_old, old.end());
  graph_->SetEdges(std::move(merged));
  added_.clear();
}

CsrMatrix BuildClusterGraph(const std::vector<int>& assignments,
                            int num_clusters) {
  const int n = static_cast<int>(assignments.size());
  std::vector<std::vector<int>> members(num_clusters);
  for (int i = 0; i < n; ++i) {
    assert(assignments[i] >= 0 && assignments[i] < num_clusters);
    members[assignments[i]].push_back(i);
  }
  std::vector<Triplet> t;
  for (const auto& cluster : members) {
    if (cluster.empty()) continue;
    const double w = 1.0 / static_cast<double>(cluster.size());
    for (int i : cluster) {
      for (int j : cluster) t.push_back({i, j, w});
    }
  }
  return CsrMatrix::FromTriplets(n, n, std::move(t));
}

}  // namespace rgae
