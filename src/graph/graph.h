#ifndef RGAE_GRAPH_GRAPH_H_
#define RGAE_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/graph/csr.h"
#include "src/tensor/matrix.h"

namespace rgae {

/// An undirected attributed graph G = (V, E, X) with optional ground-truth
/// labels, the primary input of every model in the library.
///
/// Edges are stored as one sorted, duplicate-free array of canonical
/// (min, max) pairs with no self-loops. `HasEdge` binary-searches it;
/// `AddEdge` and `RemoveEdge` shift its tail, O(E) each, so code that edits
/// many edges collects them and commits once (`SetEdges`, `EdgeBatch`).
/// `Adjacency()` fills the symmetric 0/1 CSR matrix in one pass over the
/// array, with no sort, and `NormalizedAdjacency()` the GCN filter
/// à = D^-1/2 (A + I) D^-1/2.
class AttributedGraph {
 public:
  AttributedGraph() = default;

  /// Creates a graph with `num_nodes` nodes, no edges, and empty features.
  explicit AttributedGraph(int num_nodes) : num_nodes_(num_nodes) {}

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  int num_clusters() const;

  /// Adds the undirected edge {u, v}. Self-loops and duplicates are ignored.
  /// Returns true if the edge was newly inserted.
  bool AddEdge(int u, int v);
  /// Removes the undirected edge {u, v}; returns true if it existed.
  bool RemoveEdge(int u, int v);
  /// True if {u, v} is an edge.
  bool HasEdge(int u, int v) const;

  /// All edges as canonical (u < v) pairs, sorted ascending, no duplicates.
  const std::vector<std::pair<int, int>>& edges() const { return edges_; }

  /// Replaces the edge set with `edges`, given in any orientation and order;
  /// self-loops and duplicates are dropped. A list that is already canonical
  /// and strictly ascending is taken as is after one O(E) check.
  void SetEdges(std::vector<std::pair<int, int>> edges);

  /// Degree of node u (number of incident edges).
  int Degree(int u) const;
  /// Degrees of all nodes.
  std::vector<int> Degrees() const;

  /// Node feature matrix X (num_nodes x feature_dim); may be empty.
  const Matrix& features() const { return features_; }
  Matrix* mutable_features() { return &features_; }
  void set_features(Matrix x) { features_ = std::move(x); }
  int feature_dim() const { return features_.cols(); }

  /// Ground-truth cluster labels; empty when unknown.
  const std::vector<int>& labels() const { return labels_; }
  void set_labels(std::vector<int> labels) { labels_ = std::move(labels); }
  bool has_labels() const { return !labels_.empty(); }

  /// Symmetric binary adjacency matrix A (no self-loops).
  CsrMatrix Adjacency() const;
  /// GCN filter à = D^-1/2 (A + I) D^-1/2.
  CsrMatrix NormalizedAdjacency() const;

  /// Replaces X with the (row-truncated/padded) one-hot encoding of node
  /// degrees in `max_degree + 1` buckets — the construction the paper uses
  /// for the attribute-free air-traffic networks.
  void SetOneHotDegreeFeatures(int max_degree);

  /// L2-normalizes each feature row (the paper normalizes X for all
  /// datasets).
  void NormalizeFeatureRows();

  /// Fraction of edges joining same-label endpoints (requires labels).
  double EdgeHomophily() const;

 private:
  int num_nodes_ = 0;
  std::vector<std::pair<int, int>> edges_;
  Matrix features_;
  std::vector<int> labels_;
};

/// Adds many edges to a graph with one sorted merge. `Add` answers like
/// `AttributedGraph::AddEdge` (false for a self-loop or an edge already in
/// the graph or the batch), so a generator's draw loop runs unchanged;
/// `Commit` merges the batch into the graph.
class EdgeBatch {
 public:
  explicit EdgeBatch(AttributedGraph* graph) : graph_(graph) {}

  /// Queues {u, v}; true if it is neither a self-loop nor already in the
  /// graph or the batch.
  bool Add(int u, int v);
  /// Merges the batch into the graph and empties it.
  void Commit();

 private:
  AttributedGraph* graph_;
  std::unordered_set<int64_t> added_;  // u·n + v of each added (u, v).
};

/// Builds the clustering graph A^clus of Proposition 2: a_ij = 1/|C_k| when
/// i and j share cluster k under `assignments`, 0 otherwise (includes the
/// diagonal, matching the k-means expansion).
CsrMatrix BuildClusterGraph(const std::vector<int>& assignments,
                            int num_clusters);

}  // namespace rgae

#endif  // RGAE_GRAPH_GRAPH_H_
