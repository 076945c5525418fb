#ifndef RGAE_GRAPH_MULTIPLEX_H_
#define RGAE_GRAPH_MULTIPLEX_H_

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph.h"

namespace rgae {

/// Multiplex attributed graph — the paper's stated future-work direction
/// ("we plan to investigate the extensibility of our operators to multiplex
/// graphs, in which each couple of nodes can be connected by multiple
/// edges").
///
/// A multiplex graph shares one node set, one feature matrix and one label
/// vector across L edge layers (e.g. citation + co-author + venue layers).
/// `Flatten` projects the layers onto a single `AttributedGraph` that the
/// existing GAE zoo and the Ξ/Υ operators consume unchanged: an edge
/// survives when it appears in at least `min_layers` layers, which lets a
/// noisy layer be out-voted by cleaner ones.
class MultiplexGraph {
 public:
  MultiplexGraph(int num_nodes, Matrix features, std::vector<int> labels);

  int num_nodes() const { return num_nodes_; }
  int num_layers() const { return static_cast<int>(layers_.size()); }
  const Matrix& features() const { return features_; }
  const std::vector<int>& labels() const { return labels_; }

  /// Appends an empty edge layer; returns its index.
  int AddLayer();
  /// Adds an undirected edge to layer `layer`.
  bool AddEdge(int layer, int u, int v);
  /// Edge set of one layer.
  const std::set<std::pair<int, int>>& layer_edges(int layer) const;
  /// Number of edges in one layer.
  int LayerEdgeCount(int layer) const;

  /// Fraction of same-label edges in one layer.
  double LayerHomophily(int layer) const;

  /// Projects to a single attributed graph: an edge is kept when it occurs
  /// in >= `min_layers` layers (1 = union, num_layers() = intersection).
  AttributedGraph Flatten(int min_layers = 1) const;

 private:
  int num_nodes_;
  Matrix features_;
  std::vector<int> labels_;
  std::vector<std::set<std::pair<int, int>>> layers_;
};

/// Options for the synthetic multiplex generator. Each layer is an
/// independently *corrupted copy* of one underlying citation-like graph:
/// every true edge survives in a layer with `edge_keep_prob`, and each
/// layer adds its own `noise_edges_per_node` random links. True edges are
/// therefore correlated across layers while noise is layer-specific, so a
/// majority-vote `Flatten` recovers the clean structure that a plain union
/// buries in noise — the setting where extending Ξ/Υ to multiplex graphs
/// pays off.
struct MultiplexCitationOptions {
  CitationLikeOptions base;
  int num_layers = 3;
  /// Probability that a true (base) edge appears in a given layer.
  double edge_keep_prob = 0.8;
  /// Expected per-layer random noise edges per node.
  double noise_edges_per_node = 1.5;
};

/// Generates a multiplex citation-like graph: shared features/labels, one
/// corrupted copy of the base edge set per layer.
MultiplexGraph MakeMultiplexCitationLike(const MultiplexCitationOptions& o,
                                         Rng& rng);

/// Text round trip mirroring graph/io.h. Format (doubles at precision 17,
/// a lossless round-trip):
///
///   rgae-multiplex 1 <nodes> <layers> <fdim> <has_labels>
///   layer <index> <edge_count>   (repeated <layers> times, edges follow)
///   <u> <v>
///   <feature rows> <labels>
///
/// `SaveMultiplex` publishes the file atomically (tmp + fsync + rename,
/// util/fileio.h), so a crash mid-save leaves the previous file intact.
bool SaveMultiplex(const MultiplexGraph& g, const std::string& path,
                   std::string* error = nullptr);

/// Loads with `LoadGraph`'s validation contract: every malformed input —
/// bad magic or version, negative counts, a layer header whose index does
/// not match its position (layer-count mismatch), out-of-range or
/// self-loop or duplicate edges, truncation anywhere, non-finite feature
/// values, out-of-range labels — yields `std::nullopt` and a descriptive
/// message in `*error` (when non-null) naming the offending line item.
std::optional<MultiplexGraph> LoadMultiplex(const std::string& path,
                                            std::string* error = nullptr);

}  // namespace rgae

#endif  // RGAE_GRAPH_MULTIPLEX_H_
