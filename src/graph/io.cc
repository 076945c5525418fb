#include "src/graph/io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <utility>
#include <vector>

namespace rgae {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool SaveGraph(const AttributedGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(17);  // Lossless double round-trip.
  out << "rgae-graph 1 " << g.num_nodes() << ' ' << g.num_edges() << ' '
      << g.feature_dim() << ' ' << (g.has_labels() ? 1 : 0) << '\n';
  for (const auto& [u, v] : g.edges()) out << u << ' ' << v << '\n';
  const Matrix& x = g.features();
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) {
      out << x(r, c) << (c + 1 == x.cols() ? '\n' : ' ');
    }
  }
  if (g.has_labels()) {
    for (int label : g.labels()) out << label << '\n';
  }
  return static_cast<bool>(out);
}

bool LoadGraph(const std::string& path, AttributedGraph* g,
               std::string* error) {
  std::ifstream in(path);
  if (!in) return Fail(error, "cannot open '" + path + "'");
  std::string magic;
  int version = 0, n = 0, e = 0, fdim = 0, has_labels = 0;
  in >> magic >> version >> n >> e >> fdim >> has_labels;
  if (!in || magic != "rgae-graph") {
    return Fail(error, "bad magic (expected 'rgae-graph')");
  }
  if (version != 1) {
    return Fail(error,
                "unsupported format version " + std::to_string(version));
  }
  if (n < 0 || e < 0 || fdim < 0) {
    return Fail(error, "negative count in header (nodes " +
                           std::to_string(n) + ", edges " + std::to_string(e) +
                           ", feature dim " + std::to_string(fdim) + ")");
  }
  *g = AttributedGraph(n);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < e; ++i) {
    int u = 0, v = 0;
    in >> u >> v;
    if (!in) return Fail(error, "truncated edge list at edge " +
                                    std::to_string(i) + " of " +
                                    std::to_string(e));
    if (u < 0 || u >= n || v < 0 || v >= n) {
      return Fail(error, "edge " + std::to_string(i) + " endpoint (" +
                             std::to_string(u) + ", " + std::to_string(v) +
                             ") out of range [0, " + std::to_string(n) + ")");
    }
    if (u == v) {
      return Fail(error, "edge " + std::to_string(i) + " is a self-loop on " +
                             std::to_string(u));
    }
    edges.emplace_back(u, v);
  }
  g->SetEdges(std::move(edges));  // Duplicates are dropped, as AddEdge does.
  if (fdim > 0) {
    Matrix x(n, fdim);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < fdim; ++c) {
        in >> x(r, c);
        if (!in) {
          return Fail(error, "truncated or non-numeric feature value at row " +
                                 std::to_string(r) + ", column " +
                                 std::to_string(c));
        }
        if (!std::isfinite(x(r, c))) {
          return Fail(error, "non-finite feature value at row " +
                                 std::to_string(r) + ", column " +
                                 std::to_string(c));
        }
      }
    }
    g->set_features(std::move(x));
  }
  if (has_labels) {
    std::vector<int> labels(n);
    for (int i = 0; i < n; ++i) {
      in >> labels[i];
      if (!in) {
        return Fail(error, "truncated labels at node " + std::to_string(i));
      }
      if (labels[i] < 0 || labels[i] >= n) {
        return Fail(error, "label " + std::to_string(labels[i]) +
                               " of node " + std::to_string(i) +
                               " out of range [0, " + std::to_string(n) + ")");
      }
    }
    g->set_labels(std::move(labels));
  }
  return true;
}

}  // namespace rgae
