// OperatorUpsilon and its edges-only form OperatorUpsilonEdges against the
// per-node edits Algorithm 2 describes, run on a std::set edge store: the
// form Υ took before it became one merge of the sorted star edges into the
// sorted edge array. That form is kept below as a test-local reference.
// The output edges and every UpsilonStats field must match it over random
// graphs, with and without labels, with empty Ω, Ω = 𝒱, Ω unsorted or
// listing a node twice, tied embeddings, and each add/drop ablation.

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/clustering/assignments.h"
#include "src/core/operators.h"
#include "src/graph/graph.h"
#include "src/tensor/matrix.h"
#include "src/tensor/random.h"

namespace rgae {
namespace {

namespace reference {

using Edge = std::pair<int, int>;

Edge Canonical(int u, int v) { return {std::min(u, v), std::max(u, v)}; }

/// Υ as a sequence of single-edge edits on a std::set, node by node in Ω
/// order: add i's star edge, then drop i's original cross-cluster edges
/// within Ω.
std::set<Edge> Upsilon(const AttributedGraph& original, const Matrix& z,
                       const Matrix& p, const std::vector<int>& omega,
                       const UpsilonOptions& options, UpsilonStats* st) {
  const int k = p.cols();
  *st = UpsilonStats();
  st->centroids.assign(k, -1);
  std::set<Edge> out(original.edges().begin(), original.edges().end());
  if (omega.empty()) return out;

  const std::vector<int> hard = HardAssign(p);
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
    if (counts[c] == 0) continue;
    double best = std::numeric_limits<double>::max();
    for (int i : omega) {
      const double d = RowSquaredDistance(z, i, mu, c);
      if (d < best) {
        best = d;
        st->centroids[c] = i;
      }
    }
  }

  std::vector<char> in_omega(original.num_nodes(), 0);
  for (int i : omega) in_omega[i] = 1;
  const bool labeled = original.has_labels();
  std::vector<std::vector<int>> neighbors(original.num_nodes());
  for (const auto& [a, b] : original.edges()) {
    neighbors[a].push_back(b);
    neighbors[b].push_back(a);
  }
  for (int i : omega) {
    const int k1 = hard[i];
    const int centroid = st->centroids[k1];
    if (options.add_edges && centroid >= 0 && centroid != i &&
        out.count(Canonical(i, centroid)) == 0) {
      if (hard[centroid] == k1 && out.insert(Canonical(i, centroid)).second) {
        ++st->added_edges;
        if (labeled) {
          if (original.labels()[i] == original.labels()[centroid]) {
            ++st->added_true;
          } else {
            ++st->added_false;
          }
        }
      }
    }
    if (options.drop_edges) {
      for (int l : neighbors[i]) {
        if (in_omega[l] && hard[l] != k1 && out.erase(Canonical(i, l)) > 0) {
          ++st->dropped_edges;
          if (labeled) {
            if (original.labels()[i] == original.labels()[l]) {
              ++st->dropped_true;
            } else {
              ++st->dropped_false;
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace reference

enum class OmegaKind { kEmpty, kAll, kSubset, kShuffledWithRepeats };

struct Case {
  int n = 0;
  int k = 2;
  int d = 2;
  double density = 0.1;
  bool labeled = true;
  bool tied = false;  // Embeddings on a coarse grid: many equal distances.
  OmegaKind omega = OmegaKind::kSubset;
};

std::string Describe(const Case& c, const UpsilonOptions& o, int seed) {
  return "seed " + std::to_string(seed) + ", n " + std::to_string(c.n) +
         ", k " + std::to_string(c.k) + ", d " + std::to_string(c.d) +
         ", density " + std::to_string(c.density) +
         (c.labeled ? ", labeled" : ", unlabeled") +
         (c.tied ? ", tied" : "") + ", omega kind " +
         std::to_string(static_cast<int>(c.omega)) + ", add " +
         std::to_string(o.add_edges) + ", drop " +
         std::to_string(o.drop_edges);
}

void ExpectSameStats(const UpsilonStats& got, const UpsilonStats& want) {
  EXPECT_EQ(got.added_edges, want.added_edges);
  EXPECT_EQ(got.added_true, want.added_true);
  EXPECT_EQ(got.added_false, want.added_false);
  EXPECT_EQ(got.dropped_edges, want.dropped_edges);
  EXPECT_EQ(got.dropped_true, want.dropped_true);
  EXPECT_EQ(got.dropped_false, want.dropped_false);
  EXPECT_EQ(got.centroids, want.centroids);
}

void ExpectMatchesReference(const Case& c, int seed) {
  Rng rng(static_cast<uint64_t>(seed));
  AttributedGraph g(c.n);
  for (int u = 0; u < c.n; ++u) {
    for (int v = u + 1; v < c.n; ++v) {
      if (rng.Bernoulli(c.density)) g.AddEdge(u, v);
    }
  }
  if (c.labeled) {
    std::vector<int> labels(c.n);
    for (int& l : labels) l = rng.UniformInt(c.k);
    g.set_labels(labels);
  }
  Matrix z(c.n, c.d);
  for (size_t i = 0; i < z.size(); ++i) {
    z.data()[i] = c.tied ? static_cast<double>(rng.UniformInt(2))
                         : rng.Gaussian(0.0, 1.0);
  }
  Matrix p(c.n, c.k);
  for (int i = 0; i < c.n; ++i) {
    double sum = 0.0;
    for (int j = 0; j < c.k; ++j) {
      // Tied rows leave HardAssign a tie to break too.
      p(i, j) = c.tied ? static_cast<double>(rng.UniformInt(2)) + 0.5
                       : rng.Uniform();
      sum += p(i, j);
    }
    for (int j = 0; j < c.k; ++j) p(i, j) /= sum;
  }
  std::vector<int> omega;
  switch (c.omega) {
    case OmegaKind::kEmpty:
      break;
    case OmegaKind::kAll:
      for (int i = 0; i < c.n; ++i) omega.push_back(i);
      break;
    case OmegaKind::kSubset:
      for (int i = 0; i < c.n; ++i) {
        if (rng.Bernoulli(0.6)) omega.push_back(i);
      }
      break;
    case OmegaKind::kShuffledWithRepeats:
      for (int i = 0; i < c.n; ++i) {
        if (rng.Bernoulli(0.6)) omega.push_back(i);
      }
      if (!omega.empty()) omega.push_back(omega[omega.size() / 2]);
      rng.Shuffle(&omega);
      break;
  }

  for (const bool add : {true, false}) {
    for (const bool drop : {true, false}) {
      UpsilonOptions o;
      o.add_edges = add;
      o.drop_edges = drop;
      SCOPED_TRACE(Describe(c, o, seed));
      UpsilonStats want;
      const std::set<reference::Edge> want_edges =
          reference::Upsilon(g, z, p, omega, o, &want);
      const std::vector<reference::Edge> want_list(want_edges.begin(),
                                                   want_edges.end());
      UpsilonStats got;
      const AttributedGraph out = OperatorUpsilon(g, z, p, omega, o, &got);
      ASSERT_EQ(out.edges(), want_list);
      EXPECT_EQ(out.num_nodes(), g.num_nodes());
      EXPECT_EQ(out.labels(), g.labels());
      ExpectSameStats(got, want);
      UpsilonStats got_edges_only;
      ASSERT_EQ(OperatorUpsilonEdges(g, z, p, omega, o, &got_edges_only),
                want_list);
      ExpectSameStats(got_edges_only, want);
    }
  }
}

TEST(UpsilonReferenceTest, RandomGraphsAndSubsets) {
  int seed = 0;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (const int n : {2, 7, 40, 150}) {
      for (const int k : {2, 3, 5}) {
        for (const double density : {0.02, 0.15, 0.6}) {
          for (const bool labeled : {true, false}) {
            Case c;
            c.n = n;
            c.k = k;
            c.density = density;
            c.labeled = labeled;
            ExpectMatchesReference(c, ++seed);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(UpsilonReferenceTest, EmptyAndFullOmega) {
  int seed = 1000;
  for (const OmegaKind kind : {OmegaKind::kEmpty, OmegaKind::kAll}) {
    for (const int n : {1, 9, 60}) {
      for (const bool labeled : {true, false}) {
        Case c;
        c.n = n;
        c.k = 3;
        c.density = 0.2;
        c.labeled = labeled;
        c.omega = kind;
        ExpectMatchesReference(c, ++seed);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(UpsilonReferenceTest, TiedEmbeddings) {
  // z on {0, 1}^d and p on two levels: centroid searches and HardAssign
  // meet exact ties, broken by Ω order and column order.
  int seed = 2000;
  for (const int d : {1, 2}) {
    for (const int n : {12, 80}) {
      for (const OmegaKind kind : {OmegaKind::kAll, OmegaKind::kSubset}) {
        Case c;
        c.n = n;
        c.k = 4;
        c.d = d;
        c.density = 0.15;
        c.tied = true;
        c.omega = kind;
        ExpectMatchesReference(c, ++seed);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(UpsilonReferenceTest, UnsortedOmegaWithRepeats) {
  int seed = 3000;
  for (const int n : {5, 50, 120}) {
    for (const bool tied : {false, true}) {
      Case c;
      c.n = n;
      c.k = 3;
      c.density = 0.1;
      c.tied = tied;
      c.omega = OmegaKind::kShuffledWithRepeats;
      ExpectMatchesReference(c, ++seed);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace rgae
