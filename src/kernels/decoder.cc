// The fused inner-product decoder (DESIGN.md §9). This TU is compiled
// once, without arch flags: the sweeps, the transcendentals (one exp per
// pair, one log1p per row segment in SoftplusSigmoidSweep) and the loss
// accumulation are the same scalar code under every ISA, and only the two
// dispatched products (MatMulTransB for the S tiles, MatMul for C·Z)
// follow the selected tier. Both keep every output element's ascending,
// FMA-free chain, so the results are bit-identical across ISAs. The tile
// sweeps run as ParallelFor tasks that each write outputs of their own,
// with scratch the caller allocates, so the bits do not depend on how many
// threads share the work either.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/kernels/aligned.h"
#include "src/kernels/kernels.h"
#include "src/kernels/parallel.h"

namespace rgae {
namespace kernels {

namespace {

/// Edge of the square node tiles the sweeps run over.
constexpr int kTile = 64;
constexpr size_t kTileEntries = static_cast<size_t>(kTile) * kTile;

/// Offset of (i, j), j >= i, in the packed row-major upper triangle of an
/// n×n matrix: row i holds columns i..n-1 and starts at i·n - i(i-1)/2.
size_t Packed(int i, int j, int n) {
  const size_t si = static_cast<size_t>(i);
  return si * (2 * static_cast<size_t>(n) - si + 1) / 2 +
         static_cast<size_t>(j - i);
}

/// Advances row `row`'s CSR cursor to the entries with column in
/// [begin, end) and calls f(col) for each positive (non-zero value) one.
/// Columns ascend within a row and the sweep visits every row's column
/// tiles in ascending order, so the cursor only moves forward.
template <typename F>
void ConsumePositives(int row, int begin, int end, const int* row_ptr,
                      const int* col_idx, const double* values, int* cursor,
                      F f) {
  int& k = cursor[row];
  const int stop = row_ptr[row + 1];
  while (k < stop && col_idx[k] < begin) ++k;
  for (; k < stop && col_idx[k] < end; ++k) {
    if (values[k] != 0.0) f(col_idx[k]);
  }
}

/// Calls f(col) for each positive (non-zero value) entry of row `row`
/// with column in [begin, end), found by binary search. The forward's
/// tasks split one row's column tiles across threads, so it cannot keep a
/// per-row cursor.
template <typename F>
void ForEachPositive(int row, int begin, int end, const int* row_ptr,
                     const int* col_idx, const double* values, F f) {
  const int* last = col_idx + row_ptr[row + 1];
  for (const int* p = std::lower_bound(col_idx + row_ptr[row], last, begin);
       p != last && *p < end; ++p) {
    if (values[p - col_idx] != 0.0) f(*p);
  }
}

}  // namespace

double InnerProductBce(const double* z, int n, int d, const int* row_ptr,
                       const int* col_idx, const double* values,
                       double pos_weight, double* sigma) {
  // One task per upper-triangle tile pair (i0, j0), in row-major order;
  // each writes its own σ range and its own three partial sums.
  std::vector<std::pair<int, int>> tiles;
  for (int i0 = 0; i0 < n; i0 += kTile) {
    for (int j0 = i0; j0 < n; j0 += kTile) tiles.emplace_back(i0, j0);
  }
  std::vector<double> tile_diag(tiles.size()), tile_upper(tiles.size()),
      tile_pos(tiles.size());
  AlignedVector s_tiles(static_cast<size_t>(ParallelWorkers()) * kTileEntries);
  ParallelFor(static_cast<int>(tiles.size()), [&](int task, int worker) {
    const auto [i0, j0] = tiles[static_cast<size_t>(task)];
    const int mi = std::min(kTile, n - i0);
    const int mj = std::min(kTile, n - j0);
    double* s_tile =
        s_tiles.data() + static_cast<size_t>(worker) * kTileEntries;
    MatMulTransB(z + static_cast<size_t>(i0) * d,
                 z + static_cast<size_t>(j0) * d, s_tile, mi, d, mj);
    double diag = 0.0;
    double upper = 0.0;
    double pos = 0.0;
    for (int r = 0; r < mi; ++r) {
      const int i = i0 + r;
      const double* s_row = s_tile + static_cast<size_t>(r) * mj;
      const int first = std::max(i - j0, 0);  // First column with j >= i.
      int c = first;
      double* sig = sigma + Packed(i, j0 + c, n);
      if (j0 + c == i) diag += SoftplusSigmoidSweep(s_row + c++, 1, sig++);
      // The row segment's upper pairs: one log1p for all of them.
      upper += SoftplusSigmoidSweep(s_row + c, mj - c, sig);
      // The row's stored positives with j >= i in this tile: bce(s, 1) =
      // softplus(s) - s, weighted by pos_weight, replaces the softplus(s)
      // counted above. The positives are symmetric and s_ji == s_ij, so an
      // off-diagonal one also stands for its mirror (j, i).
      ForEachPositive(i, j0 + first, j0 + mj, row_ptr, col_idx, values,
                      [&](int j) {
                        const double s = s_row[j - j0];
                        const double sp = std::log1p(std::exp(-std::abs(s))) +
                                          std::max(s, 0.0);
                        const double term = pos_weight * (sp - s) - sp;
                        pos += j == i ? term : 2.0 * term;
                      });
    }
    tile_diag[static_cast<size_t>(task)] = diag;
    tile_upper[static_cast<size_t>(task)] = upper;
    tile_pos[static_cast<size_t>(task)] = pos;
  });
  // The partials fold in tile order, whichever thread produced them.
  double diag = 0.0;
  double upper = 0.0;
  double pos = 0.0;
  for (size_t t = 0; t < tiles.size(); ++t) {
    diag += tile_diag[t];
    upper += tile_upper[t];
    pos += tile_pos[t];
  }
  // Every entry as a negative: bce(s, 0) = softplus(s), and S is symmetric;
  // then the positives' correction.
  return (diag + 2.0 * upper) + pos;
}

void InnerProductBceGrad(const double* z, int n, int d, const int* row_ptr,
                         const int* col_idx, const double* values,
                         double pos_weight, double gs, const double* sigma,
                         double* cz) {
  // One task per row block I. It walks the column tiles J in ascending
  // order, so each output row meets its coefficients in ascending column
  // order whichever thread runs it, and touches only its own rows of cz
  // and its own rows' CSR cursors.
  const int tasks = (n + kTile - 1) / kTile;
  AlignedVector c_tiles(static_cast<size_t>(ParallelWorkers()) * kTileEntries);
  std::vector<int> cursor(row_ptr, row_ptr + n);
  const double gsw = gs * pos_weight;
  ParallelFor(tasks, [&](int task, int worker) {
    const int i0 = task * kTile;
    const int mi = std::min(kTile, n - i0);
    double* c_tile =
        c_tiles.data() + static_cast<size_t>(worker) * kTileEntries;
    double* cz_i = cz + static_cast<size_t>(i0) * d;
    for (int j0 = 0; j0 < n; j0 += kTile) {
      const int mj = std::min(kTile, n - j0);
      // C_IJ = gs·σ. Row i's entries at j >= i sit in row i of the packed
      // triangle, those at j < i in column i of the earlier rows.
      if (j0 > i0) {
        for (int r = 0; r < mi; ++r) {
          const double* sig = sigma + Packed(i0 + r, j0, n);
          double* c_row = c_tile + static_cast<size_t>(r) * mj;
          for (int c = 0; c < mj; ++c) c_row[c] = gs * sig[c];
        }
      } else if (j0 < i0) {
        for (int c = 0; c < mj; ++c) {
          const double* sig = sigma + Packed(j0 + c, i0, n);
          for (int r = 0; r < mi; ++r) {
            c_tile[static_cast<size_t>(r) * mj + c] = gs * sig[r];
          }
        }
      } else {
        for (int r = 0; r < mi; ++r) {
          const double* sig = sigma + Packed(i0 + r, i0 + r, n);
          for (int c = r; c < mi; ++c) {
            const double v = gs * sig[c - r];
            c_tile[static_cast<size_t>(r) * mi + c] = v;
            c_tile[static_cast<size_t>(c) * mi + r] = v;
          }
        }
      }
      // Positives take gs·pos_weight·(σ - 1); they are symmetric, like σ.
      for (int r = 0; r < mi; ++r) {
        const int i = i0 + r;
        double* c_row = c_tile + static_cast<size_t>(r) * mj;
        ConsumePositives(i, j0, j0 + mj, row_ptr, col_idx, values,
                         cursor.data(), [&](int j) {
                           const double sig = sigma[Packed(
                               std::min(i, j), std::max(i, j), n)];
                           c_row[j - j0] = gsw * (sig - 1.0);
                         });
      }
      MatMul(c_tile, z + static_cast<size_t>(j0) * d, cz_i, mi, mj, d);
    }
  });
}

}  // namespace kernels
}  // namespace rgae
