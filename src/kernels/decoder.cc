// The fused inner-product decoder (DESIGN.md §9). This TU is compiled
// once, without arch flags: the sweeps, the transcendentals and the loss
// accumulation are the same scalar code under every ISA, and only the two
// dispatched products (MatMulTransB for the S tiles, MatMul for C·Z)
// follow the selected tier. Both keep every output element's ascending,
// FMA-free chain, so the results are bit-identical across ISAs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "src/kernels/aligned.h"
#include "src/kernels/kernels.h"

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

/// One entry of S with the ascending, FMA-free chain of MatMulTransB.
double RowDot(const double* a, const double* b, int d) {
  double s = 0.0;
  for (int k = 0; k < d; ++k) s += a[k] * b[k];
  return s;
}

/// One unordered pair: stores σ(s) and returns softplus(s), both from the
/// single e = exp(-|s|). σ is the unfused Sigmoid's 1/(1+e) for s >= 0
/// and e/(1+e) below, with the branch folded into a select.
double PairSweep(double s, double* sigma) {
  const double e = std::exp(-std::abs(s));
  *sigma = (s >= 0.0 ? 1.0 : e) / (1.0 + e);
  return std::log1p(e) + std::max(s, 0.0);
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

}  // namespace

double InnerProductBce(const double* z, int n, int d, const int* row_ptr,
                       const int* col_idx, const double* values,
                       double pos_weight, double* sigma) {
  AlignedVector s_tile(kTileEntries);
  double diag = 0.0;
  double upper = 0.0;
  for (int i0 = 0; i0 < n; i0 += kTile) {
    const int mi = std::min(kTile, n - i0);
    for (int j0 = i0; j0 < n; j0 += kTile) {
      const int mj = std::min(kTile, n - j0);
      MatMulTransB(z + static_cast<size_t>(i0) * d,
                   z + static_cast<size_t>(j0) * d, s_tile.data(), mi, d, mj);
      // Per-tile partial sums, folded into the totals in tile order.
      double tile_diag = 0.0;
      double tile_upper = 0.0;
      for (int r = 0; r < mi; ++r) {
        const int i = i0 + r;
        const double* s_row = s_tile.data() + static_cast<size_t>(r) * mj;
        int c = std::max(i - j0, 0);  // First column with j >= i.
        double* sig = sigma + Packed(i, j0 + c, n);
        if (j0 + c == i) tile_diag += PairSweep(s_row[c++], sig++);
        for (; c < mj; ++c) tile_upper += PairSweep(s_row[c], sig++);
      }
      diag += tile_diag;
      upper += tile_upper;
    }
  }
  // Every entry as a negative: bce(s, 0) = softplus(s), and S is symmetric.
  double loss = diag + 2.0 * upper;
  // Fix up the stored positives in CSR order, as the unfused loss did:
  // bce(s, 1) = softplus(s) - s, weighted by pos_weight.
  for (int i = 0; i < n; ++i) {
    const double* zi = z + static_cast<size_t>(i) * d;
    for (int k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      if (values[k] == 0.0) continue;  // Structural zero: stays a negative.
      const double s = RowDot(zi, z + static_cast<size_t>(col_idx[k]) * d, d);
      const double sp = std::log1p(std::exp(-std::abs(s))) + std::max(s, 0.0);
      loss += pos_weight * (sp - s) - sp;
    }
  }
  return loss;
}

void InnerProductBceGrad(const double* z, int n, int d, const int* row_ptr,
                         const int* col_idx, const double* values,
                         double pos_weight, double gs, const double* sigma,
                         double* cz, double* ctz) {
  // Per tile pair: p[i][j] = C_ij and q[i][j] = C_ji (the mirror, which
  // differs from C_ij only where exactly one of (i,j), (j,i) is positive);
  // pt and qt are their transposes, the coefficients of the J rows.
  AlignedVector p(kTileEntries), q(kTileEntries), pt(kTileEntries),
      qt(kTileEntries);
  std::vector<int> cursor(row_ptr, row_ptr + n);
  const double gsw = gs * pos_weight;
  const auto positive = [&](int i, int j) {
    return gsw * (sigma[Packed(std::min(i, j), std::max(i, j), n)] - 1.0);
  };
  for (int i0 = 0; i0 < n; i0 += kTile) {
    const int mi = std::min(kTile, n - i0);
    const double* zi = z + static_cast<size_t>(i0) * d;
    double* cz_i = cz + static_cast<size_t>(i0) * d;
    double* ctz_i = ctz + static_cast<size_t>(i0) * d;
    // Diagonal tile: one symmetric mi×mi block, rows only.
    for (int r = 0; r < mi; ++r) {
      const double* sig = sigma + Packed(i0 + r, i0 + r, n);
      for (int c = r; c < mi; ++c) {
        const double v = gs * sig[c - r];
        p[static_cast<size_t>(r) * mi + c] = v;
        p[static_cast<size_t>(c) * mi + r] = v;
      }
    }
    std::copy(p.begin(), p.begin() + static_cast<size_t>(mi) * mi,
              q.begin());
    for (int r = 0; r < mi; ++r) {
      ConsumePositives(i0 + r, i0, i0 + mi, row_ptr, col_idx, values,
                       cursor.data(), [&](int j) {
                         const int c = j - i0;
                         const double v = positive(i0 + r, j);
                         p[static_cast<size_t>(r) * mi + c] = v;
                         q[static_cast<size_t>(c) * mi + r] = v;
                       });
    }
    MatMul(p.data(), zi, cz_i, mi, mi, d);
    MatMul(q.data(), zi, ctz_i, mi, mi, d);

    for (int j0 = i0 + kTile; j0 < n; j0 += kTile) {
      const int mj = std::min(kTile, n - j0);
      const double* zj = z + static_cast<size_t>(j0) * d;
      double* cz_j = cz + static_cast<size_t>(j0) * d;
      double* ctz_j = ctz + static_cast<size_t>(j0) * d;
      for (int r = 0; r < mi; ++r) {
        const double* sig = sigma + Packed(i0 + r, j0, n);
        for (int c = 0; c < mj; ++c) {
          const double v = gs * sig[c];
          p[static_cast<size_t>(r) * mj + c] = v;
          pt[static_cast<size_t>(c) * mi + r] = v;
        }
      }
      std::copy(p.begin(), p.begin() + static_cast<size_t>(mi) * mj,
                q.begin());
      std::copy(pt.begin(), pt.begin() + static_cast<size_t>(mj) * mi,
                qt.begin());
      // Row i's positives in J set C_ij; row j's positives in I set C_ji.
      for (int r = 0; r < mi; ++r) {
        ConsumePositives(i0 + r, j0, j0 + mj, row_ptr, col_idx, values,
                         cursor.data(), [&](int j) {
                           const int c = j - j0;
                           const double v = positive(i0 + r, j);
                           p[static_cast<size_t>(r) * mj + c] = v;
                           pt[static_cast<size_t>(c) * mi + r] = v;
                         });
      }
      for (int c = 0; c < mj; ++c) {
        ConsumePositives(j0 + c, i0, i0 + mi, row_ptr, col_idx, values,
                         cursor.data(), [&](int i) {
                           const int r = i - i0;
                           const double v = positive(i, j0 + c);
                           q[static_cast<size_t>(r) * mj + c] = v;
                           qt[static_cast<size_t>(c) * mi + r] = v;
                         });
      }
      // Rows of I take the J columns, rows of J the I columns: each row
      // meets its column tiles in ascending order across the whole sweep.
      MatMul(p.data(), zj, cz_i, mi, mj, d);
      MatMul(qt.data(), zi, cz_j, mj, mi, d);
      MatMul(q.data(), zj, ctz_i, mi, mj, d);
      MatMul(pt.data(), zi, ctz_j, mj, mi, d);
    }
  }
}

}  // namespace kernels
}  // namespace rgae
