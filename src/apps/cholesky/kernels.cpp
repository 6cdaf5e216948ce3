#include <cmath>

#include "apps/cholesky/cholesky.hpp"
#include "core/common.hpp"

namespace tdg::apps::cholesky::kernels {

namespace {
inline double& at(std::vector<double>& t, int b, int r, int c) {
  return t[static_cast<std::size_t>(r) * static_cast<std::size_t>(b) +
           static_cast<std::size_t>(c)];
}
inline double at(const std::vector<double>& t, int b, int r, int c) {
  return t[static_cast<std::size_t>(r) * static_cast<std::size_t>(b) +
           static_cast<std::size_t>(c)];
}
}  // namespace

// The four tile kernels start on a cache line of their own: their speed
// moved by up to a quarter with their offset in the binary, which any
// change elsewhere in the library shifts.

// In-place lower Cholesky of a diagonal tile; the upper triangle is zeroed.
[[gnu::aligned(64)]] void potrf(std::vector<double>& a, int b) {
  for (int j = 0; j < b; ++j) {
    double d = at(a, b, j, j);
    for (int k = 0; k < j; ++k) d -= at(a, b, j, k) * at(a, b, j, k);
    TDG_CHECK(d > 0, "potrf: matrix is not positive definite");
    d = std::sqrt(d);
    at(a, b, j, j) = d;
    for (int i = j + 1; i < b; ++i) {
      double s = at(a, b, i, j);
      for (int k = 0; k < j; ++k) s -= at(a, b, i, k) * at(a, b, j, k);
      at(a, b, i, j) = s / d;
    }
    for (int i = 0; i < j; ++i) at(a, b, i, j) = 0.0;
  }
}

// Solve X * L^T = B in place (B := X), L the factorized diagonal tile.
[[gnu::aligned(64)]] void trsm(const std::vector<double>& l,
                               std::vector<double>& x, int b) {
  for (int r = 0; r < b; ++r) {
    for (int j = 0; j < b; ++j) {
      double s = at(x, b, r, j);
      for (int k = 0; k < j; ++k) s -= at(x, b, r, k) * at(l, b, j, k);
      at(x, b, r, j) = s / at(l, b, j, j);
    }
  }
}

// C -= A * A^T (trailing symmetric update of a diagonal tile).
[[gnu::aligned(64)]] void syrk(const std::vector<double>& a,
                               std::vector<double>& c, int b) {
  for (int r = 0; r < b; ++r) {
    for (int j = 0; j < b; ++j) {
      double s = 0;
      for (int k = 0; k < b; ++k) s += at(a, b, r, k) * at(a, b, j, k);
      at(c, b, r, j) -= s;
    }
  }
}

// C -= A * B^T (trailing update of an off-diagonal tile).
[[gnu::aligned(64)]] void gemm(const std::vector<double>& a,
                               const std::vector<double>& bm,
                               std::vector<double>& c, int b) {
  for (int r = 0; r < b; ++r) {
    for (int j = 0; j < b; ++j) {
      double s = 0;
      for (int k = 0; k < b; ++k) s += at(a, b, r, k) * at(bm, b, j, k);
      at(c, b, r, j) -= s;
    }
  }
}

}  // namespace tdg::apps::cholesky::kernels
