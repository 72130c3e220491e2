#include "blas/blas.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace flashr::blas {

namespace {

// Register-blocking tile sizes. The micro-kernel accumulates a 4-column strip
// of C in registers while streaming a column panel of A; with col-major
// storage the inner loop is unit-stride over both A and C, which the
// compiler auto-vectorizes.
constexpr std::size_t kMc = 256;  // rows of A per L2 panel
constexpr std::size_t kKc = 256;  // depth per panel
constexpr std::size_t kNr = 4;    // columns of C per register strip

template <typename T>
void scale_matrix(std::size_t m, std::size_t n, T beta, T* C,
                  std::size_t ldc) {
  if (beta == T{1}) return;
  for (std::size_t j = 0; j < n; ++j) {
    T* c = C + j * ldc;
    if (beta == T{0})
      std::fill(c, c + m, T{0});
    else
      for (std::size_t i = 0; i < m; ++i) c[i] *= beta;
  }
}

}  // namespace

template <typename T>
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, T alpha, const T* A,
             std::size_t lda, const T* B, std::size_t ldb, T beta, T* C,
             std::size_t ldc) {
  scale_matrix(m, n, beta, C, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == T{0}) return;
  for (std::size_t kk = 0; kk < k; kk += kKc) {
    const std::size_t kb = std::min(kKc, k - kk);
    for (std::size_t ii = 0; ii < m; ii += kMc) {
      const std::size_t mb = std::min(kMc, m - ii);
      std::size_t j = 0;
      for (; j + kNr <= n; j += kNr) {
        T* c0 = C + (j + 0) * ldc + ii;
        T* c1 = C + (j + 1) * ldc + ii;
        T* c2 = C + (j + 2) * ldc + ii;
        T* c3 = C + (j + 3) * ldc + ii;
        for (std::size_t p = 0; p < kb; ++p) {
          const T* a = A + (kk + p) * lda + ii;
          const T b0 = alpha * B[(j + 0) * ldb + kk + p];
          const T b1 = alpha * B[(j + 1) * ldb + kk + p];
          const T b2 = alpha * B[(j + 2) * ldb + kk + p];
          const T b3 = alpha * B[(j + 3) * ldb + kk + p];
          for (std::size_t i = 0; i < mb; ++i) {
            const T av = a[i];
            c0[i] += av * b0;
            c1[i] += av * b1;
            c2[i] += av * b2;
            c3[i] += av * b3;
          }
        }
      }
      for (; j < n; ++j) {
        T* c = C + j * ldc + ii;
        for (std::size_t p = 0; p < kb; ++p) {
          const T* a = A + (kk + p) * lda + ii;
          const T b = alpha * B[j * ldb + kk + p];
          for (std::size_t i = 0; i < mb; ++i) c[i] += a[i] * b;
        }
      }
    }
  }
}

template <typename T>
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, T alpha, const T* A,
             std::size_t lda, const T* B, std::size_t ldb, T beta, T* C,
             std::size_t ldc) {
  scale_matrix(m, n, beta, C, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == T{0}) return;
  // C[i,j] += alpha * sum_p A[p,i] * B[p,j]: dot products of unit-stride
  // columns. Block over k to keep both columns resident in cache.
  for (std::size_t kk = 0; kk < k; kk += kKc) {
    const std::size_t kb = std::min(kKc, k - kk);
    for (std::size_t j = 0; j < n; ++j) {
      const T* b = B + j * ldb + kk;
      for (std::size_t i = 0; i < m; ++i) {
        const T* a = A + i * lda + kk;
        T acc{0};
        for (std::size_t p = 0; p < kb; ++p) acc += a[p] * b[p];
        C[j * ldc + i] += alpha * acc;
      }
    }
  }
}

template <typename T>
void gemv(std::size_t m, std::size_t n, T alpha, const T* A, std::size_t lda,
          const T* x, T beta, T* y) {
  if (beta == T{0})
    std::fill(y, y + m, T{0});
  else if (beta != T{1})
    for (std::size_t i = 0; i < m; ++i) y[i] *= beta;
  for (std::size_t j = 0; j < n; ++j) {
    const T s = alpha * x[j];
    const T* a = A + j * lda;
    for (std::size_t i = 0; i < m; ++i) y[i] += a[i] * s;
  }
}

// Explicit instantiations for the element types the engine dispatches on.
template void gemm_nn<double>(std::size_t, std::size_t, std::size_t, double,
                              const double*, std::size_t, const double*,
                              std::size_t, double, double*, std::size_t);
template void gemm_nn<float>(std::size_t, std::size_t, std::size_t, float,
                             const float*, std::size_t, const float*,
                             std::size_t, float, float*, std::size_t);
template void gemm_tn<double>(std::size_t, std::size_t, std::size_t, double,
                              const double*, std::size_t, const double*,
                              std::size_t, double, double*, std::size_t);
template void gemm_tn<float>(std::size_t, std::size_t, std::size_t, float,
                             const float*, std::size_t, const float*,
                             std::size_t, float, float*, std::size_t);
template void gemv<double>(std::size_t, std::size_t, double, const double*,
                           std::size_t, const double*, double, double*);
template void gemv<float>(std::size_t, std::size_t, float, const float*,
                          std::size_t, const float*, float, float*);

bool cholesky(std::size_t n, double* A, std::size_t lda) {
  for (std::size_t j = 0; j < n; ++j) {
    double diag = A[j * lda + j];
    for (std::size_t p = 0; p < j; ++p) {
      const double l = A[p * lda + j];
      diag -= l * l;
    }
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    A[j * lda + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = A[j * lda + i];
      for (std::size_t p = 0; p < j; ++p)
        v -= A[p * lda + i] * A[p * lda + j];
      A[j * lda + i] = v / ljj;
    }
    for (std::size_t i = 0; i < j; ++i) A[j * lda + i] = 0.0;  // upper
  }
  return true;
}

void forward_subst(std::size_t n, const double* L, std::size_t lda,
                   double* b) {
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t j = 0; j < i; ++j) v -= L[j * lda + i] * b[j];
    b[i] = v / L[i * lda + i];
  }
}

void backward_subst_t(std::size_t n, const double* L, std::size_t lda,
                      double* b) {
  for (std::size_t ii = n; ii-- > 0;) {
    double v = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) v -= L[ii * lda + j] * b[j];
    b[ii] = v / L[ii * lda + ii];
  }
}

bool spd_inverse(std::size_t n, double* A, std::size_t lda) {
  std::vector<double> L(n * n);
  for (std::size_t j = 0; j < n; ++j)
    std::copy(A + j * lda, A + j * lda + n, L.data() + j * n);
  if (!cholesky(n, L.data(), n)) return false;
  // Solve A * X = I column by column.
  std::vector<double> col(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::fill(col.begin(), col.end(), 0.0);
    col[j] = 1.0;
    forward_subst(n, L.data(), n, col.data());
    backward_subst_t(n, L.data(), n, col.data());
    std::copy(col.begin(), col.end(), A + j * lda);
  }
  return true;
}

double cholesky_logdet(std::size_t n, const double* L, std::size_t lda) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += std::log(L[i * lda + i]);
  return 2.0 * s;
}

void jacobi_eigen(std::size_t n, double* A, std::size_t lda, double* w,
                  double* V, std::size_t ldv) {
  if (V != nullptr) {
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i)
        V[j * ldv + i] = (i == j) ? 1.0 : 0.0;
  }
  auto off_norm = [&] {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i)
        if (i != j) s += A[j * lda + i] * A[j * lda + i];
    return s;
  };
  double frob = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      frob += A[j * lda + i] * A[j * lda + i];
  const double tol = 1e-24 * (frob > 0 ? frob : 1.0);

  const int max_sweeps = 64;
  for (int sweep = 0; sweep < max_sweeps && off_norm() > tol; ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = A[q * lda + p];
        if (apq == 0.0) continue;
        const double app = A[p * lda + p];
        const double aqq = A[q * lda + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Rotate rows/columns p and q of the symmetric A.
        for (std::size_t i = 0; i < n; ++i) {
          const double aip = A[p * lda + i];
          const double aiq = A[q * lda + i];
          A[p * lda + i] = c * aip - s * aiq;
          A[q * lda + i] = s * aip + c * aiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double api = A[i * lda + p];
          const double aqi = A[i * lda + q];
          A[i * lda + p] = c * api - s * aqi;
          A[i * lda + q] = s * api + c * aqi;
        }
        if (V != nullptr) {
          for (std::size_t i = 0; i < n; ++i) {
            const double vip = V[p * ldv + i];
            const double viq = V[q * ldv + i];
            V[p * ldv + i] = c * vip - s * viq;
            V[q * ldv + i] = s * vip + c * viq;
          }
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) w[i] = A[i * lda + i];
  // Sort eigenvalues (and eigenvectors) in descending order.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return w[a] > w[b]; });
  std::vector<double> wcopy(w, w + n);
  std::vector<double> vcopy;
  if (V != nullptr) {
    vcopy.resize(n * n);
    for (std::size_t j = 0; j < n; ++j)
      std::copy(V + j * ldv, V + j * ldv + n, vcopy.data() + j * n);
  }
  for (std::size_t j = 0; j < n; ++j) {
    w[j] = wcopy[order[j]];
    if (V != nullptr)
      std::copy(vcopy.data() + order[j] * n, vcopy.data() + order[j] * n + n,
                V + j * ldv);
  }
}

bool lu_solve(std::size_t n, std::size_t m, double* A, std::size_t lda,
              double* B, std::size_t ldb) {
  std::vector<std::size_t> piv(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t p = k;
    double best = std::abs(A[k * lda + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(A[k * lda + i]);
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best < 1e-300) return false;
    piv[k] = p;
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(A[j * lda + k], A[j * lda + p]);
      for (std::size_t j = 0; j < m; ++j)
        std::swap(B[j * ldb + k], B[j * ldb + p]);
    }
    const double pivot = A[k * lda + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = A[k * lda + i] / pivot;
      A[k * lda + i] = f;
      for (std::size_t j = k + 1; j < n; ++j)
        A[j * lda + i] -= f * A[j * lda + k];
      for (std::size_t j = 0; j < m; ++j) B[j * ldb + i] -= f * B[j * ldb + k];
    }
  }
  // Back substitution.
  for (std::size_t j = 0; j < m; ++j) {
    double* b = B + j * ldb;
    for (std::size_t ii = n; ii-- > 0;) {
      double v = b[ii];
      for (std::size_t c = ii + 1; c < n; ++c) v -= A[c * lda + ii] * b[c];
      b[ii] = v / A[ii * lda + ii];
    }
  }
  return true;
}

}  // namespace flashr::blas
