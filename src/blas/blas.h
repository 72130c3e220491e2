// Dense linear-algebra kernels.
//
// The paper links against ATLAS for floating-point matrix multiplication
// (Table 2); this container has no BLAS, so we provide our own cache-blocked,
// vectorization-friendly kernels. They serve host-side math on small
// matrices (products, Cholesky, eigensolve, solves) needed by PCA, GMM,
// mvrnorm and LDA, and the BLAS-only baseline. The inner.prod GenOp's
// matrix product runs in kern::inner_prod, with gemm_nn's fold.
//
// All kernels use column-major storage with explicit leading dimensions,
// matching the engine's within-partition layout.
#pragma once

#include <cstddef>

namespace flashr::blas {

/// C = alpha * A * B + beta * C.  A is m×k, B is k×n, C is m×n.
template <typename T>
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, T alpha, const T* A,
             std::size_t lda, const T* B, std::size_t ldb, T beta, T* C,
             std::size_t ldc);

/// C = alpha * A^T * B + beta * C.  A is k×m (so A^T is m×k), B is k×n.
/// Host-side crossprod of small matrices and the BLAS-only baseline use
/// it; the engine's crossprod sink folds in kern::tmm_acc instead, whose
/// results do not depend on how rows are chunked.
template <typename T>
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, T alpha, const T* A,
             std::size_t lda, const T* B, std::size_t ldb, T beta, T* C,
             std::size_t ldc);

/// y = alpha * A * x + beta * y. A is m×n.
template <typename T>
void gemv(std::size_t m, std::size_t n, T alpha, const T* A, std::size_t lda,
          const T* x, T beta, T* y);

/// Cholesky factorization of a symmetric positive-definite n×n matrix A
/// (column-major, lda >= n): on return the lower triangle holds L with
/// A = L * L^T; the strict upper triangle is zeroed. Returns false if A is
/// not (numerically) positive definite.
bool cholesky(std::size_t n, double* A, std::size_t lda);

/// Solve L * x = b in place given the lower-triangular L from cholesky().
void forward_subst(std::size_t n, const double* L, std::size_t lda, double* b);

/// Solve L^T * x = b in place.
void backward_subst_t(std::size_t n, const double* L, std::size_t lda,
                      double* b);

/// Invert an SPD matrix via Cholesky. A is overwritten with A^{-1}.
/// Returns false if not positive definite.
bool spd_inverse(std::size_t n, double* A, std::size_t lda);

/// log(det(A)) for SPD A from its Cholesky factor L: 2 * sum(log(L_ii)).
double cholesky_logdet(std::size_t n, const double* L, std::size_t lda);

/// Symmetric eigendecomposition by the cyclic Jacobi method.
/// A (n×n, column-major, destroyed) -> eigenvalues in `w` (descending) and,
/// if `V` is non-null, the corresponding orthonormal eigenvectors in the
/// columns of V (n×n, ldv >= n). Suitable for the small Gramian matrices
/// (p <= ~1024) produced by PCA/LDA/mvrnorm.
void jacobi_eigen(std::size_t n, double* A, std::size_t lda, double* w,
                  double* V, std::size_t ldv);

/// Solve a general linear system A * X = B via partial-pivot LU.
/// A is n×n (destroyed), B is n×m (overwritten with X). Returns false if A
/// is singular to working precision.
bool lu_solve(std::size_t n, std::size_t m, double* A, std::size_t lda,
              double* B, std::size_t ldb);

}  // namespace flashr::blas
