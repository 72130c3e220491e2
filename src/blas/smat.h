// smat: a small, owning, column-major double matrix for host-side math.
//
// Sink results (Gramians, cluster centers, covariances) are tiny compared to
// the data; FlashR keeps them as ordinary R matrices and manipulates them
// with plain R code between DAG executions. smat plays that role here: no
// lazy evaluation, no parallelism, just convenient dense math gluing DAG
// executions together inside the ML algorithms.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace flashr {

class smat {
 public:
  smat() = default;
  smat(std::size_t nrow, std::size_t ncol, double fill = 0.0)
      : nrow_(nrow), ncol_(ncol), data_(nrow * ncol, fill) {}

  /// Build from rows given in row-major order (convenient in tests).
  static smat from_rows(std::size_t nrow, std::size_t ncol,
                        std::initializer_list<double> vals);

  static smat identity(std::size_t n);

  /// Adopt `data` (column-major, nrow * ncol elements) without copying or
  /// filling: for callers that build every element themselves.
  static smat from_data(std::size_t nrow, std::size_t ncol,
                        std::vector<double> data);

  std::size_t nrow() const { return nrow_; }
  std::size_t ncol() const { return ncol_; }
  std::size_t size() const { return data_.size(); }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[j * nrow_ + i];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[j * nrow_ + i];
  }

  smat t() const;
  smat operator+(const smat& o) const;
  smat operator-(const smat& o) const;
  smat operator*(double s) const;
  /// Matrix product via blas::gemm_nn.
  smat mm(const smat& o) const;
  /// this^T * o.
  smat crossprod(const smat& o) const;

  smat row(std::size_t i) const;
  smat col(std::size_t j) const;
  void set_row(std::size_t i, const smat& r);

  double max_abs_diff(const smat& o) const;

 private:
  std::size_t nrow_ = 0;
  std::size_t ncol_ = 0;
  std::vector<double> data_;
};

}  // namespace flashr
