#include "blas/smat.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "blas/blas.h"
#include "common/error.h"

namespace flashr {

smat smat::from_rows(std::size_t nrow, std::size_t ncol,
                     std::initializer_list<double> vals) {
  FLASHR_ASSERT(vals.size() == nrow * ncol, "from_rows: wrong element count");
  smat m(nrow, ncol);
  std::size_t idx = 0;
  for (double v : vals) {
    const std::size_t i = idx / ncol, j = idx % ncol;
    m(i, j) = v;
    ++idx;
  }
  return m;
}

smat smat::identity(std::size_t n) {
  smat m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

smat smat::from_data(std::size_t nrow, std::size_t ncol,
                     std::vector<double> data) {
  FLASHR_ASSERT(data.size() == nrow * ncol, "from_data: wrong element count");
  smat m;
  m.nrow_ = nrow;
  m.ncol_ = ncol;
  m.data_ = std::move(data);
  return m;
}

smat smat::t() const {
  smat r(ncol_, nrow_);
  for (std::size_t j = 0; j < ncol_; ++j)
    for (std::size_t i = 0; i < nrow_; ++i) r(j, i) = (*this)(i, j);
  return r;
}

smat smat::operator+(const smat& o) const {
  FLASHR_ASSERT(nrow_ == o.nrow_ && ncol_ == o.ncol_, "smat shape mismatch");
  smat r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] += o.data_[i];
  return r;
}

smat smat::operator-(const smat& o) const {
  FLASHR_ASSERT(nrow_ == o.nrow_ && ncol_ == o.ncol_, "smat shape mismatch");
  smat r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] -= o.data_[i];
  return r;
}

smat smat::operator*(double s) const {
  smat r = *this;
  for (double& v : r.data_) v *= s;
  return r;
}

smat smat::mm(const smat& o) const {
  FLASHR_ASSERT(ncol_ == o.nrow_, "smat mm shape mismatch");
  smat r(nrow_, o.ncol_);
  blas::gemm_nn(nrow_, o.ncol_, ncol_, 1.0, data(), nrow_, o.data(), o.nrow_,
                0.0, r.data(), r.nrow_);
  return r;
}

smat smat::crossprod(const smat& o) const {
  FLASHR_ASSERT(nrow_ == o.nrow_, "smat crossprod shape mismatch");
  smat r(ncol_, o.ncol_);
  blas::gemm_tn(ncol_, o.ncol_, nrow_, 1.0, data(), nrow_, o.data(), o.nrow_,
                0.0, r.data(), r.nrow_);
  return r;
}

smat smat::row(std::size_t i) const {
  smat r(1, ncol_);
  for (std::size_t j = 0; j < ncol_; ++j) r(0, j) = (*this)(i, j);
  return r;
}

smat smat::col(std::size_t j) const {
  smat r(nrow_, 1);
  for (std::size_t i = 0; i < nrow_; ++i) r(i, 0) = (*this)(i, j);
  return r;
}

void smat::set_row(std::size_t i, const smat& r) {
  FLASHR_ASSERT(r.ncol() == ncol_ && r.nrow() == 1, "set_row shape mismatch");
  for (std::size_t j = 0; j < ncol_; ++j) (*this)(i, j) = r(0, j);
}

double smat::max_abs_diff(const smat& o) const {
  FLASHR_ASSERT(nrow_ == o.nrow_ && ncol_ == o.ncol_, "smat shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::abs(data_[i] - o.data_[i]));
  return m;
}

}  // namespace flashr
