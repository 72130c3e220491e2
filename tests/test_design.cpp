// Intercept fits without a column of ones (ml/design.h): a model fitted to X
// with add_intercept = true must equal, bit for bit, the same model fitted to
// cbind(X, 1) with add_intercept = false (DESIGN.md §6, invariant 8) — the
// weights, the loss history and iteration count of the L-BFGS fits, linreg's
// R², and every model's predictions. Checked in all three exec modes, in
// memory and on SSDs, at two Pcache chunk sizes, at a size small enough for
// the eager small-matrix path and at one that streams partitions. Also pins
// the passes a logistic fit takes now that its line search evaluates several
// trial points per pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>

#include "common/config.h"
#include "core/dense_matrix.h"
#include "matrix/datasets.h"
#include "ml/lbfgs.h"
#include "ml/linreg.h"
#include "ml/logistic.h"
#include "ml/softmax.h"
#include "obs/metrics.h"

namespace flashr::ml {
namespace {

bool same_bits(const smat& a, const smat& b) {
  return a.nrow() == b.nrow() && a.ncol() == b.ncol() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::uint64_t passes_admitted() {
  return obs::metrics_registry::global().value("governor.admitted");
}

using intercept_param =
    std::tuple<exec_mode, storage, std::size_t /*pcache*/, std::size_t /*n*/>;

class InterceptTest : public ::testing::TestWithParam<intercept_param> {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;
    o.mode = std::get<0>(GetParam());
    o.pcache_bytes = std::get<2>(GetParam());
    init(o);
    const std::size_t n = std::get<3>(GetParam());
    const storage st = std::get<1>(GetParam());
    labeled_data d = criteo_like(n, 3);
    X_ = conv_store(d.X, st);
    y_ = conv_store(d.y, st);
    // The parent formulation: the intercept as an explicit column of ones.
    Xi_ = cbind({X_, dense_matrix::constant(n, 1, 1.0)});
    // Three classes: the label plus a threshold on a categorical column.
    y3_ = conv_store(
        d.y + mapply2(select_cols(d.X, {13}), 16.0, bop_id::lt), st);
  }

  dense_matrix X_, Xi_, y_, y3_;
};

TEST_P(InterceptTest, LogisticMatchesExplicitOnesColumn) {
  logistic_options with;
  with.max_iters = 5;
  with.loss_tol = 0;
  logistic_options without = with;
  without.add_intercept = false;
  const logistic_model a = logistic_regression(X_, y_, with);
  const logistic_model b = logistic_regression(Xi_, y_, without);
  EXPECT_EQ(a.iterations, 5);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_TRUE(same_bits(a.w, b.w));
  EXPECT_TRUE(same_bits(a.loss_history, b.loss_history));
  EXPECT_TRUE(same_bits(logistic_predict_prob(X_, a).to_smat(),
                        logistic_predict_prob(Xi_, b).to_smat()));
  EXPECT_TRUE(same_bits(logistic_predict(X_, a).to_smat(),
                        logistic_predict(Xi_, b).to_smat()));
}

TEST_P(InterceptTest, LinregMatchesExplicitOnesColumn) {
  const linreg_model a = linear_regression(X_, y_);
  const linreg_model b =
      linear_regression(Xi_, y_, {.l2 = 0.0, .add_intercept = false});
  EXPECT_TRUE(same_bits(a.w, b.w));
  EXPECT_EQ(std::memcmp(&a.r2, &b.r2, sizeof(double)), 0)
      << a.r2 << " vs " << b.r2;
  EXPECT_TRUE(same_bits(linreg_predict(X_, a).to_smat(),
                        linreg_predict(Xi_, b).to_smat()));
}

TEST_P(InterceptTest, SoftmaxMatchesExplicitOnesColumn) {
  softmax_options with;
  with.max_iters = 3;
  with.loss_tol = 0;
  with.l2 = 0;
  softmax_options without = with;
  without.add_intercept = false;
  const softmax_model a = softmax_regression(X_, y3_, 3, with);
  const softmax_model b = softmax_regression(Xi_, y3_, 3, without);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_TRUE(same_bits(a.w, b.w));
  EXPECT_TRUE(same_bits(a.loss_history, b.loss_history));
  EXPECT_TRUE(same_bits(softmax_predict(X_, a).to_smat(),
                        softmax_predict(Xi_, b).to_smat()));
}

std::string intercept_name(
    const ::testing::TestParamInfo<intercept_param>& info) {
  std::string name = exec_mode_name(std::get<0>(info.param));
  std::replace(name.begin(), name.end(), '-', '_');
  name += std::get<1>(info.param) == storage::ext_mem ? "_em_" : "_im_";
  return name + std::to_string(std::get<2>(info.param) / 1024) + "k_n" +
         std::to_string(std::get<3>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InterceptTest,
    ::testing::Combine(::testing::Values(exec_mode::eager, exec_mode::mem_fuse,
                                         exec_mode::cache_fuse),
                       ::testing::Values(storage::in_mem, storage::ext_mem),
                       ::testing::Values(std::size_t{2048},
                                         std::size_t{64 * 1024}),
                       ::testing::Values(std::size_t{3000},
                                         std::size_t{100000})),
    intercept_name);

// On criteo_like data the first L-BFGS step is steepest descent with step 1
// on unscaled features, and Armijo accepts only its 11th trial (step 2^-10);
// the 9 later searches accept their first. One point per pass, a 10-iteration
// fit takes 1 + 11 + 9 = 21 passes; with the ladder in batches of 1, 2, 4, 8
// it takes 1 + 4 + 9 = 14, and visits the same iterates.
TEST(LogisticPasses, BatchedLineSearchTakesFourteenPasses) {
  options o;
  o.em_dir = "/tmp/flashr_test_em";
  o.num_threads = 4;
  init(o);
  labeled_data d = criteo_like(20000, 1);
  const dense_matrix X = conv_store(d.X, storage::ext_mem);
  const dense_matrix y = conv_store(d.y, storage::ext_mem);

  logistic_options lo;
  lo.max_iters = 10;
  lo.loss_tol = 0;
  const std::uint64_t a0 = passes_admitted();
  const logistic_model m = logistic_regression(X, y, lo);
  EXPECT_EQ(passes_admitted() - a0, 14u);
  EXPECT_EQ(m.iterations, 10);

  // The same objective, one point per pass through the single-point form.
  const dense_matrix Xi = cbind({X, dense_matrix::constant(X.nrow(), 1, 1.0)});
  const dense_matrix yf = y.cast(scalar_type::f64);
  const std::size_t p = Xi.ncol();
  const double n = static_cast<double>(X.nrow());
  auto objective = [&](const std::vector<double>& wv,
                       std::vector<double>& grad) {
    smat w(p, 1);
    std::copy(wv.begin(), wv.end(), w.data());
    dense_matrix lin = matmul(Xi, dense_matrix::from_smat(w));
    dense_matrix loss_sink =
        sum(log1p(exp(-abs(lin))) + pmax(lin, 0.0) - yf * lin);
    dense_matrix grad_sink = crossprod(Xi, sigmoid(lin) - yf);
    materialize_all({loss_sink, grad_sink});
    const smat g = grad_sink.to_smat();
    for (std::size_t j = 0; j < p; ++j) grad[j] = g(j, 0) / n;
    return loss_sink.scalar() / n;
  };
  lbfgs_options lbo;
  lbo.max_iters = 10;
  lbo.loss_tol = 0;
  const std::uint64_t a1 = passes_admitted();
  const lbfgs_result r =
      lbfgs_minimize(objective, std::vector<double>(p, 0.0), lbo);
  EXPECT_EQ(passes_admitted() - a1, 21u);
  EXPECT_EQ(r.iterations, 10);
  EXPECT_TRUE(same_bits(r.x, std::vector<double>(m.w.data(),
                                                 m.w.data() + m.w.size())));
  EXPECT_TRUE(same_bits(r.loss_history, m.loss_history));
}

// A host right operand may have more rows than small_nrow_threshold:
// matmul(X, smat) multiplies a tall X through inner.prod at any threshold.
// Under a threshold of 16, criteo_like's p = 39 logits and a logistic fit
// with its 40-row weight matrix give the default threshold's bits.
options host_operand_options(std::size_t small_nrow_threshold) {
  options o;
  o.em_dir = "/tmp/flashr_test_em";
  o.num_threads = 4;
  o.small_nrow_threshold = small_nrow_threshold;
  return o;
}

TEST(HostOperand, CriteoLikeUnderSmallThreshold) {
  init(host_operand_options(options{}.small_nrow_threshold));
  const labeled_data d = criteo_like(20000, 1);
  const smat x0 = d.X.to_smat(), y0 = d.y.to_smat();

  init(host_operand_options(16));
  const labeled_data d16 = criteo_like(20000, 1);
  EXPECT_TRUE(same_bits(d16.X.to_smat(), x0));
  EXPECT_TRUE(same_bits(d16.y.to_smat(), y0));
}

TEST(HostOperand, LogisticFitUnderSmallThreshold) {
  init(host_operand_options(options{}.small_nrow_threshold));
  const labeled_data d = criteo_like(20000, 1);
  const dense_matrix X = conv_store(d.X, storage::in_mem);
  const dense_matrix y = conv_store(d.y, storage::in_mem);
  logistic_options lo;
  lo.max_iters = 5;
  lo.loss_tol = 0;
  const logistic_model m0 = logistic_regression(X, y, lo);

  init(host_operand_options(16));
  const logistic_model m16 = logistic_regression(X, y, lo);
  EXPECT_TRUE(same_bits(m16.w, m0.w));
  EXPECT_TRUE(same_bits(m16.loss_history, m0.loss_history));
}

}  // namespace
}  // namespace flashr::ml
