// Algorithm-level mode differential: every benchmark algorithm must produce
// IDENTICAL models under eager, mem-fuse and cache-fuse execution (same
// seeds, same data) — the engine's execution strategy is an optimization
// axis, never a semantic one. This is the end-to-end counterpart of the
// per-op differential suite in test_engine.cpp.
#include <gtest/gtest.h>

#include <cstring>

#include "common/config.h"
#include "core/dense_matrix.h"
#include "matrix/datasets.h"
#include "ml/gmm.h"
#include "ml/kmeans.h"
#include "ml/lda.h"
#include "ml/linreg.h"
#include "ml/logistic.h"
#include "ml/naive_bayes.h"
#include "ml/pca.h"
#include "ml/stats.h"

namespace flashr::ml {
namespace {

class ModeDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.io_part_rows = 128;
    o.num_threads = 2;
    init(o);
  }

  template <typename Fn>
  auto under_mode(exec_mode m, Fn&& fn) {
    mutable_conf().mode = m;
    auto result = fn();
    mutable_conf().mode = exec_mode::cache_fuse;
    return result;
  }

  static constexpr std::size_t kN = 2000;
};

TEST_F(ModeDiffTest, CorrelationIdenticalAcrossModes) {
  labeled_data d = criteo_like(kN, 3);
  dense_matrix X = conv_store(d.X, storage::in_mem);
  smat ref = under_mode(exec_mode::cache_fuse, [&] { return correlation(X); });
  for (exec_mode m : {exec_mode::eager, exec_mode::mem_fuse}) {
    smat got = under_mode(m, [&] { return correlation(X); });
    EXPECT_LT(got.max_abs_diff(ref), 1e-12) << exec_mode_name(m);
  }
}

TEST_F(ModeDiffTest, PcaIdenticalAcrossModes) {
  labeled_data d = pagegraph_like(kN, 0, 5);
  dense_matrix X = conv_store(d.X, storage::in_mem);
  auto ref = under_mode(exec_mode::cache_fuse, [&] { return pca(X, 4); });
  for (exec_mode m : {exec_mode::eager, exec_mode::mem_fuse}) {
    auto got = under_mode(m, [&] { return pca(X, 4); });
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(got.eigenvalues[j], ref.eigenvalues[j], 1e-10)
          << exec_mode_name(m);
  }
}

TEST_F(ModeDiffTest, KmeansIdenticalAcrossModes) {
  labeled_data d = pagegraph_like(kN, 4, 7);
  dense_matrix X = conv_store(d.X, storage::in_mem);
  kmeans_options o;
  o.max_iters = 8;
  o.seed = 11;
  auto ref = under_mode(exec_mode::cache_fuse, [&] { return kmeans(X, 4, o); });
  for (exec_mode m : {exec_mode::eager, exec_mode::mem_fuse}) {
    auto got = under_mode(m, [&] { return kmeans(X, 4, o); });
    EXPECT_EQ(got.iterations, ref.iterations) << exec_mode_name(m);
    EXPECT_LT(got.centers.max_abs_diff(ref.centers), 1e-9)
        << exec_mode_name(m);
    EXPECT_EQ(got.moves_history, ref.moves_history) << exec_mode_name(m);
  }
}

TEST_F(ModeDiffTest, LogisticIdenticalAcrossModes) {
  labeled_data d = criteo_like(kN, 13);
  dense_matrix X = conv_store(d.X, storage::in_mem);
  dense_matrix y = conv_store(d.y, storage::in_mem);
  logistic_options o;
  o.max_iters = 6;
  o.loss_tol = 0;
  auto ref = under_mode(exec_mode::cache_fuse,
                        [&] { return logistic_regression(X, y, o); });
  // Bit for bit (DESIGN.md §6, invariants 1 and 5): every sink folds its
  // rows in the same order whatever the mode materializes.
  for (exec_mode m : {exec_mode::eager, exec_mode::mem_fuse}) {
    auto got = under_mode(m, [&] { return logistic_regression(X, y, o); });
    EXPECT_EQ(got.iterations, ref.iterations) << exec_mode_name(m);
    ASSERT_EQ(got.w.size(), ref.w.size());
    EXPECT_EQ(std::memcmp(got.w.data(), ref.w.data(),
                          ref.w.size() * sizeof(double)),
              0)
        << exec_mode_name(m);
    ASSERT_EQ(got.loss_history.size(), ref.loss_history.size());
    EXPECT_EQ(std::memcmp(got.loss_history.data(), ref.loss_history.data(),
                          ref.loss_history.size() * sizeof(double)),
              0)
        << exec_mode_name(m);
  }
}

TEST_F(ModeDiffTest, GmmIdenticalAcrossModes) {
  labeled_data d = pagegraph_like(kN / 2, 2, 17);
  dense_matrix X = conv_store(d.X, storage::in_mem);
  gmm_options o;
  o.max_iters = 3;
  o.loglik_tol = 0;
  o.seed = 19;
  auto ref = under_mode(exec_mode::cache_fuse, [&] { return gmm_fit(X, 2, o); });
  for (exec_mode m : {exec_mode::eager, exec_mode::mem_fuse}) {
    auto got = under_mode(m, [&] { return gmm_fit(X, 2, o); });
    EXPECT_LT(got.means.max_abs_diff(ref.means), 1e-7) << exec_mode_name(m);
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_NEAR(got.weights[c], ref.weights[c], 1e-9) << exec_mode_name(m);
  }
}

TEST_F(ModeDiffTest, LdaAndRidgeIdenticalAcrossModes) {
  labeled_data d = criteo_like(kN, 23);
  dense_matrix X = conv_store(d.X, storage::in_mem);
  dense_matrix y = conv_store(d.y, storage::in_mem);
  auto lda_ref =
      under_mode(exec_mode::cache_fuse, [&] { return lda_train(X, y, 2); });
  auto lin_ref = under_mode(exec_mode::cache_fuse, [&] {
    return linear_regression(X, y.cast(scalar_type::f64));
  });
  for (exec_mode m : {exec_mode::eager, exec_mode::mem_fuse}) {
    auto lda_got = under_mode(m, [&] { return lda_train(X, y, 2); });
    EXPECT_LT(lda_got.pooled_cov.max_abs_diff(lda_ref.pooled_cov), 1e-9)
        << exec_mode_name(m);
    auto lin_got = under_mode(
        m, [&] { return linear_regression(X, y.cast(scalar_type::f64)); });
    EXPECT_LT(lin_got.w.max_abs_diff(lin_ref.w), 1e-9) << exec_mode_name(m);
    EXPECT_NEAR(lin_got.r2, lin_ref.r2, 1e-10) << exec_mode_name(m);
  }
}

}  // namespace
}  // namespace flashr::ml
