// Quickstart: the FlashR programming model in one page.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// This walks through the concepts of the paper in order: lazy matrices,
// single-pass DAG materialization, external-memory storage, and an R-style
// algorithm (the logistic-regression gradient of Figure 2) written against
// the base-package-like API.
#include <cstdio>

#include "common/config.h"
#include "common/timer.h"
#include "core/dense_matrix.h"
#include "io/safs.h"
#include "mem/buffer_pool.h"

using namespace flashr;

int main() {
  // 1. Configure the engine. Defaults work; here we name them explicitly.
  options opts;
  opts.em_dir = "/tmp/flashr_quickstart";
  opts.num_threads = 4;
  init(opts);

  // 2. Create matrices. Generated matrices store nothing: every partition is
  //    computed on demand from a counter-based RNG, so this "1 GB" matrix is
  //    free until something reads it.
  const std::size_t n = 2'000'000, p = 16;
  dense_matrix X = dense_matrix::rnorm(n, p, /*mu=*/0, /*sd=*/1, /*seed=*/42);
  std::printf("X: %zu x %zu (lazy, nothing computed yet)\n", X.nrow(),
              X.ncol());

  // 3. Operations are lazy and fuse into a DAG; one materialize() call
  //    evaluates everything in a single parallel pass over the data.
  dense_matrix Y = sqrt(abs(X)) * 2.0 + 1.0;  // element-wise chain
  dense_matrix total = sum(Y);                // aggregation sink
  dense_matrix gram = crossprod(Y);           // t(Y) %*% Y sink
  timer t;
  materialize_all({total, gram});  // ONE pass computes both
  std::printf("sum(Y) = %.4f and the %zux%zu Gramian in one pass: %.0f ms\n",
              total.scalar(), gram.nrow(), gram.ncol(), t.millis());

  // 4. The same code runs out of core: conv_store pushes X to the SSD-backed
  //    SAFS store; every subsequent operation streams it partition by
  //    partition with asynchronous I/O.
  dense_matrix X_em = conv_store(X, storage::ext_mem);
  io_stats::global().reset();
  t.restart();
  double em_sum = sum(sqrt(abs(X_em)) * 2.0 + 1.0).scalar();
  std::printf("same sum out-of-core: %.4f in %.0f ms (%zu MB read)\n", em_sum,
              t.millis(), io_stats::global().read_bytes.load() >> 20);

  // 5. An R-style algorithm: one gradient-descent step of the logistic
  //    regression of the paper's Figure 2, verbatim in the C++ API.
  dense_matrix y = dense_matrix::bernoulli(n, 1, 0.3, 7);
  smat w(p, 1);  // zero weights
  dense_matrix g =
      crossprod(X, sigmoid(matmul(X, w)) - y) / static_cast<double>(n);
  smat grad = g.to_smat();
  std::printf("logistic gradient at w=0: first coords = %.5f %.5f %.5f\n",
              grad(0, 0), grad(1, 0), grad(2, 0));

  std::printf("peak engine memory: %zu MB\n",
              buffer_pool::global().peak_bytes() >> 20);
  return 0;
}
