#include "matrix/datasets.h"

#include "common/rng.h"

namespace flashr {

labeled_data criteo_like(std::size_t n, std::uint64_t seed) {
  const std::size_t num_numeric = 13;
  const std::size_t num_cat = 26;
  const std::size_t p = num_numeric + num_cat;

  // Heavy-tailed numeric features: exp(N(0,1)) - 1, clipped into a plausible
  // counter range; categorical hashes: uniform integers in [0, 32).
  std::vector<dense_matrix> cols;
  cols.reserve(2);
  dense_matrix numeric =
      pmin(exp(dense_matrix::rnorm(n, num_numeric, 0.0, 1.0, seed)) - 1.0,
           50.0);
  dense_matrix cats = sapply(
      dense_matrix::runif(n, num_cat, 0.0, 32.0, seed ^ 0x9e3779b9ULL),
      uop_id::floor_v);
  dense_matrix X = cbind({numeric, cats});

  // Planted logistic model: a fixed sparse-ish weight vector with decaying
  // magnitudes and alternating signs.
  smat w(p, 1);
  rng64 rng(seed ^ 0x1234567ULL);
  for (std::size_t j = 0; j < p; ++j)
    w(j, 0) = (j % 3 == 0 ? 0.2 : -0.08) / (1.0 + 0.2 * static_cast<double>(j));
  dense_matrix logits = matmul(X, w) - 0.8;
  dense_matrix u = dense_matrix::runif(n, 1, 0.0, 1.0, seed ^ 0xabcdefULL);
  dense_matrix y = lt(u, sigmoid(logits));
  return labeled_data{X, y};
}

labeled_data pagegraph_like(std::size_t n, std::size_t clusters,
                            std::uint64_t seed) {
  const std::size_t p = 32;
  // Column scales decay like singular values of a scale-free graph.
  smat mix(p, p);
  rng64 rng(seed);
  for (std::size_t j = 0; j < p; ++j) {
    const double scale = 1.0 / std::sqrt(1.0 + static_cast<double>(j));
    for (std::size_t i = 0; i < p; ++i)
      mix(i, j) = scale * (i == j ? 1.0 : 0.15 * rng.next_normal());
  }
  dense_matrix Z = dense_matrix::rnorm(n, p, 0.0, 1.0, seed ^ 0x55aaULL);
  dense_matrix X = matmul(Z, mix);

  if (clusters == 0) return labeled_data{X, dense_matrix{}};

  // Plant a mixture: shift each row by a cluster centroid selected from the
  // row index hash (labels are reproducible and partition-independent).
  smat centroids(p, clusters);
  for (std::size_t c = 0; c < clusters; ++c)
    for (std::size_t j = 0; j < p; ++j)
      centroids(j, c) = 2.5 * rng.next_normal() / std::sqrt(1.0 + static_cast<double>(j));
  dense_matrix labf =
      sapply(dense_matrix::runif(n, 1, 0.0, static_cast<double>(clusters),
                                 seed ^ 0x77eeULL),
             uop_id::floor_v);
  dense_matrix lab = labf.cast(scalar_type::i64);
  // One-hot via comparisons, then matmul with centroid matrix transpose.
  std::vector<dense_matrix> shift_cols;
  shift_cols.reserve(clusters);
  // shift = onehot(lab) %*% t(centroids): build as sum over clusters of
  // indicator * centroid — cheaper: indicator matrix n x clusters.
  std::vector<dense_matrix> indicators;
  for (std::size_t c = 0; c < clusters; ++c)
    indicators.push_back(
        mapply2(labf, static_cast<double>(c), bop_id::eq));
  dense_matrix onehot = cbind(indicators);
  dense_matrix shift = matmul(onehot, centroids.t());
  return labeled_data{X + shift, lab};
}

}  // namespace flashr
