// Semi-external-memory sparse matrix multiplication (Zheng et al. [39],
// integrated into FlashR per §3).
//
// "Semi-external" means the sparse matrix lives on the SSDs and streams
// through memory once per multiply, while the (much smaller) dense operand
// and result stay in RAM. An em_csr serializes a CSR matrix into a SAFS file
// as independent row blocks; spmm() then runs the paper's pipeline: workers
// pull batches of row blocks through the sequential dynamic scheduler, read
// each batch asynchronously (the I/O threads overlap one worker's reads with
// the others' compute), and accumulate into the in-memory output.
#pragma once

#include <memory>

#include "blas/smat.h"
#include "io/safs.h"
#include "sparse/csr.h"

namespace flashr::sparse {

class em_csr {
 public:
  /// Serialize `m` to a fresh SAFS file in blocks of `rows_per_block` rows.
  static std::shared_ptr<em_csr> create(const csr_matrix& m,
                                        std::size_t rows_per_block = 16384);

  std::size_t nrow() const { return nrow_; }
  std::size_t ncol() const { return ncol_; }
  std::size_t nnz() const { return nnz_; }
  std::size_t num_blocks() const { return blocks_.size(); }

  /// C = this %*% D, streaming the sparse data from SSDs exactly once,
  /// with the dense operand and result held in memory.
  smat spmm(const smat& d) const;

 private:
  struct block_info {
    std::size_t row_begin;
    std::size_t row_count;
    std::size_t offset;  ///< byte offset in the SAFS file
    std::size_t bytes;
    std::size_t nnz;
  };

  em_csr() = default;

  std::size_t nrow_ = 0;
  std::size_t ncol_ = 0;
  std::size_t nnz_ = 0;
  std::vector<block_info> blocks_;
  std::shared_ptr<safs_file> file_;
};

}  // namespace flashr::sparse
