#include "sparse/sem_spmm.h"

#include <unistd.h>

#include <atomic>
#include <cstring>

#include "common/align.h"
#include "common/error.h"
#include "io/async_io.h"
#include "mem/buffer_pool.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"

namespace flashr::sparse {

namespace {

/// Row blocks a worker takes per scheduler dispatch while plenty remain;
/// their reads are issued together and joined before any is computed.
constexpr int kBlocksPerBatch = 4;

std::string next_sparse_name() {
  // Pid-qualified for the same reason as EM temp names: concurrent
  // processes sharing an em_dir must not truncate each other's blocks.
  static std::atomic<std::uint64_t> counter{0};
  return "spm" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

/// On-disk block layout: [uint64 nnz][uint64 row_counts[rows]]
/// [uint32 col_idx[nnz]][double values[nnz]], padded to 4 KiB. The column
/// section is padded to 8 bytes so the values stay aligned for odd nnz.
std::size_t cols_bytes(std::size_t nnz) {
  return round_up(sizeof(std::uint32_t) * nnz, sizeof(double));
}

std::size_t block_bytes(std::size_t rows, std::size_t nnz) {
  return round_up(sizeof(std::uint64_t) * (1 + rows) + cols_bytes(nnz) +
                      sizeof(double) * nnz,
                  4096);
}

}  // namespace

std::shared_ptr<em_csr> em_csr::create(const csr_matrix& m,
                                       std::size_t rows_per_block) {
  auto em = std::shared_ptr<em_csr>(new em_csr());
  em->nrow_ = m.nrow();
  em->ncol_ = m.ncol();
  em->nnz_ = m.nnz();

  // Lay out blocks.
  std::size_t total = 0;
  for (std::size_t r0 = 0; r0 < m.nrow(); r0 += rows_per_block) {
    const std::size_t rows = std::min(rows_per_block, m.nrow() - r0);
    const std::size_t nnz =
        m.row_ptr()[r0 + rows] - m.row_ptr()[r0];
    block_info b;
    b.row_begin = r0;
    b.row_count = rows;
    b.offset = total;
    b.nnz = nnz;
    b.bytes = block_bytes(rows, nnz);
    total += b.bytes;
    em->blocks_.push_back(b);
  }
  em->file_ = safs_file::create(next_sparse_name(), total);

  // Serialize.
  auto& pool = buffer_pool::global();
  for (const block_info& b : em->blocks_) {
    pool_buffer buf = pool.get(b.bytes);
    char* w = buf.data();
    std::memset(w, 0, b.bytes);
    auto* hdr = reinterpret_cast<std::uint64_t*>(w);
    hdr[0] = b.nnz;
    for (std::size_t i = 0; i < b.row_count; ++i)
      hdr[1 + i] = m.row_ptr()[b.row_begin + i + 1] -
                   m.row_ptr()[b.row_begin + i];
    auto* cols = reinterpret_cast<std::uint32_t*>(w + sizeof(std::uint64_t) *
                                                          (1 + b.row_count));
    const std::size_t e0 = m.row_ptr()[b.row_begin];
    std::memcpy(cols, m.col_idx().data() + e0, sizeof(std::uint32_t) * b.nnz);
    auto* vals = reinterpret_cast<double*>(reinterpret_cast<char*>(cols) +
                                           cols_bytes(b.nnz));
    std::memcpy(vals, m.values().data() + e0, sizeof(double) * b.nnz);
    em->file_->write(b.offset, b.bytes, buf.data());
    auto& stats = io_stats::global();
    stats.write_ops.fetch_add(1, std::memory_order_relaxed);
    stats.write_bytes.fetch_add(b.bytes, std::memory_order_relaxed);
  }
  return em;
}

smat em_csr::spmm(const smat& d) const {
  FLASHR_CHECK_SHAPE(d.nrow() == ncol_, "em spmm: dimension mismatch");
  const std::size_t k = d.ncol();
  smat out(nrow_, k);

  thread_pool& pool = thread_pool::global();
  part_scheduler sched(blocks_.size(), pool.size(), kBlocksPerBatch);
  auto& aio = async_io::global();
  auto& mem = buffer_pool::global();

  pool.run_all([&](int) {
    std::size_t bb, be;
    std::vector<pool_buffer> bufs;
    while (sched.fetch(bb, be)) {
      // Read the whole batch asynchronously, then compute block by block
      // (the semi-external pipeline of [39]). The join waits for every read
      // of the batch before it rethrows a failed one, so no buffer goes
      // back to the pool while a sibling read still writes into it.
      bufs.clear();
      auto join = std::make_shared<read_join>(be - bb);
      for (std::size_t bi = bb; bi < be; ++bi) {
        const block_info& blk = blocks_[bi];
        bufs.push_back(mem.get(blk.bytes));
        aio.submit_read_notify(file_, blk.offset, blk.bytes,
                               bufs.back().data(), read_join::member(join));
      }
      join->wait();
      for (std::size_t bi = bb; bi < be; ++bi) {
        const block_info& blk = blocks_[bi];
        const char* r = bufs[bi - bb].data();
        const auto* hdr = reinterpret_cast<const std::uint64_t*>(r);
        FLASHR_ASSERT(hdr[0] == blk.nnz, "sparse block corrupted");
        const auto* cols = reinterpret_cast<const std::uint32_t*>(
            r + sizeof(std::uint64_t) * (1 + blk.row_count));
        const auto* vals = reinterpret_cast<const double*>(
            reinterpret_cast<const char*>(cols) + cols_bytes(blk.nnz));
        std::size_t e = 0;
        for (std::size_t i = 0; i < blk.row_count; ++i) {
          const std::size_t row = blk.row_begin + i;
          const std::size_t deg = hdr[1 + i];
          for (std::size_t q = 0; q < deg; ++q, ++e) {
            const std::size_t c = cols[e];
            const double v = vals[e];
            for (std::size_t j = 0; j < k; ++j)
              out(row, j) += v * d(c, j);
          }
        }
      }
    }
  });
  return out;
}

}  // namespace flashr::sparse
