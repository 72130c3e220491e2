// Host-side partition access: the one reader and the one writer that
// gathers and exports use (to_smat, at, gather_rows, rbind, head_rows, the
// value tables, text and binary save/load). Passes never come through here;
// they stream partitions through the prefetch pipeline.
#pragma once

#include <cstring>

#include "common/error.h"
#include "matrix/em_store.h"
#include "matrix/generated_store.h"
#include "matrix/mem_store.h"
#include "mem/buffer_pool.h"

namespace flashr {

/// Hand partition `pidx` of a physical or generated store to
/// `use(data, rows)`: packed column-major data whose column stride is the
/// partition's row count. A mem partition is handed over in place, an EM
/// partition is read into a pool buffer first (em_readable::read_part) and a
/// generated one is generated into a pool buffer.
template <class F>
void with_partition(const matrix_store& s, std::size_t pidx, F&& use) {
  const std::size_t rows = s.geom().rows_in_part(pidx);
  if (s.kind() == store_kind::mem) {
    use(static_cast<const mem_store&>(s).part_data(pidx), rows);
    return;
  }
  pool_buffer buf =
      buffer_pool::global().get(s.geom().part_bytes(pidx, s.type()));
  switch (s.kind()) {
    case store_kind::ext:
      static_cast<const em_readable&>(s).read_part(pidx, buf.data());
      break;
    case store_kind::generated:
      static_cast<const generated_store&>(s).generate(
          s.geom().part_row_begin(pidx), rows, buf.data(), rows);
      break;
    default:
      throw_error("with_partition: unmaterialized matrix");
  }
  use(buf.data(), rows);
}

/// Store packed partition `pidx` (column stride = rows in the partition)
/// into a writable store: a copy into a mem partition, a synchronous
/// em_store::write_part for EM.
inline void write_partition(matrix_store& s, std::size_t pidx,
                            const char* data) {
  if (s.kind() == store_kind::mem)
    std::memcpy(static_cast<mem_store&>(s).part_data(pidx), data,
                s.geom().part_bytes(pidx, s.type()));
  else if (s.kind() == store_kind::ext)
    static_cast<em_store&>(s).write_part(pidx, data);
  else
    throw_error("write_partition: not a writable store");
}

}  // namespace flashr
