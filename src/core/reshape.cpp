#include "core/reshape.h"

#include <numeric>
#include <set>

#include "common/config.h"
#include "common/error.h"
#include "matrix/partition_io.h"

namespace flashr {

namespace {

matrix_store::ptr physical(const dense_matrix& m) {
  FLASHR_CHECK(!m.is_transposed(), "reshape: transposed input unsupported");
  m.materialize(storage::in_mem);
  return m.resolved();
}

}  // namespace

dense_matrix rbind(const std::vector<dense_matrix>& mats, storage st) {
  FLASHR_CHECK(!mats.empty(), "rbind of nothing");
  const std::size_t ncol = mats[0].ncol();
  scalar_type type = mats[0].type();
  std::size_t total = 0;
  for (const auto& m : mats) {
    FLASHR_CHECK_SHAPE(m.ncol() == ncol, "rbind: column counts disagree");
    type = promote(type, m.type());
    total += m.nrow();
  }

  matrix_store::ptr out =
      st == storage::ext_mem
          ? matrix_store::ptr(em_store::create(total, ncol, type))
          : matrix_store::ptr(mem_store::create(total, ncol, type));

  // Assemble destination partitions in order, pulling from the sources.
  pool_buffer dbuf =
      buffer_pool::global().get(out->geom().full_part_bytes(type));
  std::size_t dpidx = 0;
  std::size_t dfill = 0;
  std::size_t drows = out->geom().rows_in_part(0);

  auto flush = [&] {
    write_partition(*out, dpidx, dbuf.data());
    ++dpidx;
    dfill = 0;
    if (dpidx < out->num_parts()) drows = out->geom().rows_in_part(dpidx);
  };

  for (const auto& m : mats) {
    const dense_matrix conv = m.type() == type ? m : m.cast(type);
    auto s = physical(conv);
    for (std::size_t pidx = 0; pidx < s->num_parts(); ++pidx)
      with_partition(*s, pidx, [&](const char* data, std::size_t rows) {
        // Copy `rows` source rows into the destination, splitting across
        // destination partitions as needed.
        std::size_t copied = 0;
        dispatch_type(type, [&]<typename T>() {
          const T* src = reinterpret_cast<const T*>(data);
          while (copied < rows) {
            const std::size_t take = std::min(rows - copied, drows - dfill);
            T* dst = reinterpret_cast<T*>(dbuf.data());
            for (std::size_t j = 0; j < ncol; ++j)
              for (std::size_t i = 0; i < take; ++i)
                dst[j * drows + dfill + i] = src[j * rows + copied + i];
            copied += take;
            dfill += take;
            if (dfill == drows) flush();
          }
        });
      });
  }
  if (dfill > 0) flush();
  if (st == storage::ext_mem) em_store::drain_writes();
  return dense_matrix{out};
}

std::vector<double> unique_values(const dense_matrix& m) {
  auto s = physical(m);
  std::set<double> seen;
  for (std::size_t pidx = 0; pidx < s->num_parts(); ++pidx)
    with_partition(*s, pidx, [&](const char* data, std::size_t rows) {
      dispatch_type(s->type(), [&]<typename T>() {
        const T* d = reinterpret_cast<const T*>(data);
        for (std::size_t i = 0; i < rows * s->ncol(); ++i)
          seen.insert(static_cast<double>(d[i]));
      });
    });
  return std::vector<double>(seen.begin(), seen.end());
}

std::map<double, std::size_t> table_values(const dense_matrix& m) {
  auto s = physical(m);
  std::map<double, std::size_t> counts;
  for (std::size_t pidx = 0; pidx < s->num_parts(); ++pidx)
    with_partition(*s, pidx, [&](const char* data, std::size_t rows) {
      dispatch_type(s->type(), [&]<typename T>() {
        const T* d = reinterpret_cast<const T*>(data);
        for (std::size_t i = 0; i < rows * s->ncol(); ++i)
          ++counts[static_cast<double>(d[i])];
      });
    });
  return counts;
}

std::map<double, double> groupby_values(const dense_matrix& m, agg_id op) {
  auto s = physical(m);
  std::map<double, double> out;
  for (std::size_t pidx = 0; pidx < s->num_parts(); ++pidx)
    with_partition(*s, pidx, [&](const char* data, std::size_t rows) {
      dispatch_type(s->type(), [&]<typename T>() {
        const T* d = reinterpret_cast<const T*>(data);
        for (std::size_t i = 0; i < rows * s->ncol(); ++i) {
          const double v = static_cast<double>(d[i]);
          auto [it, fresh] = out.try_emplace(v, 0.0);
          switch (op) {
            case agg_id::sum: it->second += v; break;
            case agg_id::count_nonzero: it->second += v != 0 ? 1 : 0; break;
            case agg_id::min_v:
              it->second = fresh ? v : std::min(it->second, v);
              break;
            case agg_id::max_v:
              it->second = fresh ? v : std::max(it->second, v);
              break;
            default:
              throw_error("groupby_values: unsupported aggregation");
          }
        }
      });
    });
  return out;
}

dense_matrix replace_cols(const dense_matrix& a,
                          const std::vector<std::size_t>& cols,
                          const dense_matrix& b) {
  FLASHR_CHECK_SHAPE(b.ncol() == cols.size(),
                     "replace_cols: replacement width mismatch");
  FLASHR_CHECK_SHAPE(b.nrow() == a.nrow(),
                     "replace_cols: row counts disagree");
  // Permutation view over cbind({a, b}): column j of the result comes from
  // b if j is replaced, else from a.
  const std::size_t p = a.ncol();
  std::vector<std::size_t> perm(p);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    FLASHR_CHECK_SHAPE(cols[i] < p, "replace_cols: column out of range");
    perm[cols[i]] = p + i;
  }
  return select_cols(cbind({a, b}), perm);
}

dense_matrix head_rows(const dense_matrix& a, std::size_t nrow, storage st) {
  FLASHR_CHECK_SHAPE(nrow <= a.nrow(), "head_rows: too many rows");
  auto s = physical(a);
  matrix_store::ptr out =
      st == storage::ext_mem
          ? matrix_store::ptr(em_store::create(nrow, a.ncol(), s->type()))
          : matrix_store::ptr(mem_store::create(nrow, a.ncol(), s->type()));
  auto& pool = buffer_pool::global();
  for (std::size_t pidx = 0; pidx < out->num_parts(); ++pidx) {
    const std::size_t orows = out->geom().rows_in_part(pidx);
    pool_buffer obuf = pool.get(out->geom().part_bytes(pidx, s->type()));
    with_partition(*s, pidx, [&](const char* data, std::size_t srows) {
      dispatch_type(s->type(), [&]<typename T>() {
        const T* src = reinterpret_cast<const T*>(data);
        T* dst = reinterpret_cast<T*>(obuf.data());
        for (std::size_t j = 0; j < a.ncol(); ++j)
          for (std::size_t i = 0; i < orows; ++i)
            dst[j * orows + i] = src[j * srows + i];
      });
    });
    write_partition(*out, pidx, obuf.data());
  }
  return dense_matrix{out};
}

}  // namespace flashr
