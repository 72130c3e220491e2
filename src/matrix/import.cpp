#include "matrix/import.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/config.h"
#include "common/error.h"
#include "matrix/partition_io.h"

namespace flashr {

namespace {

matrix_store::ptr make_store(std::size_t nrow, std::size_t ncol,
                             scalar_type type, storage st) {
  if (st == storage::ext_mem)
    return em_store::create(nrow, ncol, type);
  return mem_store::create(nrow, ncol, type);
}

std::size_t count_fields(const std::string& line, char delim) {
  std::size_t n = 1;
  for (char c : line)
    if (c == delim) ++n;
  return n;
}

}  // namespace

dense_matrix load_dense(const std::string& path, const load_options& opts) {
  std::ifstream in(path);
  if (!in) throw_io_error("load_dense: cannot open " + path);

  // Pass 1: count rows and infer the column count.
  std::string line;
  std::size_t nrow = 0, ncol = 0;
  bool first_data = true;
  bool skipped_header = false;
  while (std::getline(in, line)) {
    if (opts.header && !skipped_header) {
      skipped_header = true;
      continue;
    }
    if (line.empty()) continue;
    if (first_data) {
      ncol = count_fields(line, opts.delimiter);
      first_data = false;
    }
    ++nrow;
  }
  FLASHR_CHECK(nrow > 0 && ncol > 0, "load_dense: empty input " + path);

  // Pass 2: parse into partition-sized buffers.
  auto store = make_store(nrow, ncol, opts.type, opts.st);
  in.clear();
  in.seekg(0);
  if (opts.header) std::getline(in, line);

  auto& pool = buffer_pool::global();
  pool_buffer buf = pool.get(store->geom().full_part_bytes(opts.type));
  std::size_t row = 0;
  std::size_t pidx = 0;
  std::size_t in_part = 0;
  std::size_t rows_this_part = store->geom().rows_in_part(0);

  auto flush = [&] {
    write_partition(*store, pidx, buf.data());
    ++pidx;
    in_part = 0;
    if (pidx < store->num_parts())
      rows_this_part = store->geom().rows_in_part(pidx);
  };

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const char* s = line.c_str();
    dispatch_type(opts.type, [&]<typename T>() {
      T* out = reinterpret_cast<T*>(buf.data());
      char* end = nullptr;
      for (std::size_t j = 0; j < ncol; ++j) {
        const double v = std::strtod(s, &end);
        FLASHR_CHECK(end != s, "load_dense: parse error at row " +
                                   std::to_string(row) + " of " + path);
        out[j * rows_this_part + in_part] = static_cast<T>(v);
        s = *end == opts.delimiter ? end + 1 : end;
      }
    });
    ++row;
    if (++in_part == rows_this_part) flush();
  }
  if (in_part > 0) flush();
  FLASHR_CHECK(row == nrow, "load_dense: file changed between passes");
  return dense_matrix{store};
}

void save_dense_text(const dense_matrix& m, const std::string& path,
                     char delimiter) {
  m.materialize(storage::in_mem);
  auto s = m.resolved();
  std::ofstream out(path);
  if (!out) throw_io_error("save_dense_text: cannot open " + path);
  for (std::size_t pidx = 0; pidx < s->num_parts(); ++pidx)
    with_partition(*s, pidx, [&](const char* data, std::size_t rows) {
      dispatch_type(s->type(), [&]<typename T>() {
        const T* d = reinterpret_cast<const T*>(data);
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t j = 0; j < s->ncol(); ++j) {
            if (j) out << delimiter;
            out << +d[j * rows + i];
          }
          out << '\n';
        }
      });
    });
}

void save_matrix(const dense_matrix& m, const std::string& dir,
                 const std::string& name) {
  m.materialize(storage::in_mem);
  auto s = m.resolved();
  FLASHR_CHECK(s->kind() != store_kind::virt, "save_matrix: unmaterialized");

  // Metadata.
  {
    std::ofstream meta(dir + "/" + name + ".meta");
    if (!meta) throw_io_error("save_matrix: cannot write metadata");
    meta << "flashr-matrix 1\n"
         << s->nrow() << " " << s->ncol() << " "
         << static_cast<int>(s->type()) << " " << s->geom().part_rows << "\n";
  }
  // Data: partitions packed back to back.
  std::ofstream data(dir + "/" + name + ".data", std::ios::binary);
  if (!data) throw_io_error("save_matrix: cannot write data");
  for (std::size_t pidx = 0; pidx < s->num_parts(); ++pidx)
    with_partition(*s, pidx, [&](const char* part, std::size_t) {
      data.write(part, static_cast<std::streamsize>(
                           s->geom().part_bytes(pidx, s->type())));
    });
  FLASHR_CHECK(data.good(), "save_matrix: write failed");
}

dense_matrix load_matrix(const std::string& dir, const std::string& name,
                         storage st) {
  std::ifstream meta(dir + "/" + name + ".meta");
  if (!meta) throw_io_error("load_matrix: missing metadata for " + name);
  std::string magic;
  int version = 0;
  std::size_t nrow = 0, ncol = 0, part_rows = 0;
  int type_tag = 0;
  meta >> magic >> version >> nrow >> ncol >> type_tag >> part_rows;
  FLASHR_CHECK(magic == "flashr-matrix" && version == 1,
               "load_matrix: bad metadata for " + name);
  const auto type = static_cast<scalar_type>(type_tag);

  std::ifstream data(dir + "/" + name + ".data", std::ios::binary);
  if (!data) throw_io_error("load_matrix: missing data for " + name);
  auto store = [&]() -> matrix_store::ptr {
    if (st == storage::ext_mem)
      return em_store::create(nrow, ncol, type, part_rows);
    return mem_store::create(nrow, ncol, type, part_rows);
  }();
  auto& pool = buffer_pool::global();
  for (std::size_t pidx = 0; pidx < store->num_parts(); ++pidx) {
    const std::size_t bytes = store->geom().part_bytes(pidx, type);
    pool_buffer buf = pool.get(bytes);
    data.read(buf.data(), static_cast<std::streamsize>(bytes));
    FLASHR_CHECK(data.gcount() == static_cast<std::streamsize>(bytes),
                 "load_matrix: truncated data for " + name);
    write_partition(*store, pidx, buf.data());
  }
  return dense_matrix{store};
}

}  // namespace flashr
