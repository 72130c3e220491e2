// Lint fixture: unread-option must fire on a field of struct options that
// no code reads as .field or ->field.
#pragma once

#include <cstddef>

namespace flashr {

struct options {
  /// Worker threads.
  int num_threads = 4;
  /// BAD: declared and documented, but nothing reads it.
  std::size_t chunk_bytes = std::size_t{4} << 20;

  void validate() const;
};

inline int worker_count(const options& o) { return o.num_threads; }

}  // namespace flashr
