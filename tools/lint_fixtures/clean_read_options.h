// Lint fixture: every field of struct options is read, once through a
// reference and once through a pointer.
#pragma once

#include <cstddef>
#include <string>

namespace flashr {

struct options {
  /// Worker threads.
  int num_threads = 4;
  /// Directory holding backing files.
  std::string em_dir = "/tmp/flashr_em";

  void validate() const;
};

inline int worker_count(const options& o) { return o.num_threads; }
inline std::string backing_dir(const options* o) { return o->em_dir; }

}  // namespace flashr
