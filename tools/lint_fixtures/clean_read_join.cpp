// Lint fixture: a synchronous read that no rule should flag — every read
// completes through its callback and the caller waits on a read_join,
// which returns only once all of them landed. Mentions of std::future and
// std::async in comments and strings are fine.
#include <memory>
#include <vector>

#include "io/async_io.h"

namespace flashr {

static const char* kWhy = "no std::future, std::promise or std::async here";

void read_columns(async_io& io, std::shared_ptr<const safs_file> file,
                  std::vector<char*>& bufs, std::size_t len) {
  auto join = std::make_shared<read_join>(bufs.size());
  for (std::size_t j = 0; j < bufs.size(); ++j)
    io.submit_read_notify(file, j * len, len, bufs[j],
                          read_join::member(join));
  join->wait();  // rethrows the first error after every read landed
  (void)kWhy;
}

}  // namespace flashr
