// Lint fixture: std-future must fire on futures, promises and std::async
// under src/: a future per read lets the first failure surface while
// sibling reads still write into buffers the caller hands back.
#include <future>
#include <vector>

namespace flashr {

void read_columns(std::vector<char*>& bufs) {
  // BAD: one promise per column read; the first get() that throws unwinds
  // past the reads still in flight.
  std::vector<std::promise<void>> done(bufs.size());
  std::vector<std::future<void>> reads;
  for (auto& p : done) reads.push_back(p.get_future());
  auto all = std::async(std::launch::deferred, [&reads] {
    for (auto& f : reads) f.get();
  });
  all.get();
}

}  // namespace flashr
