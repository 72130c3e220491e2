#include "obs/artifact_dir.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <vector>

#include "common/log.h"

namespace flashr::obs {

bool artifact_dir_open(const std::string& dir) {
  ::mkdir(dir.c_str(), 0755);  // best-effort; the opendir below is the check
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    FLASHR_WARN("cannot open artifact dir %s (errno %d)", dir.c_str(), errno);
    return false;
  }
  ::closedir(d);
  return true;
}

bool artifact_write(const std::string& dir, const std::string& name,
                    std::string_view body) {
  // Hidden and unique per call: no store's prefix matches a leading '.',
  // so a temp file is never listed or pruned as an artifact.
  std::string tmp = dir + "/." + name + ".XXXXXX";
  const int fd = ::mkostemp(tmp.data(), O_CLOEXEC);
  if (fd < 0) {
    FLASHR_WARN("cannot create a temp file for %s/%s (errno %d)", dir.c_str(),
                name.c_str(), errno);
    return false;
  }
  int err = ::fchmod(fd, 0644) == 0 ? 0 : errno;  // mkostemp creates 0600
  for (std::size_t off = 0; err == 0 && off < body.size();) {
    const ssize_t n = ::write(fd, body.data() + off, body.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n == 0) {
      err = EIO;
    } else if (errno != EINTR) {
      err = errno;
    }
  }
  if (err == 0) ::fsync(fd);
  ::close(fd);
  const std::string full = dir + "/" + name;
  if (err == 0 && ::rename(tmp.c_str(), full.c_str()) != 0) err = errno;
  if (err != 0) {
    ::unlink(tmp.c_str());
    FLASHR_WARN("failed to place %s (errno %d)", full.c_str(), err);
    return false;
  }
  return true;
}

void artifact_prune(const std::string& dir, std::string_view prefix,
                    std::string_view suffix, std::size_t keep) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (const dirent* de = ::readdir(d)) {
    const std::string_view name = de->d_name;
    if (name.starts_with(prefix) && name.ends_with(suffix))
      names.emplace_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());  // oldest first
  for (std::size_t i = 0; i + keep < names.size(); ++i)
    ::unlink((dir + "/" + names[i]).c_str());
}

std::uint64_t realtime_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace flashr::obs
