#include "io/fault.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "common/rng.h"
#include "io/safs.h"

namespace flashr {

const char* fault_site_name(fault_site s) {
  switch (s) {
    case fault_site::pread: return "pread";
    case fault_site::pwrite: return "pwrite";
    case fault_site::latency: return "latency";
    case fault_site::short_io: return "short-io";
    case fault_site::stall: return "stall";
  }
  return "?";
}

double fault_plan::prob(fault_site s) const {
  switch (s) {
    case fault_site::pread: return pread_prob;
    case fault_site::pwrite: return pwrite_prob;
    case fault_site::latency: return latency_prob;
    case fault_site::short_io: return short_prob;
    case fault_site::stall: return stall_prob;
  }
  return 0.0;
}

namespace {
/// Per-site salt so the four sites draw from independent streams of the
/// same seed.
constexpr std::uint64_t site_salt(fault_site s) {
  return 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(s) + 1);
}
}  // namespace

fault_plan fault_injector::snapshot() const {
  mutex_lock lock(fault_mtx_);
  return use_override_ ? override_plan_ : fault_plan{};
}

fault_injector::decision fault_injector::next_with(const fault_plan& p,
                                                   fault_site site) {
  decision d;
  const double prob = p.prob(site);
  if (prob <= 0.0) return d;
  const std::uint64_t k =
      counters_[static_cast<int>(site)].fetch_add(1, std::memory_order_relaxed);
  if (counter_uniform(p.seed ^ site_salt(site), k) >= prob) return d;
  if (p.max_faults != 0) {
    // Exact budget: CAS so concurrent syscalls never overshoot.
    std::size_t cur = injected_.load(std::memory_order_relaxed);
    do {
      if (cur >= p.max_faults) return d;
    } while (!injected_.compare_exchange_weak(cur, cur + 1,
                                              std::memory_order_relaxed));
  } else {
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  io_stats::global().injected_faults.fetch_add(1, std::memory_order_relaxed);
  d.fire = true;
  if (site == fault_site::latency)
    d.sleep_us = p.latency_us;
  else if (site == fault_site::stall)
    d.sleep_us = p.stall_us;
  else if (site != fault_site::short_io)
    d.err = p.fault_errno;
  return d;
}

void fault_injector::install(const fault_plan& p) {
  {
    mutex_lock lock(fault_mtx_);
    override_plan_ = p;
    use_override_ = true;
  }
  reset();
}

void fault_injector::clear() {
  {
    mutex_lock lock(fault_mtx_);
    use_override_ = false;
  }
  reset();
}

void fault_injector::reset() {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  injected_.store(0, std::memory_order_relaxed);
}

bool fault_injector::overridden() const {
  mutex_lock lock(fault_mtx_);
  return use_override_;
}

fault_injector& fault_injector::global() {
  static fault_injector injector;
  return injector;
}

fault_scope::fault_scope(const fault_plan& p)
    : prev_plan_(fault_injector::global().snapshot()),
      prev_overridden_(fault_injector::global().overridden()) {
  fault_injector::global().install(p);
}

fault_scope::~fault_scope() {
  if (prev_overridden_)
    fault_injector::global().install(prev_plan_);
  else
    fault_injector::global().clear();
}

ssize_t fault_pread(int fd, char* buf, std::size_t len, off_t offset) {
  auto& inj = fault_injector::global();
  const fault_plan p = inj.snapshot();
  if (p.armed()) {
    const auto lat = inj.next_with(p, fault_site::latency);
    if (lat.fire && lat.sleep_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(lat.sleep_us));
    if (inj.next_with(p, fault_site::short_io).fire)
      return 0;  // premature EOF: caller zero-fills, checksums catch it
    const auto err = inj.next_with(p, fault_site::pread);
    if (err.fire) {
      errno = err.err;
      return -1;
    }
  }
  return ::pread(fd, buf, len, offset);
}

void fault_completion_stall() {
  auto& inj = fault_injector::global();
  const fault_plan p = inj.snapshot();
  if (p.stall_prob <= 0.0) return;
  const auto d = inj.next_with(p, fault_site::stall);
  if (d.fire && d.sleep_us > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(d.sleep_us));
}

ssize_t fault_pwrite(int fd, const char* buf, std::size_t len, off_t offset) {
  auto& inj = fault_injector::global();
  const fault_plan p = inj.snapshot();
  if (p.armed()) {
    const auto lat = inj.next_with(p, fault_site::latency);
    if (lat.fire && lat.sleep_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(lat.sleep_us));
    if (len > 1 && inj.next_with(p, fault_site::short_io).fire)
      return ::pwrite(fd, buf, len / 2, offset);  // genuine short write
    const auto err = inj.next_with(p, fault_site::pwrite);
    if (err.fire) {
      errno = err.err;
      return -1;
    }
  }
  return ::pwrite(fd, buf, len, offset);
}

}  // namespace flashr
