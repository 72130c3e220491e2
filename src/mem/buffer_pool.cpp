#include "mem/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "common/error.h"
#include "obs/trace.h"

namespace flashr {

namespace {
bool is_buffer_aligned(const char* p) {
  return (reinterpret_cast<std::uintptr_t>(p) % kBufferAlign) == 0;
}
}  // namespace

void poison_fill(char* data, std::size_t bytes) noexcept {
  std::memset(data, kPoisonByte, bytes);
}

void poison_verify(const char* data, std::size_t bytes) noexcept {
  // Any byte that changed since the buffer came home was written through a
  // stale pointer.
  const bool intact = std::all_of(data, data + bytes, [](char c) {
    return static_cast<unsigned char>(c) == kPoisonByte;
  });
  FLASHR_ASSERT(intact,
                "pool buffer written after return to pool "
                "(use-after-return)");
}

pool_buffer& pool_buffer::operator=(pool_buffer&& o) noexcept {
  if (this != &o) {
    release();
    pool_ = o.pool_;
    data_ = o.data_;
    size_ = o.size_;
    class_ = o.class_;
    tracked_ = o.tracked_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.size_ = 0;
    o.class_ = -1;
    o.tracked_ = false;
  }
  return *this;
}

void pool_buffer::release() noexcept {
  if (data_ != nullptr && pool_ != nullptr)
    pool_->put(data_, size_, class_, tracked_);
  pool_ = nullptr;
  data_ = nullptr;
  size_ = 0;
  class_ = -1;
  tracked_ = false;
}

buffer_pool::~buffer_pool() { trim(); }

int buffer_pool::class_of(std::size_t bytes) {
  if (bytes < (std::size_t{1} << kMinClassLog2)) return 0;
  const int log2 = std::bit_width(bytes - 1);
  FLASHR_ASSERT(log2 <= kMaxClassLog2, "buffer request too large");
  return log2 - kMinClassLog2;
}

pool_buffer buffer_pool::get(std::size_t bytes) {
  OBS_INSTANT_HOT("pool.get", bytes);
  const int cls = class_of(bytes);
  const std::size_t size = class_bytes(bytes);
  const bool track = invariants_enabled();
  char* data = nullptr;
  {
    mutex_lock lock(pool_mtx_);
    // Most recently freed first (LIFO): its lines are likeliest in cache.
    auto& list = free_lists_[cls];
    if (!list.empty()) {
      data = list.back();
      list.pop_back();
      // Always clear the poison record (a buffer may be re-issued while the
      // validator is off; its bytes are then no longer poison), but only
      // verify when the validator is active end to end.
      const bool was_poisoned =
          !poisoned_.empty() && poisoned_.erase(data) != 0;
      if (track && was_poisoned) poison_verify(data, size);
    }
    if (track && data != nullptr) live_.insert(data);
  }
  if (data == nullptr) {
    // aligned_alloc_bytes rounds up to the alignment; class sizes are already
    // multiples of kBufferAlign for all classes >= 4 KiB.
    data = aligned_alloc_bytes(size).release();
    if (track) {
      mutex_lock lock(pool_mtx_);
      live_.insert(data);
    }
  }
  // Alignment contract: O_DIRECT requires sector alignment, so a misaligned
  // buffer corrupts I/O instead of failing loudly. Checked under the validator; a trip means a free list
  // was corrupted or an allocation path bypassed aligned_alloc_bytes.
  if (invariants_enabled())
    FLASHR_ASSERT(is_buffer_aligned(data),
                  "pool handed out a misaligned buffer "
                  "(4 KiB alignment contract)");
  outstanding_count_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t out = outstanding_.fetch_add(size) + size;
  std::size_t peak = peak_.load(std::memory_order_relaxed);
  while (out > peak &&
         !peak_.compare_exchange_weak(peak, out, std::memory_order_relaxed)) {
  }
  return pool_buffer(this, data, size, cls, track);
}

void buffer_pool::track_return_locked(char* data, std::size_t size, int cls,
                                      bool tracked) noexcept {
  if (tracked && live_.erase(data) == 0) {
    // The buffer is not outstanding. Distinguish the two ways that happens:
    // it is already back on its free list (double return), or the pool never
    // handed it out at all (a refcount underflow somewhere released a handle
    // it did not own).
    const auto& list = free_lists_[cls];
    if (std::find(list.begin(), list.end(), data) != list.end())
      detail::assert_fail("double return", __FILE__, __LINE__,
                          "pool buffer returned twice");
    detail::assert_fail("refcount underflow", __FILE__, __LINE__,
                        "returned a buffer the pool never handed out");
  }
  poison_fill(data, size);
  poisoned_.insert(data);
}

void buffer_pool::put(char* data, std::size_t size, int cls,
                      bool tracked) noexcept {
  OBS_INSTANT_HOT("pool.put", size);
  {
    mutex_lock lock(pool_mtx_);
    if (invariants_enabled())
      track_return_locked(data, size, cls, tracked);
    else if (tracked)
      live_.erase(data);  // validator switched off while we were out
    free_lists_[cls].push_back(data);
  }
  outstanding_count_.fetch_sub(1, std::memory_order_relaxed);
  outstanding_.fetch_sub(size);
}

void buffer_pool::trim() {
  mutex_lock lock(pool_mtx_);
  for (auto& list : free_lists_) {
    for (char* p : list) {
      poisoned_.erase(p);
      std::free(p);
    }
    list.clear();
  }
}

std::size_t buffer_pool::cached_count() const {
  mutex_lock lock(pool_mtx_);
  std::size_t n = 0;
  for (const auto& list : free_lists_) n += list.size();
  return n;
}

buffer_pool& buffer_pool::global() {
  static buffer_pool pool;
  return pool;
}

}  // namespace flashr
