#ifndef SERIGRAPH_COMMON_SCRATCH_H_
#define SERIGRAPH_COMMON_SCRATCH_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace serigraph {

/// A scratch array of `size` uninitialized Ts, mapped from the kernel
/// and unmapped on destruction, outside malloc. glibc keeps freed heap
/// blocks resident, and raises its mmap threshold after freeing a mapped
/// block so that later blocks of that size come from the heap: a large
/// malloc'd scratch array would stay in the RSS of whatever runs next
/// (docs/PERF.md, "Set-up on every core"). For arrays that live for one
/// call.
template <typename T>
class ScratchArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  ScratchArray() = default;
  explicit ScratchArray(int64_t size)
      : bytes_(static_cast<size_t>(size) * sizeof(T)) {
    if (bytes_ == 0) return;
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    SG_CHECK(p != MAP_FAILED);
    data_ = static_cast<T*>(p);
  }
  ~ScratchArray() {
    if (data_ != nullptr) munmap(data_, bytes_);
  }
  ScratchArray(ScratchArray&& other) noexcept { *this = std::move(other); }
  ScratchArray& operator=(ScratchArray&& other) noexcept {
    std::swap(bytes_, other.bytes_);
    std::swap(data_, other.data_);
    return *this;
  }

  T* data() const { return data_; }
  T& operator[](int64_t i) const { return data_[i]; }

 private:
  size_t bytes_ = 0;
  T* data_ = nullptr;
};

}  // namespace serigraph

#endif  // SERIGRAPH_COMMON_SCRATCH_H_
