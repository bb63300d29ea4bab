#ifndef SERIGRAPH_COMMON_SCRATCH_H_
#define SERIGRAPH_COMMON_SCRATCH_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace serigraph {

/// An array of `size` Ts, mapped from the kernel and unmapped on
/// destruction, outside malloc. glibc keeps freed heap blocks resident,
/// and raises its mmap threshold after freeing a mapped block so that
/// later blocks of that size come from the heap: a large malloc'd array
/// would stay in the RSS of whatever runs next (docs/PERF.md, "Set-up on
/// every core"). A fresh mapping reads as zero bytes, and a page costs
/// memory only once it is touched. For arrays that live for one call or
/// one job (the history recorder's arrays and logs).
/// Size of a transparent huge page on x86-64 and most arm64 kernels.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

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

  /// Asks the kernel to back the array with transparent huge pages,
  /// where its settings allow (a hint, ignored when they are off): a
  /// fresh 4 KiB page costs a fault and a zero-fill on first touch, and a
  /// 2 MiB page takes one fault for 512 of them. For arrays that are
  /// written all over soon after they are mapped.
  void AdviseHugePages() const {
    if (bytes_ >= kHugePageBytes) madvise(data_, bytes_, MADV_HUGEPAGE);
  }

  T* data() const { return data_; }
  T& operator[](int64_t i) const { return data_[i]; }
  int64_t size() const { return static_cast<int64_t>(bytes_ / sizeof(T)); }

 private:
  size_t bytes_ = 0;
  T* data_ = nullptr;
};

}  // namespace serigraph

#endif  // SERIGRAPH_COMMON_SCRATCH_H_
