// Device-resident array with explicit, counted host<->device transfers.
//
// In the paper all ADMM state lives in GPU memory and the solver performs
// zero transfers during iterations; tests assert the same property here by
// snapshotting transfer_stats() around the solve loop.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "device/fault.hpp"

namespace gridadmm::device {

/// Cache-line alignment of every device allocation: keeps the per-worker
/// partial-reduction rows (whole cache lines, see reduce_row_stride) from
/// sharing cache lines, and gives the compiler an aligned base for
/// vectorized loops.
inline constexpr std::size_t kDeviceAlignment = 64;

/// Minimal over-aligned allocator (models cudaMalloc's 256-byte guarantee,
/// scaled down to one cache line). Propagates through vector moves/swaps
/// like the default allocator: it is stateless.
template <typename T, std::size_t Alignment = kDeviceAlignment>
struct AlignedAllocator {
  using value_type = T;
  /// Explicit rebind: allocator_traits cannot derive it for a template
  /// with a non-type (alignment) parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

/// Host-side vector with device-grade alignment, for scratch that kernels
/// write through raw pointers (per-lane partial-reduction rows).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// Snapshot of the process-wide host<->device transfer counters. The
/// backing counters are atomic: batch solves may upload/download from
/// several threads at once (one per serve-layer device worker), so plain
/// increments would race.
struct TransferStats {
  std::uint64_t host_to_device = 0;  ///< number of upload calls
  std::uint64_t device_to_host = 0;  ///< number of download calls
  std::uint64_t bytes = 0;           ///< total bytes moved either way
};

namespace detail {

struct TransferCounters {
  std::atomic<std::uint64_t> host_to_device{0};
  std::atomic<std::uint64_t> device_to_host{0};
  std::atomic<std::uint64_t> bytes{0};
};

inline TransferCounters& transfer_counters() {
  static TransferCounters counters;
  return counters;
}

inline void record_upload(std::uint64_t bytes) {
  auto& c = transfer_counters();
  c.host_to_device.fetch_add(1, std::memory_order_relaxed);
  c.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

inline void record_download(std::uint64_t bytes) {
  auto& c = transfer_counters();
  c.device_to_host.fetch_add(1, std::memory_order_relaxed);
  c.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace detail

inline TransferStats transfer_stats() {
  const auto& c = detail::transfer_counters();
  TransferStats snapshot;
  snapshot.host_to_device = c.host_to_device.load(std::memory_order_relaxed);
  snapshot.device_to_host = c.device_to_host.load(std::memory_order_relaxed);
  snapshot.bytes = c.bytes.load(std::memory_order_relaxed);
  return snapshot;
}

/// Snapshot of the process-wide device-memory accounting. Every DeviceBuffer
/// reports its resident bytes, so tests can assert memory-shape claims — in
/// particular that ping-pong tracking keeps live batch state constant in the
/// horizon length instead of O(periods).
struct AllocationStats {
  std::uint64_t live_bytes = 0;   ///< device bytes resident right now
  std::uint64_t peak_bytes = 0;   ///< high-water mark since reset_allocation_peak()
  std::uint64_t allocations = 0;  ///< growth events (allocs + grows)
};

namespace detail {

struct AllocationCounters {
  std::atomic<std::uint64_t> live_bytes{0};
  std::atomic<std::uint64_t> peak_bytes{0};
  std::atomic<std::uint64_t> allocations{0};
};

inline AllocationCounters& allocation_counters() {
  static AllocationCounters counters;
  return counters;
}

inline void record_device_alloc(std::uint64_t bytes) {
  auto& c = allocation_counters();
  c.allocations.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t live = c.live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = c.peak_bytes.load(std::memory_order_relaxed);
  while (peak < live &&
         !c.peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

inline void record_device_free(std::uint64_t bytes) {
  allocation_counters().live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace detail

inline AllocationStats allocation_stats() {
  const auto& c = detail::allocation_counters();
  AllocationStats snapshot;
  snapshot.live_bytes = c.live_bytes.load(std::memory_order_relaxed);
  snapshot.peak_bytes = c.peak_bytes.load(std::memory_order_relaxed);
  snapshot.allocations = c.allocations.load(std::memory_order_relaxed);
  return snapshot;
}

/// Rebases the high-water mark to the current live figure, so a test can
/// measure the peak of exactly one workload.
inline void reset_allocation_peak() {
  auto& c = detail::allocation_counters();
  c.peak_bytes.store(c.live_bytes.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

/// An array that models GPU global memory. Direct element access is allowed
/// only from kernels (we cannot enforce that in a simulation, but the API
/// nudges call sites to treat `span()` as device-side and go through
/// upload()/download() at the host boundary). Allocations are 64-byte
/// aligned (kDeviceAlignment).
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  explicit DeviceBuffer(std::size_t n, T fill = T{}) : data_(n, fill) { account(); }
  ~DeviceBuffer() { release(); }

  // Copies and moves keep the process-wide allocation accounting exact:
  // a copy is a second device allocation, a move transfers ownership.
  DeviceBuffer(const DeviceBuffer& other) : data_(other.data_) { account(); }
  DeviceBuffer(DeviceBuffer&& other) noexcept
      : data_(std::move(other.data_)), accounted_bytes_(other.accounted_bytes_) {
    other.data_.clear();
    other.accounted_bytes_ = 0;
  }
  DeviceBuffer& operator=(const DeviceBuffer& other) {
    if (this != &other) {
      data_ = other.data_;
      account();
    }
    return *this;
  }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::move(other.data_);
      accounted_bytes_ = other.accounted_bytes_;
      other.data_.clear();
      other.accounted_bytes_ = 0;
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  void resize(std::size_t n, T fill = T{}) {
    data_.assign(n, fill);
    account();
  }
  void fill(T value) { data_.assign(data_.size(), value); }

  /// Device-side view (used inside kernels).
  [[nodiscard]] std::span<T> span() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> span() const { return {data_.data(), data_.size()}; }
  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  /// Host -> device copy (counted).
  void upload(std::span<const T> host) {
    require(host.size() == data_.size(), "DeviceBuffer::upload size mismatch");
    std::copy(host.begin(), host.end(), data_.begin());
    detail::record_upload(host.size_bytes());
  }

  /// Device -> host copy (counted).
  void download(std::span<T> host) const {
    require(host.size() == data_.size(), "DeviceBuffer::download size mismatch");
    std::copy(data_.begin(), data_.end(), host.begin());
    detail::record_download(host.size_bytes());
  }

  /// Device -> host copy into a fresh vector (counted).
  [[nodiscard]] std::vector<T> to_host() const {
    std::vector<T> host(data_.size());
    download(host);
    return host;
  }

  /// Device -> host copy of the contiguous slice [offset, offset + host.size())
  /// (counted as one transfer of host.size_bytes()). Lets scenario-major
  /// batch buffers extract one scenario without moving the whole batch.
  void download_slice(std::size_t offset, std::span<T> host) const {
    require(offset + host.size() <= data_.size(), "DeviceBuffer::download_slice out of range");
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(offset), host.size(), host.begin());
    detail::record_download(host.size_bytes());
  }

 private:
  /// Reconciles the accounted figure with the current logical size.
  void account() {
    const std::uint64_t bytes = static_cast<std::uint64_t>(data_.size()) * sizeof(T);
    if (bytes > accounted_bytes_) {
      // Fault hook before the growth is recorded: an injected allocation
      // failure throws here, the unwind destroys the buffer, and release()
      // frees only the previously-accounted bytes — counters stay balanced.
      if (FaultInjector::enabled()) FaultInjector::instance().on_alloc(bytes - accounted_bytes_);
      detail::record_device_alloc(bytes - accounted_bytes_);
    } else if (bytes < accounted_bytes_) {
      detail::record_device_free(accounted_bytes_ - bytes);
    }
    accounted_bytes_ = bytes;
  }
  void release() {
    if (accounted_bytes_ != 0) detail::record_device_free(accounted_bytes_);
    accounted_bytes_ = 0;
  }

  AlignedVector<T> data_;
  std::uint64_t accounted_bytes_ = 0;
};

/// Snapshot of the process-wide transfer counters at construction; delta()
/// returns the traffic that happened since. Used by tests to assert exact
/// transfer counts (e.g. that a per-scenario solution extraction moves one
/// scenario's slices, not the whole batch).
class TransferStatsScope {
 public:
  TransferStatsScope() : start_(transfer_stats()) {}

  [[nodiscard]] TransferStats delta() const {
    const TransferStats now = transfer_stats();
    TransferStats d;
    d.host_to_device = now.host_to_device - start_.host_to_device;
    d.device_to_host = now.device_to_host - start_.device_to_host;
    d.bytes = now.bytes - start_.bytes;
    return d;
  }

 private:
  TransferStats start_;
};

}  // namespace gridadmm::device
