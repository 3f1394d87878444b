// Simulated-GPU execution layer.
//
// The paper runs every ADMM kernel on an Nvidia GV100 with a CUDA-style
// programming model: a kernel is launched over a 1-D grid of thread blocks,
// one block per independent subproblem, and all state lives in device memory
// so no host<->device transfer happens inside the solver loop.
//
// This sandbox has no GPU, so this module reproduces the *programming model*
// and the *execution semantics* on a persistent CPU worker pool:
//   - Device::launch(nblocks, kernel) invokes kernel(block) for every block
//     index, scheduling blocks dynamically over the workers;
//   - DeviceBuffer<T> marks arrays as device-resident and counts every
//     host<->device transfer, so tests can assert the solver loop performs
//     zero transfers exactly as the paper claims;
//   - LaunchStats records kernel launches for the scaling benchmarks.
//
// The substitution is documented in DESIGN.md section 2.
#pragma once

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gridadmm::device {

/// Aggregate statistics for one Device instance.
struct LaunchStats {
  std::uint64_t launches = 0;        ///< number of kernel launches
  std::uint64_t blocks = 0;          ///< total blocks executed
  double busy_seconds = 0.0;         ///< wall time spent inside launches

  LaunchStats& operator+=(const LaunchStats& other) {
    launches += other.launches;
    blocks += other.blocks;
    busy_seconds += other.busy_seconds;
    return *this;
  }
};

/// Delta between two snapshots of the same device's counters.
inline LaunchStats operator-(const LaunchStats& a, const LaunchStats& b) {
  LaunchStats d;
  d.launches = a.launches - b.launches;
  d.blocks = a.blocks - b.blocks;
  d.busy_seconds = a.busy_seconds - b.busy_seconds;
  return d;
}

/// Non-owning reference to a kernel callable: an object pointer and a call
/// thunk, built on the launching thread's stack. A launch blocks until every
/// block has run, so the referenced callable (typically a lambda temporary
/// in the launch expression) outlives every call. Unlike std::function it
/// never copies the callable, so a launch allocates nothing however large
/// the kernel's captures are.
template <typename Signature>
class KernelRef;

template <typename... Args>
class KernelRef<void(Args...)> {
 public:
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, KernelRef> &&
             std::invocable<const F&, Args...>)
  KernelRef(const F& kernel)  // implicit: launch sites pass lambdas
      : object_(&kernel), call_([](const void* object, Args... args) {
          (*static_cast<const F*>(object))(args...);
        }) {}

  void operator()(Args... args) const { call_(object_, args...); }

 private:
  const void* object_;
  void (*call_)(const void*, Args...);
};

/// A persistent pool of workers exposing a CUDA-like bulk launch API.
/// Thread-compatible: a Device may be shared, but launches are serialized.
class Device {
 public:
  /// Creates a device with `workers` threads (0 = hardware concurrency).
  explicit Device(int workers = 0);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  ~Device();

  /// Number of worker threads (the simulated SM count).
  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }

  /// Runs kernel(block) for block in [0, nblocks). Blocks until every
  /// kernel instance finished (CUDA launch + synchronize). Exceptions thrown
  /// by kernel instances are captured and the first one is rethrown here.
  void launch(int nblocks, KernelRef<void(int)> kernel);

  /// Like launch(), but hands the worker lane index [0, workers) to the
  /// kernel so it can use per-lane scratch memory without synchronization.
  void launch_with_lane(int nblocks, KernelRef<void(int, int)> kernel);

  [[nodiscard]] const LaunchStats& stats() const { return stats_; }
  void reset_stats() { stats_ = LaunchStats{}; }

  /// Device label in trace output ("dev" arg of device.launch spans).
  /// DevicePool numbers its devices; the process-wide default stays 0.
  void set_trace_id(int id) { trace_id_ = id; }
  [[nodiscard]] int trace_id() const { return trace_id_; }

 private:
  struct Job {
    const KernelRef<void(int, int)>* kernel = nullptr;
    int nblocks = 0;
    std::atomic<int> next_block{0};
    std::atomic<int> remaining{0};
  };

  void worker_main(int lane);
  void run_job(const KernelRef<void(int, int)>& kernel, int nblocks);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  Job job_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  std::mutex error_mu_;
  LaunchStats stats_;
  std::mutex launch_mu_;
  int trace_id_ = 0;
};

/// Returns a process-wide default device (lazily constructed).
Device& default_device();

/// The worker count a default Device resolves to: hardware concurrency
/// with a fixed fallback when it is unknown. Shared by Device, DevicePool's
/// even split, and the bench harnesses' telemetry so none can drift.
int default_worker_count();

/// RAII attribution of kernel launches: every launch issued on `dev` during
/// the scope's lifetime is accumulated into `out` at destruction. Used by
/// the batch engine to report launches per scenario batch, and by tests to
/// assert the fused batch solve issues fewer launches than sequential
/// solves. Scopes on the same device may nest; each sees its own window.
class LaunchStatsScope {
 public:
  LaunchStatsScope(Device& dev, LaunchStats& out)
      : dev_(dev), out_(out), start_(dev.stats()) {}
  LaunchStatsScope(const LaunchStatsScope&) = delete;
  LaunchStatsScope& operator=(const LaunchStatsScope&) = delete;
  ~LaunchStatsScope() { out_ += dev_.stats() - start_; }

 private:
  Device& dev_;
  LaunchStats& out_;
  LaunchStats start_;
};

}  // namespace gridadmm::device
