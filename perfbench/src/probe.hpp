// Host speed probe: a fixed compute kernel, timed in thread CPU time at a
// steady cadence on its own thread while a workload runs.
//
// On a shared host the speed of a vCPU changes over minutes: other tenants
// share its physical core, caches and memory bandwidth. That changes the CPU
// time of identical work, not only its wall time (one 1354pegase horizon
// took 7.4 to 11.2 s of CPU per period across runs on one 4-vCPU VM).
// The probe's kernel lives in the benchmark, not the library, so a library
// change never moves it; dividing a workload's CPU time by the probe's
// median CPU time, sampled over the same interval, removes the host's speed
// and keeps the program's (see perfbench/README.md).
#pragma once

#include <pthread.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// CPU time of the calling thread, in seconds.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The probe's kernel: Cholesky factorisations and solves of a fixed small
/// SPD matrix plus a little trigonometry, the mix of the library's per-branch
/// TRON work. Deterministic; returns a checksum so the work is not elided.
inline double probe_kernel(int repeats) {
  constexpr int n = 24;
  double a[n][n], l[n][n], b[n], y[n];
  double checksum = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        a[i][j] = 1.0 / (1.0 + i + j) + (i == j ? n + std::sin(0.1 * (i + rep % 7)) : 0.0);
      }
      b[i] = std::cos(0.05 * (i + rep % 11));
    }
    for (int j = 0; j < n; ++j) {
      double d = a[j][j];
      for (int k = 0; k < j; ++k) d -= l[j][k] * l[j][k];
      l[j][j] = std::sqrt(d);
      for (int i = j + 1; i < n; ++i) {
        double s = a[i][j];
        for (int k = 0; k < j; ++k) s -= l[i][k] * l[j][k];
        l[i][j] = s / l[j][j];
      }
    }
    for (int i = 0; i < n; ++i) {
      double s = b[i];
      for (int k = 0; k < i; ++k) s -= l[i][k] * y[k];
      y[i] = s / l[i][i];
    }
    checksum += y[rep % n];
  }
  return checksum;
}

/// Reference host speed: one probe sample per millisecond of CPU. Scaled
/// CPU times read as CPU times on a host that runs a sample in exactly 1 ms
/// (a 4-vCPU x86-64 VM took 0.8-1.5 ms per sample over one afternoon).
inline constexpr double kProbeReferenceMs = 1.0;

/// Samples probe_kernel's thread CPU time every `period` until stopped.
class SpeedProbe {
 public:
  static constexpr int kRepeats = 400;  ///< one sample: about 1 ms of CPU

  explicit SpeedProbe(std::chrono::milliseconds period = std::chrono::milliseconds(50))
      : period_(period), thread_([this] { loop(); }), native_(thread_.native_handle()) {}
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;
  ~SpeedProbe() { stop(); }

  /// Stops sampling and joins the thread; idempotent.
  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
      joined_ = true;
    }
  }

  /// CPU time the probe thread has used so far, in seconds. Call from the
  /// thread that owns the probe.
  double cpu_seconds() const {
    clockid_t clock{};
    timespec ts{};
    if (joined_ || pthread_getcpuclockid(native_, &clock) != 0 || clock_gettime(clock, &ts) != 0) {
      return cpu_at_exit_;
    }
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  /// Samples taken so far (ms of thread CPU time each); call after stop().
  const std::vector<double>& samples_ms() const { return samples_ms_; }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      lock.unlock();
      const double t0 = thread_cpu_seconds();
      checksum_ += probe_kernel(kRepeats);
      samples_ms_.push_back((thread_cpu_seconds() - t0) * 1e3);
      lock.lock();
      cv_.wait_for(lock, period_, [this] { return stopping_; });
    }
    cpu_at_exit_ = thread_cpu_seconds();
  }

  std::chrono::milliseconds period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<double> samples_ms_;
  double checksum_ = 0.0;  ///< keeps the kernel's work observable
  double cpu_at_exit_ = 0.0;  ///< written by the probe thread before it exits
  bool joined_ = false;
  std::thread thread_;  ///< after every member the thread touches
  pthread_t native_;
};

}  // namespace perfbench
