#include "device/device.hpp"

#include "common/error.hpp"
#include "common/timer.hpp"
#include "device/fault.hpp"
#include "obs/trace.hpp"

namespace gridadmm::device {

namespace {
// Blocks are handed to workers in chunks to amortize the atomic fetch for
// very small kernels (bus/generator updates are a few flops per block).
int chunk_size(int nblocks, int workers) {
  const int target_chunks = workers * 8;
  int chunk = nblocks / (target_chunks > 0 ? target_chunks : 1);
  if (chunk < 1) chunk = 1;
  if (chunk > 1024) chunk = 1024;
  return chunk;
}
}  // namespace

int default_worker_count() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 4;
}

Device::Device(int workers) {
  const int n = workers > 0 ? workers : default_worker_count();
  threads_.reserve(static_cast<std::size_t>(n));
  for (int lane = 0; lane < n; ++lane) {
    threads_.emplace_back([this, lane] { worker_main(lane); });
  }
}

Device::~Device() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_job_.notify_all();
  for (auto& t : threads_) t.join();
}

void Device::worker_main(int lane) {
  obs::set_thread_name("device.worker");
  std::uint64_t seen_generation = 0;
  while (true) {
    const KernelRef<void(int, int)>* kernel = nullptr;
    int nblocks = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_job_.wait(lock, [&] { return shutdown_ || generation_ != seen_generation; });
      if (shutdown_) return;
      seen_generation = generation_;
      kernel = job_.kernel;
      nblocks = job_.nblocks;
    }
    // Per-job execution span: records the window this worker spent running
    // blocks of the launch (skipped when the worker woke too late to claim
    // any), so the trace shows the launch fanned out across worker threads.
    const std::uint64_t exec_start = obs::Tracer::enabled() ? obs::now_ns() : 0;
    std::uint64_t executed = 0;
    const int chunk = chunk_size(nblocks, workers());
    while (true) {
      const int begin = job_.next_block.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= nblocks) break;
      const int end = begin + chunk < nblocks ? begin + chunk : nblocks;
      executed += static_cast<std::uint64_t>(end - begin);
      for (int block = begin; block < end; ++block) {
        try {
          (*kernel)(block, lane);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
      }
    }
    if (executed > 0 && obs::Tracer::enabled()) {
      obs::span_between("device.exec", exec_start, obs::now_ns(), "blocks", executed, "dev",
                        static_cast<std::uint64_t>(trace_id_));
    }
    // Acknowledge completion. `remaining` counts workers, not blocks, so the
    // launcher cannot recycle the job slot while any worker may still touch
    // the shared block counter.
    if (job_.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_all();
    }
  }
}

void Device::run_job(const KernelRef<void(int, int)>& kernel, int nblocks) {
  if (nblocks < 0) throw GridError("Device::launch: negative block count");
  const std::lock_guard<std::mutex> serialize(launch_mu_);
  // Fault hook before any work: an injected failure models a launch the
  // driver rejected (nothing executed, stats unchanged), a spike models a
  // stalled launch. One relaxed load when the injector is off.
  if (FaultInjector::enabled()) FaultInjector::instance().on_launch(trace_id_);
  const obs::TraceSpan launch_span("device.launch", "blocks",
                                   static_cast<std::uint64_t>(nblocks), "dev",
                                   static_cast<std::uint64_t>(trace_id_));
  WallTimer timer;
  if (nblocks > 0 && nblocks <= 8) {
    // Tiny launches run inline on the calling thread (lane 0): waking the
    // pool costs more than the work. Launches are serialized, so lane 0
    // scratch cannot be in use by a worker.
    for (int block = 0; block < nblocks; ++block) kernel(block, 0);
    stats_.launches += 1;
    stats_.blocks += static_cast<std::uint64_t>(nblocks);
    stats_.busy_seconds += timer.seconds();
    return;
  }
  if (nblocks > 0) {
    {
      const std::lock_guard<std::mutex> lock(error_mu_);
      first_error_ = nullptr;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      job_.kernel = &kernel;
      job_.nblocks = nblocks;
      job_.next_block.store(0, std::memory_order_relaxed);
      job_.remaining.store(workers(), std::memory_order_relaxed);
      ++generation_;
    }
    cv_job_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [&] { return job_.remaining.load(std::memory_order_acquire) == 0; });
    }
    std::exception_ptr err;
    {
      const std::lock_guard<std::mutex> lock(error_mu_);
      err = first_error_;
    }
    if (err) std::rethrow_exception(err);
  }
  stats_.launches += 1;
  stats_.blocks += static_cast<std::uint64_t>(nblocks);
  stats_.busy_seconds += timer.seconds();
}

void Device::launch(int nblocks, KernelRef<void(int)> kernel) {
  const auto ignore_lane = [kernel](int block, int) { kernel(block); };
  run_job(ignore_lane, nblocks);
}

void Device::launch_with_lane(int nblocks, KernelRef<void(int, int)> kernel) {
  run_job(kernel, nblocks);
}

Device& default_device() {
  static Device device;
  return device;
}

}  // namespace gridadmm::device
