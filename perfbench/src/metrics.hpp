// The benchmark's metric catalogue: every name it prints, with unit and
// direction. BENCHMARK.json mirrors this table (`perfbench --list-metrics`
// prints it) and run.py refuses a result whose keys differ from it.
//
// End-to-end metrics are reported by every workload (untraced runs); each
// workload defines them over its own operations (see perfbench/README.md).
// Per-layer metrics come from the traced run; a layer a workload does not
// exercise reports 0 there.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"cpu_ms_per_op", "ms", "lower"},
  };
  return specs;
}

inline const std::vector<std::string>& serve_stage_names() {
  static const std::vector<std::string> names = {"queue", "dispatch", "form", "stage",
                                                 "solve", "extract",  "fulfill"};
  return names;
}

inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        // Workload-native figures behind the end-to-end roles.
        {"failed_share", "ratio", "lower"},
        {"wall_ms_per_op", "ms", "lower"},
        {"raw_cpu_ms_per_op", "ms", "lower"},
        {"raw_setup_s", "s", "lower"},
        {"host_probe_ms", "ms", "lower"},
        {"cold_solve_s", "s", "lower"},
        {"warm_period_s.p50", "s", "lower"},
        {"warm_period_s.max", "s", "lower"},
        {"latency_p50_ms.light", "ms", "lower"},
        {"latency_p99_ms.light", "ms", "lower"},
        {"latency_p50_ms.heavy", "ms", "lower"},
        {"latency_p99_ms.heavy", "ms", "lower"},
        {"goodput_rps.heavy", "1/s", "higher"},
        // grid
        {"grid.load_s", "s", "lower"},
        // opf
        {"opf.iterations.cold", "count", "lower"},
        {"opf.iterations.warm_sum", "count", "lower"},
        {"opf.iterations.warm_max", "count", "lower"},
        {"opf.warm_slower_than_cold", "count", "lower"},
        // scenario
        {"scenario.construct_s", "s", "lower"},
        {"scenario.solve_s", "s", "lower"},
        {"scenario.stage_s", "s", "lower"},
        {"scenario.extract_s", "s", "lower"},
        {"scenario.fused_steps", "count", "lower"},
        {"scenario.lane_occupancy", "ratio", "higher"},
        // admm
        {"admm.phase.generator_s", "s", "lower"},
        {"admm.phase.branch_s", "s", "lower"},
        {"admm.phase.bus_s", "s", "lower"},
        {"admm.phase.zy_s", "s", "lower"},
        {"admm.phase.residual_s", "s", "lower"},
        {"admm.phase.outer_s", "s", "lower"},
        {"admm.phase.unattributed_s", "s", "lower"},
        {"admm.inner_iterations", "count", "lower"},
        // tron
        {"tron.iterations", "count", "lower"},
        {"tron.cg_iterations", "count", "lower"},
        {"tron.function_evals", "count", "lower"},
        {"tron.auglag_iterations", "count", "lower"},
        {"tron.failures", "count", "lower"},
        {"tron.iterations_per_step", "count", "lower"},
        // device
        {"device.launches", "count", "lower"},
        {"device.blocks", "count", "lower"},
        {"device.blocks_per_launch", "count", "higher"},
        {"device.busy_s", "s", "lower"},
        {"device.host_share", "ratio", "lower"},
        {"device.transfers", "count", "lower"},
        {"device.transfers_in_loop", "count", "lower"},
        {"device.peak_bytes", "bytes", "lower"},
        // serve
        {"serve.submit_us.p50", "us", "lower"},
        {"serve.submit_us.max", "us", "lower"},
        {"serve.generator_lag_ms.p99", "ms", "lower"},
        {"serve.generator_lag_ms.max", "ms", "lower"},
    };
    static std::vector<std::string> stage_names;  // storage for the c_str()s below
    if (stage_names.empty()) {
      for (const char* phase : {"light", "heavy"}) {
        for (const auto& stage : serve_stage_names()) {
          for (const char* q : {"p50", "p99"}) {
            stage_names.push_back("serve.stage." + stage + "_ms." + q + "." + phase);
          }
        }
      }
    }
    for (const auto& name : stage_names) s.push_back({name.c_str(), "ms", "lower"});
    const std::vector<MetricSpec> tail = {
        {"serve.batch_occupancy.mean", "count", "higher"},
        {"serve.cache_hit_ratio", "ratio", "higher"},
        {"serve.backlog_growth.light", "ratio", "lower"},
        {"serve.backlog_growth.heavy", "ratio", "lower"},
        {"serve.shed", "count", "lower"},
        {"serve.failed", "count", "lower"},
        {"serve.deadline_shed", "count", "lower"},
        {"serve.retries", "count", "lower"},
        // ipm
        {"ipm.rescues", "count", "lower"},
        {"ipm.failures", "count", "lower"},
        {"ipm.rescue_share", "ratio", "lower"},
        {"ipm.rescue_latency_ms.p50", "ms", "lower"},
        {"ipm.rescue_latency_ms.max", "ms", "lower"},
        // obs
        {"obs.trace_overhead", "ratio", "lower"},
        {"obs.unattributed_share", "ratio", "lower"},
    };
    s.insert(s.end(), tail.begin(), tail.end());
    return s;
  }();
  return specs;
}

}  // namespace perfbench
