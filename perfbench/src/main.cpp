// perfbench: the repo benchmark binary.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--trace-out=PATH]
//             [--git-sha=SHA] [--source-digest=HEX]
//   perfbench --list-metrics      metric catalogue as JSON (mirrored in BENCHMARK.json)
//   perfbench --make-reference    recompute reference.hpp with MiniIPM
//
// Prints a provenance stamp, the exact work counters, every metric with its
// unit and direction, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). Normally driven by perfbench/run.py.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "grid/solution.hpp"
#include "metrics.hpp"
#include "obs/trace.hpp"
#include "opf/opf.hpp"
#include "scenario/ipm_engine.hpp"
#include "scenario/scenario_set.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double process_cpu_seconds(const RunConfig& cfg) {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  const double process = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  return process - (cfg.probe != nullptr ? cfg.probe->cpu_seconds() : 0.0);
}

namespace {

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    const auto eq = a.find('=');
    const std::string key = a.substr(2, eq == std::string::npos ? eq : eq - 2);
    args.insert_or_assign(key, eq == std::string::npos ? std::string(1, '1') : a.substr(eq + 1));
  }
  return args;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void list_metrics() {
  auto emit = [](const char* key, const std::vector<MetricSpec>& specs, bool last) {
    std::printf("  \"%s\": [\n", key);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
                  specs[i].name, specs[i].unit, specs[i].better,
                  i + 1 < specs.size() ? "," : "");
    }
    std::printf("  ]%s\n", last ? "" : ",");
  };
  std::printf("{\n");
  emit("end_to_end", end_to_end_metrics(), false);
  emit("per_layer", per_layer_metrics(), true);
  std::printf("}\n");
}

int make_reference() {
  using namespace gridadmm;
  const auto pegase = opf::solve_with_ipm(opf::load_case("1354pegase"));
  if (!pegase.converged) {
    std::fprintf(stderr, "perfbench: MiniIPM did not converge on 1354pegase\n");
    return 1;
  }
  const auto case30 = opf::load_case("case30");
  scenario::ScenarioSet set(case30);
  set.add_stress_corpus();
  scenario::Scenario stress = set[0];  // the full-topology stressed entry
  stress.controls = {};
  const auto rescue = scenario::solve_scenario_ipm(case30, stress);
  std::printf("inline constexpr double kRef1354pegaseObjective = %.10f;\n",
              pegase.quality.objective);
  std::printf("inline constexpr double kRefCase30StressObjective = %.10f;  // scale %.2f\n",
              rescue.quality.objective, stress.load_scale);
  return 0;
}

/// Cost of recording one span, measured in-process (ns).
double span_cost_ns() {
  SpanRecorder scratch(true);
  constexpr int kSpans = 20000;
  const std::uint64_t t0 = gridadmm::obs::now_ns();
  for (int i = 0; i < kSpans; ++i) {
    const auto s = scratch.scope("calibrate", "obs");
  }
  return static_cast<double>(gridadmm::obs::now_ns() - t0) / kSpans;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto args = parse_args(argc, argv);
  if (args.count("list-metrics") != 0) {
    list_metrics();
    return 0;
  }
  if (args.count("make-reference") != 0) return make_reference();

  RunConfig cfg;
  cfg.workload = args.count("workload") != 0 ? args.at("workload") : "";
  cfg.seed = args.count("seed") != 0 ? std::strtoull(args.at("seed").c_str(), nullptr, 10) : 1;
  cfg.seconds = args.count("seconds") != 0 ? std::atof(args.at("seconds").c_str()) : 10.0;
  cfg.trace = args.count("trace") != 0 && args.at("trace") == "1";
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  cfg.nproc = nproc;
  if (!(cfg.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  SpanRecorder spans(cfg.trace);
  WorkloadResult result;
  SpeedProbe probe;
  cfg.probe = &probe;
  const std::uint64_t run_begin = gridadmm::obs::now_ns();
  try {
    if (cfg.workload == "tracking_1354pegase") {
      result = run_tracking(cfg, spans);
    } else if (cfg.workload == "serving_mixed") {
      result = run_serving(cfg, spans);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", cfg.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload aborted: %s\n", e.what());
    return 1;
  }
  probe.stop();
  const std::uint64_t run_end = gridadmm::obs::now_ns();
  spans.add("bench.run", "unattributed", run_begin, run_end);

  // CPU times at the reference host speed: the workload's CPU time times
  // the reference probe sample over this run's median probe sample.
  const double probe_ms = median(probe.samples_ms());
  const double speed = probe_ms > 0.0 ? kProbeReferenceMs / probe_ms : 0.0;
  for (const char* name : {"setup_s", "cpu_ms_per_op"}) {
    Metric& m = result.metrics.at(name);
    result.set(std::string("raw_") + name, m.value, m.unit, m.better);
    m.value *= speed;
  }
  result.set("host_probe_ms", probe_ms, "ms", "lower");
  char probe_line[160];
  std::snprintf(probe_line, sizeof probe_line,
                "host probe: median %.4f ms over %zu samples (reference %.4f ms), speed factor %.4f",
                probe_ms, probe.samples_ms().size(), kProbeReferenceMs, speed);
  result.report.emplace_back(probe_line);

  // Every end-to-end metric must be measured and non-zero.
  for (const auto& spec : end_to_end_metrics()) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() || !std::isfinite(it->second.value) ||
        !(it->second.value > 0.0)) {
      result.fail_check(std::string("end-to-end metric ") + spec.name + " missing or not > 0");
      result.set(spec.name, 0.0, spec.unit, spec.better);
    }
  }
  // Layers a workload does not exercise report 0.
  for (const auto& spec : per_layer_metrics()) {
    if (result.metrics.count(spec.name) == 0) result.set(spec.name, 0.0, spec.unit, spec.better);
  }

  // ---- Traced run: waterfall, overhead, Chrome trace ----
  if (cfg.trace) {
    const Waterfall w = waterfall(spans.spans());
    const double wall = static_cast<double>(w.wall_ns);
    const double overhead_ns =
        span_cost_ns() * static_cast<double>(spans.spans().size()) + w.seconds("obs") * 1e9;
    result.set("obs.unattributed_share", w.share("unattributed"), "ratio", "lower");
    result.set("obs.trace_overhead", wall > 0.0 ? overhead_ns / wall : 0.0, "ratio", "lower");
    std::printf("# waterfall (main-thread self time; sums to the run's wall time)\n");
    for (const auto& [layer, ns] : w.self_ns) {
      std::printf("#   %-14s %10.4f s  %6.2f%%\n", layer.c_str(), static_cast<double>(ns) * 1e-9,
                  100.0 * w.share(layer));
    }
    std::printf("#   %-14s %10.4f s  (sum %.4f s)\n", "wall", wall * 1e-9,
                static_cast<double>(w.total_ns()) * 1e-9);
    if (w.total_ns() != w.wall_ns) result.fail_check("waterfall does not sum to wall time");
    const std::string out = args.count("trace-out") != 0 ? args.at("trace-out") : "";
    if (!out.empty()) {
      if (spans.write_chrome(out)) {
        std::printf("# chrome trace: %s (%zu spans)\n", out.c_str(), spans.spans().size());
      } else {
        result.fail_check("cannot write chrome trace " + out);
      }
    }
  }

  // ---- Report ----
  for (const auto& line : result.report) std::printf("# %s\n", line.c_str());
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  std::printf("# provenance {\"host\": \"%s\", \"nproc\": %d, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"flags\": \"%s\", "
              "\"git_sha\": \"%s\", \"source_digest\": \"%s\", \"workload\": \"%s\", "
              "\"seed\": %llu, \"seconds\": %g, \"trace\": %d",
              json_escape(host).c_str(), nproc, PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
              json_escape(args.count("git-sha") != 0 ? args.at("git-sha") : "unknown").c_str(),
              json_escape(args.count("source-digest") != 0 ? args.at("source-digest") : "unknown")
                  .c_str(),
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  for (const auto& [k, v] : result.params) {
    std::printf(", \"%s\": \"%s\"", json_escape(k).c_str(), json_escape(v).c_str());
  }
  std::printf("}\n# counters {");
  for (std::size_t i = 0; i < result.exact_counters.size(); ++i) {
    std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ", result.exact_counters[i].first.c_str(),
                static_cast<unsigned long long>(result.exact_counters[i].second));
  }
  std::printf("}\n");
  auto print_group = [&](const char* title, const std::vector<MetricSpec>& specs) {
    std::printf("# %s\n", title);
    for (const auto& spec : specs) {
      const Metric& m = result.metrics.at(spec.name);
      std::printf("#   %-40s %16.6g %-6s (%s is better)\n", spec.name, m.value, spec.unit,
                  spec.better);
    }
  };
  print_group("end-to-end metrics", end_to_end_metrics());
  print_group("per-layer metrics", per_layer_metrics());
  for (const auto& f : result.check_failures) std::printf("# CHECK FAILED: %s\n", f.c_str());

  const bool correct = result.checks_passed && result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const auto& specs = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Metric& m = result.metrics.at(specs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                specs[i].name, m.value, specs[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
