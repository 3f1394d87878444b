// Workload serving_mixed: open-loop Poisson traffic from the main thread
// into one serve::SolveService shard, with the tenants of
// bench_serve_slo --stress: case9 bulk, two case9 N-1 contingencies, case14,
// and a small (2%) share of case30 stress requests that defeat ADMM and are
// rescued by the MiniIPM rung (engine_fallback on; every other service
// field at its default apart from the device worker count).
//
// Protocol: an unmeasured warm-up at the light rate (fills the warm-start
// cache), then kRounds rounds of one light and one heavy window, each
// --seconds / (2 kRounds) long; every window drains before the next starts.
// Latency is measured from each request's INTENDED arrival; a phase's
// figures pool its windows.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "admm/params.hpp"
#include "common/error.hpp"
#include "device/buffer.hpp"
#include "grid/network.hpp"
#include "grid/solution.hpp"
#include "opf/opf.hpp"
#include "metrics.hpp"
#include "reference.hpp"
#include "scenario/scenario_set.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace gridadmm;

constexpr double kLightRate = 30.0;      ///< requests/s, well under capacity
constexpr double kHeavyRate = 60.0;      ///< requests/s, about half of one shard's capacity
constexpr double kWarmupSeconds = 4.0;   ///< unmeasured, at the light rate
constexpr double kLoadJitter = 0.05;     ///< per-request load factor in [0.95, 1.05]
constexpr double kLatencyCeiling = 0.25; ///< goodput ceiling (bench_serve_slo's 250 ms)
constexpr int kRounds = 5;              ///< light/heavy window pairs per run
constexpr int kSetupRepeats = 501;

struct Tenant {
  std::string name;
  std::shared_ptr<const grid::Network> network;  ///< null = the base case
  int outage_branch = -1;
  double weight = 1.0;
  bool stress = false;
  double load_scale = 1.0;
  scenario::ScenarioControls controls;
};

struct Fleet {
  grid::Network base;
  std::vector<Tenant> tenants;
  std::vector<double> weights;
};

Fleet make_fleet() {
  Fleet f;
  f.base = opf::load_case("case9");
  std::vector<int> outages;  // first two non-bridge branches of case9
  for (int b = 0; b < f.base.num_branches() && outages.size() < 2; ++b) {
    if (!grid::is_bridge(f.base, b)) outages.push_back(b);
  }
  f.tenants.push_back({"case9", nullptr, -1, 0.6, false, 1.0, {}});
  for (const int b : outages) {
    f.tenants.push_back({"case9-n1-" + std::to_string(b), nullptr, b, 0.1, false, 1.0, {}});
  }
  f.tenants.push_back({"case14", std::make_shared<grid::Network>(opf::load_case("case14")), -1,
                       0.2, false, 1.0, {}});
  const scenario::StressCorpusOptions corpus;
  Tenant hard{"case30-stress",
              std::make_shared<grid::Network>(opf::load_case("case30")),
              -1,
              0.02,
              true,
              corpus.load_scale,
              {}};
  hard.controls.max_inner_iterations = corpus.base_inner_budget;
  hard.controls.max_outer_iterations = corpus.outer_budget;
  f.tenants.push_back(std::move(hard));
  for (const auto& t : f.tenants) f.weights.push_back(t.weight);
  return f;
}

std::unique_ptr<serve::SolveService> make_service(const Fleet& f, const RunConfig& cfg,
                                                  int workers) {
  serve::ServiceOptions options;
  options.engine_fallback = true;
  options.device_workers = workers;
  options.slo = cfg.trace;  // stage timelines for the traced run only
  return std::make_unique<serve::SolveService>(
      f.base, admm::params_for_case("case9", f.base.num_buses()), options);
}

struct Outcome {
  std::size_t tenant = 0;
  std::uint64_t intended_ns = 0;
  double lag_s = 0.0;
  double submit_us = 0.0;
  bool shed = false, deadline_shed = false, errored = false;
  bool completed = false, correct = false;
  double latency_s = 0.0;
  serve::SolveEngine engine = serve::SolveEngine::kAdmm;
  std::uint64_t batch_id = 0;
  int batch_occupancy = 0;
  int inner_iterations = 0;
  serve::RequestTimeline timeline;
};

struct PhaseRun {
  std::string name;
  double rate = 0.0;
  double duration = 0.0;
  std::vector<Outcome> outcomes;
  serve::ServiceStats before, after;
  device::TransferStats transfers_before, transfers_after;
  std::string first_error;  ///< what() of the first failed future, if any
};

serve::SolveRequest make_request(const Fleet& f, const Arrival& a) {
  const Tenant& t = f.tenants[a.tenant];
  serve::SolveRequest r;
  r.network = t.network;
  r.outage_branch = t.outage_branch;
  r.controls = t.controls;
  const grid::Network& net = t.network != nullptr ? *t.network : f.base;
  // Stress requests pin the calibrated scale; everything else jitters.
  const double factor = t.stress ? t.load_scale : a.load_factor;
  r.pd.reserve(net.buses.size());
  r.qd.reserve(net.buses.size());
  for (const auto& bus : net.buses) {
    r.pd.push_back(bus.pd * factor);
    r.qd.push_back(bus.qd * factor);
  }
  return r;
}

bool result_correct(const Tenant& t, const serve::SolveResult& r) {
  if (!r.converged || !(r.max_violation <= kViolationBound)) return false;
  if (t.stress) {
    const double bound = r.engine == serve::SolveEngine::kIpm ? kIpmGapBound : kAdmmGapBound;
    return grid::relative_gap(r.objective, kRefCase30StressObjective) <= bound;
  }
  return true;
}

void run_phase(serve::SolveService& service, const Fleet& f, PhaseRun& phase,
               std::uint64_t seed, SpanRecorder& spans) {
  const auto schedule = make_schedule(seed, phase.rate, phase.duration, f.weights, kLoadJitter);
  std::vector<serve::SolveRequest> requests;
  requests.reserve(schedule.size());
  for (const auto& a : schedule) requests.push_back(make_request(f, a));
  phase.outcomes.assign(schedule.size(), Outcome{});
  std::vector<std::future<serve::SolveResult>> futures(schedule.size());

  phase.before = service.stats();
  phase.transfers_before = device::transfer_stats();
  const std::uint64_t start_ns = obs::now_ns();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    Outcome& o = phase.outcomes[i];
    o.tenant = schedule[i].tenant;
    o.intended_ns = start_ns + static_cast<std::uint64_t>(schedule[i].at_seconds * 1e9);
    const std::uint64_t now = obs::now_ns();
    if (now < o.intended_ns) {
      // Open loop: wait for the intended instant, never for a reply.
      const auto pace = spans.scope("bench.pace", "bench");
      std::this_thread::sleep_for(std::chrono::nanoseconds(o.intended_ns - now));
    }
    const std::uint64_t fired = obs::now_ns();
    o.lag_s = generator_lag(static_cast<double>(o.intended_ns) * 1e-9,
                            static_cast<double>(fired) * 1e-9);
    {
      const auto submit = spans.scope("serve.submit", "serve");
      try {
        futures[i] = service.submit(std::move(requests[i]));
      } catch (const CapacityError&) {
        o.shed = true;
      } catch (const DeadlineError&) {
        o.deadline_shed = true;
      }
    }
    o.submit_us = static_cast<double>(obs::now_ns() - fired) * 1e-3;
  }

  {
    const auto wait = spans.scope("serve.wait", "serve");
    for (std::size_t i = 0; i < futures.size(); ++i) {
      Outcome& o = phase.outcomes[i];
      if (!futures[i].valid()) continue;
      try {
        const serve::SolveResult r = futures[i].get();
        o.completed = true;
        o.correct = result_correct(f.tenants[o.tenant], r);
        o.latency_s = intended_latency(o.lag_s, r.total_seconds);
        o.engine = r.engine;
        o.batch_id = r.batch_id;
        o.batch_occupancy = r.batch_occupancy;
        o.inner_iterations = r.stats.inner_iterations;
        o.timeline = r.timeline;
      } catch (const DeadlineError&) {
        o.deadline_shed = true;
      } catch (const GridError& e) {
        o.errored = true;
        if (phase.first_error.empty()) phase.first_error = e.what();
      }
    }
  }

  // Futures resolve inside the batch; its counters commit a moment later.
  const auto settle = spans.scope("serve.settle", "serve");
  std::uint64_t resolved = 0;
  for (const auto& o : phase.outcomes) {
    if (!o.shed && (o.completed || o.errored || o.deadline_shed)) ++resolved;
  }
  const std::uint64_t target =
      phase.before.completed + phase.before.failed + phase.before.deadline_shed + resolved;
  phase.after = service.stats();
  for (int spin = 0;
       spin < 2000 && phase.after.completed + phase.after.failed + phase.after.deadline_shed < target;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    phase.after = service.stats();
  }
  phase.transfers_after = device::transfer_stats();
}

/// Ledger and engine-split checks of one phase against the service's own
/// counters; every offered request must be accounted for exactly once.
void check_ledger(const PhaseRun& p, WorkloadResult& out) {
  std::uint64_t completed = 0, shed = 0, failed = 0, ddl = 0;
  for (const auto& o : p.outcomes) {
    if (o.shed) ++shed;
    else if (o.deadline_shed) ++ddl;
    else if (o.errored) ++failed;
    else if (o.completed) ++completed;
  }
  const auto& a = p.after;
  const auto& b = p.before;
  const std::uint64_t s_completed = a.completed - b.completed;
  const std::uint64_t s_shed = (a.shed - b.shed) + (a.drain_shed - b.drain_shed);
  const std::uint64_t s_failed = a.failed - b.failed;
  const std::uint64_t s_ddl = a.deadline_shed - b.deadline_shed;
  const std::uint64_t offered = p.outcomes.size();
  if (offered != s_completed + s_shed + s_failed + s_ddl) {
    out.fail_check("serving/" + p.name + ": ledger offered != completed + shed + failed + " +
                   "deadline_shed (" + std::to_string(offered) + " vs " +
                   std::to_string(s_completed + s_shed + s_failed + s_ddl) + ")");
  }
  if (completed != s_completed || shed != s_shed || failed != s_failed || ddl != s_ddl) {
    out.fail_check("serving/" + p.name + ": futures disagree with the service counters");
  }
  const std::uint64_t split = (a.completed_admm - b.completed_admm) +
                              (a.completed_escalated_admm - b.completed_escalated_admm) +
                              (a.completed_ipm - b.completed_ipm);
  if (split != s_completed) {
    out.fail_check("serving/" + p.name + ": engine split does not sum to completed");
  }
}

double ms(double seconds) { return seconds * 1e3; }

}  // namespace

WorkloadResult run_serving(const RunConfig& cfg, SpanRecorder& spans) {
  WorkloadResult out;

  // One device worker: the micro-batches launch 9-41 blocks, so more
  // workers only add cross-core wake-ups per launch (see README).
  constexpr int workers = 1;

  // ---- Setup, repeated: tenant cases, then service construction ----
  std::vector<double> setup_cpu_s, load_s;
  Fleet fleet;
  std::unique_ptr<serve::SolveService> service;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    {
      const auto teardown = spans.scope("serve.teardown", "serve");
      service.reset();
    }
    const double cpu0 = process_cpu_seconds(cfg);
    const std::uint64_t t0 = obs::now_ns();
    {
      const auto span = spans.scope("grid.load", "grid");
      fleet = make_fleet();
    }
    const std::uint64_t t1 = obs::now_ns();
    {
      const auto span = spans.scope("serve.construct", "serve");
      service = make_service(fleet, cfg, workers);
    }
    load_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_cpu_s.push_back(process_cpu_seconds(cfg) - cpu0);
  }

  // ---- Warm-up (unmeasured), then rounds of one light and one heavy window ----
  device::reset_allocation_peak();
  const double window_s = cfg.seconds / (2.0 * kRounds);
  // Distinct, seed-derived schedule stream per window.
  auto stream = [&cfg](int k) { return cfg.seed * 256 + static_cast<std::uint64_t>(k); };
  std::vector<PhaseRun> windows;
  windows.push_back({"warmup", kLightRate, kWarmupSeconds, {}, {}, {}, {}, {}, {}});
  run_phase(*service, fleet, windows.back(), stream(0), spans);
  const double measured_cpu0 = process_cpu_seconds(cfg);
  const std::uint64_t measured_t0 = obs::now_ns();
  for (int r = 0; r < kRounds; ++r) {
    windows.push_back({"light", kLightRate, window_s, {}, {}, {}, {}, {}, {}});
    run_phase(*service, fleet, windows.back(), stream(1 + 2 * r), spans);
    windows.push_back({"heavy", kHeavyRate, window_s, {}, {}, {}, {}, {}, {}});
    run_phase(*service, fleet, windows.back(), stream(2 + 2 * r), spans);
  }
  const double measured_cpu_s = process_cpu_seconds(cfg) - measured_cpu0;
  const double measured_wall_s = static_cast<double>(obs::now_ns() - measured_t0) * 1e-9;
  const std::vector<const PhaseRun*> measured_windows = [&windows] {
    std::vector<const PhaseRun*> v;
    for (const auto& w : windows) {
      if (w.name != "warmup") v.push_back(&w);
    }
    return v;
  }();

  {
    const auto check = spans.scope("bench.check", "bench");
    for (const auto& w : windows) {
      check_ledger(w, out);
      for (const auto& o : w.outcomes) {
        ++out.attempted;
        if (!o.correct) ++out.failed;
      }
    }
  }

  // ---- Per-phase latency figures (windows of a phase pooled) ----
  std::map<std::string, std::vector<double>> pooled;  // by phase, arrival order
  for (const PhaseRun* w : measured_windows) {
    for (const auto& o : w->outcomes) {
      if (o.completed) pooled[w->name].push_back(ms(o.latency_s));
    }
  }
  const Summary light_lat = summarize(pooled["light"]);
  const Summary heavy_lat = summarize(pooled["heavy"]);

  // Measured windows only from here on.
  std::vector<double> submit_us, lag_ms, rescue_ms;
  std::uint64_t measured = 0, measured_failed = 0, stress_offered = 0, good_heavy = 0;
  std::uint64_t measured_correct = 0;
  std::uint64_t inner = 0;
  OccupancyAccumulator occupancy;
  std::map<std::uint64_t, std::uint64_t> batch_solve_ns;  // one solve stage per batch
  for (const PhaseRun* w : measured_windows) {
    std::map<std::uint64_t, std::vector<const Outcome*>> batches;
    for (const auto& o : w->outcomes) {
      ++measured;
      if (o.correct) ++measured_correct;
      else ++measured_failed;
      if (fleet.tenants[o.tenant].stress) ++stress_offered;
      if (w->name == "heavy" && o.correct && o.latency_s <= kLatencyCeiling) ++good_heavy;
      submit_us.push_back(o.submit_us);
      lag_ms.push_back(ms(o.lag_s));
      if (!o.completed) continue;
      inner += static_cast<std::uint64_t>(o.inner_iterations);
      if (o.engine == serve::SolveEngine::kIpm) rescue_ms.push_back(ms(o.latency_s));
      batches[o.batch_id].push_back(&o);
      if (o.timeline.complete()) {
        batch_solve_ns[o.batch_id] = o.timeline.solve_ns - o.timeline.stage_ns;
      }
    }
    // Fused-lane occupancy of the micro-batches every member of which was
    // answered by the fused ADMM rung (rescued members carry the rescue's
    // stats, not their fused-lane iterations).
    for (const auto& [id, members] : batches) {
      if (static_cast<int>(members.size()) != members.front()->batch_occupancy) continue;
      std::vector<int> its;
      bool fused_only = true;
      for (const Outcome* o : members) {
        fused_only = fused_only && o->engine == serve::SolveEngine::kAdmm;
        its.push_back(o->inner_iterations);
      }
      if (fused_only) occupancy.add_batch(its);
    }
  }
  const Summary submit = summarize(submit_us);
  const Summary lag = summarize(lag_ms);
  const Summary rescue = summarize(rescue_ms);

  const PhaseRun& first = *measured_windows.front();
  const PhaseRun& last = *measured_windows.back();
  const serve::ServiceStats& b = first.before;
  const serve::ServiceStats& a = last.after;
  const device::LaunchStats launched = a.launch_stats - b.launch_stats;
  double solve_stage_s = 0.0;
  for (const auto& [id, ns] : batch_solve_ns) solve_stage_s += static_cast<double>(ns) * 1e-9;
  std::uint64_t batches_seen = 0, batched_requests = 0;
  for (std::size_t k = 0; k < a.batch_occupancy.size(); ++k) {
    const std::uint64_t before = k < b.batch_occupancy.size() ? b.batch_occupancy[k] : 0;
    batches_seen += a.batch_occupancy[k] - before;
    batched_requests += (a.batch_occupancy[k] - before) * (k + 1);
  }
  const std::uint64_t hits = a.cache_hits - b.cache_hits;
  const std::uint64_t lookups = hits + (a.cache_misses - b.cache_misses);
  const std::uint64_t transfers =
      (last.transfers_after.host_to_device - first.transfers_before.host_to_device) +
      (last.transfers_after.device_to_host - first.transfers_before.device_to_host);
  const double rescues = static_cast<double>(a.completed_ipm - b.completed_ipm);
  const double heavy_seconds = window_s * kRounds;

  const double correct_ops = static_cast<double>(std::max<std::uint64_t>(1, measured_correct));
  out.set("setup_s", median(setup_cpu_s), "s", "lower");
  out.set("peak_rss_mb", peak_rss_mb(), "MB", "lower");
  out.set("cpu_ms_per_op", measured_cpu_s * 1e3 / correct_ops, "ms", "lower");

  out.set("wall_ms_per_op", measured_wall_s * 1e3 / correct_ops, "ms", "lower");

  out.set("failed_share", static_cast<double>(measured_failed) / static_cast<double>(measured),
          "ratio", "lower");
  out.set("latency_p50_ms.light", light_lat.p50, "ms", "lower");
  out.set("latency_p99_ms.light", light_lat.tail, "ms", "lower");
  out.set("latency_p50_ms.heavy", heavy_lat.p50, "ms", "lower");
  out.set("latency_p99_ms.heavy", heavy_lat.tail, "ms", "lower");
  out.set("goodput_rps.heavy", static_cast<double>(good_heavy) / heavy_seconds, "1/s", "higher");
  out.set("grid.load_s", median(load_s), "s", "lower");
  out.set("scenario.fused_steps", static_cast<double>(occupancy.steps), "count", "lower");
  out.set("scenario.lane_occupancy", occupancy.occupancy(), "ratio", "higher");
  out.set("admm.inner_iterations", static_cast<double>(inner), "count", "lower");
  out.set("device.launches", static_cast<double>(launched.launches), "count", "lower");
  out.set("device.blocks", static_cast<double>(launched.blocks), "count", "lower");
  out.set("device.blocks_per_launch",
          launched.launches > 0
              ? static_cast<double>(launched.blocks) / static_cast<double>(launched.launches)
              : 0.0,
          "count", "higher");
  out.set("device.busy_s", launched.busy_seconds, "s", "lower");
  out.set("device.host_share",
          solve_stage_s > 0.0 ? std::max(0.0, 1.0 - launched.busy_seconds / solve_stage_s) : 0.0,
          "ratio", "lower");
  out.set("device.transfers", static_cast<double>(transfers), "count", "lower");
  out.set("device.peak_bytes", static_cast<double>(device::allocation_stats().peak_bytes),
          "bytes", "lower");
  out.set("serve.submit_us.p50", submit.p50, "us", "lower");
  out.set("serve.submit_us.max", submit.max, "us", "lower");
  out.set("serve.generator_lag_ms.p99", lag.tail, "ms", "lower");
  out.set("serve.generator_lag_ms.max", lag.max, "ms", "lower");
  for (const char* phase : {"light", "heavy"}) {
    for (int st = 0; st < serve::RequestTimeline::kStageCount; ++st) {
      std::vector<double> v;
      for (const PhaseRun* w : measured_windows) {
        if (w->name != phase) continue;
        for (const auto& o : w->outcomes) {
          if (o.completed && o.timeline.complete()) v.push_back(ms(o.timeline.stage_seconds(st)));
        }
      }
      const Summary s = summarize(v);
      const std::string base =
          "serve.stage." + serve_stage_names()[static_cast<std::size_t>(st)] + "_ms.";
      out.set(base + "p50." + phase, s.p50, "ms", "lower");
      out.set(base + "p99." + phase, s.tail, "ms", "lower");
    }
  }
  out.set("serve.batch_occupancy.mean",
          batches_seen > 0
              ? static_cast<double>(batched_requests) / static_cast<double>(batches_seen)
              : 0.0,
          "count", "higher");
  out.set("serve.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0, "ratio",
          "higher");
  out.set("serve.backlog_growth.light", backlog_growth(pooled["light"]), "ratio", "lower");
  out.set("serve.backlog_growth.heavy", backlog_growth(pooled["heavy"]), "ratio", "lower");
  out.set("serve.shed", static_cast<double>((a.shed - b.shed) + (a.drain_shed - b.drain_shed)),
          "count", "lower");
  out.set("serve.failed", static_cast<double>(a.failed - b.failed), "count", "lower");
  out.set("serve.deadline_shed", static_cast<double>(a.deadline_shed - b.deadline_shed), "count",
          "lower");
  out.set("serve.retries", static_cast<double>(a.retries - b.retries), "count", "lower");
  out.set("ipm.rescues", rescues, "count", "lower");
  out.set("ipm.failures", static_cast<double>(a.ipm_failures - b.ipm_failures), "count",
          "lower");
  out.set("ipm.rescue_share",
          stress_offered > 0 ? rescues / static_cast<double>(stress_offered) : 0.0, "ratio",
          "lower");
  out.set("ipm.rescue_latency_ms.p50", rescue.p50, "ms", "lower");
  out.set("ipm.rescue_latency_ms.max", rescue.max, "ms", "lower");

  // Per-request spans rebuilt from the timelines (traced run): the request
  // span starts at the intended arrival, its stages at the service stamps.
  if (spans.enabled()) {
    const auto rebuild = spans.scope("obs.request_spans", "obs");
    LanePacker lanes(1);
    for (const auto& w : windows) {
      for (const auto& o : w.outcomes) {
        if (!o.completed || !o.timeline.complete()) continue;
        const auto stamps = o.timeline.stamps();
        const std::uint64_t begin = std::min(o.intended_ns, stamps.front());
        const int lane = lanes.place(begin, stamps.back());
        spans.add("serve.request." + fleet.tenants[o.tenant].name, "serve", begin, stamps.back(),
                  lane);
        for (int st = 0; st < serve::RequestTimeline::kStageCount; ++st) {
          spans.add(std::string("serve.stage.") + serve::RequestTimeline::stage_name(st), "serve",
                    stamps[static_cast<std::size_t>(st)],
                    stamps[static_cast<std::size_t>(st) + 1], lane);
        }
      }
    }
  }

  // ---- Report ----
  char line[220];
  for (const auto& [name, s] : {std::pair{"light", light_lat}, std::pair{"heavy", heavy_lat}}) {
    std::snprintf(line, sizeof line,
                  "phase %-5s %.1f/s over %d windows of %.1f s: completed n=%zu  p50 %.2f ms  "
                  "%s %.2f ms  max %.2f ms",
                  name, std::string(name) == "light" ? kLightRate : kHeavyRate, kRounds, window_s,
                  s.n, s.p50, s.tail_label().c_str(), s.tail, s.max);
    out.report.emplace_back(line);
  }
  std::snprintf(line, sizeof line,
                "generator lag n=%zu %s %.3f ms max %.3f ms; ipm rescues %.0f of %llu stress",
                lag.n, lag.tail_label().c_str(), lag.tail, lag.max, rescues,
                static_cast<unsigned long long>(stress_offered));
  out.report.emplace_back(line);
  for (const auto& w : windows) {
    if (!w.first_error.empty()) out.report.push_back(w.name + " first error: " + w.first_error);
  }
  // The slowest requests of the measured windows, for explaining the tail.
  std::vector<const Outcome*> slowest;
  for (const PhaseRun* w : measured_windows) {
    for (const auto& o : w->outcomes) {
      if (o.completed) slowest.push_back(&o);
    }
  }
  const std::size_t shown = std::min<std::size_t>(5, slowest.size());
  std::partial_sort(slowest.begin(), slowest.begin() + static_cast<std::ptrdiff_t>(shown),
                    slowest.end(),
                    [](const Outcome* x, const Outcome* y) { return x->latency_s > y->latency_s; });
  for (std::size_t i = 0; i < shown; ++i) {
    const Outcome& o = *slowest[i];
    std::snprintf(line, sizeof line,
                  "slow request: %-14s %8.2f ms  engine %-14s inner %6d  batch %llu of %d",
                  fleet.tenants[o.tenant].name.c_str(), ms(o.latency_s),
                  serve::engine_name(o.engine), o.inner_iterations,
                  static_cast<unsigned long long>(o.batch_id), o.batch_occupancy);
    out.report.emplace_back(line);
  }

  // Offered traffic is a pure function of the seed; solver work depends on
  // how arrivals fall into micro-batches, so it is reported, not guarded.
  std::map<std::string, std::uint64_t> offered;
  for (const auto& w : windows) {
    offered["offered." + w.name] += w.outcomes.size();
    for (const auto& o : w.outcomes) {
      ++offered["offered." + w.name + "." + fleet.tenants[o.tenant].name];
    }
  }
  out.exact_counters.assign(offered.begin(), offered.end());
  out.params = {{"tenants", "case9:0.6,case9-n1 x2:0.1,case14:0.2,case30-stress:0.02"},
                {"rate_light", std::to_string(kLightRate)},
                {"rate_heavy", std::to_string(kHeavyRate)},
                {"rounds", std::to_string(kRounds)},
                {"window_seconds", std::to_string(window_s)},
                {"warmup_seconds", std::to_string(kWarmupSeconds)},
                {"load_jitter", std::to_string(kLoadJitter)},
                {"latency_ceiling_s", std::to_string(kLatencyCeiling)},
                {"shards", "1"},
                {"device_workers", std::to_string(workers)},
                {"engine_fallback", "true"},
                {"setup_repeats", std::to_string(kSetupRepeats)}};
  return out;
}

}  // namespace perfbench
