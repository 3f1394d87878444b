// Tests of the benchmark's measurement helpers: the percentile sample-count
// rule, open-loop schedule determinism, tenant apportionment and lateness
// accounting, waterfall self-time arithmetic, lane-occupancy / 64-bit
// counter arithmetic, and the host speed probe.
//
//   ctest --test-dir .bench_build/perfbench   (or run perfbench_tests directly)
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-12) { return std::fabs(a - b) <= tol; }

using namespace perfbench;

void test_percentile_rule() {
  // p99 only from at least 1,000 samples (10 beyond it).
  EXPECT(supported_tail_q(1000) == 0.99);
  EXPECT(supported_tail_q(5000) == 0.99);
  EXPECT(supported_tail_q(999) == 0.95);
  EXPECT(supported_tail_q(200) == 0.95);
  EXPECT(supported_tail_q(199) == 0.90);
  EXPECT(supported_tail_q(100) == 0.90);
  EXPECT(supported_tail_q(40) == 0.75);
  EXPECT(supported_tail_q(20) == 0.50);
  EXPECT(supported_tail_q(19) == 1.0);  // too few: report the max with n
  EXPECT(supported_tail_q(0) == 1.0);
  EXPECT(percentile_label(0.99) == "p99");
  EXPECT(percentile_label(0.5) == "p50");
  EXPECT(percentile_label(1.0) == "max");

  // Nearest rank on 1..100.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(quantile_sorted(v, 0.5) == 50.0);
  EXPECT(quantile_sorted(v, 0.99) == 99.0);
  EXPECT(quantile_sorted(v, 1.0) == 100.0);
  EXPECT(quantile_sorted(v, 0.0) == 1.0);
  EXPECT(quantile_sorted({}, 0.5) == 0.0);

  // 620 samples (the old 60 req/s smoke run): the tail is p95, never p99.
  std::vector<double> s620;
  for (int i = 0; i < 620; ++i) s620.push_back(620 - i);
  const Summary s = summarize(s620);
  EXPECT(s.n == 620);
  EXPECT(s.tail_q == 0.95);
  EXPECT(s.tail_label() == "p95");
  EXPECT(s.tail == 589.0);  // rank ceil(0.95 * 620) = 589
  EXPECT(s.max == 620.0);
  EXPECT(s.p50 == 310.0);
}

void test_schedule() {
  const std::vector<double> weights = {0.6, 0.1, 0.1, 0.2, 0.08};
  const auto a = make_schedule(42, 100.0, 20.0, weights, 0.05);
  const auto b = make_schedule(42, 100.0, 20.0, weights, 0.05);
  const auto c = make_schedule(43, 100.0, 20.0, weights, 0.05);
  EXPECT(a.size() == b.size());
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_seconds == b[i].at_seconds && a[i].tenant == b[i].tenant &&
           a[i].load_factor == b[i].load_factor;
  }
  EXPECT(same);  // bit-identical per seed
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].at_seconds != c[i].at_seconds;
  EXPECT(differs);  // another seed, another schedule

  // Poisson count over 20 s at 100/s: mean 2000, sd ~45.
  EXPECT(a.size() > 1800 && a.size() < 2200);
  bool ordered = true, in_window = true, jitter_ok = true;
  std::vector<std::size_t> per_tenant(weights.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].at_seconds < a[i - 1].at_seconds) ordered = false;
    if (a[i].at_seconds < 0.0 || a[i].at_seconds >= 20.0) in_window = false;
    if (a[i].load_factor < 0.95 || a[i].load_factor > 1.05) jitter_ok = false;
    ++per_tenant[a[i].tenant];
  }
  EXPECT(ordered);
  EXPECT(in_window);
  EXPECT(jitter_ok);
  // The bulk tenant carries ~0.6/1.08 of the traffic.
  const double bulk = static_cast<double>(per_tenant[0]) / static_cast<double>(a.size());
  EXPECT(bulk > 0.50 && bulk < 0.61);
  EXPECT(per_tenant == apportion(a.size(), weights));  // exact shares, dealt from the deck

  // Apportionment: exact counts summing to n, largest remainders rounded up.
  const auto split = apportion(90, {0.6, 0.1, 0.1, 0.2, 0.02});
  EXPECT((split == std::vector<std::size_t>{53, 9, 9, 17, 2}));
  EXPECT((apportion(3, {1.0, 1.0}) == std::vector<std::size_t>{2, 1}));
  EXPECT((apportion(0, {1.0, 2.0}) == std::vector<std::size_t>{0, 0}));
  EXPECT(make_schedule(1, 0.0, 10.0, weights, 0.05).empty());

  // Lateness: late fires are charged to the request, early ones never
  // produce negative lag.
  EXPECT(near(generator_lag(1.000, 1.003), 0.003, 1e-15));
  EXPECT(generator_lag(1.000, 0.999) == 0.0);
  EXPECT(near(intended_latency(0.003, 0.020), 0.023));
}

void test_waterfall() {
  // root [0, 100) > a [10, 40) > a1 [15, 25); b [50, 90); gap [40,50) and
  // [90,100) stay with the root as unattributed.
  std::vector<Span> spans = {
      {"bench.run", "unattributed", 0, 100, 0}, {"opf.run", "opf", 10, 40, 0},
      {"device.init", "device", 15, 25, 0},     {"grid.load", "grid", 50, 90, 0},
      {"serve.request", "serve", 5, 95, 3},  // other lane: not in the waterfall
  };
  const Waterfall w = waterfall(spans);
  EXPECT(w.wall_ns == 100);
  EXPECT(w.self_ns.at("opf") == 20);
  EXPECT(w.self_ns.at("device") == 10);
  EXPECT(w.self_ns.at("grid") == 40);
  EXPECT(w.self_ns.at("unattributed") == 30);
  EXPECT(w.total_ns() == w.wall_ns);
  EXPECT(w.self_ns.count("serve") == 0);
  EXPECT(near(w.share("unattributed"), 0.30));

  // Same-layer nesting adds into one layer; insertion order does not matter.
  std::vector<Span> nested = {
      {"serve.wait", "serve", 20, 30, 0},
      {"bench.run", "unattributed", 0, 60, 0},
      {"serve.submit", "serve", 10, 50, 0},
  };
  const Waterfall n = waterfall(nested);
  EXPECT(n.self_ns.at("serve") == 40);
  EXPECT(n.self_ns.at("unattributed") == 20);
  EXPECT(n.total_ns() == 60);

  // Request lanes never overlap within a lane.
  LanePacker lanes(1);
  EXPECT(lanes.place(0, 10) == 1);
  EXPECT(lanes.place(5, 15) == 2);
  EXPECT(lanes.place(10, 20) == 1);
  EXPECT(lanes.place(12, 30) == 3);
}

void test_occupancy_and_counters() {
  EXPECT(near(lane_occupancy(100, 100, 1), 1.0));
  // Two lanes, one retires after 10 of 40 steps: (10 + 40) / (40 * 2).
  EXPECT(near(lane_occupancy(50, 40, 2), 0.625));
  EXPECT(lane_occupancy(0, 0, 4) == 0.0);

  OccupancyAccumulator acc;
  acc.add_batch({10, 40});      // 40 steps, 80 slots, 50 useful
  acc.add_batch({30, 30, 30});  // 30 steps, 90 slots, 90 useful
  acc.add_batch({});
  EXPECT(acc.batches == 2);
  EXPECT(acc.steps == 70);
  EXPECT(acc.slots == 170);
  EXPECT(acc.useful == 140);
  EXPECT(near(acc.occupancy(), 140.0 / 170.0));

  // Sums past 2^31 stay exact in 64 bits.
  TronCounters t;
  gridadmm::admm::BranchUpdateStats s;
  s.tron_iterations = INT_MAX;
  s.cg_iterations = INT_MAX;
  s.function_evals = 7;
  s.auglag_iterations = 3;
  s.failures = 1;
  t.add(s);
  t.add(s);
  EXPECT(t.iterations == 2ULL * static_cast<unsigned long long>(INT_MAX));
  EXPECT(t.cg_iterations == 2ULL * static_cast<unsigned long long>(INT_MAX));
  EXPECT(t.function_evals == 14 && t.auglag_iterations == 6 && t.failures == 2);

  // Backlog growth: flat latencies ~1, a growing queue > 1.
  EXPECT(near(backlog_growth({5, 5, 5, 5, 5, 5}), 1.0));
  EXPECT(near(backlog_growth({1, 2, 3, 4, 5, 6, 7, 8, 9}), 8.0 / 2.0));
  EXPECT(backlog_growth({1, 2}) == 0.0);
}

void test_catalogue() {
  // Names are unique across both lists and every metric has a direction.
  std::vector<std::string> names;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& m : *list) {
      names.emplace_back(m.name);
      const std::string better = m.better;
      EXPECT(better == "lower" || better == "higher");
    }
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) EXPECT(names[i] != names[j]);
  }
  EXPECT(end_to_end_metrics().front().name == std::string("setup_s"));
  EXPECT(per_layer_metrics().size() <= 128);
}

void test_probe() {
  // The kernel is deterministic: same work, same checksum.
  EXPECT(probe_kernel(50) == probe_kernel(50));
  EXPECT(std::isfinite(probe_kernel(50)));
  SpeedProbe probe(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const double cpu_running = probe.cpu_seconds();
  probe.stop();
  probe.stop();  // idempotent
  EXPECT(!probe.samples_ms().empty());
  for (const double ms : probe.samples_ms()) EXPECT(ms > 0.0);
  // After the join the probe still reports its final CPU time, which covers
  // every sample it took.
  double sampled_s = 0.0;
  for (const double ms : probe.samples_ms()) sampled_s += ms * 1e-3;
  EXPECT(probe.cpu_seconds() >= cpu_running);
  EXPECT(probe.cpu_seconds() >= sampled_s);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_schedule();
  test_waterfall();
  test_occupancy_and_counters();
  test_catalogue();
  test_probe();
  if (failures == 0) std::printf("perfbench helper tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
