#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "admm/branch_problem.hpp"
#include "admm/params.hpp"
#include "admm/solver.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "device/device.hpp"
#include "grid/cases.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"
#include "tron/small_tron.hpp"

// ---- Host heap allocation counter ----
//
// This test binary replaces the global operator new/delete with forwards to
// malloc/free that count every allocation, on every thread (device worker
// lanes included). The allocation-invariant tests below read the counter
// around the code they check (DESIGN §9.3).

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace gridadmm {
namespace {

TEST(Rng, IsDeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalHasApproximatelyUnitVariance) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(3);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.uniform_index(10)];
  for (const int count : seen) EXPECT_GT(count, 0);
}

TEST(Require, ThrowsOnFailure) {
  EXPECT_THROW(require(false, "boom"), GridError);
  EXPECT_NO_THROW(require(true, "fine"));
}

/// Runs `check` and returns the message of the `Error` it throws; fails the
/// test when it throws nothing or something else.
template <typename Error, typename Check>
std::string thrown_message(Check check) {
  try {
    check();
  } catch (const Error& e) {
    return e.what();
  } catch (...) {
    ADD_FAILURE() << "threw an exception of another type";
    return {};
  }
  ADD_FAILURE() << "did not throw";
  return {};
}

TEST(Require, FailureThrowsTypedErrorWithExactMessage) {
  const std::string built = "built message #" + std::to_string(42);
  EXPECT_EQ(thrown_message<GridError>([] { require(false, "literal message"); }),
            "literal message");
  EXPECT_EQ(thrown_message<GridError>([&] { require(false, built); }), built);
  EXPECT_EQ(thrown_message<ValidationError>([] { require_valid(false, "bad input"); }),
            "bad input");
  EXPECT_EQ(thrown_message<ValidationError>([&] { require_valid(false, built); }), built);
  // require throws the base GridError, not the ValidationError subtype.
  try {
    require(false, "internal");
  } catch (const GridError& e) {
    EXPECT_EQ(dynamic_cast<const ValidationError*>(&e), nullptr);
  }
}

TEST(Require, PassingChecksAllocateNothing) {
  // Messages longer than any small-string buffer: building a std::string
  // from either one would allocate.
  const std::string owned(64, 'x');
  const auto before = allocations();
  for (int i = 0; i < 100; ++i) {
    require(i >= 0, "a literal precondition message that is longer than a small string");
    require_valid(i >= 0, "a literal validation message that is longer than a small string");
    require(i >= 0, owned);
    require_valid(i >= 0, owned);
  }
  EXPECT_EQ(allocations() - before, 0u);
}

// ---- Host allocation invariants of the solver hot path (DESIGN §9.3) ----

TEST(HostAllocations, SmallTronMinimizeOnRatedBranchAllocatesNothing) {
  const auto net = grid::load_embedded_case("case9");
  const auto& y = net.admittances[0];
  const double adm[8] = {y.gii, y.bii, y.gij, y.bij, y.gji, y.bji, y.gjj, y.bjj};
  const double vb[4] = {0.9, 1.1, 0.9, 1.1};
  const double d[8] = {0.1, -0.05, 0.2, 0.0, -0.02, 0.01, 0.03, -0.01};
  const double yk[8] = {1.0, -2.0, 0.5, 0.0, 3.0, -1.0, 0.2, 0.4};
  double rhok[8];
  std::fill(rhok, rhok + 8, 400.0);
  admm::BranchProblem problem;
  problem.bind(adm, vb, /*rate2=*/2.0, d, yk, rhok);
  problem.set_line_multipliers(0.5, -0.5, 10.0);
  ASSERT_EQ(problem.dim(), 6);
  tron::SmallTronSolver<6> solver;

  const auto before = allocations();
  int iterations = 0;
  for (int rep = 0; rep < 3; ++rep) {
    double x[6] = {1.0, 1.0, 0.1, 0.0, -0.5, -0.5};
    iterations += solver.minimize(problem, {x, 6}).iterations;
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(iterations, 0);  // real TRON work ran inside the window
}

TEST(HostAllocations, SteadyStateAdmmIterationsAllocateNothing) {
  // A warmed solve with a fixed number of inner iterations (unreachable
  // tolerances, one outer iteration): whatever a solve allocates once must
  // not grow with the iteration count. A multi-worker device puts the
  // kernels on worker threads, which the counter sees too.
  const auto net = grid::load_embedded_case("case30");
  auto params = admm::params_for_case("case30", 30);
  params.max_outer_iterations = 1;
  params.inner_tolerance_initial = 0.0;
  params.primal_tolerance = 0.0;
  params.dual_tolerance = 0.0;
  device::Device dev(2);
  admm::AdmmSolver solver(net, params, &dev);
  solver.params().max_inner_iterations = 5;
  solver.solve();  // first launches size the branch lanes

  auto allocations_in_solve = [&](int inner) {
    solver.params().max_inner_iterations = inner;
    solver.prepare_warm_start();
    const auto before = allocations();
    const auto stats = solver.solve();
    const auto used = allocations() - before;
    EXPECT_EQ(stats.inner_iterations, inner);
    EXPECT_GT(stats.branch.tron_iterations, inner);
    return used;
  };
  const auto short_solve = allocations_in_solve(50);
  const auto long_solve = allocations_in_solve(200);
  EXPECT_EQ(short_solve, long_solve) << "allocations grow with the inner iteration count";
}

TEST(HostAllocations, SteadyStateBatchIterationsAllocateNothing) {
  // The production engine's steady state: a warmed BatchAdmmSolver running
  // a fixed number of inner iterations (unreachable tolerances, one outer
  // iteration) must allocate the same at 50 and 200 of them, at S = 1 and
  // S = 4, with the kernels on two worker threads.
  const auto net = grid::load_embedded_case("case30");
  auto params = admm::params_for_case("case30", 30);
  params.max_outer_iterations = 1;
  params.inner_tolerance_initial = 0.0;
  params.primal_tolerance = 0.0;
  params.dual_tolerance = 0.0;
  device::Device dev(2);
  for (const int scenarios : {1, 4}) {
    SCOPED_TRACE("S = " + std::to_string(scenarios));
    scenario::ScenarioSet set(net);
    set.add_load_scale(scenarios, 0.98, 1.02);
    auto allocations_in_solve = [&](int inner) {
      params.max_inner_iterations = inner;
      scenario::BatchAdmmSolver solver(set, params, &dev);
      solver.solve();  // first solve sizes the wave buffers and branch lanes
      const auto before = allocations();
      const auto report = solver.solve();
      const auto used = allocations() - before;
      for (const auto& record : report.records) EXPECT_EQ(record.inner_iterations, inner);
      EXPECT_GT(report.branch.tron_iterations, inner);
      return used;
    };
    const auto short_solve = allocations_in_solve(50);
    const auto long_solve = allocations_in_solve(200);
    EXPECT_EQ(short_solve, long_solve) << "allocations grow with the inner iteration count";
  }
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), GridError);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(Table::sci(1234.5, 2), "1.23e+03");
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--case=case9", "--iters=50", "--verbose", "--scale=2.5"};
  Options opts(5, argv);
  EXPECT_EQ(opts.get("case", ""), "case9");
  EXPECT_EQ(opts.get_int("iters", 0), 50);
  EXPECT_TRUE(opts.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(opts.get_double("scale", 0.0), 2.5);
  EXPECT_EQ(opts.get("missing", "fallback"), "fallback");
}

namespace { void benchmark_do_not_optimize(double& v) { asm volatile("" : "+m"(v)); } }

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  const double t0 = timer.seconds();
  EXPECT_GE(t0, 0.0);
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  benchmark_do_not_optimize(sink);
  EXPECT_GE(timer.seconds(), t0);
}

}  // namespace
}  // namespace gridadmm
