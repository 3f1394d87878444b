// Reference objectives for the benchmark's correctness gate, computed once
// with the repo's MiniIPM (`perfbench --make-reference` prints this table)
// and stored with the benchmark.
#pragma once

namespace perfbench {

/// 1354pegase at its base loads: tracking period 1 of every profile.
inline constexpr double kRef1354pegaseObjective = 1342054.0228974067;
/// case30 at the stress-corpus load scale (1.03), full topology: the
/// serving workload's stress tenant.
inline constexpr double kRefCase30StressObjective = 1027.6572246388;

}  // namespace perfbench
