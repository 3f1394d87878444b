// BatchPlan: the "plan" half of the batch engine's plan/execute split.
//
// A plan decides, before any device memory is touched, (a) which shard —
// i.e. which device of a DevicePool — executes each scenario, and (b) which
// slot of that shard's scenario-major BatchAdmmState the scenario
// occupies. Execution then runs the existing fused kernels per shard,
// concurrently, without any kernel-level changes.
//
// Shard assignment is deterministic: warm-start chain roots are dealt
// round-robin over the shards in scenario order (slot s with no parent goes
// to shard root_rank(s) % num_shards), and a chained scenario always
// follows its parent's shard, because period-to-period chaining is an
// on-device copy that must stay within one device's memory. With one shard
// every scenario lands on shard 0 and the plan degenerates to the
// single-device layout, so the sharded solve is a strict generalization.
//
// Wave buffers: slots are assigned per wave. Each shard keeps one buffer
// per wave parity: buffer b holds the waves d with d % 2 == b and is sized
// to the largest of them on that shard. Wave d executes in buffer d % 2
// while buffer (d - 1) % 2 still holds the parent wave's iterates for
// on-device chaining; wave d + 1 then reuses the parent buffer. A one-wave
// set (every serve batch) gets one S-slot buffer; a chained set's live
// batch-state memory is constant in the horizon length. A shard's two
// capacities never sum to more than its scenario count.
#pragma once

#include <span>
#include <vector>

#include "scenario/scenario.hpp"

namespace gridadmm::scenario {

struct BatchPlan {
  int num_shards = 1;

  std::vector<int> shard_of;  ///< global scenario -> shard
  /// Global scenario -> slot within its wave's buffer (wave_of[s] % 2) on
  /// its shard.
  std::vector<int> slot_of;
  std::vector<int> wave_of;  ///< global scenario -> chain depth (wave index)

  /// [wave][shard] -> global scenario ids of that wave on that shard.
  std::vector<std::vector<std::vector<int>>> wave_shards;
  /// [shard][b] -> slots buffer b must hold: the shard's largest wave of
  /// parity b. One entry per buffer (one buffer for a one-wave set).
  std::vector<std::vector<int>> buffer_capacity;

  [[nodiscard]] int num_waves() const { return static_cast<int>(wave_shards.size()); }
  [[nodiscard]] int num_buffers() const { return num_waves() > 1 ? 2 : 1; }

  /// Builds the deterministic plan for `scenarios` grouped into `waves`
  /// (ScenarioSet::waves() order: wave d chains from wave d - 1).
  static BatchPlan create(std::span<const Scenario> scenarios,
                          const std::vector<std::vector<int>>& waves, int num_shards);
};

}  // namespace gridadmm::scenario
