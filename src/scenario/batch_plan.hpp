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
// Ping-pong mode: instead of one persistent slot per scenario, slots are
// assigned per wave and the shard allocates two buffers of max-wave-size
// slots. Wave d executes in buffer d % 2 while buffer (d - 1) % 2 still
// holds the parent wave's iterates for on-device chaining; wave d + 1 then
// reuses the parent buffer. Live batch-state memory is O(2 x wave x case)
// — constant in the horizon length — instead of O(S x case).
#pragma once

#include <span>
#include <vector>

#include "scenario/scenario.hpp"

namespace gridadmm::scenario {

struct BatchPlan {
  int num_shards = 1;
  bool ping_pong = false;

  std::vector<int> shard_of;  ///< global scenario -> shard
  /// Global scenario -> slot within its shard's state. In ping-pong mode
  /// the slot is local to the scenario's wave buffer (wave_of[s] % 2).
  std::vector<int> slot_of;
  std::vector<int> wave_of;  ///< global scenario -> chain depth (wave index)

  /// Scenarios each shard owns, in scenario order (all waves).
  std::vector<std::vector<int>> shard_scenarios;
  /// [wave][shard] -> global scenario ids of that wave on that shard.
  std::vector<std::vector<std::vector<int>>> wave_shards;
  /// Slots each shard's state buffer must hold: the shard's scenario count,
  /// or its largest single-wave count in ping-pong mode.
  std::vector<int> shard_capacity;

  [[nodiscard]] int num_waves() const { return static_cast<int>(wave_shards.size()); }

  /// Builds the deterministic plan for `scenarios` grouped into `waves`
  /// (ScenarioSet::waves() order: wave d chains from wave d - 1).
  static BatchPlan create(std::span<const Scenario> scenarios,
                          const std::vector<std::vector<int>>& waves, int num_shards,
                          bool ping_pong);
};

}  // namespace gridadmm::scenario
