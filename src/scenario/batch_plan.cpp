#include "scenario/batch_plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gridadmm::scenario {

BatchPlan BatchPlan::create(std::span<const Scenario> scenarios,
                            const std::vector<std::vector<int>>& waves, int num_shards,
                            bool ping_pong) {
  require(num_shards > 0, "BatchPlan: num_shards must be positive");
  const int S = static_cast<int>(scenarios.size());

  BatchPlan plan;
  plan.num_shards = num_shards;
  plan.ping_pong = ping_pong;
  plan.shard_of.assign(static_cast<std::size_t>(S), -1);
  plan.slot_of.assign(static_cast<std::size_t>(S), -1);
  plan.wave_of.assign(static_cast<std::size_t>(S), -1);
  plan.shard_scenarios.assign(static_cast<std::size_t>(num_shards), {});
  plan.shard_capacity.assign(static_cast<std::size_t>(num_shards), 0);

  // Shard assignment: roots round-robin in scenario order, children follow
  // their parent (chaining is an on-device copy within one shard's state).
  int next_root_shard = 0;
  for (int s = 0; s < S; ++s) {
    const int parent = scenarios[static_cast<std::size_t>(s)].chain_from;
    int shard = 0;
    if (parent < 0) {
      shard = next_root_shard;
      next_root_shard = (next_root_shard + 1) % num_shards;
    } else {
      require(parent < s, "BatchPlan: chain_from must reference an earlier scenario");
      shard = plan.shard_of[static_cast<std::size_t>(parent)];
    }
    plan.shard_of[static_cast<std::size_t>(s)] = shard;
    plan.shard_scenarios[static_cast<std::size_t>(shard)].push_back(s);
  }

  plan.wave_shards.assign(waves.size(), {});
  for (std::size_t d = 0; d < waves.size(); ++d) {
    auto& shards = plan.wave_shards[d];
    shards.assign(static_cast<std::size_t>(num_shards), {});
    for (const int s : waves[d]) {
      plan.wave_of[static_cast<std::size_t>(s)] = static_cast<int>(d);
      shards[static_cast<std::size_t>(plan.shard_of[static_cast<std::size_t>(s)])].push_back(s);
    }
  }

  if (ping_pong) {
    // Per-wave slots: scenario s occupies slot rank-within-(wave, shard) of
    // buffer wave_of[s] % 2; capacity is the shard's largest wave.
    for (const auto& shards : plan.wave_shards) {
      for (int shard = 0; shard < num_shards; ++shard) {
        const auto& group = shards[static_cast<std::size_t>(shard)];
        for (std::size_t j = 0; j < group.size(); ++j) {
          plan.slot_of[static_cast<std::size_t>(group[j])] = static_cast<int>(j);
        }
        plan.shard_capacity[static_cast<std::size_t>(shard)] =
            std::max(plan.shard_capacity[static_cast<std::size_t>(shard)],
                     static_cast<int>(group.size()));
      }
    }
  } else {
    // Persistent slots: rank within the shard, in scenario order.
    for (int shard = 0; shard < num_shards; ++shard) {
      const auto& owned = plan.shard_scenarios[static_cast<std::size_t>(shard)];
      for (std::size_t j = 0; j < owned.size(); ++j) {
        plan.slot_of[static_cast<std::size_t>(owned[j])] = static_cast<int>(j);
      }
      plan.shard_capacity[static_cast<std::size_t>(shard)] = static_cast<int>(owned.size());
    }
  }

  return plan;
}

}  // namespace gridadmm::scenario
