// Shared scaffolding for the figure/table reproduction binaries: the
// paper's Max-Cut node groups, their instances and the campaign config.
// bench_paper_maxcut runs every (group, annealer, instance) campaign once
// and derives Figs. 8-10 and Table 1 from that result set; the ablation
// benches reuse the same instances.
//
// Default scale keeps `for b in build/bench/*; do $b; done` fast; set
// FECIM_FULL=1 for the paper's full campaign (9/9/9/3 instances, 100
// Monte-Carlo runs per instance).  FECIM_RUNS / FECIM_INSTANCES override
// individual knobs.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/annealer_factory.hpp"
#include "core/runner.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace fecim::bench {

struct NodeGroup {
  std::size_t nodes;
  std::size_t instances;
  std::size_t iterations;  ///< paper Sec. 4.1 budgets
};

/// The paper's four Max-Cut groups: 800/1000/2000/3000 nodes with
/// 700/1000/10k/100k iterations.
inline std::vector<NodeGroup> node_groups() {
  const bool full = util::full_reproduction_mode();
  const auto instances_override = util::env_int("FECIM_INSTANCES", 0);
  auto pick = [&](std::size_t paper, std::size_t reduced) {
    if (instances_override > 0)
      return static_cast<std::size_t>(instances_override);
    return full ? paper : reduced;
  };
  return {
      {800, pick(9, 3), 700},
      {1000, pick(9, 3), 1000},
      {2000, pick(9, 3), 10000},
      {3000, pick(3, 2), 100000},
  };
}

inline std::size_t runs_per_instance() {
  const auto override_runs = util::env_int("FECIM_RUNS", 0);
  if (override_runs > 0) return static_cast<std::size_t>(override_runs);
  return util::full_reproduction_mode() ? 100 : 10;
}

/// Deterministic instance seed: group size + index.
inline std::uint64_t instance_seed(std::size_t nodes, std::size_t index) {
  return nodes * 1000003ULL + index;
}

/// Max-Cut benchmark instance for a (group size, index) pair, built through
/// the shared ProblemInstance factory (same reference-restart policy as the
/// paper harness; no duplicated construction logic in the benches).
inline core::ProblemInstance make_instance(std::size_t nodes,
                                           std::size_t index) {
  const auto seed = instance_seed(nodes, index);
  auto graph = problems::gset_like_instance(nodes, seed);
  const std::size_t restarts = util::full_reproduction_mode() ? 64 : 24;
  return problems::make_maxcut_problem(
      "n" + std::to_string(nodes) + "-i" + std::to_string(index),
      std::move(graph), restarts, seed);
}

inline core::CampaignConfig campaign_config(std::uint64_t base_seed) {
  core::CampaignConfig config;
  config.runs = runs_per_instance();
  config.base_seed = base_seed;
  return config;
}

inline void print_header(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("mode: %s (FECIM_FULL=1 for the paper-scale campaign)\n",
              util::full_reproduction_mode() ? "FULL" : "reduced");
  std::printf("==============================================================\n");
}

}  // namespace fecim::bench
