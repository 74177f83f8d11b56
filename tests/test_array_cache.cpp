// Digest-keyed programmed-array cache (crossbar/array_cache.hpp):
//
//  * array_digest is deterministic in its inputs and sensitive to every
//    key ingredient -- coupling content, quantization bits, mux ratio,
//    column interleave, device/variation parameters, variation seed, and
//    tile shape -- so two annealers share an array exactly when a fresh
//    build would be bit-identical (PERF.md invariants 1 and 2).
//  * get_or_build returns the *same* shared array for equal keys, evicts
//    in LRU order under a byte budget (never the most-recent entry), and
//    builds each digest exactly once under concurrent racing callers --
//    including a pool task waiting on a plain thread's in-flight build.
//  * End to end: campaigns run through a shared cache are bit-identical to
//    uncached campaigns, deterministic and noisy, monolithic and tiled.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/annealer_factory.hpp"
#include "core/runner.hpp"
#include "crossbar/array_cache.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"
#include "problems/maxcut.hpp"
#include "util/parallel.hpp"

namespace {

using namespace fecim;

struct ArrayInputs {
  std::shared_ptr<const ising::IsingModel> model;
  crossbar::QuantizedCouplings quantized;
  crossbar::CrossbarMapping mapping;
  device::DgFefetParams device{};
  device::VariationParams variation{0.03, 0.02, 0.0, 0.0};
  std::uint64_t seed = 0x5eed;
  crossbar::TileShape tiles{};
};

ArrayInputs make_inputs(std::size_t n = 48, std::uint64_t graph_seed = 7,
                        int bits = 8, std::size_t mux = 8,
                        bool interleave = true) {
  auto model = std::make_shared<const ising::IsingModel>(
      problems::maxcut_to_ising(problems::random_graph(
          n, 5.0, problems::WeightScheme::kPlusMinusOne, graph_seed)));
  crossbar::QuantizedCouplings quantized(model->couplings(), bits);
  const bool negative = quantized.has_negative();
  crossbar::CrossbarMapping mapping(
      model->num_spins(), negative ? 2 : 1,
      crossbar::MappingConfig{bits, mux, interleave});
  return ArrayInputs{std::move(model), std::move(quantized),
                     std::move(mapping)};
}

crossbar::ArrayDigest digest_of(const ArrayInputs& in) {
  return crossbar::array_digest(in.quantized, in.mapping.config(), in.device,
                                in.variation, in.seed, in.tiles);
}

// ---------------------------------------------------------------------------
// Digest determinism and sensitivity.
// ---------------------------------------------------------------------------

TEST(ArrayDigest, DeterministicAcrossIndependentConstructions) {
  const auto a = make_inputs();
  const auto b = make_inputs();
  EXPECT_EQ(digest_of(a), digest_of(b));
}

TEST(ArrayDigest, SensitiveToEveryKeyIngredient) {
  const auto base = make_inputs();
  const auto base_digest = digest_of(base);

  // Different coupling content (another graph seed).
  EXPECT_NE(digest_of(make_inputs(48, 8)), base_digest);

  // Quantization bits.
  EXPECT_NE(digest_of(make_inputs(48, 7, 6)), base_digest);

  // Mux ratio and column interleave are mapping-layout key material.
  EXPECT_NE(digest_of(make_inputs(48, 7, 8, 4)), base_digest);
  EXPECT_NE(digest_of(make_inputs(48, 7, 8, 8, false)), base_digest);

  // Programming-time variation seed and parameters.
  {
    auto in = make_inputs();
    in.seed = base.seed + 1;
    EXPECT_NE(digest_of(in), base_digest);
  }
  {
    auto in = make_inputs();
    in.variation.vth_sigma = 0.05;
    EXPECT_NE(digest_of(in), base_digest);
  }
  {
    auto in = make_inputs();
    in.variation.stuck_off_rate = 0.01;
    EXPECT_NE(digest_of(in), base_digest);
  }

  // Device compact-model parameters feed the cell multipliers.
  {
    auto in = make_inputs();
    in.device.vth_high += 0.01;
    EXPECT_NE(digest_of(in), base_digest);
  }

  // Tile shape changes the band-local cache layout.
  {
    auto in = make_inputs();
    in.tiles = crossbar::TileShape{16, 0};
    EXPECT_NE(digest_of(in), base_digest);
  }
}

// ---------------------------------------------------------------------------
// Hit/miss behavior and sharing.
// ---------------------------------------------------------------------------

TEST(ArrayCache, EqualKeysShareOneArray) {
  const auto in = make_inputs();
  crossbar::ArrayCache cache;
  const auto first = cache.get_or_build(in.quantized, in.mapping, in.device,
                                        in.variation, in.seed, in.tiles);
  const auto second = cache.get_or_build(in.quantized, in.mapping, in.device,
                                         in.variation, in.seed, in.tiles);
  EXPECT_EQ(first.get(), second.get());  // pointer identity, not just value
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GE(stats.build_seconds, 0.0);
}

TEST(ArrayCache, DifferentSeedsBuildDistinctArrays) {
  auto in = make_inputs();
  crossbar::ArrayCache cache;
  const auto a = cache.get_or_build(in.quantized, in.mapping, in.device,
                                    in.variation, in.seed, in.tiles);
  const auto b = cache.get_or_build(in.quantized, in.mapping, in.device,
                                    in.variation, in.seed + 1, in.tiles);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// LRU eviction under a byte budget.
// ---------------------------------------------------------------------------

TEST(ArrayCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  const auto in = make_inputs();
  // Budget of one byte: every insertion overflows, so after each build only
  // the most-recent entry survives (eviction never drops the newest).
  crossbar::ArrayCache cache(1);
  const auto a = cache.get_or_build(in.quantized, in.mapping, in.device,
                                    in.variation, 1, in.tiles);
  EXPECT_EQ(cache.stats().entries, 1u);
  const auto b = cache.get_or_build(in.quantized, in.mapping, in.device,
                                    in.variation, 2, in.tiles);
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);

  // Seed 1 was evicted: re-requesting it is a fresh build (a third miss),
  // not a hit -- and the evicted shared_ptr `a` stayed fully usable.
  EXPECT_GT(a->num_programmed_entries(), 0u);
  const auto a_again = cache.get_or_build(in.quantized, in.mapping, in.device,
                                          in.variation, 1, in.tiles);
  EXPECT_NE(a.get(), a_again.get());
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);

  // Requesting the resident digest is still a hit.
  const auto again = cache.get_or_build(in.quantized, in.mapping, in.device,
                                        in.variation, 1, in.tiles);
  EXPECT_EQ(a_again.get(), again.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  (void)b;
}

TEST(ArrayCache, GenerousBudgetKeepsEverythingResident) {
  const auto in = make_inputs();
  crossbar::ArrayCache cache;  // default budget: far above three small arrays
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    cache.get_or_build(in.quantized, in.mapping, in.device, in.variation,
                       seed, in.tiles);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, cache.byte_budget());
}

// ---------------------------------------------------------------------------
// Concurrent get-or-build: one build per digest, no torn state.
// ---------------------------------------------------------------------------

TEST(ArrayCache, ConcurrentRequestsBuildEachDigestOnce) {
  const auto in = make_inputs(96);
  crossbar::ArrayCache cache;
  constexpr std::size_t kCallers = 16;
  constexpr std::size_t kDigests = 2;
  std::vector<std::shared_ptr<const crossbar::ProgrammedArray>> arrays(
      kCallers);
  util::parallel_for(kCallers, [&](std::size_t i) {
    arrays[i] = cache.get_or_build(in.quantized, in.mapping, in.device,
                                   in.variation, 100 + i % kDigests,
                                   in.tiles);
  });
  for (std::size_t i = 0; i < kCallers; ++i) {
    ASSERT_TRUE(arrays[i]);
    EXPECT_EQ(arrays[i].get(), arrays[i % kDigests].get());
  }
  EXPECT_NE(arrays[0].get(), arrays[1].get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, kDigests);  // misses == actual builds
  EXPECT_EQ(stats.hits, kCallers - kDigests);
  EXPECT_EQ(stats.entries, kDigests);
}

TEST(ArrayCache, PoolTaskWaitingOnInFlightBuildDoesNotDeadlock) {
  // A plain thread programs an array -- whose variation draw and column
  // cache fan out with parallel_for -- while a pool task of another
  // parallel_for requests the same digest and so waits on that in-flight
  // build.  The build's fan-out must not queue behind the pool job holding
  // the waiting task.  The request runs on a helper thread so the task's
  // wait can be bounded: a deadlock fails the test instead of hanging it.
  using namespace std::chrono_literals;
  const auto in = make_inputs(400);
  crossbar::ArrayCache cache;
  auto build = [&] {
    return cache.get_or_build(in.quantized, in.mapping, in.device,
                              in.variation, in.seed, in.tiles);
  };
  std::promise<void> task_started;
  auto started = task_started.get_future();
  std::shared_ptr<const crossbar::ProgrammedArray> built;
  std::thread builder([&] {
    if (started.wait_for(10s) == std::future_status::ready) built = build();
  });
  std::future<std::shared_ptr<const crossbar::ProgrammedArray>> request;
  auto status = std::future_status::timeout;
  util::parallel_for(
      2,
      [&](std::size_t i) {
        if (i != 0) return;
        task_started.set_value();
        // Request only once the builder's build is registered in flight.
        const auto deadline = std::chrono::steady_clock::now() + 10s;
        while (cache.stats().misses == 0 &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
        request = std::async(std::launch::async, build);
        status = request.wait_for(10s);
      },
      2);
  builder.join();
  ASSERT_EQ(status, std::future_status::ready);
  ASSERT_TRUE(built);
  EXPECT_EQ(request.get().get(), built.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: cached campaigns are bit-identical to uncached campaigns.
// ---------------------------------------------------------------------------

void expect_bit_identical(const core::CampaignResult& a,
                          const core::CampaignResult& b) {
  ASSERT_EQ(a.per_run.size(), b.per_run.size());
  for (std::size_t i = 0; i < a.per_run.size(); ++i) {
    EXPECT_EQ(a.per_run[i].seed, b.per_run[i].seed);
    EXPECT_EQ(a.per_run[i].best_energy, b.per_run[i].best_energy) << i;
    EXPECT_EQ(a.per_run[i].best_spins, b.per_run[i].best_spins) << i;
    EXPECT_EQ(a.per_run[i].solution.objective, b.per_run[i].solution.objective)
        << i;
  }
}

void check_cached_campaign_identity(const device::VariationParams& variation,
                                    const crossbar::TileShape& tiles) {
  auto problem = problems::make_maxcut_problem(
      "cache-identity",
      problems::random_graph(40, 5.0, problems::WeightScheme::kPlusMinusOne,
                             11),
      40, 11);
  core::StandardSetup setup;
  setup.iterations = 300;
  setup.variation = variation;
  setup.tiles = tiles;
  core::CampaignConfig config;
  config.runs = 4;

  const auto uncached = core::make_annealer(core::AnnealerKind::kThisWork,
                                            problem.model, setup);
  const auto baseline = core::run_campaign(*uncached, problem, config);

  // Two annealers through one cache: the second shares the first's array.
  setup.array_cache = std::make_shared<crossbar::ArrayCache>();
  const auto cached_a = core::make_annealer(core::AnnealerKind::kThisWork,
                                            problem.model, setup);
  const auto cached_b = core::make_annealer(core::AnnealerKind::kThisWork,
                                            problem.model, setup);
  expect_bit_identical(baseline, core::run_campaign(*cached_a, problem,
                                                    config));
  expect_bit_identical(baseline, core::run_campaign(*cached_b, problem,
                                                    config));
  const auto stats = setup.array_cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ArrayCache, CachedCampaignBitIdenticalDeterministic) {
  check_cached_campaign_identity(device::VariationParams{0.0, 0.0, 0.0, 0.0},
                                 crossbar::TileShape{});
}

TEST(ArrayCache, CachedCampaignBitIdenticalNoisy) {
  check_cached_campaign_identity(device::VariationParams{0.04, 0.02, 0.01,
                                                         0.0},
                                 crossbar::TileShape{});
}

TEST(ArrayCache, CachedCampaignBitIdenticalTiled) {
  check_cached_campaign_identity(device::VariationParams{0.03, 0.02, 0.0,
                                                         0.0},
                                 crossbar::TileShape{16, 16});
}

}  // namespace
