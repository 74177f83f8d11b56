// The crossbar side of a crossbar-driving annealer (InSituCimAnnealer,
// BifurcationAnnealer), built once per annealer: the logical-to-physical
// mapping and, for the analog engine, the programmed array plus one engine
// prototype.  The prototype's constructor solves the IR-drop MNA ladders;
// every run copy-constructs it and calls begin_run(seed), so runs share the
// immutable array (PERF.md invariant 1) and its solved attenuations and
// differ only in their counter-keyed noise streams (invariant 2).
#pragma once

#include <memory>
#include <optional>

#include "crossbar/analog_engine.hpp"
#include "crossbar/array_cache.hpp"
#include "crossbar/mapping.hpp"
#include "ising/ising_model.hpp"

namespace fecim::core {

struct CrossbarBackend {
  crossbar::CrossbarMapping mapping;
  /// Programmed array and engine prototype; both empty for the ideal engine.
  std::shared_ptr<const crossbar::ProgrammedArray> array;
  std::optional<crossbar::AnalogCrossbarEngine> prototype;
};

/// Quantizes `model`'s couplings once, derives the mapping, and -- when
/// `analog` -- programs the array (through `config.array_cache` when set:
/// identical inputs across annealers share one array, PERF.md invariant 8)
/// and constructs the engine prototype.  `Config` is InSituConfig or
/// SbConfig, which name their crossbar fields alike.
template <class Config>
CrossbarBackend build_crossbar_backend(const ising::IsingModel& model,
                                       const Config& config, bool analog) {
  const crossbar::QuantizedCouplings quantized(model.couplings(),
                                               config.mapping.bits);
  CrossbarBackend backend{
      crossbar::CrossbarMapping(model.num_spins(),
                                quantized.has_negative() ? 2 : 1,
                                config.mapping),
      nullptr, std::nullopt};
  if (!analog) return backend;
  backend.array =
      config.array_cache
          ? config.array_cache->get_or_build(
                quantized, backend.mapping, config.device, config.variation,
                config.array_seed, config.tiles)
          : std::make_shared<const crossbar::ProgrammedArray>(
                quantized, backend.mapping, config.device, config.variation,
                config.array_seed, config.tiles);
  backend.prototype.emplace(backend.array, config.analog);
  return backend;
}

}  // namespace fecim::core
