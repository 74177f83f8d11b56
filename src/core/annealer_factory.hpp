// Convenience factory assembling every annealer kind from one shared setup:
// the three the paper evaluates (Sec. 4) -- "this work" (DG FeFET in-situ,
// fractional factor, no e^x unit) and the two direct-E baselines (FeFET CiM
// + FPGA or ASIC exponential unit [7, 18]) -- plus the in-situ ablation with
// exact arithmetic, the multi-epoch direct-E baseline MESA [7] and the two
// simulated-bifurcation variants.
#pragma once

#include <memory>

#include "core/annealer.hpp"
#include "core/insitu_annealer.hpp"

namespace fecim::core {

enum class AnnealerKind {
  kThisWork,       ///< analog DG FeFET engine (default evaluation target)
  kThisWorkIdeal,  ///< in-situ dataflow with exact arithmetic (ablation)
  kCimFpga,        ///< direct-E baseline, FPGA exponential unit
  kCimAsic,        ///< direct-E baseline, ASIC exponential unit
  kMesa,           ///< MESA multi-epoch baseline [7] (extension)
  kSbBallistic,    ///< ballistic simulated bifurcation on the analog array
  kSbDiscrete      ///< discrete simulated bifurcation on the analog array
};

struct StandardSetup {
  std::size_t iterations = 1000;
  std::size_t flips_per_iteration = 2;   ///< |F| for the in-situ annealer
  double acceptance_gain = 16.0;         ///< comparator scaling (in-situ)
  int bits = 8;                          ///< weight quantization
  /// Physical tile grid (max rows/columns per tile, 0 = unbounded =
  /// monolithic).  Applies to every annealer kind: the in-situ engines
  /// execute over the grid (per-tile sensing, digital partial-sum
  /// accumulation), the direct-E baselines account for it.
  crossbar::TileShape tiles{};
  device::DgFefetParams device{};
  /// Mild programming variation + read noise by default: the evaluation's
  /// robustness claim is made *with* device non-idealities on.
  device::VariationParams variation{0.03, 0.02, 0.0, 0.0};
  /// Optional digest-keyed programmed-array cache shared across annealers
  /// (see InSituConfig::array_cache); used by the crossbar-driving kinds
  /// (in-situ and simulated bifurcation).
  std::shared_ptr<crossbar::ArrayCache> array_cache;
  /// Simulated-bifurcation dynamics knobs (the kSb* kinds only).  For SB,
  /// `iterations` above is the STEP budget -- each step performs one field
  /// readout per spin, so a step costs ~n in-situ iterations.
  double sb_dt = 0.5;
  double sb_a0 = 1.0;
  double sb_c0 = 0.0;  ///< 0 = auto-calibrate (BifurcationAnnealer)
  /// Warm start shared by every kind: runs copy this configuration (SB
  /// additionally biases its oscillator positions toward it) instead of
  /// drawing random spins.  Null = random initialization.
  std::shared_ptr<const ising::SpinVector> initial_spins;
  TraceOptions trace{};
};

std::unique_ptr<Annealer> make_annealer(
    AnnealerKind kind, std::shared_ptr<const ising::IsingModel> model,
    const StandardSetup& setup);

/// Display name used by bench tables.
const char* annealer_kind_name(AnnealerKind kind) noexcept;

}  // namespace fecim::core
