#include "circuit/parasitics.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "circuit/mna.hpp"
#include "util/assert.hpp"

namespace fecim::circuit {

ParasiticEstimate estimate_line_parasitics(std::size_t cells_per_line,
                                           double max_cell_current,
                                           double drive_voltage,
                                           const WireTech& tech) {
  FECIM_EXPECTS(cells_per_line > 0);
  FECIM_EXPECTS(drive_voltage > 0.0);
  ParasiticEstimate est{};
  est.segment_resistance = tech.r_per_um * tech.cell_pitch_um;
  est.segment_capacitance = tech.c_per_um * tech.cell_pitch_um;
  est.line_resistance =
      est.segment_resistance * static_cast<double>(cells_per_line);
  est.line_capacitance =
      est.segment_capacitance * static_cast<double>(cells_per_line);
  // Distributed RC line Elmore delay ~ R C / 2.
  est.elmore_delay = 0.5 * est.line_resistance * est.line_capacitance;
  est.ir_attenuation = ir_attenuation_factor(
      cells_per_line, est.segment_resistance, max_cell_current, drive_voltage);
  return est;
}

double ir_attenuation_factor(std::size_t cells, double r_segment,
                             double cell_current, double drive_voltage) {
  FECIM_EXPECTS(cells > 0);
  FECIM_EXPECTS(drive_voltage > 0.0);
  FECIM_EXPECTS(r_segment >= 0.0);
  FECIM_EXPECTS(cell_current >= 0.0);
  if (r_segment == 0.0 || cell_current == 0.0) return 1.0;

  // Process-wide memo keyed on every input the ladder solve reads (the
  // doubles by bit pattern), so a hit returns exactly what a fresh solve
  // would.  The lock is not held during the solve; two threads missing on
  // the same key solve twice and store identical values.
  using Key =
      std::tuple<std::size_t, std::uint64_t, std::uint64_t, std::uint64_t>;
  const Key key{cells, std::bit_cast<std::uint64_t>(r_segment),
                std::bit_cast<std::uint64_t>(cell_current),
                std::bit_cast<std::uint64_t>(drive_voltage)};
  static std::mutex memo_mutex;
  static std::map<Key, double> memo;
  {
    const std::lock_guard<std::mutex> lock(memo_mutex);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
  }

  // Worst case: all cells conduct at the full on-current.  Solve the ladder
  // exactly with the MNA column network (throws, unmemoized, if CG fails).
  std::vector<double> currents(cells, cell_current);
  const double sensed =
      sense_column_current(currents, drive_voltage, r_segment);
  const double ideal = cell_current * static_cast<double>(cells);
  FECIM_ENSURES(sensed > 0.0);
  const double attenuation = std::min(1.0, sensed / ideal);
  const std::lock_guard<std::mutex> lock(memo_mutex);
  memo.emplace(key, attenuation);
  return attenuation;
}

}  // namespace fecim::circuit
