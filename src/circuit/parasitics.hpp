// DESTINY-like wiring parasitic estimator [37] for the crossbar array at a
// 22 nm-class metal stack: per-segment R/C from the cell pitch, Elmore
// delay of the source/data lines, and the worst-case IR-drop attenuation
// used by the analog crossbar engine's fast path.
#pragma once

#include <cstddef>

namespace fecim::circuit {

struct WireTech {
  double r_per_um = 4.0;      ///< wire resistance [ohm/um] (22 nm Mx level)
  double c_per_um = 0.20e-15; ///< wire capacitance [F/um]
  double cell_pitch_um = 0.25;///< crossbar cell pitch [um]
};

struct ParasiticEstimate {
  double segment_resistance;   ///< per-cell wire segment [ohm]
  double segment_capacitance;  ///< per-cell wire segment [F]
  double line_resistance;      ///< full line (rows cells) [ohm]
  double line_capacitance;     ///< full line [F]
  double elmore_delay;         ///< distributed RC: 0.5 R C [s]
  double ir_attenuation;       ///< worst-case sensed-current factor in (0, 1]
};

/// Parasitics of a source line with `cells_per_line` cells, each able to
/// sink up to `max_cell_current` at `drive_voltage` (linearized device).
ParasiticEstimate estimate_line_parasitics(std::size_t cells_per_line,
                                           double max_cell_current,
                                           double drive_voltage,
                                           const WireTech& tech = {});

/// First-order worst-case IR attenuation of a current-summing line: every
/// cell on, uniform per-cell conductance g = i_cell / v_drive, wire segment
/// resistance r.  Returns sensed/ideal in (0, 1].  Memoized process-wide on
/// the exact inputs (thread-safe), so every engine and tile plan of a warm
/// process pays one ladder solve per distinct line height.
double ir_attenuation_factor(std::size_t cells, double r_segment,
                             double cell_current, double drive_voltage);

}  // namespace fecim::circuit
