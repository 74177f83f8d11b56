#include "crossbar/programmed_array.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace fecim::crossbar {

namespace {

// Fan-out granularity of programming.  Every cell's and every slot's work is
// a pure function of its index, so these only partition the index ranges
// over pool tasks; no value depends on them.
constexpr std::size_t kCellsPerTask = 16384;
constexpr std::size_t kNormalBlock = 256;  // stack-resident normal batch
constexpr std::size_t kColumnsPerTask = 64;  // columns or (band, column) slots

}  // namespace

ProgrammedArray::ProgrammedArray(const QuantizedCouplings& couplings,
                                 const CrossbarMapping& mapping,
                                 const device::DgFefetParams& device_params,
                                 const device::VariationParams& variation,
                                 std::uint64_t seed, const TileShape& tiles)
    : couplings_(couplings),
      mapping_(mapping),
      device_params_(device_params),
      variation_(variation),
      tiles_(tiles),
      bands_(plan_row_bands(mapping.physical_rows(), tiles.rows)) {
  FECIM_EXPECTS(mapping_.num_spins() == couplings_.num_spins());
  FECIM_EXPECTS(mapping_.bits() == couplings_.bits());

  const auto bits = static_cast<std::size_t>(couplings_.bits());
  multipliers_.assign(couplings_.nonzeros() * bits, 1.0F);

  if (!variation_.ideal()) {
    // (absent-bit slots are zeroed below, after variation sampling, so the
    // per-cell noise-stream indexing stays a pure function of cell index)
    // Counter-keyed programming variation: cell c's fault roll and V_TH
    // offset are draws at index c of the kCellFault / kCellVth streams, so
    // a cell's programmed state is independent of array size and sampling
    // order (and reproducible in isolation for debugging).  The tile shape
    // never enters the cell index, so re-tiling an array does not reprogram
    // it: the same seed yields the same cells for every TileShape.  That
    // also makes the draw safe to fan out over fixed cell chunks.
    const util::NoiseStream fault_stream(seed, util::stream_site::kCellFault);
    const util::NoiseStream vth_stream(seed, util::stream_site::kCellVth);
    // Subthreshold translation of a V_TH offset into a current factor:
    // I ~ exp(-dVth / (n Vt)).
    const double v_slope = device_params_.transistor.slope_factor *
                           device_params_.transistor.thermal_voltage;
    const double sigma = variation_.vth_sigma;
    const double stuck_off = variation_.stuck_off_rate;
    const double stuck_any =
        variation_.stuck_off_rate + variation_.stuck_on_rate;
    // The roll is in [0, 1): with no positive threshold no cell can fault.
    const bool roll_faults = stuck_off > 0.0 || stuck_any > 0.0;
    const std::size_t cells = multipliers_.size();
    const std::size_t tasks = (cells + kCellsPerTask - 1) / kCellsPerTask;
    std::vector<std::size_t> task_faults(tasks, 0);
    util::parallel_for(tasks, [&](std::size_t task) {
      const std::size_t begin = task * kCellsPerTask;
      const std::size_t end = std::min(cells, begin + kCellsPerTask);
      float* mults = multipliers_.data();
      if (sigma > 0.0) {
        // normal_fill(base, z)[i] == normal(base + i), and
        // normal(c, 0, sigma) == 0.0 + sigma * normal(c).
        double z[kNormalBlock];
        for (std::size_t base = begin; base < end; base += kNormalBlock) {
          const std::size_t len = std::min(kNormalBlock, end - base);
          vth_stream.normal_fill(base, {z, len});
          for (std::size_t i = 0; i < len; ++i) {
            const double dvth = 0.0 + sigma * z[i];
            mults[base + i] = static_cast<float>(std::exp(-dvth / v_slope));
          }
        }
      }
      if (!roll_faults) return;
      // A faulted cell's state overrides its V_TH draw.
      std::size_t faults = 0;
      for (std::size_t cell = begin; cell < end; ++cell) {
        const double roll = fault_stream.uniform01(cell);
        if (roll < stuck_off) {
          mults[cell] = 0.0F;
          ++faults;
        } else if (roll < stuck_any) {
          mults[cell] = 1.0F;
          ++faults;
        }
      }
      task_faults[task] = faults;
    });
    for (const std::size_t faults : task_faults) faulted_ += faults;
  }

  // Zero the multiplier slots of bits a cell does not store: the stochastic
  // readout sweep can then accumulate every (cell, bit) unconditionally --
  // absent bits contribute exact +0.0 -- which removes the per-bit presence
  // branch from the hot loop and keeps it vectorizable.  bit_multiplier()
  // and multipliers() therefore report 0 for absent bits.
  for (std::size_t j = 0; j < couplings_.num_spins(); ++j) {
    const auto view = column(j);
    for (std::size_t k = 0; k < view.rows.size(); ++k) {
      const auto abs_mag =
          static_cast<std::uint32_t>(std::abs(view.magnitudes[k]));
      float* entry_mults = multipliers_.data() + (view.first_entry + k) * bits;
      for (std::size_t b = 0; b < bits; ++b)
        if (!(abs_mag & (1u << b))) entry_mults[b] = 0.0F;
    }
  }

  build_column_cache();
}

TilePlan ProgrammedArray::plan(const circuit::WireTech& wire) const {
  return plan_tiles(mapping_, tiles_, on_current(device_params_.vbg_max),
                    device_params_.read_vdl, wire);
}

void ProgrammedArray::build_column_cache() {
  const auto bits = static_cast<std::size_t>(couplings_.bits());
  const std::size_t n = couplings_.num_spins();
  const std::size_t num_bands = bands_.size();
  const std::size_t num_slots = num_bands * n;  // (band, column) slots
  FECIM_EXPECTS(bits >= 1 && bits <= 16);
  const std::uint32_t bit_mask = (std::uint32_t{1} << bits) - 1;
  const auto column_tasks = (n + kColumnsPerTask - 1) / kColumnsPerTask;
  const auto slot_tasks = (num_slots + kColumnsPerTask - 1) / kColumnsPerTask;

  segments_.assign(num_slots * bits * 2, SegmentRef{});
  class_ptr_.assign(num_slots + 1, 0);
  slot_ptr_.assign(num_slots + 1, 0);
  present_count_.assign(num_slots, 0);
  present_total_.assign(n, 0);
  present_union_.assign(n, 0);
  active_bands_.assign(n, 0);
  band_cell_ptr_.assign(n * (num_bands + 1), 0);
  // cell_ptr[slot + 1]: the slot's conducting-cell bound (sum of its cells'
  // stored-bit counts), prefix-summed below into each slot's staging range.
  std::vector<std::size_t> cell_ptr(num_slots + 1, 0);

  // Count pass, per column: band boundaries, then each (band, column)
  // slot's present (bit, plane) segments and conducting-cell bound.  Cells
  // within a column are stored in ascending row order, so each row band
  // owns one contiguous sub-range of the column's cells.
  util::parallel_for(column_tasks, [&](std::size_t task) {
    const std::size_t j_end = std::min(n, (task + 1) * kColumnsPerTask);
    for (std::size_t j = task * kColumnsPerTask; j < j_end; ++j) {
      const auto view = column(j);
      auto* ptr = band_cell_ptr_.data() + j * (num_bands + 1);
      std::uint32_t pos_union = 0;
      std::uint32_t neg_union = 0;
      std::size_t k = 0;
      for (std::size_t band = 0; band < num_bands; ++band) {
        ptr[band] = static_cast<std::uint32_t>(k);
        std::uint32_t pos = 0;  // bits present in plane 0 (positive)
        std::uint32_t neg = 0;  // bits present in plane 1 (negative)
        std::size_t conducting = 0;
        for (; k < view.rows.size() && view.rows[k] < bands_[band].row_end;
             ++k) {
          const std::int32_t mag = view.magnitudes[k];
          const auto abs_mag =
              static_cast<std::uint32_t>(std::abs(mag)) & bit_mask;
          (mag < 0 ? neg : pos) |= abs_mag;
          conducting += static_cast<std::size_t>(std::popcount(abs_mag));
        }
        const std::size_t slot = band * n + j;
        const auto present =
            static_cast<std::uint32_t>(std::popcount(pos) + std::popcount(neg));
        present_count_[slot] = present;
        cell_ptr[slot + 1] = conducting;
        present_total_[j] += present;
        if (present != 0) ++active_bands_[j];
        pos_union |= pos;
        neg_union |= neg;
      }
      ptr[num_bands] = static_cast<std::uint32_t>(k);
      FECIM_ASSERT(k == view.rows.size());
      present_union_[j] = static_cast<std::uint32_t>(
          std::popcount(pos_union) + std::popcount(neg_union));
    }
  });

  // Exact slot metadata sizes; classes (at most one per present segment)
  // and conducting cells get per-slot staging ranges at their bounds.
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    slot_ptr_[slot + 1] = slot_ptr_[slot] + present_count_[slot];
    cell_ptr[slot + 1] += cell_ptr[slot];
  }
  const std::size_t segment_total = slot_ptr_[num_slots];
  FECIM_EXPECTS(cell_ptr[num_slots] <= UINT32_MAX);
  slot_src_.resize(segment_total);
  slot_weight_.resize(segment_total);
  classes_.resize(segment_total);
  class_weights_.resize(segment_total);
  // Left unwritten (default-init allocator): with ideal devices most
  // classes dedup, so only a fraction of the bound is ever staged.
  cache_rows_.resize(cell_ptr[num_slots]);
  cache_mults_.resize(cell_ptr[num_slots]);
  // Per-slot staging results: cells kept (class counts go to class_ptr_).
  std::vector<std::uint32_t> cells_kept(num_slots, 0);

  // Staging pass, per (band, column) slot, writing only the slot's own
  // ranges (no allocation in the tasks).
  util::parallel_for(slot_tasks, [&](std::size_t task) {
    const std::size_t slot_end =
        std::min(num_slots, (task + 1) * kColumnsPerTask);
    for (std::size_t slot = task * kColumnsPerTask; slot < slot_end; ++slot) {
      const std::size_t band = slot / n;
      const std::size_t j = slot % n;
      const std::uint32_t row0 = bands_[band].row_begin;
      const auto view = column(j);
      const auto range = column_band_cells(band, j);
      SegmentRef* segs = segments_.data() + slot * bits * 2;
      SegmentClass* classes = classes_.data() + slot_ptr_[slot];
      double* class_weights = class_weights_.data() + slot_ptr_[slot];
      std::size_t num_classes = 0;
      std::size_t next_slot = slot_ptr_[slot];
      std::size_t cursor = cell_ptr[slot];
      for (std::size_t b = 0; b < bits; ++b) {
        for (int plane = 0; plane < 2; ++plane) {
          // Stage this segment's conducting cells at the cursor.
          const std::size_t start = cursor;
          bool present = false;
          bool all_unit = true;
          for (std::size_t k = range.begin; k < range.end; ++k) {
            const std::int32_t mag = view.magnitudes[k];
            const auto abs_mag = static_cast<std::uint32_t>(std::abs(mag));
            if (!(abs_mag & (1u << b))) continue;
            if ((mag < 0 ? 1 : 0) != plane) continue;
            present = true;
            const float m = multipliers_[(view.first_entry + k) * bits + b];
            if (m == 0.0F) continue;  // stuck-off: exact +0.0 contribution
            cache_rows_[cursor] = view.rows[k] - row0;  // band-relative
            cache_mults_[cursor] = m;
            ++cursor;
            all_unit &= m == 1.0F;
          }
          if (!present) continue;
          auto& seg = segs[b * 2 + static_cast<std::size_t>(plane)];
          seg.present = 1;

          // Dedupe against this slot's earlier classes: identical cell
          // lists (common under coarse quantization, universal for unit
          // weights) share one accumulation per evaluation.  A duplicate
          // rewinds the cursor over the cells just staged.
          const std::size_t len = cursor - start;
          std::size_t local = num_classes;
          for (std::size_t ci = 0; ci < num_classes; ++ci) {
            const auto& cand = classes[ci];
            if (cand.end - cand.begin != len) continue;
            bool match = true;
            for (std::size_t e = 0; e < len && match; ++e) {
              match = cache_rows_[cand.begin + e] == cache_rows_[start + e] &&
                      cache_mults_[cand.begin + e] == cache_mults_[start + e];
            }
            if (match) {
              local = ci;
              break;
            }
          }
          if (local == num_classes) {
            classes[local] = SegmentClass{static_cast<std::uint32_t>(start),
                                          static_cast<std::uint32_t>(cursor),
                                          static_cast<std::uint8_t>(all_unit)};
            class_weights[local] = 0.0;
            ++num_classes;
          } else {
            cursor = start;
          }
          // A (band, column) has at most bits * 2 <= 32 segments, so at
          // most 32 distinct classes -- the engine's accumulator banks rely
          // on this.
          FECIM_ASSERT(local < 32);
          seg.cls = static_cast<std::uint8_t>(local);
          const double weight =
              (plane == 0 ? 1.0 : -1.0) * static_cast<double>(1u << b);
          class_weights[local] += weight;
          // Compacted slot metadata (canonical order: this b-outer,
          // plane-inner loop IS the noise-cursor walk).
          slot_src_[next_slot] = static_cast<std::uint8_t>(
              static_cast<std::size_t>(plane) * bits + b);
          slot_weight_[next_slot] = weight;
          ++next_slot;
        }
      }
      FECIM_ASSERT(next_slot == slot_ptr_[slot + 1]);
      class_ptr_[slot + 1] = static_cast<std::uint32_t>(num_classes);
      cells_kept[slot] = static_cast<std::uint32_t>(cursor - cell_ptr[slot]);
    }
  });

  // Serial compaction in slot order: close the gaps between the slots'
  // staging ranges in place (every destination is at or below its source)
  // and rebase each class onto its compacted cells.
  std::size_t class_out = 0;
  std::size_t cell_out = 0;
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    const std::size_t kept = cells_kept[slot];
    const std::size_t shift = cell_ptr[slot] - cell_out;
    if (shift != 0 && kept != 0) {
      std::memmove(cache_rows_.data() + cell_out,
                   cache_rows_.data() + cell_ptr[slot],
                   kept * sizeof(std::uint32_t));
      std::memmove(cache_mults_.data() + cell_out,
                   cache_mults_.data() + cell_ptr[slot], kept * sizeof(float));
    }
    const std::size_t num_classes = class_ptr_[slot + 1];
    for (std::size_t ci = 0; ci < num_classes; ++ci) {
      SegmentClass cls = classes_[slot_ptr_[slot] + ci];
      cls.begin -= static_cast<std::uint32_t>(shift);
      cls.end -= static_cast<std::uint32_t>(shift);
      classes_[class_out + ci] = cls;
      class_weights_[class_out + ci] = class_weights_[slot_ptr_[slot] + ci];
    }
    class_out += num_classes;
    cell_out += kept;
    class_ptr_[slot + 1] = static_cast<std::uint32_t>(class_out);
  }
  classes_.resize(class_out);
  class_weights_.resize(class_out);
  cache_rows_.resize(cell_out);
  cache_mults_.resize(cell_out);
  classes_.shrink_to_fit();
  class_weights_.shrink_to_fit();
  cache_rows_.shrink_to_fit();
  cache_mults_.shrink_to_fit();
}

double ProgrammedArray::on_current(double vbg) const noexcept {
  return device::DgFefet::on_current(device_params_, vbg);
}

ProgrammedArray::ColumnView ProgrammedArray::column(std::size_t j) const {
  ColumnView view;
  view.rows = couplings_.column_rows(j);
  view.magnitudes = couplings_.column_values(j);
  // Entry index of the first element in this column: the spans are slices
  // of the underlying arrays, so recover the offset from pointers.
  view.first_entry = view.rows.empty()
                         ? 0
                         : static_cast<std::size_t>(
                               view.rows.data() -
                               couplings_.column_rows(0).data());
  return view;
}

double ProgrammedArray::bit_multiplier(std::size_t entry, int bit) const {
  const auto bits = static_cast<std::size_t>(couplings_.bits());
  const std::size_t index = entry * bits + static_cast<std::size_t>(bit);
  FECIM_EXPECTS(index < multipliers_.size());
  return multipliers_[index];
}

std::size_t ProgrammedArray::approx_bytes() const noexcept {
  auto vec_bytes = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  // The coupling copy's CSC arrays: sizes recoverable through the public
  // interface (col_ptr is n + 1 size_t entries, row/value arrays nonzeros
  // each).
  const std::size_t coupling_bytes =
      (couplings_.num_spins() + 1) * sizeof(std::size_t) +
      couplings_.nonzeros() * (sizeof(std::uint32_t) + sizeof(std::int32_t));
  return sizeof(*this) + coupling_bytes + vec_bytes(bands_) +
         vec_bytes(multipliers_) + vec_bytes(segments_) + vec_bytes(classes_) +
         vec_bytes(class_ptr_) + vec_bytes(cache_rows_) +
         vec_bytes(cache_mults_) + vec_bytes(class_weights_) +
         vec_bytes(present_count_) + vec_bytes(present_total_) +
         vec_bytes(present_union_) + vec_bytes(active_bands_) +
         vec_bytes(band_cell_ptr_) + vec_bytes(slot_src_) +
         vec_bytes(slot_weight_) + vec_bytes(slot_ptr_);
}

}  // namespace fecim::crossbar
