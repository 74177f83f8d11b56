// The paper's Max-Cut experiment -- four node groups on three annealers --
// behind Figs. 8, 9 and 10 and Table 1's measured row.  Each (group,
// annealer, instance) campaign runs once and every table derives from that
// one result set; Figs. 8(b) and 9(b) come from one traced run per
// annealer.  The paper's own numbers (kPaper) print beside the measured
// ones.  Exits non-zero, naming the campaign, when any run failed: a failed
// run would otherwise drop out of the means the figures print.
#include <algorithm>
#include <cstdio>
#include <iterator>

#include "bench_common.hpp"
#include "cost/cost_model.hpp"

using namespace fecim;

namespace {

using core::AnnealerKind;
using core::CampaignResult;

constexpr AnnealerKind kOurs = AnnealerKind::kThisWork;
constexpr AnnealerKind kFpga = AnnealerKind::kCimFpga;
constexpr AnnealerKind kAsic = AnnealerKind::kCimAsic;
constexpr AnnealerKind kKinds[] = {kOurs, kFpga, kAsic};

// Figs. 8(b) / 9(b): one traced run per annealer on instance 0 of the
// 1000-node group, at its budget, sampled every kCurveStride iterations.
constexpr std::size_t kCurveNodes = 1000;
constexpr std::size_t kCurveStride = 100;
constexpr std::uint64_t kCurveSeed = 123;

/// One (group, annealer) cell: its campaign on each instance, in order.
struct Cell {
  bench::NodeGroup group;
  AnnealerKind kind;
  cost::ExpUnit exp_unit;
  std::vector<CampaignResult> campaigns;

  /// Mean over the group's instances of a per-campaign value.
  template <typename Value>
  double mean(Value value) const {
    util::RunningStats stats;
    for (const auto& campaign : campaigns) stats.add(value(campaign));
    return stats.mean();
  }
};

struct Experiment {
  std::vector<Cell> cells;  ///< group-major, kKinds order within a group
  /// Per kind (kKinds order): the cost of each traced ledger snapshot.
  std::vector<std::vector<cost::CostBreakdown>> curves;

  const Cell& cell(std::size_t nodes, AnnealerKind kind) const {
    const auto it =
        std::find_if(cells.begin(), cells.end(), [&](const Cell& c) {
          return c.group.nodes == nodes && c.kind == kind;
        });
    FECIM_ASSERT(it != cells.end());
    return *it;
  }
};

std::vector<cost::CostBreakdown> traced_curve(
    AnnealerKind kind, const core::ProblemInstance& instance,
    core::StandardSetup setup) {
  setup.trace.enabled = true;
  setup.trace.stride = kCurveStride;
  const auto annealer = core::make_annealer(kind, instance.model, setup);
  std::vector<cost::CostBreakdown> curve;
  for (const auto& snapshot : annealer->run(kCurveSeed).ledger_trajectory)
    curve.push_back(cost::compute_cost(snapshot.ledger, cost::ComponentCosts{},
                                       annealer->exp_unit()));
  return curve;
}

/// Builds every instance once and runs every campaign once, instance i with
/// base seed 17 + i.
Experiment run_experiment() {
  Experiment experiment;
  for (const auto& group : bench::node_groups()) {
    const std::size_t first = experiment.cells.size();
    for (const auto kind : kKinds)
      experiment.cells.push_back({group, kind, cost::ExpUnit::kNone, {}});
    core::StandardSetup setup;
    setup.iterations = group.iterations;
    for (std::size_t i = 0; i < group.instances; ++i) {
      const auto instance = bench::make_instance(group.nodes, i);
      for (std::size_t k = 0; k < std::size(kKinds); ++k) {
        auto& cell = experiment.cells[first + k];
        const auto annealer =
            core::make_annealer(cell.kind, instance.model, setup);
        cell.exp_unit = annealer->exp_unit();
        cell.campaigns.push_back(core::run_campaign(
            *annealer, instance, bench::campaign_config(17 + i)));
      }
      if (group.nodes == kCurveNodes && i == 0)
        for (const auto kind : kKinds)
          experiment.curves.push_back(traced_curve(kind, instance, setup));
    }
  }
  return experiment;
}

/// Starts a figure row with the cell's group and annealer columns.
util::Table& cell_row(util::Table& table, const Cell& cell) {
  return table.row().add(cell.group.nodes).add(cell.group.iterations)
      .add(core::annealer_kind_name(cell.kind));
}

double energy(const CampaignResult& r) { return r.energy.mean(); }
double latency(const CampaignResult& r) { return r.time.mean(); }
double success(const CampaignResult& r) { return r.success_rate; }

void figure_8a(const Experiment& experiment) {
  std::printf("\n-- Fig. 8(a): average energy per run --\n");
  util::Table table({"nodes", "iters", "annealer", "energy/run", "ADC share",
                     "e^x share", "reduction vs this work"});
  double ours = 0.0;
  for (const auto& cell : experiment.cells) {
    const double mean = cell.mean(energy);
    if (cell.kind == kOurs) ours = mean;
    cell_row(table, cell)
        .add(util::si_format(mean, "J"))
        .add(util::si_format(
            cell.mean([](const auto& r) { return r.adc_energy.mean(); }), "J"))
        .add(util::si_format(
            cell.mean([](const auto& r) { return r.exp_energy.mean(); }), "J"))
        .add(mean / ours, 1);
  }
  std::printf("%s", table.str().c_str());
}

void figure_9a(const Experiment& experiment) {
  std::printf("\n-- Fig. 9(a): average time cost per run --\n");
  util::Table table({"nodes", "iters", "annealer", "time/run",
                     "ADC sense time", "reduction vs this work"});
  double ours = 0.0;
  for (const auto& cell : experiment.cells) {
    const double mean = cell.mean(latency);
    if (cell.kind == kOurs) ours = mean;
    // The slot-serialized ADC share dominates both designs.
    const double adc_time = cell.mean([&](const CampaignResult& r) {
      return cost::compute_cost(r.total_ledger, cost::ComponentCosts{},
                                cell.exp_unit)
                 .adc_time /
             static_cast<double>(r.runs);
    });
    cell_row(table, cell)
        .add(util::si_format(mean, "s"))
        .add(util::si_format(adc_time, "s"))
        .add(mean / ours, 2);
  }
  std::printf("%s", table.str().c_str());
}

/// Figs. 8(b) / 9(b): one column per annealer, one row per traced snapshot.
void curve_figure(const Experiment& experiment, const char* title,
                  const char* unit, double cost::CostBreakdown::*total) {
  std::printf("\n-- %s vs iteration, %zu-node instance --\n", title,
              kCurveNodes);
  std::vector<std::string> header{"iteration"};
  for (const auto kind : kKinds)
    header.push_back(std::string(core::annealer_kind_name(kind)) + " [" +
                     unit + "]");
  util::Table table(header);
  for (std::size_t point = 0; point < experiment.curves[0].size(); ++point) {
    table.row().add(point * kCurveStride);
    for (const auto& curve : experiment.curves)
      table.add(util::si_format(curve[point].*total, unit));
  }
  std::printf("%s", table.str().c_str());
}

void figure_10(const Experiment& experiment) {
  std::printf("\n-- Fig. 10: normalized cut values and success rates --\n");
  util::Table table({"nodes", "iters", "annealer", "norm. cut (mean)",
                     "norm. cut (min)", "success rate"});
  for (const auto& cell : experiment.cells) {
    double min_norm = 1.0;
    for (const auto& r : cell.campaigns)
      min_norm = std::min(min_norm, r.normalized.min());
    cell_row(table, cell)
        .add(cell.mean([](const auto& r) { return r.normalized.mean(); }), 3)
        .add(min_norm, 3)
        .add(cell.mean(success) * 100.0, 0);
  }
  std::printf("%s", table.str().c_str());
  std::printf("target cut = 90 %% of the best-known value per instance "
              "(certified optimum for the toroidal 3000-node family).\n");
  std::printf("paper: baselines clear the bar only on the 2000/3000-node "
              "groups, where the budget is >= 10k iterations.\n");
}

void table_1(const Experiment& experiment) {
  std::printf("\n-- Table 1: COP solver summary --\n");
  const auto& ours = experiment.cell(3000, kOurs);
  util::Table table({"solver", "COP", "complexity", "e^x", "crossbar",
                     "problem size", "time-to-sol", "energy-to-sol",
                     "success"});
  table.row().add("[39] memristor Hopfield").add("Max-Cut").add("O(n^2)")
      .add("yes").add("memristor").add("60").add("6.6 us").add("0.07 uJ")
      .add("65 %*");
  table.row().add("[7] FeFET CiM annealer").add("graph coloring")
      .add("O(n^2)").add("yes").add("FeFET").add("21").add("5.1 us")
      .add("0.2 uJ").add("-");
  table.row().add("[13] ReRAM SA").add("knapsack").add("O(n^2)").add("yes")
      .add("RRAM").add("10").add("3.8 us").add("-").add("92.4 %*");
  table.row().add("[15] HyCiM").add("quadratic knapsack").add("O(n^2)")
      .add("yes").add("FeFET").add("100").add("1.3 ms").add("2.1 uJ")
      .add("98.54 %*");
  table.row().add("[14] C-Nash").add("Nash equilibrium").add("O(n^2)")
      .add("yes").add("FeFET").add("104").add("0.08 s").add("-")
      .add("81.9 %*");
  table.row().add("This work (measured)").add("Max-Cut").add("O(n)")
      .add("no").add("DG FeFET").add("3000")
      .add(util::si_format(ours.mean(latency), "s"))
      .add(util::si_format(ours.mean(energy), "J"))
      .add(std::to_string(static_cast<int>(ours.mean(success) * 100)) +
           " %");
  std::printf("%s", table.str().c_str());
  std::printf("* literature rows reprinted from the paper (Table 1); the "
              "last row is measured by this repository.\n");
}

/// A number the paper reports: `metric` of `kind` on the `nodes` group (0 =
/// the mean over the groups).  Unit "x" makes it a reduction: the ratio of
/// `kind`'s metric to This Work's on the same group.
struct PaperValue {
  const char* figure;
  const char* quantity;
  AnnealerKind kind;
  std::size_t nodes;
  double (*metric)(const CampaignResult&);
  const char* unit;  ///< "x", "%", or an SI unit
  double paper;
};

constexpr PaperValue kPaper[] = {
    {"Fig. 8(a)", "energy reduction", kFpga, 800, energy, "x", 732},
    {"Fig. 8(a)", "energy reduction", kFpga, 1000, energy, "x", 833},
    {"Fig. 8(a)", "energy reduction", kFpga, 2000, energy, "x", 1300},
    {"Fig. 8(a)", "energy reduction", kFpga, 3000, energy, "x", 1716},
    {"Fig. 8(a)", "energy reduction", kAsic, 800, energy, "x", 401},
    {"Fig. 8(a)", "energy reduction", kAsic, 1000, energy, "x", 505},
    {"Fig. 8(a)", "energy reduction", kAsic, 2000, energy, "x", 1005},
    {"Fig. 8(a)", "energy reduction", kAsic, 3000, energy, "x", 1503},
    {"Fig. 9(a)", "time reduction", kFpga, 800, latency, "x", 8.01},
    {"Fig. 9(a)", "time reduction", kFpga, 1000, latency, "x", 8.05},
    {"Fig. 9(a)", "time reduction", kFpga, 2000, latency, "x", 8.10},
    {"Fig. 9(a)", "time reduction", kFpga, 3000, latency, "x", 8.15},
    {"Fig. 9(a)", "time reduction", kAsic, 800, latency, "x", 7.98},
    {"Fig. 9(a)", "time reduction", kAsic, 1000, latency, "x", 8.02},
    {"Fig. 9(a)", "time reduction", kAsic, 2000, latency, "x", 8.04},
    {"Fig. 9(a)", "time reduction", kAsic, 3000, latency, "x", 8.08},
    {"Fig. 10", "average success rate", kOurs, 0, success, "%", 0.98},
    {"Fig. 10", "average success rate", kFpga, 0, success, "%", 0.50},
    {"Table 1", "time-to-solution", kOurs, 3000, latency, "s", 4.6e-3},
    {"Table 1", "energy-to-solution", kOurs, 3000, energy, "J", 0.9e-6},
    {"Table 1", "success rate", kOurs, 3000, success, "%", 0.98},
};

double measured(const PaperValue& value, const Experiment& experiment) {
  util::RunningStats over_groups;
  for (const auto& cell : experiment.cells) {
    if (cell.kind != value.kind ||
        (value.nodes != 0 && cell.group.nodes != value.nodes))
      continue;
    double x = cell.mean(value.metric);
    if (std::string_view(value.unit) == "x")
      x /= experiment.cell(cell.group.nodes, kOurs).mean(value.metric);
    over_groups.add(x);
  }
  return over_groups.mean();
}

std::string format(const PaperValue& value, double x) {
  char buffer[32];
  if (std::string_view(value.unit) == "x")
    std::snprintf(buffer, sizeof buffer, "%.2fx", x);
  else if (std::string_view(value.unit) == "%")
    std::snprintf(buffer, sizeof buffer, "%.0f %%", 100.0 * x);
  else
    return util::si_format(x, value.unit);
  return buffer;
}

void paper_values(const Experiment& experiment) {
  std::printf("\n-- measured vs paper --\n");
  util::Table table(
      {"figure", "quantity", "annealer", "nodes", "measured", "paper"});
  for (const auto& value : kPaper)
    table.row()
        .add(value.figure)
        .add(value.quantity)
        .add(core::annealer_kind_name(value.kind))
        .add(value.nodes == 0 ? std::string("mean")
                              : std::to_string(value.nodes))
        .add(format(value, measured(value, experiment)))
        .add(format(value, value.paper));
  std::printf("%s", table.str().c_str());
}

}  // namespace

int main() {
  bench::print_header(
      "PAPER MAXCUT -- Figs. 8, 9, 10 and Table 1 from one campaign set");
  const auto experiment = run_experiment();
  for (const auto& cell : experiment.cells)
    for (std::size_t i = 0; i < cell.campaigns.size(); ++i)
      if (cell.campaigns[i].completed < cell.campaigns[i].runs) {
        std::fprintf(stderr,
                     "bench_paper_maxcut: campaign n%zu-i%zu / %s completed "
                     "%zu of %zu runs\n",
                     cell.group.nodes, i, core::annealer_kind_name(cell.kind),
                     cell.campaigns[i].completed, cell.campaigns[i].runs);
        return 1;
      }

  figure_8a(experiment);
  curve_figure(experiment, "Fig. 8(b): energy", "J",
               &cost::CostBreakdown::total_energy);
  std::printf("paper: baselines grow rapidly and linearly; this work's "
              "slope is ~n/|F| (x the e^x saving) smaller.\n");
  figure_9a(experiment);
  curve_figure(experiment, "Fig. 9(b): time", "s",
               &cost::CostBreakdown::total_time);
  std::printf("paper: the two baselines overlap (ADC-dominated); this work "
              "is ~8x below them.\n");
  figure_10(experiment);
  table_1(experiment);
  paper_values(experiment);
  return 0;
}
