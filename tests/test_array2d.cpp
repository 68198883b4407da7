// R×C array build, op semantics, and the cell-grouped sparse ordering on
// its target workload: grouping the unaddressed rows' cells must not
// change what the array does, nor how hard Newton works under RTN.
#include "sram/array2d.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace samurai::sram {
namespace {

Array2dConfig small_array() {
  Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = 4;
  config.cols = 4;
  // Stored pattern: row r, column c holds (r + c) % 2.
  config.initial_bits.resize(16);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      config.initial_bits[r * 4 + c] = static_cast<int>((r + c) % 2);
    }
  }
  config.ops = {ArrayOp::write(1, {1, 0, 0, 1}), ArrayOp::read(1),
                ArrayOp::read(3)};
  return config;
}

/// Transient of the array on the sparse engine, with the ordering groups
/// as built or cleared (classic whole-matrix ordering).
spice::TransientResult run_array(const Array2dConfig& config, bool grouped,
                                 Array2dBuild* build_out = nullptr,
                                 bool fixed_steps = true) {
  spice::Circuit circuit;
  auto build = build_array2d(circuit, config);
  if (!grouped) circuit.set_ordering_groups({});
  spice::TransientOptions options = array2d_transient_options(config);
  options.solver = spice::SolverKind::kSparse;
  if (fixed_steps) {
    options.dt_initial = options.dt_max;
    options.lte_reltol = 1e9;
    options.lte_abstol = 1e9;
  }
  if (build_out) *build_out = std::move(build);
  return spice::transient(circuit, options);
}

TEST(Array2d, RejectsDegenerateConfigs) {
  Array2dConfig config = small_array();
  config.ops.clear();
  spice::Circuit c1;
  EXPECT_THROW(build_array2d(c1, config), std::invalid_argument);
  config = small_array();
  config.rows = 0;
  spice::Circuit c2;
  EXPECT_THROW(build_array2d(c2, config), std::invalid_argument);
  config = small_array();
  config.cols = 0;
  spice::Circuit c3;
  EXPECT_THROW(build_array2d(c3, config), std::invalid_argument);
}

TEST(Array2d, RejectsBadOps) {
  // A write word must be exactly one bit per column; ops must address an
  // existing row.
  Array2dConfig config = small_array();
  config.ops = {ArrayOp::write(0, {1, 0})};
  spice::Circuit c1;
  EXPECT_THROW(build_array2d(c1, config), std::invalid_argument);
  config = small_array();
  config.ops = {ArrayOp::read(9)};
  spice::Circuit c2;
  EXPECT_THROW(build_array2d(c2, config), std::invalid_argument);
}

TEST(Array2d, BuildsRowAndColumnRails) {
  spice::Circuit circuit;
  const auto build = build_array2d(circuit, small_array());
  ASSERT_EQ(build.cells.size(), 16u);
  ASSERT_EQ(build.wl.size(), 4u);
  ASSERT_EQ(build.bl.size(), 4u);
  EXPECT_TRUE(circuit.has_node("wl2"));
  EXPECT_TRUE(circuit.has_node("bl3"));
  EXPECT_TRUE(circuit.has_node("blb0"));
  EXPECT_TRUE(circuit.has_node("r2c3_q"));
  EXPECT_NE(circuit.find<spice::Mosfet>("MPC0_1"), nullptr);
  EXPECT_NE(circuit.find<spice::Mosfet>("MWD1_3"), nullptr);
  EXPECT_NE(circuit.find<spice::Mosfet>("r3c0_M5"), nullptr);
  EXPECT_NE(circuit.find<spice::Resistor>("r1c1_Rwl"), nullptr);
}

TEST(Array2d, RowOpsWriteWordsAndSenseEveryColumn) {
  // The write drives one bit per column on row 1; both reads sense all
  // four columns at once. Everything must land and nothing may disturb.
  const Array2dConfig config = small_array();
  Array2dBuild build;
  const auto result = run_array(config, /*grouped=*/true, &build, false);
  const auto report = check_array2d(result, config, build);
  EXPECT_FALSE(report.any_error);
  ASSERT_EQ(report.writes.size(), 4u);
  for (const auto& write : report.writes) EXPECT_TRUE(write.ok);
  ASSERT_EQ(report.reads.size(), 8u);
  // Slot 1 reads back the word written in slot 0; slot 2 reads row 3's
  // initial pattern (3 % 2, 4 % 2, ...).
  const int expected[8] = {1, 0, 0, 1, 1, 0, 1, 0};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(report.reads[i].sensed, expected[i]) << "read " << i;
    EXPECT_FALSE(report.reads[i].disturbed) << "read " << i;
    EXPECT_GT(report.reads[i].sense_margin, 0.02) << "read " << i;
  }
  ASSERT_EQ(report.column_worst_margin.size(), 4u);
  for (double margin : report.column_worst_margin) {
    EXPECT_GT(margin, 0.02);
    EXPECT_LE(margin, report.min_sense_margin + 1.0);
  }
  EXPECT_EQ(*std::min_element(report.column_worst_margin.begin(),
                              report.column_worst_margin.end()),
            report.min_sense_margin);
}

TEST(Array2d, OrderingGroupsCoverUnaddressedRowsOnly) {
  Array2dConfig config = small_array();  // ops address rows 1 and 3
  spice::Circuit circuit;
  build_array2d(circuit, config);
  // Rows 0 and 2 are unaddressed: one group of six private unknowns per
  // cell, in row-major order.
  const auto& groups = circuit.ordering_groups();
  ASSERT_EQ(groups.size(), 8u);
  for (const auto& group : groups) EXPECT_EQ(group.size(), 6u);
  EXPECT_EQ(groups[0][0], circuit.find_node("r0c0_q"));
  EXPECT_EQ(groups[4][0], circuit.find_node("r2c0_q"));
  EXPECT_EQ(groups[7][5], circuit.find_node("r2c3_wl"));

  // Address every row: nothing is left to group.
  config.ops.push_back(ArrayOp::read(0));
  config.ops.push_back(ArrayOp::read(2));
  spice::Circuit all_rows;
  build_array2d(all_rows, config);
  EXPECT_TRUE(all_rows.ordering_groups().empty());
}

TEST(Array2d, GroupedOrderingMatchesUngroupedWithinTolerance) {
  // The grouped ordering eliminates the unaddressed cells' interiors
  // first: a different, equally exact LU of the same Jacobian.
  const Array2dConfig config = small_array();
  Array2dBuild build;
  const auto ungrouped = run_array(config, /*grouped=*/false, &build);
  const auto grouped = run_array(config, /*grouped=*/true);
  const double t_end = ungrouped.times().back();
  // Selected-row storage, an unaddressed cell's storage, and shared rails.
  for (const std::string& node :
       {build.cells[1 * 4 + 2].q, build.cells[2 * 4 + 1].q, build.bl[0],
        build.blb[3]}) {
    double max_diff = 0.0;
    for (int i = 0; i <= 200; ++i) {
      const double t = t_end * i / 200.0;
      max_diff = std::max(max_diff, std::abs(ungrouped.voltage_at(node, t) -
                                             grouped.voltage_at(node, t)));
    }
    EXPECT_LT(max_diff, 2e-4) << "node " << node;
  }
  // The ordering is part of the symbolic analysis; steady stepping must
  // keep reusing it rather than re-analysing.
  EXPECT_LT(grouped.stats().sp_symbolic_analyses, 5u);
  EXPECT_FALSE(check_array2d(grouped, config, build).any_error);
}

TEST(Array2d, GroupedOrderingKeepsNewtonWorkUnderRtn) {
  // ×30 RTN on every cell's M5, rows 0 and 7 read, rows 1-6 grouped.
  // The grouped ordering must cost no Newton work and move no margin
  // against the classic ordering, through the same two-pass driver and
  // step settings as run_array2d_rtn.
  Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = 8;
  config.cols = 8;
  config.initial_bits.resize(64);
  for (std::size_t i = 0; i < 64; ++i) {
    config.initial_bits[i] = static_cast<int>((i / 8 + i % 8) % 2);
  }
  config.ops = {ArrayOp::read(0), ArrayOp::read(7)};
  spice::TransientOptions options = array2d_transient_options(config);
  options.dt_initial = options.dt_max;
  options.lte_reltol = 1e9;
  options.lte_abstol = 1e9;
  std::vector<spice::RtnRequest> requests;
  for (std::size_t flat = 0; flat < 64; ++flat) {
    requests.push_back(spice::RtnRequest::seeded(
        array_cell_prefix(flat / 8, flat % 8) + "M5", 30.0,
        97 + 1000 * flat + 5));
  }
  struct Run {
    spice::RtnTransientResult rtn;
    Array2dReport nominal, with_rtn;
  };
  auto run = [&](bool grouped) {
    Array2dBuild build;
    Run out;
    out.rtn = spice::run_rtn_transient(
        [&] {
          auto circuit = std::make_unique<spice::Circuit>();
          build = build_array2d(*circuit, config);
          if (!grouped) circuit->set_ordering_groups({});
          return circuit;
        },
        options, requests, {}, {}, /*emit_breakpoints=*/false);
    out.nominal = check_array2d(out.rtn.nominal, config, build);
    out.with_rtn = check_array2d(out.rtn.with_rtn, config, build);
    return out;
  };
  const Run grouped = run(true);
  const Run ungrouped = run(false);

  const auto iterations = [](const spice::RtnTransientResult& r) {
    return r.nominal.stats().newton_iterations +
           r.with_rtn.stats().newton_iterations;
  };
  for (const Run* r : {&grouped, &ungrouped}) {
    EXPECT_EQ(r->rtn.nominal.stats().steps_rejected, 0u);
    EXPECT_EQ(r->rtn.with_rtn.stats().steps_rejected, 0u);
  }
  EXPECT_EQ(grouped.rtn.nominal.stats().steps_accepted,
            ungrouped.rtn.nominal.stats().steps_accepted);
  EXPECT_EQ(grouped.rtn.with_rtn.stats().steps_accepted,
            ungrouped.rtn.with_rtn.stats().steps_accepted);
  EXPECT_LE(iterations(grouped.rtn) * 100, iterations(ungrouped.rtn) * 105);
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_NEAR(grouped.nominal.column_worst_margin[c],
                ungrouped.nominal.column_worst_margin[c], 1e-6)
        << "column " << c;
    EXPECT_NEAR(grouped.with_rtn.column_worst_margin[c],
                ungrouped.with_rtn.column_worst_margin[c], 1e-6)
        << "column " << c;
  }
}

TEST(Array2d, RtnRunReportsPhasesAndOutcomes) {
  // Tiny end-to-end run of the two-pass methodology: at amplitude scale 0
  // the injected pass adds zero-valued sources, so both reports must be
  // clean and identical in outcome.
  Array2dConfig config = small_array();
  config.rows = 2;
  config.cols = 2;
  config.initial_bits = {0, 1, 1, 0};
  config.ops = {ArrayOp::write(0, {1, 1}), ArrayOp::read(0)};
  const auto result = run_array2d_rtn(config, 21, 0.0);
  EXPECT_FALSE(result.nominal_report.any_error);
  EXPECT_FALSE(result.rtn_report.any_error);
  ASSERT_EQ(result.rtn.traces.size(), 4u);
  for (const auto& trace : result.rtn.traces) {
    EXPECT_FALSE(trace.name.empty());
  }
  EXPECT_GT(result.rtn.nominal_seconds, 0.0);
  EXPECT_GE(result.rtn.generation_seconds, 0.0);
  EXPECT_GT(result.rtn.injected_seconds, 0.0);
  ASSERT_EQ(result.nominal_report.reads.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(result.rtn_report.reads[i].sensed,
              result.nominal_report.reads[i].sensed);
  }
}

}  // namespace
}  // namespace samurai::sram
