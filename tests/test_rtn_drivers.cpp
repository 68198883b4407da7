// Golden-output fixture for every two-pass RTN run (nominal transient ->
// bias extraction -> trap sampling -> Algorithm 1 -> injected transient):
// the SRAM methodology, the column, the R×C array, the ring oscillator and
// the `.rtn` netlist flow, all at the paper's ×30 amplitude. Each run is
// folded into a bitwise digest of its times, node voltages, per-device
// traps / occupancy / I_RTN traces, sampler counters and detection
// report, and compared against a pinned value, so any change to how the
// runs are driven must leave every output bit where it was.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "osc/ring.hpp"
#include "physics/technology.hpp"
#include "spice/analysis.hpp"
#include "spice/rtn_integration.hpp"
#include "sram/array2d.hpp"
#include "sram/column.hpp"
#include "sram/methodology.hpp"
#include "util/thread_pool.hpp"

namespace samurai {
namespace {

/// FNV-1a over the exact bit patterns of everything added.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((word >> (8 * byte)) & 0xFFu)) * 0x100000001B3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(int value) { add(static_cast<std::uint64_t>(value)); }
  void add(bool value) { add(static_cast<std::uint64_t>(value)); }
  void add(const std::vector<double>& values) {
    add(values.size());
    for (double v : values) add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void add_transient(Digest& digest, const spice::TransientResult& result) {
  digest.add(result.times());
  for (const auto& node : result.node_names()) {
    digest.add(result.voltage_samples(node));
  }
}

void add_stats(Digest& digest, const core::UniformisationStats& stats) {
  digest.add(stats.candidates);
  digest.add(stats.accepted);
  digest.add(stats.rng_refills);
}

/// Traps, occupancy, I_RTN and sampler counters of one device trace.
template <typename Trace>
void add_trace(Digest& digest, const Trace& trace) {
  digest.add(trace.traps.size());
  for (const auto& trap : trace.traps) {
    digest.add(trap.y_tr);
    digest.add(trap.e_tr);
    digest.add(static_cast<int>(trap.init_state));
  }
  digest.add(trace.n_filled.initial_value());
  digest.add(trace.n_filled.times());
  digest.add(trace.n_filled.values());
  digest.add(trace.i_rtn.times());
  digest.add(trace.i_rtn.values());
  add_stats(digest, trace.stats);
}

void add_rtn_run(Digest& digest, const spice::RtnTransientResult& run) {
  add_transient(digest, run.nominal);
  add_transient(digest, run.with_rtn);
  digest.add(run.traces.size());
  for (const auto& trace : run.traces) add_trace(digest, trace);
}

void add_report(Digest& digest, const sram::PatternReport& report) {
  digest.add(report.ops.size());
  for (const auto& op : report.ops) {
    digest.add(static_cast<int>(op.op));
    digest.add(op.expected_bit);
    digest.add(static_cast<int>(op.outcome));
    digest.add(op.q_at_slot_end);
    digest.add(op.settle_after_wl.has_value());
    if (op.settle_after_wl) digest.add(*op.settle_after_wl);
  }
  digest.add(report.any_error);
  digest.add(report.any_slow);
}

template <typename Report>
void add_read_write_report(Digest& digest, const Report& report) {
  digest.add(report.reads.size());
  for (const auto& read : report.reads) {
    digest.add(read.slot);
    digest.add(read.cell);
    digest.add(read.expected);
    digest.add(read.sensed);
    digest.add(read.sense_margin);
    digest.add(read.disturbed);
  }
  digest.add(report.writes.size());
  for (const auto& write : report.writes) {
    digest.add(write.slot);
    digest.add(write.cell);
    digest.add(write.bit);
    digest.add(write.ok);
  }
  digest.add(report.any_error);
  digest.add(report.min_sense_margin);
}

void add_period_stats(Digest& digest, const osc::PeriodStats& stats) {
  digest.add(stats.cycles);
  digest.add(stats.mean);
  digest.add(stats.stddev);
  digest.add(stats.periods);
}

std::string hex(std::uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

void expect_digest(std::uint64_t actual, std::uint64_t expected) {
  EXPECT_EQ(hex(actual), hex(expected));
}

std::uint64_t methodology_digest(const sram::MethodologyResult& result) {
  Digest digest;
  add_transient(digest, result.nominal);
  add_transient(digest, result.with_rtn);
  digest.add(result.rtn.size());
  for (const auto& entry : result.rtn) {
    digest.add(entry.v_gs.times());
    digest.add(entry.v_gs.values());
    digest.add(entry.i_d.times());
    digest.add(entry.i_d.values());
    add_trace(digest, entry);
  }
  add_report(digest, result.nominal_report);
  add_report(digest, result.rtn_report);
  return digest.value();
}

sram::MethodologyConfig methodology_config() {
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.ops = sram::ops_from_bits({1, 0, 1});
  config.seed = 7;
  config.rtn_scale = 30.0;
  return config;
}

sram::Array2dConfig array_config() {
  sram::Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = 2;
  config.cols = 2;
  config.initial_bits = {0, 1, 1, 0};
  config.ops = {sram::ArrayOp::write(0, {1, 0}), sram::ArrayOp::read(0),
                sram::ArrayOp::read(1)};
  return config;
}

std::uint64_t array_digest(const sram::Array2dRtnResult& result) {
  Digest digest;
  add_rtn_run(digest, result.rtn);
  add_read_write_report(digest, result.nominal_report);
  add_read_write_report(digest, result.rtn_report);
  for (const auto& report : {result.nominal_report, result.rtn_report}) {
    digest.add(report.column_worst_margin);
  }
  return digest.value();
}

TEST(RtnDrivers, MethodologyMatchesGolden) {
  expect_digest(methodology_digest(sram::run_methodology(methodology_config())),
                0x5482a942d5cab41aULL);
}

TEST(RtnDrivers, MethodologyDeviceSubsetMatchesGolden) {
  // Traces are generated for all six transistors; only M1 and M6 inject.
  sram::MethodologyConfig config = methodology_config();
  config.rtn_devices = {"M1", "M6"};
  expect_digest(methodology_digest(sram::run_methodology(config)),
                0xfe7d0fd55a19b640ULL);
}

TEST(RtnDrivers, ColumnMatchesGolden) {
  sram::ColumnConfig config;
  config.tech = physics::technology("90nm");
  config.num_cells = 2;
  config.initial_bits = {0, 1};
  config.ops = {sram::ColumnOp::write(0, 1), sram::ColumnOp::read(0),
                sram::ColumnOp::read(1)};
  const auto result = sram::run_column_rtn(config, 11, 30.0);
  Digest digest;
  add_rtn_run(digest, result.rtn);
  add_read_write_report(digest, result.nominal_report);
  add_read_write_report(digest, result.rtn_report);
  expect_digest(digest.value(), 0x4a9828b65c6a4c4dULL);
}

TEST(RtnDrivers, ArrayMatchesGoldenAtFanOutWidthsOneAndFour) {
  // A top-level call fans the 2×2 array's four M5 devices out across the
  // shared pool (at least seven workers, so all four run at once).
  const auto wide = sram::run_array2d_rtn(array_config(), 21, 30.0);
  // Called from inside a pool job, the same fan-out runs the serial loop.
  sram::Array2dRtnResult serial;
  util::ThreadPool::shared().for_indexed(2, 2, [&](std::size_t i) {
    if (i == 0) serial = sram::run_array2d_rtn(array_config(), 21, 30.0);
  });
  EXPECT_EQ(hex(array_digest(serial)), hex(array_digest(wide)));
  expect_digest(array_digest(wide), 0x30adb65f41dc56cbULL);
}

TEST(RtnDrivers, ArrayWithUnaddressedRowMatchesGolden) {
  // Row 1 is never addressed. The system is large enough for the sparse
  // engine, where that row's cells reorder the elimination.
  sram::Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = 3;
  config.cols = 2;
  config.initial_bits = {0, 1, 1, 0, 0, 1};
  config.ops = {sram::ArrayOp::write(0, {1, 0}), sram::ArrayOp::read(0),
                sram::ArrayOp::read(2)};
  spice::Circuit probe;
  sram::build_array2d(probe, config);
  ASSERT_GE(probe.system_size(), spice::kSparseAutoThreshold);
  expect_digest(array_digest(sram::run_array2d_rtn(config, 23, 30.0)),
                0x318b542d006fff51ULL);
}

TEST(RtnDrivers, ColumnWithUnaddressedCellsMatchesGolden) {
  // Cells 4-7 are never addressed; 8 cells put the column on the sparse
  // engine.
  sram::ColumnConfig config;
  config.tech = physics::technology("90nm");
  config.num_cells = 8;
  config.initial_bits = {0, 1, 0, 1, 1, 0, 1, 0};
  config.ops = {sram::ColumnOp::write(0, 1), sram::ColumnOp::read(1),
                sram::ColumnOp::write(2, 1), sram::ColumnOp::read(3)};
  spice::Circuit probe;
  sram::build_column(probe, config);
  ASSERT_GE(probe.system_size(), spice::kSparseAutoThreshold);
  const auto result = sram::run_column_rtn(config, 13, 30.0);
  Digest digest;
  add_rtn_run(digest, result.rtn);
  add_read_write_report(digest, result.nominal_report);
  add_read_write_report(digest, result.rtn_report);
  expect_digest(digest.value(), 0xf0e5545ee40267b9ULL);
}

TEST(RtnDrivers, RingMatchesGolden) {
  osc::RingConfig config;
  config.tech = physics::technology("90nm");
  config.stages = 3;
  config.t_stop = 5e-9;
  const auto result = osc::ring_rtn_analysis(config, 2, 30.0);
  Digest digest;
  add_period_stats(digest, result.nominal);
  add_period_stats(digest, result.with_rtn);
  digest.add(result.frequency_shift_ppm);
  digest.add(result.rtn_switches);
  expect_digest(digest.value(), 0x87613c2f761d427fULL);
}

TEST(RtnDrivers, NetlistMatchesGolden) {
  const char* deck = R"(rtn flow
Vd d 0 DC 1.0
Vg g 0 DC 1.0
Rload d out 10k
Cout out 0 1p
M1 out g 0 0 nfet W=110n L=90n
.model nfet nmos node=90nm
.rtn M1 scale=30 seed=11
.tran 10p 40n
.end
)";
  Digest digest;
  add_rtn_run(digest, spice::run_netlist_rtn(deck));
  expect_digest(digest.value(), 0x56101815f758331aULL);
}

}  // namespace
}  // namespace samurai
