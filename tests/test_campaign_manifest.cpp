#include "campaign/manifest.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>

#include "campaign/checkpoint.hpp"
#include "campaign/json.hpp"
#include "campaign/runner.hpp"
#include "campaign/shard.hpp"
#include "util/fs.hpp"

namespace samurai::campaign {
namespace {

// Written by an earlier release whose SolverStats carried four ap_*
// activity-partition counters and whose manifest carried an "activity"
// mode. Both keys are gone; files holding them must still load. (The
// first counter's key is split across two literals so the removed name
// survives only as data.)
constexpr const char* kLedgerLineWithApKeys =
    "{\"shard\": 1, \"samples\": 10, \"w_count\": 0, \"w_failures\": 0, "
    "\"w_sum\": 0, \"w_sq_sum\": 0, \"w_fail_sum\": 0, \"w_fail_sq_sum\": 0, "
    "\"fail_count\": 10, \"fail_successes\": 3, \"nominal_count\": 0, "
    "\"nominal_successes\": 0, \"slow_count\": 0, \"slow_successes\": 0, "
    "\"value_count\": 0, \"value_mean\": 0, \"value_m2\": 0, "
    "\"wall_seconds\": 0.5, \"nw_iterations\": 1395, "
    "\"nw_factorizations\": 0, \"nw_solves\": 0, \"nw_bypass_hits\": 0, "
    "\"nw_device_loads\": 0, \"nw_cache_hits\": 0, \"nw_steps_accepted\": 0, "
    "\"nw_steps_rejected\": 0, \"nw_transients\": 0, "
    "\"nw_workspace_allocations\": 0, \"sp_symbolic_analyses\": 2, "
    "\"sp_numeric_refactors\": 0, \"sp_solves\": 0, \"bt_batches\": 0, "
    "\"bt_lanes\": 0, \"bt_steps\": 0, \"ap_" "elided_loads\": 48211, "
    "\"ap_partial_refactors\": 917, \"ap_rows_skipped\": 203554, "
    "\"ap_folded_cells\": 224, \"rtn_candidates\": 0, \"rtn_accepted\": 0, "
    "\"rtn_segments\": 0, \"rtn_rng_refills\": 0, "
    "\"rtn_envelope_integral\": 0, \"rtn_fixed_bound_integral\": 0}";

// Written by the release whose RTN sampler walked a piecewise majorant:
// its sampler counters carried rtn_segments, rtn_envelope_integral and
// rtn_fixed_bound_integral. Those keys are gone; such lines must still
// load. (The removed keys are split across two literals so their names
// survive only as data.)
constexpr const char* kLedgerLineWithMajorantKeys =
    "{\"shard\": 1, \"samples\": 10, \"w_count\": 0, \"w_failures\": 0, "
    "\"w_sum\": 0, \"w_sq_sum\": 0, \"w_fail_sum\": 0, \"w_fail_sq_sum\": 0, "
    "\"fail_count\": 10, \"fail_successes\": 4, \"nominal_count\": 0, "
    "\"nominal_successes\": 0, \"slow_count\": 0, \"slow_successes\": 0, "
    "\"value_count\": 0, \"value_mean\": 0, \"value_m2\": 0, "
    "\"wall_seconds\": 4.75, \"nw_iterations\": 2210, "
    "\"nw_factorizations\": 0, \"nw_solves\": 0, \"nw_bypass_hits\": 0, "
    "\"nw_device_loads\": 0, \"nw_cache_hits\": 0, \"nw_steps_accepted\": 0, "
    "\"nw_steps_rejected\": 0, \"nw_transients\": 0, "
    "\"nw_workspace_allocations\": 0, \"sp_symbolic_analyses\": 0, "
    "\"sp_numeric_refactors\": 0, \"sp_solves\": 0, \"bt_batches\": 0, "
    "\"bt_lanes\": 0, \"bt_steps\": 0, \"rtn_candidates\": 27313, "
    "\"rtn_accepted\": 4425, \"rtn_" "segments\": 81542, "
    "\"rtn_rng_refills\": 9260, \"rtn_" "envelope_integral\": 27401.5, "
    "\"rtn_" "fixed_bound_integral\": 98127.25}";

constexpr const char* kManifestWithActivity =
    "{\"kind\": \"array-yield\", \"name\": \"campaign\", \"seed\": 1, "
    "\"budget\": 30, \"shard_size\": 10, \"threads\": 1, \"batch\": 1, "
    "\"target_rel_half_width\": 0, \"confidence_z\": 1.959963984540054, "
    "\"min_samples\": 0, \"node\": \"90nm\", \"v_dd\": 0, \"bits\": \"10\", "
    "\"rtn_scale\": 30, \"extra_node_cap\": 4e-14, "
    "\"period\": 1.0000000000000001e-09, \"sigma_vt\": 0.029999999999999999, "
    "\"shift_m1\": 0, \"shift_m2\": 0, \"shift_m3\": 0, \"shift_m4\": 0, "
    "\"shift_m5\": 0, \"shift_m6\": 0, \"count_slow_as_fail\": false, "
    "\"with_rtn\": true, \"rows\": 8, \"cols\": 8, \"activity\": \"schur\", "
    "\"v_lo\": 0.69999999999999996, \"v_hi\": 0, "
    "\"resolution\": 0.025000000000000001, \"rtn_seeds\": 1}";

TEST(CampaignJson, DoubleRoundTripsBitExact) {
  for (double value : {0.1 + 0.2, 1.0 / 3.0, 1e-300, 6.02214076e23,
                       -0.0061250000000000003, 42.0}) {
    JsonWriter writer;
    writer.add("x", value);
    const auto parsed = JsonObject::parse(writer.str());
    EXPECT_EQ(parsed.get_double("x", 0.0), value) << writer.str();
  }
}

TEST(CampaignJson, ParsesTypesAndFallbacks) {
  const auto json = JsonObject::parse(
      "{\"s\": \"hello world\", \"n\": -2.5, \"i\": 77, \"b\": true, "
      "\"quoted\\\"\": \"esc\\\\aped\"}");
  EXPECT_EQ(json.get_string("s", ""), "hello world");
  EXPECT_EQ(json.get_double("n", 0.0), -2.5);
  EXPECT_EQ(json.get_u64("i", 0), 77u);
  EXPECT_TRUE(json.get_bool("b", false));
  EXPECT_EQ(json.get_string("quoted\"", ""), "esc\\aped");
  EXPECT_EQ(json.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(json.has("missing"));
}

TEST(CampaignJson, RejectsMalformedInput) {
  EXPECT_THROW(JsonObject::parse("not json"), std::runtime_error);
  EXPECT_THROW(JsonObject::parse("{\"k\" 1}"), std::runtime_error);
  EXPECT_THROW(JsonObject::parse("{\"k\": \"unterminated}"),
               std::runtime_error);
}

TEST(CampaignJson, NonFiniteBecomesNull) {
  JsonWriter writer;
  writer.add("x", std::numeric_limits<double>::infinity());
  EXPECT_NE(writer.str().find("null"), std::string::npos);
  const auto parsed = JsonObject::parse(writer.str());
  EXPECT_EQ(parsed.get_double("x", -1.0), -1.0);  // falls back
}

TEST(CampaignManifest, RoundTripsThroughJson) {
  Manifest manifest;
  manifest.kind = CampaignKind::kVmin;
  manifest.name = "night run";
  manifest.seed = 123456789;
  manifest.budget = 5000;
  manifest.shard_size = 250;
  manifest.threads = 8;
  manifest.target_rel_half_width = 0.125;
  manifest.min_samples = 500;
  manifest.node = "45nm";
  manifest.v_dd = 0.97;
  manifest.bits = "1011";
  manifest.rtn_scale = 120.0;
  manifest.sigma_vt = 0.0275;
  manifest.shift = {0.06, 0.09, 0.0, 0.0, -0.01, 0.0};
  manifest.count_slow_as_fail = true;
  manifest.with_rtn = false;
  manifest.v_lo = 0.55;
  manifest.v_hi = 1.05;
  manifest.resolution = 0.0125;
  manifest.rtn_seeds = 3;
  manifest.rows = 64;
  manifest.cols = 32;

  const Manifest copy = Manifest::from_json(manifest.to_json());
  EXPECT_EQ(copy.kind, manifest.kind);
  EXPECT_EQ(copy.name, manifest.name);
  EXPECT_EQ(copy.seed, manifest.seed);
  EXPECT_EQ(copy.budget, manifest.budget);
  EXPECT_EQ(copy.shard_size, manifest.shard_size);
  EXPECT_EQ(copy.threads, manifest.threads);
  EXPECT_EQ(copy.target_rel_half_width, manifest.target_rel_half_width);
  EXPECT_EQ(copy.min_samples, manifest.min_samples);
  EXPECT_EQ(copy.node, manifest.node);
  EXPECT_EQ(copy.v_dd, manifest.v_dd);
  EXPECT_EQ(copy.bits, manifest.bits);
  EXPECT_EQ(copy.rtn_scale, manifest.rtn_scale);
  EXPECT_EQ(copy.sigma_vt, manifest.sigma_vt);
  EXPECT_EQ(copy.shift, manifest.shift);
  EXPECT_EQ(copy.count_slow_as_fail, manifest.count_slow_as_fail);
  EXPECT_EQ(copy.with_rtn, manifest.with_rtn);
  EXPECT_EQ(copy.v_lo, manifest.v_lo);
  EXPECT_EQ(copy.v_hi, manifest.v_hi);
  EXPECT_EQ(copy.resolution, manifest.resolution);
  EXPECT_EQ(copy.rtn_seeds, manifest.rtn_seeds);
  EXPECT_EQ(copy.rows, manifest.rows);
  EXPECT_EQ(copy.cols, manifest.cols);
}

TEST(CampaignManifest, PreArrayManifestsParseWithDefaults) {
  // Ledgers written before the array footprint existed carry no
  // rows/cols keys; they must keep parsing as unconstrained.
  const Manifest manifest = Manifest::from_json(
      "{\"kind\": \"importance\", \"budget\": 10, \"shard_size\": 5}");
  EXPECT_EQ(manifest.rows, 0u);
  EXPECT_EQ(manifest.cols, 0u);

  // A manifest carrying the removed "activity" key parses, validates and
  // no longer writes the key back.
  const Manifest with_activity = Manifest::from_json(kManifestWithActivity);
  EXPECT_EQ(with_activity.kind, CampaignKind::kArrayYield);
  EXPECT_EQ(with_activity.budget, 30u);
  EXPECT_EQ(with_activity.rows, 8u);
  EXPECT_EQ(with_activity.cols, 8u);
  EXPECT_NO_THROW(with_activity.validate());
  EXPECT_EQ(with_activity.to_json().find("activity"), std::string::npos);
}

TEST(CampaignManifest, ValidationCatchesBadJobs) {
  Manifest manifest;
  manifest.budget = 0;
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.shard_size = 0;
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.sigma_vt = 0.0;
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.bits = "abc";
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.kind = CampaignKind::kVmin;
  manifest.v_lo = 1.2;
  manifest.v_hi = 1.0;
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.rows = 8;  // cols left unset
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.kind = CampaignKind::kArrayYield;
  manifest.rows = 4;
  manifest.cols = 4;
  manifest.budget = 17;  // 17 samples > 16 cells
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest.budget = 16;
  EXPECT_NO_THROW(manifest.validate());
  EXPECT_THROW(kind_from_string("bogus"), std::invalid_argument);
}

TEST(CampaignManifest, ShardPartitionCoversBudgetExactly) {
  Manifest manifest;
  manifest.budget = 23;
  manifest.shard_size = 5;
  ASSERT_EQ(manifest.shard_count(), 5u);
  std::uint64_t covered = 0;
  for (std::uint64_t i = 0; i < manifest.shard_count(); ++i) {
    const ShardSpec spec = shard_spec(manifest, i);
    EXPECT_EQ(spec.index, i);
    EXPECT_EQ(spec.first, covered);
    covered += spec.count;
  }
  EXPECT_EQ(covered, 23u);
  EXPECT_EQ(shard_spec(manifest, 4).count, 3u);  // partial tail shard
  EXPECT_THROW(shard_spec(manifest, 5), std::out_of_range);
}

TEST(CampaignShardResult, LedgerLineRoundTripsBitExact) {
  ShardResult shard;
  shard.index = 7;
  shard.samples = 250;
  shard.weighted.count = 250;
  shard.weighted.failures = 31;
  shard.weighted.weight_sum = 249.99999999999903;
  shard.weighted.weight_sq_sum = 0.1 + 0.2;
  shard.weighted.fail_weight_sum = 1.0 / 3.0;
  shard.weighted.fail_weight_sq_sum = 2.0 / 7.0;
  shard.fails = {250, 31};
  shard.nominal_fails = {250, 2};
  shard.slow = {250, 11};
  shard.value.count = 219;
  shard.value.mean = 0.83124999999999993;
  shard.value.m2 = 5.0e-4 / 3.0;
  shard.wall_seconds = 12.25;

  const ShardResult copy = ShardResult::from_json(shard.to_json());
  EXPECT_EQ(copy.index, shard.index);
  EXPECT_EQ(copy.samples, shard.samples);
  EXPECT_EQ(copy.weighted.count, shard.weighted.count);
  EXPECT_EQ(copy.weighted.failures, shard.weighted.failures);
  EXPECT_EQ(copy.weighted.weight_sum, shard.weighted.weight_sum);
  EXPECT_EQ(copy.weighted.weight_sq_sum, shard.weighted.weight_sq_sum);
  EXPECT_EQ(copy.weighted.fail_weight_sum, shard.weighted.fail_weight_sum);
  EXPECT_EQ(copy.weighted.fail_weight_sq_sum,
            shard.weighted.fail_weight_sq_sum);
  EXPECT_EQ(copy.fails.count, shard.fails.count);
  EXPECT_EQ(copy.fails.successes, shard.fails.successes);
  EXPECT_EQ(copy.nominal_fails.successes, shard.nominal_fails.successes);
  EXPECT_EQ(copy.slow.successes, shard.slow.successes);
  EXPECT_EQ(copy.value.count, shard.value.count);
  EXPECT_EQ(copy.value.mean, shard.value.mean);
  EXPECT_EQ(copy.value.m2, shard.value.m2);
  EXPECT_EQ(copy.wall_seconds, shard.wall_seconds);
}

class CampaignCheckpointFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("samurai_campaign_files_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  // Runs on success *and* on test failure, so no temp litter either way.
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CampaignCheckpointFiles, AtomicWriteLeavesNoTempFile) {
  std::filesystem::create_directories(dir_);
  const std::string path = dir_ + "/state.json";
  write_file_atomic(path, "{\"a\": 1}");
  write_file_atomic(path, "{\"a\": 2}");
  EXPECT_EQ(read_file(path), "{\"a\": 2}");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(CampaignCheckpointFiles, LedgerToleratesOutOfOrderAppends) {
  // Worker processes append in completion order; load sorts by index and
  // the fold stops at the gap (shard 1's worker died before appending).
  Checkpoint checkpoint(dir_);
  Manifest manifest;
  manifest.budget = 30;
  manifest.shard_size = 10;
  checkpoint.init(manifest);
  ShardResult first, third;
  first.index = 0;
  first.samples = 10;
  first.fails = {10, 1};
  third.index = 2;
  third.samples = 10;
  third.fails = {10, 2};
  checkpoint.append_ledger(third);
  checkpoint.append_ledger(first);
  const auto ledger = checkpoint.load_ledger();
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger[0].index, 0u);
  EXPECT_EQ(ledger[1].index, 2u);
  const CampaignResult folded = fold_ledger(manifest, ledger);
  EXPECT_EQ(folded.shards_done, 1u);
  EXPECT_EQ(folded.samples_done, 10u);
  EXPECT_FALSE(folded.complete);

  // Shard 1 arrives as a line carrying the removed ap_* keys: it loads,
  // fills the gap and folds like any other.
  util::append_line_durable(checkpoint.ledger_path(), kLedgerLineWithApKeys);
  const auto filled = checkpoint.load_ledger();
  ASSERT_EQ(filled.size(), 3u);
  EXPECT_EQ(filled[1].index, 1u);
  EXPECT_EQ(filled[1].fails.successes, 3u);
  EXPECT_EQ(filled[1].solver.newton_iterations, 1395u);
  const CampaignResult all = fold_ledger(manifest, filled);
  EXPECT_EQ(all.shards_done, 3u);
  EXPECT_EQ(all.samples_done, 30u);
  EXPECT_TRUE(all.complete);
  EXPECT_EQ(all.solver.sp_symbolic_analyses, 2u);
}

TEST_F(CampaignCheckpointFiles, LedgerLoadsLinesWithMajorantKeys) {
  // Shards 0 and 2 are written now; shard 1 is a line from the release
  // with the piecewise-majorant counters. It loads, fills the gap, folds,
  // and its re-serialised form drops the removed keys.
  Checkpoint checkpoint(dir_);
  Manifest manifest;
  manifest.budget = 30;
  manifest.shard_size = 10;
  checkpoint.init(manifest);
  ShardResult first, third;
  first.index = 0;
  first.samples = 10;
  first.fails = {10, 1};
  first.rtn.candidates = 100;
  third.index = 2;
  third.samples = 10;
  third.fails = {10, 2};
  third.rtn.candidates = 200;
  checkpoint.append_ledger(first);
  checkpoint.append_ledger(third);
  EXPECT_FALSE(fold_ledger(manifest, checkpoint.load_ledger()).complete);

  util::append_line_durable(checkpoint.ledger_path(),
                            kLedgerLineWithMajorantKeys);
  const auto ledger = checkpoint.load_ledger();
  ASSERT_EQ(ledger.size(), 3u);
  EXPECT_EQ(ledger[1].index, 1u);
  EXPECT_EQ(ledger[1].fails.successes, 4u);
  EXPECT_EQ(ledger[1].rtn.candidates, 27313u);
  EXPECT_EQ(ledger[1].rtn.accepted, 4425u);
  EXPECT_EQ(ledger[1].rtn.rng_refills, 9260u);
  const CampaignResult all = fold_ledger(manifest, ledger);
  EXPECT_EQ(all.shards_done, 3u);
  EXPECT_EQ(all.samples_done, 30u);
  EXPECT_TRUE(all.complete);
  EXPECT_EQ(all.rtn.candidates, 100u + 27313u + 200u);
  const std::string rewritten = ledger[1].to_json();
  EXPECT_EQ(rewritten.find("segments"), std::string::npos);
  EXPECT_EQ(rewritten.find("integral"), std::string::npos);
}

TEST_F(CampaignCheckpointFiles, InitRefusesToClobberALedger) {
  Checkpoint checkpoint(dir_);
  Manifest manifest;
  checkpoint.init(manifest);
  ShardResult shard;
  shard.samples = 10;
  shard.fails = {10, 1};
  checkpoint.append_ledger(shard);
  EXPECT_THROW(checkpoint.init(manifest), std::runtime_error);
}

}  // namespace
}  // namespace samurai::campaign
