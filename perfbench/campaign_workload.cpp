// campaign_yield: campaign::run_campaign with a kArrayYield manifest and a
// checkpoint directory — bits 110101001, node-default V_dd, σ_vt 30 mV,
// RTN ×30, 4 threads, budget 96 in shards of 16. Call k runs the manifest
// with seed + k. One unit is one sample.
#include <chrono>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "campaign/checkpoint.hpp"
#include "campaign/runner.hpp"
#include "cell_pipeline.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace samurai;

namespace {

void add_digest(Digest& digest, const campaign::ShardResult& shard) {
  digest.add(shard.index);
  digest.add(shard.samples);
  digest.add(shard.weighted.count);
  digest.add(shard.weighted.failures);
  digest.add(shard.weighted.weight_sum);
  digest.add(shard.weighted.weight_sq_sum);
  digest.add(shard.weighted.fail_weight_sum);
  digest.add(shard.weighted.fail_weight_sq_sum);
  for (const auto* b : {&shard.fails, &shard.nominal_fails, &shard.slow}) {
    digest.add(b->count);
    digest.add(b->successes);
  }
  digest.add(shard.value.count);
  digest.add(shard.value.mean);
  digest.add(shard.value.m2);
}

/// Checks shared by the public call and its rebuild: the whole budget ran,
/// and folding the on-disk ledger gives the in-memory estimate and CI bit
/// for bit. The digest covers every ledger line's estimator state.
CallResult finish(const campaign::Manifest& manifest,
                  const campaign::CampaignResult& run,
                  const std::string& dir) {
  CallResult result;
  result.units = manifest.budget;
  if (run.samples_done != manifest.budget) result.fail("budget not used up");
  const auto ledger = campaign::Checkpoint(dir).load_ledger();
  const auto folded = campaign::fold_ledger(manifest, ledger);
  const double in_memory[] = {run.estimate, run.ci.lo, run.ci.hi};
  const double on_disk[] = {folded.estimate, folded.ci.lo, folded.ci.hi};
  if (std::memcmp(in_memory, on_disk, sizeof in_memory) != 0 ||
      folded.samples_done != run.samples_done) {
    result.fail("ledger fold differs from the in-memory estimate");
  }
  Digest digest;
  for (const auto& shard : ledger) {
    add_digest(digest, shard);
    result.unit_seconds.push_back(shard.wall_seconds *
                                  static_cast<double>(manifest.threads) /
                                  static_cast<double>(shard.samples));
  }
  for (double v : in_memory) digest.add(v);
  result.digest = digest.value();
  return result;
}

class CampaignYield final : public Workload {
 public:
  explicit CampaignYield(const Options& options) : options_(options) {}

  void setup() override {
    manifest_ = campaign::Manifest{};
    manifest_.kind = campaign::CampaignKind::kArrayYield;
    manifest_.name = "campaign_yield";
    manifest_.seed = options_.seed;
    manifest_.bits = "110101001";
    manifest_.sigma_vt = 0.03;
    manifest_.rtn_scale = 30.0;
    manifest_.threads = options_.tiny ? 2 : 4;
    manifest_.budget = options_.tiny ? 4 : 96;
    manifest_.shard_size = options_.tiny ? 4 : 16;
    manifest_.validate();
    // Warm-up: a checkpoint directory and one cell, on a seed no timed
    // call uses.
    campaign::Manifest warm_up = manifest_;
    warm_up.seed = ~options_.seed;
    const std::string dir = fresh_dir("setup");
    campaign::Checkpoint(dir).init(warm_up);
    (void)sram::simulate_array_cell(campaign::array_config_from(warm_up), 0);
    std::filesystem::remove_all(dir);
  }
  std::size_t max_calls() const override { return options_.tiny ? 1 : 0; }

  CallResult run(std::size_t call) override {
    const std::string dir = fresh_dir("run" + std::to_string(call));
    const campaign::Manifest manifest = manifest_for(call);
    campaign::RunOptions run_options;
    run_options.dir = dir;
    const auto run = campaign::run_campaign(manifest, run_options);
    CallResult result = finish(manifest, run, dir);
    std::filesystem::remove_all(dir);
    return result;
  }

  CallResult run_traced(std::size_t call, Tracer& tracer,
                        Tally& tally) override {
    const std::string dir = fresh_dir("traced" + std::to_string(call));
    const campaign::Manifest manifest = manifest_for(call);
    std::vector<std::vector<ProbeInput>> probes(manifest.budget);
    campaign::CampaignResult run;
    tracer.begin_run(composition_run(call));
    {
      Tracer::Scope root(tracer, "campaign_yield");
      run = compose(manifest, dir, tracer, probes, tally);
    }
    CallResult result = finish(manifest, run, dir);
    std::filesystem::remove_all(dir);

    std::vector<const ProbeInput*> inputs;
    for (const auto& sample : probes) {
      for (const auto& probe : sample) inputs.push_back(&probe);
    }
    run_probes(inputs, tracer, call, static_cast<std::size_t>(manifest.threads),
               tally, result);
    return result;
  }

 private:
  campaign::Manifest manifest_for(std::size_t call) const {
    campaign::Manifest manifest = manifest_;
    manifest.seed = options_.seed + call;
    return manifest;
  }

  std::string fresh_dir(const std::string& tag) const {
    const std::string dir = options_.work_dir + "/campaign-" +
                            std::to_string(::getpid()) + "-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
  }

  /// campaign::run_campaign rebuilt from public calls: each shard's
  /// samples are simulate_array_cell's cell pipeline composed span by
  /// span, reduced like run_shard, appended to the durable ledger and
  /// folded from it.
  static campaign::CampaignResult compose(
      const campaign::Manifest& manifest, const std::string& dir,
      Tracer& tracer,
      std::vector<std::vector<ProbeInput>>& probes, Tally& tally) {
    const campaign::Checkpoint checkpoint(dir);
    {
      Tracer::Scope span(tracer, "campaign.ledger_append");
      checkpoint.init(manifest);
    }
    const auto threads = static_cast<std::size_t>(manifest.threads);
    const auto cores = std::max(1u, std::thread::hardware_concurrency());
    double region_cpu = 0.0, region_thread_wall = 0.0;
    campaign::CampaignResult folded;
    for (std::uint64_t s = 0; s < manifest.shard_count(); ++s) {
      campaign::ShardResult shard;
      {
        Tracer::Scope span(tracer, "campaign.shard");
        const auto start = std::chrono::steady_clock::now();
        const auto solver0 = spice::solver_stats_snapshot();
        const auto rtn0 = core::uniformisation_stats_snapshot();
        const campaign::ShardSpec spec = campaign::shard_spec(manifest, s);
        const sram::ArrayConfig array = campaign::array_config_from(manifest);
        std::vector<sram::MethodologyResult> runs(spec.count);
        {
          Tracer::Scope region(tracer, "util.parallel");
          tracer.set_concurrent(true);
          const double cpu0 = process_cpu_seconds();
          const auto wall0 = std::chrono::steady_clock::now();
          util::parallel_for_indexed(
              spec.count,
              [&](std::size_t n) {
                Tracer::Scope sample(tracer, "sram.sample", region.id());
                const std::uint64_t global = spec.first + n;
                runs[n] = compose_methodology(cell_config(array, global),
                                              tracer, probes[global]);
              },
              threads);
          region_cpu += process_cpu_seconds() - cpu0;
          region_thread_wall +=
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wall0)
                  .count() *
              static_cast<double>(std::min<std::size_t>(threads, cores));
          tracer.set_concurrent(false);
        }
        shard.index = spec.index;
        shard.samples = spec.count;
        for (const auto& cell : runs) {
          const bool nominal_error = cell.nominal_report.any_error;
          const bool failed = cell.rtn_report.any_error && !nominal_error;
          std::size_t traps = 0;
          for (const auto& transistor : cell.rtn) {
            traps += transistor.traps.size();
          }
          shard.weighted.add(1.0, failed);
          shard.fails.add(failed);
          shard.nominal_fails.add(nominal_error);
          shard.slow.add(cell.rtn_report.any_slow);
          shard.value.add(static_cast<double>(traps));
          tally_methodology(cell, tally);
        }
        shard.wall_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
        shard.solver = spice::solver_stats_snapshot().since(solver0);
        shard.rtn = core::uniformisation_stats_snapshot().since(rtn0);
      }
      {
        Tracer::Scope span(tracer, "campaign.ledger_append");
        checkpoint.append_ledger(shard);
      }
      {
        Tracer::Scope span(tracer, "campaign.fold");
        folded = campaign::fold_ledger(manifest, checkpoint.load_ledger());
        checkpoint.store_state(folded.to_json());
      }
      if (folded.stopped_early) break;
    }
    tally["util.cpu_util"] = region_cpu / region_thread_wall;
    return folded;
  }

  /// simulate_array_cell's per-sample configuration.
  static sram::MethodologyConfig cell_config(const sram::ArrayConfig& array,
                                             std::uint64_t index) {
    util::Rng cell_rng = util::Rng(array.seed).split(index + 1);
    sram::MethodologyConfig cell = array.cell;
    cell.seed = cell_rng.next_u64();
    if (array.sigma_vt > 0.0) {
      for (int m = 1; m <= 6; ++m) {
        cell.vth_shifts["M" + std::to_string(m)] =
            cell_rng.normal(0.0, array.sigma_vt);
      }
    }
    return cell;
  }

  Options options_;
  campaign::Manifest manifest_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_yield(const Options& options) {
  return std::make_unique<CampaignYield>(options);
}

}  // namespace perfbench
