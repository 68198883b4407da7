// End-to-end SAMURAI pipeline benchmark.
//
//   pipeline_bench --workload <cell_fig8|campaign_yield>
//                  --seed N --seconds S --trace <0|1> [--tiny]
//                  [--work-dir DIR]
//
// --trace 0 times the workload's public call in a closed loop (one caller)
// for S seconds and prints the end-to-end metrics. --trace 1 alternates
// the public call with its rebuild from the layers' public functions under
// the span recorder, checks the two bit for bit, and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --tiny selects the smoke-test sizes (2 cell seeds, a one-shard
// campaign).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/json.hpp"
#include "cell_pipeline.hpp"
#include "util/cli.hpp"
#include "workload.hpp"

using namespace samurai;
using namespace perfbench;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile of `values` (q in [0, 1]).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: Linux carries it across exec, so it would report the
/// launching process's peak whenever that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string first_error;

  void flag(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }
};

void emit(const Report& report) {
  campaign::JsonWriter metrics;
  for (const Metric& metric : report.metrics) {
    campaign::JsonWriter entry;
    entry.add("value", metric.value);
    entry.add("unit", metric.unit);
    metrics.add_raw(metric.name, entry.str());
  }
  campaign::JsonWriter json;
  json.add("correct", report.correct);
  json.add_u64("attempted", report.attempted);
  json.add_u64("failed", report.failed);
  json.add_raw("metrics", metrics.str());
  std::printf("%s\n", json.str().c_str());
}

/// The host's speed switches between states that last from under a second
/// to several seconds, which makes the per-call distribution of short
/// calls multi-modal and its median flip between modes from run to run.
/// Short calls are therefore averaged over blocks of consecutive calls at
/// least this long (a call that long is its own block), and set-ups over
/// blocks of at least kSetupBlockSeconds. With 1 s latency blocks the
/// cell_fig8 median still flipped between modes; 2.5 s blocks average
/// over more of the states.
constexpr double kBlockSeconds = 2.5;
constexpr double kSetupBlockSeconds = 1.0;

/// setup_s: the median over `samples` samples, each the mean set-up time
/// over a block of at least `block_seconds` of repeated set-ups.
double measure_setup(Workload& workload, std::size_t samples,
                     double block_seconds) {
  std::vector<double> means;
  for (std::size_t i = 0; i < samples; ++i) {
    const double t0 = now();
    double elapsed = 0.0;
    std::size_t count = 0;
    do {
      workload.setup();
      ++count;
      elapsed = now() - t0;
    } while (elapsed < block_seconds);
    means.push_back(elapsed / static_cast<double>(count));
  }
  return quantile(means, 0.5);
}

/// Mean seconds per call over consecutive blocks of at least
/// kBlockSeconds; a short tail joins the last block.
std::vector<double> block_means(const std::vector<double>& call_seconds) {
  std::vector<double> sums, counts;
  double sum = 0.0, count = 0.0;
  for (double t : call_seconds) {
    sum += t;
    count += 1.0;
    if (sum >= kBlockSeconds) {
      sums.push_back(sum);
      counts.push_back(count);
      sum = count = 0.0;
    }
  }
  if (count > 0.0) {
    if (sums.empty()) {
      sums.push_back(0.0);
      counts.push_back(0.0);
    }
    sums.back() += sum;
    counts.back() += count;
  }
  std::vector<double> means;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    means.push_back(sums[i] / counts[i]);
  }
  return means;
}

/// Start another call only if, at the mean pace so far, the run then ends
/// nearer to `seconds` than it does by stopping now: a long call (a whole
/// campaign) never runs the measurement more than half a call past its
/// length. The first call always runs.
bool keep_going(const Workload& workload, std::size_t calls, double start,
                double seconds) {
  if (calls == 0) return true;
  if (workload.max_calls() != 0 && calls >= workload.max_calls()) return false;
  const double elapsed = now() - start;
  return elapsed + 0.5 * elapsed / static_cast<double>(calls) < seconds;
}

void count_call(Report& report, const CallResult& result) {
  report.attempted += result.units;
  if (!result.ok) {
    report.failed += result.units;
    report.flag(result.error);
  }
}

// ---- --trace 0: end-to-end metrics -----------------------------------------

Report run_untraced(Workload& workload, const Options& options,
                    double setup_s) {
  Report report;
  // Latencies of completed units only: a failed call lowers ok_frac and
  // units_per_s, but its time is not a unit latency.
  std::vector<double> call_seconds, latencies;
  std::uint64_t first_digest = 0;
  const double start = now();
  std::size_t calls = 0;
  for (; keep_going(workload, calls, start, options.seconds); ++calls) {
    const double t0 = now();
    CallResult result;
    try {
      result = workload.run(calls);
    } catch (const std::exception& err) {
      result.fail(std::string("call threw: ") + err.what());
    }
    const double elapsed = now() - t0;
    if (calls == 0) first_digest = result.digest;
    count_call(report, result);
    if (!result.ok) continue;
    if (result.unit_seconds.empty()) {
      call_seconds.push_back(elapsed);
    } else {
      latencies.insert(latencies.end(), result.unit_seconds.begin(),
                       result.unit_seconds.end());
    }
  }
  const double wall = now() - start;
  if (!call_seconds.empty()) latencies = block_means(call_seconds);
  // Determinism: the first call's inputs again, outside the timed loop.
  if (workload.run(0).digest != first_digest) {
    report.flag("same seed gave a different output digest");
  }
  const double done = static_cast<double>(report.attempted - report.failed);
  std::printf("# %zu calls, %zu latency samples (blocks), digest %016llx\n",
              calls, latencies.size(),
              static_cast<unsigned long long>(first_digest));
  report.metrics = {
      {"run_s_p50", "s", quantile(latencies, 0.5)},
      {"run_s_p90", "s", quantile(latencies, 0.9)},
      {"units_per_s", "1/s", done / wall},
      {"setup_s", "s", setup_s},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"ok_frac", "ratio", done / static_cast<double>(report.attempted)},
  };
  return report;
}

// ---- --trace 1: per-layer metrics ------------------------------------------

bool same_counts(const spice::SolverStats& a, const spice::SolverStats& b) {
  return a.newton_iterations == b.newton_iterations &&
         a.lu_factorizations == b.lu_factorizations &&
         a.lu_solves == b.lu_solves && a.device_loads == b.device_loads &&
         a.steps_accepted == b.steps_accepted &&
         a.steps_rejected == b.steps_rejected &&
         a.transients == b.transients &&
         a.sp_symbolic_analyses == b.sp_symbolic_analyses &&
         a.sp_numeric_refactors == b.sp_numeric_refactors;
}

/// One per-layer metric: how its value is derived from one call's span
/// profile and tally.
struct LayerMetric {
  const char* name;
  const char* unit;
  std::function<double(const RunProfile& call, const Tally& tally)> value;
};

double get(const std::map<std::string, double>& map, const std::string& key) {
  const auto it = map.find(key);
  return it == map.end() ? 0.0 : it->second;
}

std::vector<LayerMetric> layer_metrics() {
  auto self = [](const char* span) {
    return [span](const RunProfile& call, const Tally&) {
      return get(call.self_seconds, span);
    };
  };
  auto share = [](const char* span) {
    return [span](const RunProfile& call, const Tally&) {
      return get(call.self_seconds, span) / call.root_seconds;
    };
  };
  auto count = [](const char* key) {
    return [key](const RunProfile&, const Tally& tally) {
      return get(tally, key);
    };
  };
  auto ratio = [](const char* num, const char* den) {
    return [num, den](const RunProfile&, const Tally& tally) {
      const double d = get(tally, den);
      return d > 0.0 ? get(tally, num) / d : 0.0;
    };
  };
  return {
      {"core.schedule_s", "s", count("core.schedule_s")},
      {"core.propensity_s", "s", count("core.propensity_s")},
      {"core.propensity_points", "count", count("core.propensity_points")},
      {"core.uniformisation_s", "s", count("core.uniformisation_s")},
      {"core.candidates", "count", count("core.candidates")},
      {"core.accepted", "count", count("core.accepted")},
      {"core.acceptance", "ratio", ratio("core.accepted", "core.candidates")},
      {"core.traps_switched_frac", "ratio",
       ratio("core.traps_switched", "physics.traps_sampled")},
      // generate_device_rtn's render is what its call spends beyond the
      // three parts the probe times on the same inputs.
      {"core.render_s", "s",
       [](const RunProfile& call, const Tally& tally) {
         return get(call.self_seconds, "core.generate") -
                get(tally, "core.schedule_s") -
                get(tally, "core.propensity_s") -
                get(tally, "core.uniformisation_s");
       }},
      {"spice.nominal_s", "s", self("spice.nominal")},
      {"spice.injected_s", "s", self("spice.injected")},
      {"spice.extract_s", "s", self("spice.extract")},
      {"spice.nominal_steps", "count", count("spice.nominal_steps")},
      {"spice.injected_steps", "count", count("spice.injected_steps")},
      {"spice.steps_rejected", "count", count("spice.steps_rejected")},
      {"spice.newton_iterations", "count", count("spice.newton_iterations")},
      {"spice.lu_factorizations", "count", count("spice.lu_factorizations")},
      {"spice.sp_symbolic_analyses", "count",
       count("spice.sp_symbolic_analyses")},
      {"spice.device_loads", "count", count("spice.device_loads")},
      {"physics.srh_model_s", "s", self("physics.srh_model")},
      {"physics.trap_profile_s", "s", self("physics.trap_profile")},
      {"physics.traps_sampled", "count", count("physics.traps_sampled")},
      {"sram.build_s", "s", self("sram.build")},
      {"sram.detect_s", "s", self("sram.detect")},
      {"util.cpu_util", "ratio", count("util.cpu_util")},
      // The campaign layer's bookkeeping as a share of the call's wall:
      // it should stay under 1% of campaign_yield, and it is exactly 0 on
      // the workloads that do not use the layer.
      {"campaign.shard_frac", "ratio", share("campaign.shard")},
      {"campaign.ledger_append_frac", "ratio", share("campaign.ledger_append")},
      {"campaign.fold_frac", "ratio", share("campaign.fold")},
      {"trace.coverage", "ratio",
       [](const RunProfile& call, const Tally&) { return call.coverage; }},
      {"trace.overhead_s", "s", count("trace.overhead_s")},
  };
}

/// Counts that must repeat exactly for the same inputs (the tally minus
/// its timings and utilisation).
Tally exact_counts(const Tally& tally) {
  Tally counts;
  for (const auto& [name, value] : tally) {
    const bool timing = name.size() > 2 && name.substr(name.size() - 2) == "_s";
    if (!timing && name != "util.cpu_util") counts[name] = value;
  }
  return counts;
}

Report run_traced(Workload& workload, const Options& options,
                  const std::string& workload_name) {
  Report report;
  Tracer tracer;
  const auto metrics = layer_metrics();
  std::vector<std::vector<double>> values(metrics.size());
  Tally first_counts;
  const double start = now();
  std::size_t calls = 0;
  for (; keep_going(workload, calls, start, options.seconds); ++calls) {
    CallResult reference, traced;
    Tally tally;
    double reference_wall = 0.0;
    spice::SolverStats reference_solver, traced_solver;
    core::UniformisationStats reference_rtn, traced_rtn;
    try {
      auto solver0 = spice::solver_stats_snapshot();
      auto rtn0 = core::uniformisation_stats_snapshot();
      const double t0 = now();
      reference = workload.run(calls);
      reference_wall = now() - t0;
      reference_solver = spice::solver_stats_snapshot().since(solver0);
      reference_rtn = core::uniformisation_stats_snapshot().since(rtn0);

      solver0 = spice::solver_stats_snapshot();
      rtn0 = core::uniformisation_stats_snapshot();
      traced = workload.run_traced(calls, tracer, tally);
      traced_solver = spice::solver_stats_snapshot().since(solver0);
      traced_rtn = core::uniformisation_stats_snapshot().since(rtn0);
    } catch (const std::exception& err) {
      traced.fail(std::string("call threw: ") + err.what());
    }
    if (traced.ok && !reference.ok) traced.fail(reference.error);
    if (traced.ok && traced.digest != reference.digest) {
      traced.fail("traced rebuild differs from the public call");
    }
    // Counter deltas of two same-input runs must agree exactly; the side
    // probe's sampler work is the only extra the traced run does.
    const auto composed_rtn = traced_rtn.since(traced.probe_rtn);
    if (traced.ok && (!same_counts(reference_solver, traced_solver) ||
                      composed_rtn.candidates != reference_rtn.candidates ||
                      composed_rtn.accepted != reference_rtn.accepted)) {
      traced.fail("solver/sampler counts differ between same-seed runs");
    }
    const auto spans = tracer.spans();
    const RunProfile call = profile_run(spans, composition_run(calls));
    tally["trace.overhead_s"] = call.root_seconds - reference_wall;
    if (call.coverage < 0.95) {
      report.flag("trace coverage below 0.95: " + std::to_string(call.coverage));
    }
    if (calls == 0) first_counts = exact_counts(tally);
    count_call(report, traced);
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      values[m].push_back(metrics[m].value(call, tally));
    }
  }
  // Exact counts: the first call's traced rebuild again.
  {
    Tracer again;
    Tally tally;
    (void)workload.run_traced(0, again, tally);
    if (exact_counts(tally) != first_counts) {
      report.flag("per-layer counts differ between same-seed runs");
    }
  }
  tracer.write_jsonl(options.work_dir + "/spans-" + workload_name + "-" +
                     std::to_string(options.seed) + ".jsonl");
  std::printf("# %zu traced calls\n", calls);
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    const bool is_count = std::string(metrics[m].unit) == "count";
    // Counts are exact for the run's first call; times and ratios are
    // medians over the calls.
    report.metrics.push_back({metrics[m].name, metrics[m].unit,
                              is_count ? values[m].front()
                                       : quantile(values[m], 0.5)});
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "");
  Options options;
  options.seed = cli.get_seed("seed", 1);
  options.seconds = cli.get_double("seconds", 10.0);
  options.tiny = cli.has("tiny");
  options.work_dir = cli.get_string("work-dir", ".bench_work");
  const std::string trace = cli.get_string("trace", "0");

  std::unique_ptr<Workload> workload;
  if (name == "cell_fig8") {
    workload = make_cell_fig8(options);
  } else if (name == "campaign_yield") {
    workload = make_campaign_yield(options);
  }
  if (!workload || (trace != "0" && trace != "1") || !(options.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload "
                 "<cell_fig8|campaign_yield> --seed N --seconds S "
                 "--trace <0|1> [--tiny] [--work-dir DIR]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(options.work_dir);
    Report report;
    if (trace == "1") {
      workload->setup();
      report = run_traced(*workload, options, name);
    } else {
      const double setup_s =
          options.tiny ? measure_setup(*workload, 1, 0.0)
                       : measure_setup(*workload, 5, kSetupBlockSeconds);
      report = run_untraced(*workload, options, setup_s);
    }
    if (!report.correct) {
      std::fprintf(stderr, "pipeline_bench: %s\n", report.first_error.c_str());
    }
    emit(report);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pipeline_bench: %s\n", err.what());
    return 1;
  }
  return 0;
}
