// RTN-generation benchmark: `core::generate_device_rtn` end to end — bias
// schedule, per-trap propensity construction, Algorithm 1 and the I_RTN
// render — for all six transistors of a 6T cell, on two workloads:
//
//  * `cell_fig8` — the trap mix the pipeline really produces: the paper's
//    Fig. 8 cell (90 nm, V_dd 0.9 V, bits 110101001, 40 fF, 1 ns, ×30),
//    its sampled trap profiles and extracted V_gs / I_d;
//  * `busy96` — 6 × 16 traps on a 65 nm write pattern 101, a fixed,
//    meaty workload independent of the Poisson trap-count draw.
//
// Two deterministic gates (fixed seeds) make the ctest registration
// meaningful:
//  * the candidate total over every timed pass lies within 6σ of its
//    Poisson mean passes · Σ_traps Λ·T (Algorithm 1 draws at the constant
//    total rate Λ, so this is exact);
//  * SRH evaluations (physics::srh_evaluation_count) equal candidates:
//    nothing is tabulated, each candidate costs one evaluation.
// Emits one machine-readable JSON line (BENCH_rtn_generation.json).
//
// `--quick` shrinks the pass counts for use as a smoke test under
// `ctest -L perf`; `--passes N` overrides the per-batch pass count.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rtn_generator.hpp"
#include "physics/mos_device.hpp"
#include "physics/srh_model.hpp"
#include "physics/technology.hpp"
#include "sram/cell.hpp"
#include "sram/methodology.hpp"
#include "sram/pattern.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace samurai;

namespace {

struct Device {
  physics::MosDevice mos;
  std::vector<physics::Trap> traps;
  core::Pwl v_gs;
  core::Pwl i_d;
};

struct Workload {
  std::string name;
  physics::Technology tech;
  std::vector<Device> devices;
  double t_end = 0.0;
  double lambda_t = 0.0;  ///< Σ_traps Λ·T: expected candidates per pass
  std::size_t traps = 0;
};

Workload make_workload(const std::string& name,
                       const sram::MethodologyConfig& config) {
  const auto setup = sram::run_methodology(config);
  const physics::SrhModel srh(config.tech);
  Workload workload{name, config.tech, {}, setup.pattern.t_end, 0.0, 0};
  for (int m = 1; m <= 6; ++m) {
    const auto& entry = setup.rtn[static_cast<std::size_t>(m - 1)];
    workload.devices.push_back(
        {physics::MosDevice(config.tech, physics::MosType::kNmos,
                            sram::transistor_geometry(config.tech,
                                                      config.sizing, m)),
         entry.traps, entry.v_gs, entry.i_d});
    for (const auto& trap : entry.traps) {
      workload.lambda_t += srh.total_rate(trap) * workload.t_end;
    }
    workload.traps += entry.traps.size();
  }
  return workload;
}

Workload cell_fig8() {
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.tech.v_dd = 0.9;
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = sram::ops_from_bits({1, 1, 0, 1, 0, 1, 0, 0, 1});
  config.rtn_scale = 30.0;
  config.seed = 1;
  return make_workload("cell_fig8", config);
}

Workload busy96() {
  sram::MethodologyConfig config;
  config.tech = physics::technology("65nm");
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = sram::ops_from_bits({1, 0, 1});
  config.profile.fixed_count = 16;
  return make_workload("busy96", config);
}

struct Report {
  double ms_per_pass = 1e300;  ///< best-of-batches mean wall per pass
  core::UniformisationStats stats;  ///< aggregate over every timed pass
  std::uint64_t srh_evaluations = 0;
  std::uint64_t passes = 0;
};

/// One pass = generate_device_rtn for all six devices on a pass-dependent
/// root stream, single thread. Only the SrhModel is shared across passes,
/// as the pipeline shares one model across a technology's devices.
void run_pass(const Workload& workload, const physics::SrhModel& srh,
              std::uint64_t pass) {
  core::RtnGeneratorOptions gen;
  gen.t0 = 0.0;
  gen.tf = workload.t_end;
  gen.amplitude_scale = 30.0;
  util::Rng rng(0xB5EFu + pass);
  for (std::size_t m = 0; m < workload.devices.size(); ++m) {
    const Device& device = workload.devices[m];
    util::Rng trap_rng = rng.split(m * 977 + 13);
    (void)core::generate_device_rtn(srh, device.mos, device.traps,
                                    device.v_gs, device.i_d, trap_rng, gen);
  }
}

Report measure(const Workload& workload, int passes, int batches) {
  const physics::SrhModel srh(workload.tech);
  run_pass(workload, srh, 0);  // warmup
  Report report;
  std::uint64_t pass = 1;
  for (int b = 0; b < batches; ++b) {
    const auto s0 = core::uniformisation_stats_snapshot();
    const std::uint64_t e0 = physics::srh_evaluation_count();
    const auto a = std::chrono::steady_clock::now();
    for (int p = 0; p < passes; ++p) run_pass(workload, srh, pass++);
    const auto c = std::chrono::steady_clock::now();
    report.srh_evaluations += physics::srh_evaluation_count() - e0;
    report.stats.merge(core::uniformisation_stats_snapshot().since(s0));
    report.ms_per_pass =
        std::min(report.ms_per_pass,
                 std::chrono::duration<double>(c - a).count() / passes * 1e3);
  }
  report.passes = pass - 1;
  return report;
}

/// Prints the workload's JSON object; returns false when a gate fails.
bool report_workload(const Workload& workload, const Report& r) {
  const double expected =
      workload.lambda_t * static_cast<double>(r.passes);
  const double sigma = std::sqrt(std::max(expected, 1.0));
  const double z =
      (static_cast<double>(r.stats.candidates) - expected) / sigma;
  std::printf(
      "\"%s\": {\"traps\": %zu, \"horizon_s\": %.4e, \"passes\": %llu, "
      "\"ms_per_pass\": %.4f, \"lambda_t_per_pass\": %.3f, "
      "\"candidates\": %llu, \"candidates_z\": %.3f, \"accepted\": %llu, "
      "\"srh_evaluations\": %llu, \"rng_refills\": %llu}",
      workload.name.c_str(), workload.traps, workload.t_end,
      static_cast<unsigned long long>(r.passes), r.ms_per_pass,
      workload.lambda_t,
      static_cast<unsigned long long>(r.stats.candidates), z,
      static_cast<unsigned long long>(r.stats.accepted),
      static_cast<unsigned long long>(r.srh_evaluations),
      static_cast<unsigned long long>(r.stats.rng_refills));
  bool ok = true;
  if (std::abs(z) > 6.0) {
    std::fprintf(stderr,
                 "FAIL %s: %llu candidates, %.1f expected (z = %.2f, gate "
                 "|z| <= 6)\n",
                 workload.name.c_str(),
                 static_cast<unsigned long long>(r.stats.candidates),
                 expected, z);
    ok = false;
  }
  if (r.srh_evaluations != r.stats.candidates) {
    std::fprintf(stderr,
                 "FAIL %s: %llu SRH evaluations for %llu candidates (gate: "
                 "equal)\n",
                 workload.name.c_str(),
                 static_cast<unsigned long long>(r.srh_evaluations),
                 static_cast<unsigned long long>(r.stats.candidates));
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  int passes = 0;
  try {
    passes = static_cast<int>(cli.get_count("passes", quick ? 5 : 40));
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "bench_rtn_generation: %s\n", err.what());
    return 2;
  }
  const int batches = quick ? 2 : 5;

  const Workload workloads[2] = {cell_fig8(), busy96()};
  Report reports[2];
  for (int w = 0; w < 2; ++w) {
    reports[w] = measure(workloads[w], passes, batches);
    std::printf("%-9s %4zu traps, Σ Λ·T %8.2f/pass: %.3f ms/pass, "
                "%llu candidates, %llu accepted, %llu SRH evaluations\n",
                workloads[w].name.c_str(), workloads[w].traps,
                workloads[w].lambda_t, reports[w].ms_per_pass,
                static_cast<unsigned long long>(reports[w].stats.candidates),
                static_cast<unsigned long long>(reports[w].stats.accepted),
                static_cast<unsigned long long>(reports[w].srh_evaluations));
  }

  std::printf("{\"bench\": \"rtn_generation\", \"quick\": %s, "
              "\"passes_per_batch\": %d, \"batches\": %d, ",
              quick ? "true" : "false", passes, batches);
  bool ok = report_workload(workloads[0], reports[0]);
  std::printf(", ");
  ok = report_workload(workloads[1], reports[1]) && ok;
  std::printf("}\n");
  return ok ? 0 : 1;
}
