// The paper's Fig. 8 pipeline on one 6T cell, rebuilt from the layers'
// public functions with a span around each call. Shared by the cell_fig8
// and campaign_yield workloads (every campaign sample is one such cell).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rtn_generator.hpp"
#include "physics/srh_model.hpp"
#include "physics/trap.hpp"
#include "sram/methodology.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

/// Inputs of one generate_device_rtn call, kept so the side probe can
/// re-run its public parts on exactly the same inputs.
struct ProbeInput {
  std::shared_ptr<const samurai::physics::SrhModel> srh;
  std::vector<samurai::physics::Trap> traps;
  samurai::core::Pwl v_gs;
  samurai::util::Rng rng;  ///< the stream the call received
  samurai::core::RtnGeneratorOptions gen;
  std::uint64_t trajectory_digest = 0;  ///< the call's trajectories
  samurai::core::UniformisationStats call_stats;
};

/// Span run ids: call k's composition and its side probe.
inline std::uint64_t composition_run(std::size_t call) { return 2 * call; }
inline std::uint64_t probe_run(std::size_t call) { return 2 * call + 1; }

/// sram::run_methodology rebuilt from public calls; appends one
/// ProbeInput per transistor.
samurai::sram::MethodologyResult compose_methodology(
    const samurai::sram::MethodologyConfig& config, Tracer& tracer,
    std::vector<ProbeInput>& probes);

/// The side probe of one traced call. For every recorded input it times
/// BiasSchedule::build, then BiasPropensity construction and simulate_trap
/// on the rng.split(i + 1) streams (one core.probe span each; the three
/// parts' seconds go to `tally`). It fails `result` unless the
/// trajectories and sampler counts equal the call's, and adds
/// core.propensity_points and core.traps_switched to `tally`. Runs under
/// one "probe" root span (run id probe_run(call)) on `threads`
/// participants, like the phase it mirrors.
void run_probes(const std::vector<const ProbeInput*>& probes, Tracer& tracer,
                std::size_t call, std::size_t threads, Tally& tally,
                CallResult& result);

std::uint64_t digest_trajectories(
    const std::vector<samurai::core::TrapTrajectory>& trajectories);
void add_digest(Digest& digest, const samurai::sram::MethodologyResult& run);

/// cell_fig8's output checks: the nominal pattern is written without
/// error, all six I_RTN traces are finite, the injected transient ran to
/// the end of the pattern.
void check_methodology(const samurai::sram::MethodologyResult& run,
                       CallResult& result);

/// Per-layer counts of one pipeline run.
void tally_methodology(const samurai::sram::MethodologyResult& run,
                       Tally& tally);

}  // namespace perfbench
