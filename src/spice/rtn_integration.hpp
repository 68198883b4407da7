// The two-pass SAMURAI <-> SPICE driver — the paper's methodology (Fig. 8
// left) for *any* circuit. Every RTN run in the library goes through it:
// the SRAM cell methodology, columns, R×C arrays, the ring oscillator and
// parsed netlists, which request trap-level RTN on MOSFETs via `.rtn`
// cards:
//
//   .rtn M1 scale=30 seed=7
//
// Flow: run the nominal transient, extract each requested device's
// time-varying bias, sample a trap profile, run Algorithm 1, and re-run
// the transient with the I_RTN traces injected opposing each channel
// current.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/rtn_generator.hpp"
#include "core/waveform.hpp"
#include "physics/trap.hpp"
#include "physics/trap_profile.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/devices.hpp"
#include "util/rng.hpp"

namespace samurai::spice {

/// One device's RTN request. Callers derive the two RNG streams by their
/// own convention, so a run's traces depend only on its requests.
struct RtnRequest {
  std::string device;     ///< Mosfet name in the circuit
  double scale = 1.0;     ///< amplitude scaling (paper's x30)
  util::Rng profile_rng;  ///< trap-population stream
  util::Rng trap_rng;     ///< Algorithm-1 trajectory stream
  bool inject = true;     ///< false: generate the trace but do not inject it

  /// The netlist convention (also used by columns and arrays): both
  /// streams split off `Rng(seed)`, with tags 101 and 977.
  static RtnRequest seeded(std::string device, double scale,
                           std::uint64_t seed);
};

/// Extract a MOSFET's NMOS-equivalent gate bias V_gs(t) (positive when
/// the channel conducts) and signed channel current I_d(t) from a
/// transient solution.
void extract_device_bias(const TransientResult& result, const Circuit& circuit,
                         const Mosfet& mosfet, core::Pwl& v_gs, core::Pwl& i_d);

/// One device's SAMURAI outputs.
struct DeviceRtnTrace {
  std::string name;               ///< the requested device
  std::vector<physics::Trap> traps;
  core::Pwl v_gs;                 ///< extracted NMOS-equivalent bias
  core::Pwl i_d;                  ///< nominal channel current, signed
  core::StepTrace n_filled;       ///< trap occupancy (Fig. 8 (b),(c))
  core::Pwl i_rtn;                ///< Eq. 3 trace (Fig. 8 (d)), signed
  core::UniformisationStats stats;
};

struct RtnTransientResult {
  TransientResult nominal;
  TransientResult with_rtn;
  std::vector<DeviceRtnTrace> traces;  ///< index-aligned with the requests
  // Wall-clock phase split: circuit build + nominal transient; bias
  // extraction, trap sampling and Algorithm 1 for every device; circuit
  // build + injected transient.
  double nominal_seconds = 0.0;
  double generation_seconds = 0.0;
  double injected_seconds = 0.0;
};

/// Run the two-pass RTN methodology on a circuit factory: `build` must
/// produce identical circuits on each call (it is invoked twice — once
/// for the nominal run, once for the injected run). Unknown device names
/// in `requests` throw std::invalid_argument.
///
/// Run-wide settings: `profile` shapes every trap population;
/// `generator` is forwarded to every generate_device_rtn call, except that
/// its window is the transient's, its amplitude scale is each request's,
/// and its `threads` sets how many devices are generated at once (each
/// device's traps then run serially; the result is bit-identical for any
/// width). `emit_breakpoints = false` makes the injected sources
/// grid-sampled (CurrentSource::set_emit_breakpoints).
RtnTransientResult run_rtn_transient(
    const std::function<std::unique_ptr<Circuit>()>& build,
    const TransientOptions& options, const std::vector<RtnRequest>& requests,
    const physics::TrapProfileOptions& profile = {},
    const core::RtnGeneratorOptions& generator = {},
    bool emit_breakpoints = true);

/// Convenience: parse a netlist containing `.rtn` cards and run the full
/// flow (the netlist must contain `.tran`).
RtnTransientResult run_netlist_rtn(const std::string& netlist_text);

}  // namespace samurai::spice
