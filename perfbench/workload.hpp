// The benchmark's workloads. Each one drives a public pipeline call
// (untraced) and can rebuild the same call from the layers' public
// functions under the span recorder (traced), so the two can be compared
// bit for bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/uniformisation.hpp"
#include "spice/analysis.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Smoke-test sizes: 2 cell seeds, a one-shard campaign.
  bool tiny = false;
  /// Scratch directory inside the checkout (campaign checkpoints, spans).
  std::string work_dir;
};

/// Named per-call values (per-layer counts and seconds).
using Tally = std::map<std::string, double>;

/// Outcome of one public call or of its traced composition.
struct CallResult {
  bool ok = true;
  std::string error;          ///< first failed output check
  std::uint64_t digest = 0;   ///< hash of every output the call returns
  std::uint64_t units = 1;    ///< units the call completes
  /// Per-unit latencies this call yields (cell: none, the caller
  /// times the call; campaign: seconds per sample, one per shard).
  std::vector<double> unit_seconds;
  /// Sampler work the traced run's side probe added to the process-wide
  /// registry (not part of the public call).
  samurai::core::UniformisationStats probe_rtn;

  void fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One repetition of the workload's set-up (inputs, warm-up).
  virtual void setup() = 0;
  /// Upper bound on calls per run (smoke sizes only; 0 = unbounded).
  virtual std::size_t max_calls() const = 0;
  /// The untraced public call number `call`. Call k runs seed + k, so no
  /// two calls of a run share their inputs; call 0 is re-run after the
  /// loop to check that the same inputs give the same outputs.
  virtual CallResult run(std::size_t call) = 0;
  /// The same call rebuilt from the layers' public functions with spans
  /// around each, plus the side probe of generate_device_rtn's parts.
  /// Fills `tally` with the call's per-layer counts and probe timings.
  virtual CallResult run_traced(std::size_t call, Tracer& tracer,
                                Tally& tally) = 0;
};

std::unique_ptr<Workload> make_cell_fig8(const Options& options);
std::unique_ptr<Workload> make_campaign_yield(const Options& options);

/// FNV-1a over raw bytes: the outputs' bit patterns, not their values.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void add(double value) { bytes(&value, sizeof value); }
  void add(std::uint64_t value) { bytes(&value, sizeof value); }
  void add(std::span<const double> values) {
    add(static_cast<std::uint64_t>(values.size()));
    bytes(values.data(), values.size() * sizeof(double));
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

inline bool all_finite(std::span<const double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Process CPU seconds (all threads).
double process_cpu_seconds();

/// Moves the calling thread round the CPUs of its original affinity set.
/// On a shared host each CPU's speed drifts on its own for seconds at a
/// time, and an otherwise idle scheduler leaves a caller's serial work on
/// one CPU, so a run inherits that CPU's state. Moving the caller to the
/// next CPU before each call averages the CPUs' states within a run
/// (cell_fig8 ten-seed spread of run_s_p50: 0.18–0.20 without, 0.07–0.11
/// with it). campaign_yield does not rotate: threads inherit the affinity
/// of the thread that creates them, so its pool would share one CPU.
class CpuRotation {
 public:
  CpuRotation();
  /// Pins the calling thread to the next CPU (best effort).
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Add one transient's solver counts to the spice.* tally; its accepted
/// steps go to `steps_key` (spice.nominal_steps or spice.injected_steps).
void tally_solver(Tally& tally, const char* steps_key,
                  const samurai::spice::SolverStats& stats);

}  // namespace perfbench
