// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a library layer: its name ("spice.nominal",
// "core.propensity", ...), start and end on one steady clock, the span
// that caused it, the run (public-call) id it belongs to and the thread
// it ran on. Spans opened on the calling thread outside any parallel
// region also carry the SolverStats / UniformisationStats snapshot deltas
// of their interval; inside a parallel region the process-wide registries
// mix every thread's work, so those spans carry none.
//
// Spans are kept in memory and written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/uniformisation.hpp"
#include "spice/analysis.hpp"

namespace perfbench {

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a run's root span
  std::uint64_t run = 0;
  std::uint32_t thread = 0;
  const char* name = "";
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  bool has_counts = false;
  samurai::spice::SolverStats solver;
  samurai::core::UniformisationStats rtn;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span. `parent` < 0 means "the innermost open span on this
  /// thread" (or a root span when there is none).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const noexcept { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
    std::int64_t saved_current_ = -1;
  };

  /// Every span opened from now on belongs to run `run`.
  void begin_run(std::uint64_t run) { run_ = run; }
  /// Parallel regions: spans opened while `concurrent` is set carry no
  /// counter deltas (see the header comment).
  void set_concurrent(bool concurrent) { concurrent_ = concurrent; }

  double now() const;
  std::vector<Span> spans() const;

  /// One flat JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  void record(const Span& span);

  std::chrono::steady_clock::time_point origin_;
  std::uint64_t run_ = 0;
  bool concurrent_ = false;
  mutable std::mutex mutex_;  ///< guards spans_ and next_id_
  std::vector<Span> spans_;
  std::int64_t next_id_ = 0;
};

/// Per-run analysis of the recorded spans.
struct RunProfile {
  /// Σ self time (duration minus same-thread children) per span name,
  /// summed over threads: wall time in serial code, thread-seconds inside
  /// parallel regions.
  std::map<std::string, double> self_seconds;
  double root_seconds = 0.0;  ///< wall time of the run's root span
  /// Share of the root span's wall covered by its direct children.
  double coverage = 0.0;
};

RunProfile profile_run(const std::vector<Span>& spans, std::uint64_t run);

}  // namespace perfbench
