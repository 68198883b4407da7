// Markov uniformisation — the SAMURAI core (paper §III, Algorithm 1).
//
// A two-state time-inhomogeneous Markov chain with propensities
// λ_c(t), λ_e(t) is simulated *exactly* by:
//   1. generating candidate events from a homogeneous Poisson process of
//      rate λ* >= max_t max(λ_c, λ_e)   (the "uniformised" chain), then
//   2. accepting each candidate with probability λ_next(t)/λ*, where
//      λ_next is the propensity out of the current state at the candidate
//      time (thinning).
// The accepted events are distributed exactly as the original chain's
// transitions (Heidelberger & Nicol 1993; Shanthikumar 1986).
//
// For an SRH trap the paper's constant sum Λ = λ_c + λ_e (Eq. 1) is the
// bound: it is exact, independent of bias and known before any bias is
// looked at, so each window draws at Λ and the propensity is evaluated
// only at the candidate times (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <vector>

#include "core/propensity.hpp"
#include "core/trajectory.hpp"
#include "physics/trap.hpp"
#include "util/rng.hpp"

namespace samurai::core {

struct UniformisationOptions {
  /// Hard cap on candidate events, *total across all windows* of one
  /// simulate call; exceeding it throws (guards against a mis-specified
  /// bound or horizon even when a caller splits the horizon into many
  /// windows).
  std::uint64_t max_candidates = 500'000'000;
};

/// Sampler work counters. Merged into a process-wide atomic registry on
/// every simulate call (uniformisation_stats_snapshot) so the campaign
/// runtime can attribute per-shard RTN-generation work without threading
/// state through every sample type — same scheme as spice::SolverStats.
struct UniformisationStats {
  std::uint64_t candidates = 0;   ///< thinning candidates drawn (one
                                  ///< propensity evaluation each)
  std::uint64_t accepted = 0;     ///< candidates that became transitions
  std::uint64_t rng_refills = 0;  ///< RNG block refills

  void merge(const UniformisationStats& other);
  /// Counter-wise `this - other` (for before/after snapshot deltas).
  UniformisationStats since(const UniformisationStats& other) const;
};

/// Process-wide aggregate of every simulate call so far (atomic,
/// thread-safe). Snapshot before/after a work region and diff with
/// UniformisationStats::since to attribute sampler work to that region.
UniformisationStats uniformisation_stats_snapshot();

namespace detail {
void uniformisation_stats_accumulate(const UniformisationStats& stats);
}  // namespace detail

/// Algorithm 1: simulate one trap over [t0, tf]. Faithful to the paper:
/// exponential inter-candidate times at one bound λ* per window, thinning
/// by λ_next/λ*, where λ* is the propensity's own rate_bound and λ_next
/// comes from one `at` call per candidate.
TrapTrajectory simulate_trap(const PropensityFunction& propensity, double t0,
                             double tf, physics::TrapState init_state,
                             util::Rng& rng,
                             const UniformisationOptions& options = {},
                             UniformisationStats* stats = nullptr);

/// Windowed re-uniformisation: split [t0, tf] at `window_boundaries`
/// (strictly increasing, interior points only) and run Algorithm 1 per
/// window with that window's bound. Exactness is preserved
/// because the thinned process restarted at a deterministic time is still
/// the same inhomogeneous chain. The candidate budget spans all windows.
TrapTrajectory simulate_trap_windowed(const PropensityFunction& propensity,
                                      double t0, double tf,
                                      physics::TrapState init_state,
                                      const std::vector<double>& window_boundaries,
                                      util::Rng& rng,
                                      const UniformisationOptions& options = {},
                                      UniformisationStats* stats = nullptr);

/// Reference solution of the chain's master equation
///   dp_filled/dt = λ_c(t) (1 - p_filled) - λ_e(t) p_filled
/// by classic RK4 on `steps` sub-intervals. Used to validate the sampler.
std::vector<double> master_equation_fill_probability(
    const PropensityFunction& propensity, double t0, double tf,
    double p_filled_0, std::size_t steps, std::vector<double>* grid = nullptr);

}  // namespace samurai::core
