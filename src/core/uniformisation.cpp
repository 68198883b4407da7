#include "core/uniformisation.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <stdexcept>

namespace samurai::core {

// ------------------------------------------------------------------ stats

#define SAMURAI_UNI_STAT_FIELDS(X) \
  X(candidates)                    \
  X(accepted)                      \
  X(rng_refills)

void UniformisationStats::merge(const UniformisationStats& other) {
#define X(field) field += other.field;
  SAMURAI_UNI_STAT_FIELDS(X)
#undef X
}

UniformisationStats UniformisationStats::since(
    const UniformisationStats& other) const {
  UniformisationStats delta;
#define X(field) delta.field = field - other.field;
  SAMURAI_UNI_STAT_FIELDS(X)
#undef X
  return delta;
}

namespace {

struct AtomicUniformisationStats {
#define X(field) std::atomic<std::uint64_t> field{0};
  SAMURAI_UNI_STAT_FIELDS(X)
#undef X
};

AtomicUniformisationStats& global_uniformisation_stats() {
  static AtomicUniformisationStats stats;
  return stats;
}

}  // namespace

UniformisationStats uniformisation_stats_snapshot() {
  auto& global = global_uniformisation_stats();
  UniformisationStats stats;
#define X(field) stats.field = global.field.load(std::memory_order_relaxed);
  SAMURAI_UNI_STAT_FIELDS(X)
#undef X
  return stats;
}

namespace detail {
void uniformisation_stats_accumulate(const UniformisationStats& stats) {
  auto& global = global_uniformisation_stats();
#define X(field) \
  global.field.fetch_add(stats.field, std::memory_order_relaxed);
  SAMURAI_UNI_STAT_FIELDS(X)
#undef X
}
}  // namespace detail

// ----------------------------------------------------------------- kernel

namespace {

/// Refilled blocks of (unit-exponential, uniform) pairs. One pair per
/// candidate keeps the inner loop branch-light: the only refill branch is
/// a single counter compare. A refill is sized to the expected number of
/// candidates left in the window (bound × remaining time), so a trap that
/// draws none costs one small block.
class RngBlock {
 public:
  struct Pair {
    double exp1;
    double uniform;
  };

  Pair draw(util::Rng& rng, double bound, double remaining,
            std::uint64_t& refills) noexcept {
    if (next_ == size_) refill(rng, bound, remaining, refills);
    const Pair pair{exp_[next_], uni_[next_]};
    ++next_;
    return pair;
  }

 private:
  void refill(util::Rng& rng, double bound, double remaining,
              std::uint64_t& refills) noexcept {
    const double expected = std::min(bound * remaining, 4096.0);
    const std::size_t n =
        std::min(kCapacity, static_cast<std::size_t>(expected) + 4);
    rng.fill_exponential_unit(exp_.data(), n);
    rng.fill_uniform(uni_.data(), n);
    size_ = n;
    next_ = 0;
    ++refills;
  }

  static constexpr std::size_t kCapacity = 256;
  std::array<double, kCapacity> exp_;
  std::array<double, kCapacity> uni_;
  std::size_t size_ = 0;
  std::size_t next_ = 0;
};

/// Algorithm 1 over one window at the fixed bound `bound`, appending
/// accepted switch times. Returns the state at `tf`.
physics::TrapState run_window(const PropensityFunction& propensity,
                              double bound, double t0, double tf,
                              physics::TrapState state,
                              util::Rng& rng, RngBlock& block,
                              const UniformisationOptions& options,
                              std::uint64_t& candidates_total,
                              UniformisationStats& local,
                              std::vector<double>& switches) {
  if (!(bound > 0.0)) return state;  // certified frozen: no events
  double t = t0;
  for (;;) {
    const auto pair = block.draw(rng, bound, tf - t, local.rng_refills);
    t += pair.exp1 / bound;
    if (t >= tf) break;  // candidate past the window (line 9)
    ++local.candidates;
    if (++candidates_total > options.max_candidates) {
      throw std::runtime_error("uniformisation: candidate budget exceeded "
                               "(bad bound or horizon?)");
    }
    const physics::Propensities p = propensity.at(t);
    const double lambda_next = state == physics::TrapState::kFilled
                                   ? p.lambda_e   // line 11
                                   : p.lambda_c;  // line 13
    if (lambda_next > bound * (1.0 + 1e-9)) {
      throw std::runtime_error("uniformisation: propensity exceeds bound "
                               "— thinning would be biased");
    }
    if (pair.uniform * bound < lambda_next) {  // line 15
      switches.push_back(t);
      state = toggled(state);
      ++local.accepted;
    }
  }
  return state;
}

/// Merge the per-call counters into the caller's stats and the process
/// registry on *every* exit — including the budget and bound-violation
/// throws — so diagnostics reflect the work actually done before an abort.
struct FlushStats {
  UniformisationStats* stats;
  const UniformisationStats* local;
  ~FlushStats() {
    if (stats) stats->merge(*local);
    detail::uniformisation_stats_accumulate(*local);
  }
};

TrapTrajectory simulate_windows(const PropensityFunction& propensity,
                                double t0, double tf,
                                physics::TrapState init_state,
                                const std::vector<double>& window_boundaries,
                                util::Rng& rng,
                                const UniformisationOptions& options,
                                UniformisationStats* stats) {
  UniformisationStats local;
  FlushStats flush{stats, &local};
  std::vector<double> switches;
  physics::TrapState state = init_state;
  std::uint64_t candidates_total = 0;
  RngBlock block;
  double start = t0;
  auto run_to = [&](double end) {
    if (!(end > start)) return;
    const double bound = propensity.rate_bound(start, end);
    if (!(bound >= 0.0) || !std::isfinite(bound)) {
      throw std::invalid_argument("uniformisation: invalid rate bound");
    }
    state = run_window(propensity, bound, start, end, state, rng, block,
                       options, candidates_total, local, switches);
    start = end;
  };
  for (double boundary : window_boundaries) {
    if (boundary <= t0) continue;
    if (boundary >= tf) break;
    if (!(boundary > start)) {
      throw std::invalid_argument(
          "simulate_trap_windowed: boundaries must be strictly increasing");
    }
    run_to(boundary);
  }
  run_to(tf);
  return TrapTrajectory(t0, tf, init_state, std::move(switches));
}

}  // namespace

TrapTrajectory simulate_trap(const PropensityFunction& propensity, double t0,
                             double tf, physics::TrapState init_state,
                             util::Rng& rng,
                             const UniformisationOptions& options,
                             UniformisationStats* stats) {
  if (!(tf >= t0)) throw std::invalid_argument("simulate_trap: tf < t0");
  return simulate_windows(propensity, t0, tf, init_state, {}, rng, options,
                          stats);
}

TrapTrajectory simulate_trap_windowed(const PropensityFunction& propensity,
                                      double t0, double tf,
                                      physics::TrapState init_state,
                                      const std::vector<double>& window_boundaries,
                                      util::Rng& rng,
                                      const UniformisationOptions& options,
                                      UniformisationStats* stats) {
  if (!(tf >= t0)) throw std::invalid_argument("simulate_trap_windowed: tf < t0");
  return simulate_windows(propensity, t0, tf, init_state, window_boundaries,
                          rng, options, stats);
}

std::vector<double> master_equation_fill_probability(
    const PropensityFunction& propensity, double t0, double tf,
    double p_filled_0, std::size_t steps, std::vector<double>* grid) {
  if (steps == 0) throw std::invalid_argument("master equation: steps == 0");
  const double h = (tf - t0) / static_cast<double>(steps);
  auto rhs = [&](double t, double p) {
    const physics::Propensities pr = propensity.at(t);
    return pr.lambda_c * (1.0 - p) - pr.lambda_e * p;
  };
  std::vector<double> out;
  out.reserve(steps + 1);
  if (grid) {
    grid->clear();
    grid->reserve(steps + 1);
  }
  double p = p_filled_0;
  double t = t0;
  out.push_back(p);
  if (grid) grid->push_back(t);
  for (std::size_t i = 0; i < steps; ++i) {
    const double k1 = rhs(t, p);
    const double k2 = rhs(t + 0.5 * h, p + 0.5 * h * k1);
    const double k3 = rhs(t + 0.5 * h, p + 0.5 * h * k2);
    const double k4 = rhs(t + h, p + h * k3);
    p += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    t = t0 + static_cast<double>(i + 1) * h;
    out.push_back(p);
    if (grid) grid->push_back(t);
  }
  return out;
}

}  // namespace samurai::core
