// Validation of Algorithm 1 (Markov uniformisation) against exact
// statistics: stationary occupancy and dwell laws, the time-dependent
// master equation for non-stationary propensities, and the windowed
// re-uniformisation variant.
#include "core/uniformisation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace samurai::core {
namespace {

using physics::TrapState;

TEST(Uniformisation, FrozenChainProducesNoEvents) {
  const ConstantPropensity prop(0.0, 0.0);
  util::Rng rng(1);
  const auto traj = simulate_trap(prop, 0.0, 100.0, TrapState::kEmpty, rng);
  EXPECT_EQ(traj.num_switches(), 0u);
}

TEST(Uniformisation, InvalidHorizonThrows) {
  const ConstantPropensity prop(1.0, 1.0);
  util::Rng rng(1);
  EXPECT_THROW(simulate_trap(prop, 1.0, 0.0, TrapState::kEmpty, rng),
               std::invalid_argument);
}

TEST(Uniformisation, BoundViolationIsDetected) {
  // Propensity exceeds the declared bound -> thinning would be biased;
  // the sampler must refuse rather than silently under-sample.
  const FunctionalPropensity prop([](double) { return 10.0; },
                                  [](double) { return 10.0; }, 1.0);
  util::Rng rng(2);
  EXPECT_THROW(simulate_trap(prop, 0.0, 100.0, TrapState::kEmpty, rng),
               std::runtime_error);
}

TEST(Uniformisation, CandidateBudgetGuards) {
  const ConstantPropensity prop(1e6, 1e6);
  util::Rng rng(3);
  UniformisationOptions options;
  options.max_candidates = 10;
  EXPECT_THROW(
      simulate_trap(prop, 0.0, 1.0, TrapState::kEmpty, rng, options),
      std::runtime_error);
}

TEST(Uniformisation, StatsSurviveBudgetAbort) {
  // Regression: the candidate count accumulated before the budget (or
  // bound-violation) throw used to be discarded, so diagnostics reported
  // zero work. The count must be flushed before the exception unwinds.
  const ConstantPropensity prop(1e6, 1e6);
  util::Rng rng(3);
  UniformisationOptions options;
  options.max_candidates = 10;
  UniformisationStats stats;
  EXPECT_THROW(
      simulate_trap(prop, 0.0, 1.0, TrapState::kEmpty, rng, options, &stats),
      std::runtime_error);
  // The throw fires when the count first exceeds the budget.
  EXPECT_EQ(stats.candidates, options.max_candidates + 1);
}

TEST(Uniformisation, StatsSurviveBoundViolationAbort) {
  // Propensity exceeds the declared bound midway: candidates drawn up to
  // the violation must still be reported.
  const FunctionalPropensity prop([](double t) { return t < 0.5 ? 1.0 : 10.0; },
                                  [](double) { return 1.0; }, 1.0);
  util::Rng rng(7);
  UniformisationStats stats;
  EXPECT_THROW(
      simulate_trap(prop, 0.0, 100.0, TrapState::kEmpty, rng, {}, &stats),
      std::runtime_error);
  EXPECT_GT(stats.candidates, 0u);
}

TEST(Uniformisation, FixedBoundCandidateCountMatchesPoissonRate) {
  const ConstantPropensity prop(3.0, 7.0);  // bound = max = 7
  util::Rng rng(4);
  UniformisationStats stats;
  const double horizon = 20000.0;
  (void)simulate_trap(prop, 0.0, horizon, TrapState::kEmpty, rng, {},
                      &stats);
  const double expected = 7.0 * horizon;
  EXPECT_NEAR(static_cast<double>(stats.candidates), expected,
              5.0 * std::sqrt(expected));
  EXPECT_LE(stats.accepted, stats.candidates);
}

TEST(Uniformisation, CandidateBudgetSpansAllWindows) {
  // Each window alone stays under the cap; the sum must not: the budget is
  // a total across windows, not per window.
  const ConstantPropensity prop(50.0, 50.0);
  UniformisationOptions options;  // draws at the bound, 50 per time unit
  options.max_candidates = 600;  // ~1000 expected over [0, 20]
  {
    util::Rng rng(21);
    EXPECT_NO_THROW(simulate_trap_windowed(prop, 0.0, 8.0, TrapState::kEmpty,
                                           {2.0, 4.0, 6.0}, rng, options));
  }
  {
    util::Rng rng(21);
    UniformisationStats stats;
    EXPECT_THROW(
        simulate_trap_windowed(prop, 0.0, 20.0, TrapState::kEmpty,
                               {5.0, 10.0, 15.0}, rng, options, &stats),
        std::runtime_error);
    // The abort fires on the candidate that crosses the total budget.
    EXPECT_EQ(stats.candidates, options.max_candidates + 1);
  }
}

TEST(Uniformisation, SquareWaveTracksMasterEquation) {
  // Square-wave chain: λ_c jumps at t = 4, λ_e at t = 8. Thinning at the
  // one bound 6.0 must reproduce the master equation across both jumps.
  auto lc = [](double t) { return t < 4.0 ? 0.2 : 6.0; };
  auto le = [](double t) { return t < 8.0 ? 1.0 : 0.1; };
  const FunctionalPropensity prop(lc, le, 6.0);
  const double t_end = 12.0;
  std::vector<double> grid;
  const auto reference =
      master_equation_fill_probability(prop, 0.0, t_end, 0.0, 4000, &grid);

  const std::vector<double> probes = {2.0, 6.0, 11.0};
  const int runs = 4000;
  std::vector<double> filled(probes.size(), 0.0);
  UniformisationStats stats;
  util::Rng rng(314);
  for (int r = 0; r < runs; ++r) {
    util::Rng run_rng = rng.split(static_cast<std::uint64_t>(r) + 1);
    const auto traj = simulate_trap(prop, 0.0, t_end, TrapState::kEmpty,
                                    run_rng, {}, &stats);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (traj.state_at(probes[i]) == TrapState::kFilled) filled[i] += 1.0;
    }
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const double h = grid[1] - grid[0];
    const auto idx = static_cast<std::size_t>(probes[i] / h);
    const double frac = probes[i] / h - static_cast<double>(idx);
    const double expected =
        reference[idx] + frac * (reference[idx + 1] - reference[idx]);
    EXPECT_NEAR(filled[i] / runs, expected, 0.032) << "probe t=" << probes[i];
  }
  // One bound per window: E[candidates] = 6.0 · 12 per run.
  const double expected_candidates = 6.0 * t_end * runs;
  EXPECT_NEAR(static_cast<double>(stats.candidates), expected_candidates,
              5.0 * std::sqrt(expected_candidates));
}

// Stationary chain: occupancy must converge to λc/(λc+λe) and mean dwell
// times to 1/λe (filled) and 1/λc (empty).
struct StationaryCase {
  double lambda_c;
  double lambda_e;
};

class StationaryValidation : public ::testing::TestWithParam<StationaryCase> {};

TEST_P(StationaryValidation, OccupancyAndDwellLaws) {
  const auto param = GetParam();
  const ConstantPropensity prop(param.lambda_c, param.lambda_e);
  util::Rng rng(42);
  const double total = param.lambda_c + param.lambda_e;
  const double horizon = 40000.0 / total;  // ~2e4 expected transitions
  const auto traj =
      simulate_trap(prop, 0.0, horizon, TrapState::kEmpty, rng);

  const double expected_fill = param.lambda_c / total;
  EXPECT_NEAR(traj.filled_fraction(), expected_fill, 0.03);

  const auto dwells = traj.dwell_times(true);
  ASSERT_GT(dwells.filled.size(), 100u);
  ASSERT_GT(dwells.empty.size(), 100u);
  double mean_filled = 0.0, mean_empty = 0.0;
  for (double d : dwells.filled) mean_filled += d;
  for (double d : dwells.empty) mean_empty += d;
  mean_filled /= static_cast<double>(dwells.filled.size());
  mean_empty /= static_cast<double>(dwells.empty.size());
  EXPECT_NEAR(mean_filled * param.lambda_e, 1.0, 0.08);
  EXPECT_NEAR(mean_empty * param.lambda_c, 1.0, 0.08);
}

INSTANTIATE_TEST_SUITE_P(
    RateSweep, StationaryValidation,
    ::testing::Values(StationaryCase{1.0, 1.0}, StationaryCase{5.0, 1.0},
                      StationaryCase{1.0, 5.0}, StationaryCase{100.0, 30.0},
                      StationaryCase{0.2, 0.7}));

// Dwell-time distribution: for an exponential with rate λ, the coefficient
// of variation is 1 and the median is ln2/λ.
TEST(Uniformisation, DwellTimesAreExponential) {
  const ConstantPropensity prop(2.0, 3.0);
  util::Rng rng(5);
  const auto traj = simulate_trap(prop, 0.0, 30000.0, TrapState::kEmpty, rng);
  auto dwells = traj.dwell_times(true);
  ASSERT_GT(dwells.empty.size(), 1000u);
  double sum = 0.0, sq = 0.0;
  for (double d : dwells.empty) {
    sum += d;
    sq += d * d;
  }
  const double n = static_cast<double>(dwells.empty.size());
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);  // CV of exponential = 1

  std::sort(dwells.empty.begin(), dwells.empty.end());
  const double median = dwells.empty[dwells.empty.size() / 2];
  EXPECT_NEAR(median / mean, std::numbers::ln2, 0.05);
}

// The heart of the validation: for a sinusoidally modulated chain the
// ensemble fill probability must track the master-equation solution at
// every probe time. This exercises genuine non-stationarity.
struct NonStationaryCase {
  double base;       ///< mean rate
  double amplitude;  ///< modulation depth (< base)
  double omega;      ///< angular frequency
};

class NonStationaryValidation
    : public ::testing::TestWithParam<NonStationaryCase> {};

TEST_P(NonStationaryValidation, EnsembleTracksMasterEquation) {
  const auto param = GetParam();
  auto lambda_c = [=](double t) {
    return param.base + param.amplitude * std::sin(param.omega * t);
  };
  auto lambda_e = [=](double t) {
    return param.base - param.amplitude * std::sin(param.omega * t);
  };
  const double bound = param.base + param.amplitude;
  const FunctionalPropensity prop(lambda_c, lambda_e, bound);

  const double t_end = 6.0 / param.base;
  const std::vector<double> probes = {0.3 * t_end, 0.6 * t_end, 0.95 * t_end};

  std::vector<double> grid;
  const auto reference =
      master_equation_fill_probability(prop, 0.0, t_end, 0.0, 4000, &grid);

  const int runs = 4000;
  std::vector<double> filled(probes.size(), 0.0);
  util::Rng rng(99);
  for (int r = 0; r < runs; ++r) {
    util::Rng run_rng = rng.split(static_cast<std::uint64_t>(r) + 1);
    const auto traj =
        simulate_trap(prop, 0.0, t_end, TrapState::kEmpty, run_rng);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (traj.state_at(probes[i]) == TrapState::kFilled) filled[i] += 1.0;
    }
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const double empirical = filled[i] / runs;
    // Interpolate the RK4 reference at the probe.
    const double h = grid[1] - grid[0];
    const auto idx = static_cast<std::size_t>(probes[i] / h);
    const double frac = probes[i] / h - static_cast<double>(idx);
    const double expected =
        reference[idx] + frac * (reference[idx + 1] - reference[idx]);
    // 4000 runs -> binomial σ <= 0.008; allow 4σ.
    EXPECT_NEAR(empirical, expected, 0.032)
        << "probe " << i << " t=" << probes[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModulationSweep, NonStationaryValidation,
    ::testing::Values(NonStationaryCase{2.0, 1.5, 4.0},
                      NonStationaryCase{2.0, 1.5, 40.0},
                      NonStationaryCase{10.0, 9.0, 15.0},
                      NonStationaryCase{1.0, 0.5, 0.5}));

TEST(Uniformisation, WindowedMatchesUnwindowedStatistically) {
  auto lambda_c = [](double t) { return t < 5.0 ? 3.0 : 0.3; };
  auto lambda_e = [](double t) { return t < 5.0 ? 1.0 : 0.1; };
  const FunctionalPropensity prop(lambda_c, lambda_e, 3.0);

  // Windowed with a tight per-window bound must give the same occupancy
  // statistics as the global-bound version.
  const int runs = 3000;
  double filled_global = 0.0, filled_windowed = 0.0;
  util::Rng rng(123);
  for (int r = 0; r < runs; ++r) {
    util::Rng rng_a = rng.split(2 * static_cast<std::uint64_t>(r) + 1);
    util::Rng rng_b = rng.split(2 * static_cast<std::uint64_t>(r) + 2);
    const auto a = simulate_trap(prop, 0.0, 10.0, TrapState::kEmpty, rng_a);
    UniformisationOptions options;  // per-window bound via rate_bound calls
    const auto b = simulate_trap_windowed(prop, 0.0, 10.0, TrapState::kEmpty,
                                          {5.0}, rng_b, options);
    if (a.state_at(9.5) == TrapState::kFilled) filled_global += 1.0;
    if (b.state_at(9.5) == TrapState::kFilled) filled_windowed += 1.0;
  }
  EXPECT_NEAR(filled_global / runs, filled_windowed / runs, 0.04);
}

TEST(Uniformisation, WindowedBoundariesMustIncrease) {
  const ConstantPropensity prop(1.0, 1.0);
  util::Rng rng(7);
  EXPECT_THROW(simulate_trap_windowed(prop, 0.0, 10.0, TrapState::kEmpty,
                                      {5.0, 5.0}, rng),
               std::invalid_argument);
}

TEST(Uniformisation, WindowedIgnoresBoundariesOutsideHorizon) {
  const ConstantPropensity prop(2.0, 2.0);
  util::Rng rng(8);
  const auto traj = simulate_trap_windowed(
      prop, 1.0, 3.0, TrapState::kEmpty, {-1.0, 0.5, 2.0, 5.0}, rng);
  EXPECT_DOUBLE_EQ(traj.t0(), 1.0);
  EXPECT_DOUBLE_EQ(traj.tf(), 3.0);
}

TEST(Uniformisation, SafetyFactorPreservesStatistics) {
  // An over-generous bound (5x the tight one) must not change the law,
  // only the cost.
  const ConstantPropensity prop(4.0, 2.0);
  const FunctionalPropensity loose([](double) { return 4.0; },
                                   [](double) { return 2.0; },
                                   5.0 * prop.rate_bound(0.0, 5000.0));
  util::Rng rng_a(11), rng_b(12);
  UniformisationStats stats_tight, stats_loose;
  const auto a = simulate_trap(prop, 0.0, 5000.0, TrapState::kEmpty, rng_a,
                               {}, &stats_tight);
  const auto b = simulate_trap(loose, 0.0, 5000.0, TrapState::kEmpty, rng_b,
                               {}, &stats_loose);
  EXPECT_NEAR(a.filled_fraction(), b.filled_fraction(), 0.03);
  EXPECT_GT(stats_loose.candidates, 3 * stats_tight.candidates);
}

// ----------------------------------------------------- master equation

TEST(MasterEquation, ConstantRatesRelaxExponentially) {
  const ConstantPropensity prop(3.0, 1.0);
  const auto p = master_equation_fill_probability(prop, 0.0, 2.0, 0.0, 2000);
  const double total = 4.0;
  const double p_inf = 3.0 / 4.0;
  // p(t) = p_inf (1 - e^{-Λ t}).
  const double expected_end = p_inf * (1.0 - std::exp(-total * 2.0));
  EXPECT_NEAR(p.back(), expected_end, 1e-8);
  EXPECT_NEAR(p.front(), 0.0, 1e-12);
}

TEST(MasterEquation, EquilibriumStartStaysPut) {
  const ConstantPropensity prop(2.0, 6.0);
  const double p_eq = 0.25;
  const auto p = master_equation_fill_probability(prop, 0.0, 3.0, p_eq, 500);
  for (double v : p) EXPECT_NEAR(v, p_eq, 1e-10);
}

TEST(MasterEquation, ZeroStepsThrows) {
  const ConstantPropensity prop(1.0, 1.0);
  EXPECT_THROW(master_equation_fill_probability(prop, 0.0, 1.0, 0.0, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace samurai::core
