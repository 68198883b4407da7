// Distributional equivalence of Algorithm 1 at the constant-sum bound Λ
// (DESIGN.md §11) against its reference oracles:
//
//  * the master equation on a bias-driven trap, sampled both through its
//    BiasPropensity and through the same `at()` behind a generic
//    FunctionalPropensity — which must agree bit for bit, since the
//    sampler sees only `at()` and the bound;
//  * the Gillespie SSA baseline under constant bias (KS on dwell laws);
//  * the master equation on the pipeline's own trap mix and bias
//    waveforms (the Fig. 8 cell), at a stated false-failure rate;
//  * itself, across thread counts: the device fan-out must be
//    bit-identical for threads ∈ {1, 8}.
//
// Runs under the `concurrency` ctest label so the TSan build exercises
// the batched-RNG fast path across executor workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baseline/gillespie.hpp"
#include "core/rtn_generator.hpp"
#include "core/uniformisation.hpp"
#include "physics/technology.hpp"
#include "physics/trap_profile.hpp"
#include "sram/methodology.hpp"
#include "sram/pattern.hpp"
#include "util/rng.hpp"

namespace samurai::core {
namespace {

using physics::TrapState;

/// One-sample KS statistic against Exp(rate).
double ks_exponential(std::vector<double> samples, double rate) {
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double cdf = 1.0 - std::exp(-rate * samples[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(cdf - lo), std::abs(cdf - hi)});
  }
  return d;
}

/// Two-sample KS statistic.
double ks_two_sample(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] <= b[j]) {
      ++i;
    } else {
      ++j;
    }
    const double fa = static_cast<double>(i) / static_cast<double>(a.size());
    const double fb = static_cast<double>(j) / static_cast<double>(b.size());
    d = std::max(d, std::abs(fa - fb));
  }
  return d;
}

class MajorantEquivalence : public ::testing::Test {
 protected:
  physics::Technology tech_ = physics::technology("90nm");
  physics::SrhModel model_{tech_};
  physics::Trap trap_{0.35 * tech_.t_ox, 0.55, TrapState::kEmpty};

  /// A write-pattern-like 0 -> V_dd square wave with fast edges, scaled to
  /// the trap's own total rate so the chain sees `periods` bias periods.
  Pwl make_bias(int periods) const {
    const double period = 4.0 / model_.total_rate(trap_);
    std::vector<double> times, values;
    times.push_back(0.0);
    values.push_back(0.0);
    for (int k = 0; k < periods; ++k) {
      const double t = static_cast<double>(k) * period;
      times.push_back(t + 0.48 * period);
      values.push_back(0.0);
      times.push_back(t + 0.50 * period);
      values.push_back(tech_.v_dd);
      times.push_back(t + 0.98 * period);
      values.push_back(tech_.v_dd);
      times.push_back(t + 1.00 * period);
      values.push_back(0.0);
    }
    return Pwl(times, values);
  }

  /// The bias (on a grid) where the trap is closest to resonance, i.e.
  /// min(λ_c, λ_e) is largest — guarantees a lively chain for dwell tests.
  double resonant_bias() const {
    double best_v = 0.0, best = -1.0;
    for (double v = 0.0; v <= 1.2; v += 0.01) {
      const auto p = model_.propensities(trap_, v);
      const double lively = std::min(p.lambda_c, p.lambda_e);
      if (lively > best) {
        best = lively;
        best_v = v;
      }
    }
    return best_v;
  }
};

TEST_F(MajorantEquivalence, BothPathsTrackTheMasterEquationUnderBias) {
  const Pwl bias = make_bias(5);
  const BiasPropensity prop(model_, trap_, bias, 0.01);
  // The same propensity and bound behind a generic wrapper: the sampler
  // has no BiasPropensity-specific path, so the runs must match bitwise.
  const FunctionalPropensity virtual_prop(
      [&](double t) { return prop.at(t).lambda_c; },
      [&](double t) { return prop.at(t).lambda_e; }, prop.total_rate());
  const double t_end = bias.times().back();
  const std::vector<double> probes = {0.3 * t_end, 0.55 * t_end,
                                      0.95 * t_end};
  std::vector<double> grid;
  const auto reference =
      master_equation_fill_probability(prop, 0.0, t_end, 0.0, 8000, &grid);

  const int runs = 3000;
  std::vector<double> filled(probes.size(), 0.0);
  UniformisationStats stats_bias, stats_virtual;
  util::Rng rng(2024);
  for (int r = 0; r < runs; ++r) {
    util::Rng rng_c = rng.split(static_cast<std::uint64_t>(r) + 1);
    util::Rng rng_v = rng.split(static_cast<std::uint64_t>(r) + 1);
    const auto c = simulate_trap(prop, 0.0, t_end, TrapState::kEmpty, rng_c,
                                 {}, &stats_bias);
    const auto v = simulate_trap(virtual_prop, 0.0, t_end,
                                 TrapState::kEmpty, rng_v, {}, &stats_virtual);
    ASSERT_EQ(c.switch_times(), v.switch_times()) << "run " << r;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (c.state_at(probes[i]) == TrapState::kFilled) filled[i] += 1.0;
    }
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const double h = grid[1] - grid[0];
    const auto idx = static_cast<std::size_t>(probes[i] / h);
    const double frac = probes[i] / h - static_cast<double>(idx);
    const double expected =
        reference[idx] + frac * (reference[idx + 1] - reference[idx]);
    // 3000 runs -> binomial σ <= 0.0092; allow 4σ.
    EXPECT_NEAR(filled[i] / runs, expected, 0.037)
        << "probe t=" << probes[i];
  }
  EXPECT_EQ(stats_bias.candidates, stats_virtual.candidates);
  EXPECT_EQ(stats_bias.accepted, stats_virtual.accepted);
}

TEST_F(MajorantEquivalence, MajorantDwellsMatchGillespieAtConstantBias) {
  const double v = resonant_bias();
  const auto rates = model_.propensities(trap_, v);
  const double total = rates.lambda_c + rates.lambda_e;
  ASSERT_GT(std::min(rates.lambda_c, rates.lambda_e), 0.05 * total)
      << "resonance scan failed to find a lively bias";

  const BiasPropensity prop(model_, trap_, Pwl::constant(v));
  const double horizon = 40000.0 / total;
  util::Rng rng_u(77), rng_g(88);
  const auto u =
      simulate_trap(prop, 0.0, horizon, TrapState::kEmpty, rng_u);
  const auto g = baseline::gillespie_stationary(
      rates.lambda_c, rates.lambda_e, 0.0, horizon, TrapState::kEmpty, rng_g);

  const auto du = u.dwell_times(true);
  const auto dg = g.dwell_times(true);
  ASSERT_GT(du.empty.size(), 500u);
  ASSERT_GT(dg.empty.size(), 500u);
  // Each of the four KS comparisons runs at α = 0.01 (asymptotic critical
  // value 1.63/√n_eff, two-sample and one-sample), so a fresh seed fails a
  // correct sampler with probability <= 0.04; the seeds here are fixed.
  const auto crit2 = [](std::size_t na, std::size_t nb) {
    const double n_eff = 1.0 / (1.0 / static_cast<double>(na) +
                                1.0 / static_cast<double>(nb));
    return 1.63 / std::sqrt(n_eff);
  };
  EXPECT_LT(ks_two_sample(du.empty, dg.empty),
            crit2(du.empty.size(), dg.empty.size()));
  EXPECT_LT(ks_two_sample(du.filled, dg.filled),
            crit2(du.filled.size(), dg.filled.size()));
  // The propensities are constant at constant bias, so the dwell laws are
  // exactly exponential too.
  EXPECT_LT(ks_exponential(du.empty, rates.lambda_c),
            1.63 / std::sqrt(static_cast<double>(du.empty.size())));
  EXPECT_LT(ks_exponential(du.filled, rates.lambda_e),
            1.63 / std::sqrt(static_cast<double>(du.filled.size())));
}

/// Bernstein half-width for a Bernoulli mean from `n` draws at true
/// probability `p`: P(|p̂ - p| >= ε) <= alpha. Unlike the normal z-bound
/// it stays valid when n·p is small (traps pinned near empty or full),
/// and for moderate p it is the z-bound with z = sqrt(2 ln(2/alpha)).
double bernstein_half_width(double p, double n, double alpha) {
  const double l = std::log(2.0 / alpha);
  const double var = p * (1.0 - p);
  const double root = std::sqrt((4.0 / 9.0) * l * l + 8.0 * n * var * l);
  return ((2.0 / 3.0) * l + root) / (2.0 * n);
}

// Statistical gate on the pipeline's real trap mix: the paper's Fig. 8
// cell (90 nm, V_dd 0.9 V, bits [1,1,0,1,0,1,0,0,1], ×30). For every
// device, its extracted V_gs(t) and every trap of its sampled profile with
// Λ·T >= 1 (the traps that actually switch; the rest draw ~no candidates)
// are run through Algorithm 1 on fixed seeds, and the empirical fill
// fraction at 16 times is compared with the master equation solved on the
// same BiasPropensity. Each comparison is Bonferroni-corrected so the
// whole gate fails a correct sampler with probability <= 1e-6.
TEST(PipelineTrapMix, OccupancyTracksTheMasterEquation) {
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.tech.v_dd = 0.9;
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = sram::ops_from_bits({1, 1, 0, 1, 0, 1, 0, 0, 1});
  config.rtn_scale = 30.0;
  config.seed = 7;
  const auto run = sram::run_methodology(config);
  const physics::SrhModel model(config.tech);
  const double t0 = 0.0;
  const double tf = run.pattern.t_end;
  const RtnGeneratorOptions defaults;

  struct Case {
    const spice::DeviceRtnTrace* trace;
    physics::Trap trap;
  };
  std::vector<Case> cases;
  for (const auto& trace : run.rtn) {
    for (const auto& trap : trace.traps) {
      if (model.total_rate(trap) * (tf - t0) >= 1.0) {
        cases.push_back({&trace, trap});
      }
    }
  }
  ASSERT_GE(cases.size(), 5u) << "too few active traps to gate on";

  constexpr std::size_t kProbes = 16;
  constexpr std::size_t kStride = 1024;  // RK4 steps between probes
  constexpr int kRuns = 2000;
  constexpr double kTotalAlpha = 1e-6;
  const double alpha =
      kTotalAlpha / static_cast<double>(cases.size() * kProbes);
  // RK4 on ~17k steps: its own error is orders below the statistical
  // bound (halving the step moves no probe by more than 3e-6).
  constexpr double kReferenceSlack = 1e-5;

  util::Rng root(20240611);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& trap = cases[c].trap;
    const BiasSchedule schedule =
        BiasSchedule::build(cases[c].trace->v_gs, defaults.max_bias_step);
    const BiasPropensity prop(model, trap, schedule);
    const double p0 = trap.init_state == TrapState::kFilled ? 1.0 : 0.0;
    std::vector<double> grid;
    const auto reference = master_equation_fill_probability(
        prop, t0, tf, p0, (kProbes + 1) * kStride, &grid);

    std::vector<double> filled(kProbes, 0.0);
    for (int r = 0; r < kRuns; ++r) {
      util::Rng rng =
          root.split(c * kRuns + static_cast<std::uint64_t>(r) + 1);
      const auto traj = simulate_trap(prop, t0, tf, trap.init_state, rng,
                                      defaults.uniformisation);
      for (std::size_t k = 0; k < kProbes; ++k) {
        if (traj.state_at(grid[(k + 1) * kStride]) == TrapState::kFilled) {
          filled[k] += 1.0;
        }
      }
    }
    for (std::size_t k = 0; k < kProbes; ++k) {
      const double p = std::clamp(reference[(k + 1) * kStride], 0.0, 1.0);
      const double bound =
          bernstein_half_width(p, kRuns, alpha) + kReferenceSlack;
      EXPECT_NEAR(filled[k] / kRuns, p, bound)
          << cases[c].trace->name << " trap y=" << trap.y_tr
          << " e=" << trap.e_tr << " Λ·T=" << model.total_rate(trap) * tf
          << " t=" << grid[(k + 1) * kStride];
    }
  }
}

TEST_F(MajorantEquivalence, DeviceFanOutIsBitIdenticalAcrossThreads) {
  const physics::MosDevice device{tech_, physics::MosType::kNmos,
                                  {220e-9, 90e-9}};
  physics::TrapProfileOptions profile;
  profile.fixed_count = 12;
  util::Rng profile_rng(501);
  const auto traps =
      physics::sample_trap_profile(tech_, device.geometry(), profile_rng,
                                   profile);
  const Pwl bias = make_bias(3);

  RtnGeneratorOptions options;
  options.t0 = 0.0;
  options.tf = bias.times().back();

  DeviceRtnResult results[2];
  const std::size_t thread_counts[2] = {1, 8};
  for (int k = 0; k < 2; ++k) {
    options.threads = thread_counts[k];
    util::Rng rng(777);  // same root stream for both thread counts
    results[k] = generate_device_rtn(model_, device, traps, bias,
                                     Pwl::constant(1e-4), rng, options);
  }
  ASSERT_EQ(results[0].trajectories.size(), results[1].trajectories.size());
  for (std::size_t i = 0; i < results[0].trajectories.size(); ++i) {
    const auto& a = results[0].trajectories[i];
    const auto& b = results[1].trajectories[i];
    ASSERT_EQ(a.switch_times().size(), b.switch_times().size())
        << "trap " << i;
    for (std::size_t s = 0; s < a.switch_times().size(); ++s) {
      EXPECT_EQ(a.switch_times()[s], b.switch_times()[s]);  // bit-identical, no tolerance
    }
  }
  // The reduced stats must be identical too (index-ordered reduction).
  EXPECT_EQ(results[0].stats.candidates, results[1].stats.candidates);
  EXPECT_EQ(results[0].stats.accepted, results[1].stats.accepted);
  EXPECT_EQ(results[0].stats.rng_refills, results[1].stats.rng_refills);
}

}  // namespace
}  // namespace samurai::core
