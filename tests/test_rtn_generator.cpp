#include "core/rtn_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "physics/technology.hpp"
#include "physics/trap_profile.hpp"

namespace samurai::core {
namespace {

class RtnGeneratorTest : public ::testing::Test {
 protected:
  physics::Technology tech_ = physics::technology("90nm");
  physics::SrhModel srh_{tech_};
  physics::MosDevice device_{tech_, physics::MosType::kNmos, {220e-9, 90e-9}};
};

TEST_F(RtnGeneratorTest, AmplitudeMatchesEq3) {
  // ΔI = I_d / (W L N) exactly, with the carrier count floored at one.
  const double v_gs = 1.0;
  const double i_d = 1e-4;
  const double expected = i_d / device_.carrier_count(v_gs);
  EXPECT_NEAR(rtn_amplitude(device_, v_gs, i_d), expected, expected * 1e-12);
}

TEST_F(RtnGeneratorTest, AmplitudeFloorsCarrierCount) {
  // Deep subthreshold: carrier count < 1 is floored, so the amplitude
  // cannot exceed |I_d|.
  const double amp = rtn_amplitude(device_, -0.5, 1e-9);
  EXPECT_LE(amp, 1e-9 * (1.0 + 1e-12));
}

TEST_F(RtnGeneratorTest, BadHorizonThrows) {
  util::Rng rng(1);
  RtnGeneratorOptions options;
  options.t0 = 1.0;
  options.tf = 0.5;
  EXPECT_THROW(generate_device_rtn(srh_, device_, {}, Pwl::constant(1.0),
                                   Pwl::constant(1e-4), rng, options),
               std::invalid_argument);
}

TEST_F(RtnGeneratorTest, NoTrapsGiveZeroTrace) {
  util::Rng rng(2);
  RtnGeneratorOptions options;
  options.tf = 1e-6;
  const auto result = generate_device_rtn(srh_, device_, {}, Pwl::constant(1.0),
                                          Pwl::constant(1e-4), rng, options);
  EXPECT_EQ(result.n_filled.num_steps(), 0u);
  for (double v : result.i_rtn.values()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(RtnGrid, TwinPointsAreAdjacentRepresentableTimes) {
  // Each interior switch gets a twin at nextafter(t, t0): the closest
  // representable instant before the step, so interpolation between twin
  // and switch renders an exact step.
  const std::vector<double> switches = {0.25, 0.5, 0.75};
  const auto grid = build_rtn_grid(0.0, 1.0, 2, switches);
  for (double t : switches) {
    EXPECT_TRUE(std::binary_search(grid.begin(), grid.end(), t));
    EXPECT_TRUE(
        std::binary_search(grid.begin(), grid.end(), std::nextafter(t, 0.0)));
  }
  EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
  EXPECT_EQ(std::adjacent_find(grid.begin(), grid.end()), grid.end());
}

TEST(RtnGrid, CloseSwitchesKeepDistinctSteps) {
  // Regression: the old fixed offset eps = (tf-t0)*1e-9 let the twin of a
  // switch land at or before the *previous* switch whenever two switches
  // were closer than eps, smearing the step after dedup. With nextafter
  // twins, switches one ULP-spaced gap apart still render as two steps.
  const double t1 = 0.5;
  const double t2 = 0.5 + 1e-12;  // far closer than the old eps of 1e-9
  const auto grid = build_rtn_grid(0.0, 1.0, 2, {t1, t2});
  ASSERT_TRUE(std::is_sorted(grid.begin(), grid.end()));
  EXPECT_EQ(std::adjacent_find(grid.begin(), grid.end()), grid.end());
  // Both switches and both twins present, in strict order.
  const double twin1 = std::nextafter(t1, 0.0);
  const double twin2 = std::nextafter(t2, 0.0);
  EXPECT_TRUE(std::binary_search(grid.begin(), grid.end(), twin1));
  EXPECT_TRUE(std::binary_search(grid.begin(), grid.end(), t1));
  EXPECT_TRUE(std::binary_search(grid.begin(), grid.end(), twin2));
  EXPECT_TRUE(std::binary_search(grid.begin(), grid.end(), t2));
  EXPECT_LT(twin1, t1);
  EXPECT_LT(t1, twin2);
  EXPECT_LT(twin2, t2);
}

TEST(RtnGrid, BoundaryAndDegenerateSwitchesAreHandled) {
  // Switches at/outside the horizon are skipped; a switch one ULP above
  // t0 keeps only points inside (t0, tf); duplicated switches dedup.
  const double t0 = 1.0;
  const double tf = 2.0;
  const double first_interior = std::nextafter(t0, tf);
  const auto grid =
      build_rtn_grid(t0, tf, 4, {t0, first_interior, 1.5, 1.5, tf, 3.0});
  EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
  EXPECT_EQ(std::adjacent_find(grid.begin(), grid.end()), grid.end());
  EXPECT_EQ(grid.front(), t0);
  EXPECT_EQ(grid.back(), tf);
  // The twin of first_interior would be t0 itself: dropped as a twin but
  // t0 stays as the envelope start, and the switch itself survives.
  EXPECT_TRUE(
      std::binary_search(grid.begin(), grid.end(), first_interior));
}

TEST_F(RtnGeneratorTest, TraceEqualsAmplitudeTimesOccupancy) {
  util::Rng rng(3);
  std::vector<physics::Trap> traps = {
      {0.3 * tech_.t_ox, 0.55, physics::TrapState::kEmpty},
      {0.4 * tech_.t_ox, 0.60, physics::TrapState::kEmpty},
  };
  RtnGeneratorOptions options;
  options.tf = 2e-6;
  const double v_gs = 0.9;
  const double i_d = 2e-4;
  const auto result = generate_device_rtn(srh_, device_, traps,
                                          Pwl::constant(v_gs),
                                          Pwl::constant(i_d), rng, options);
  const double amp = rtn_amplitude(device_, v_gs, i_d);
  for (double t : {1e-7, 5e-7, 1.5e-6}) {
    EXPECT_NEAR(result.i_rtn.eval(t), amp * result.n_filled.eval(t),
                amp * 0.05)
        << "t=" << t;
  }
}

TEST_F(RtnGeneratorTest, AmplitudeScaleIsLinear) {
  std::vector<physics::Trap> traps = {
      {0.3 * tech_.t_ox, 0.55, physics::TrapState::kEmpty}};
  RtnGeneratorOptions options;
  options.tf = 1e-6;
  options.amplitude_scale = 1.0;
  util::Rng rng_a(4), rng_b(4);
  const auto base = generate_device_rtn(srh_, device_, traps,
                                        Pwl::constant(0.9),
                                        Pwl::constant(1e-4), rng_a, options);
  options.amplitude_scale = 30.0;
  const auto scaled = generate_device_rtn(srh_, device_, traps,
                                          Pwl::constant(0.9),
                                          Pwl::constant(1e-4), rng_b, options);
  // Same seed -> identical switch pattern; values scale by 30.
  ASSERT_EQ(base.i_rtn.size(), scaled.i_rtn.size());
  for (std::size_t i = 0; i < base.i_rtn.size(); ++i) {
    EXPECT_NEAR(scaled.i_rtn.values()[i], 30.0 * base.i_rtn.values()[i],
                1e-18);
  }
}

TEST_F(RtnGeneratorTest, DeterministicAndOrderIndependentStreams) {
  util::Rng rng_a(5), rng_b(5);
  std::vector<physics::Trap> traps;
  for (int i = 0; i < 10; ++i) {
    traps.push_back({(0.1 + 0.05 * i) * tech_.t_ox, 0.5 + 0.02 * i,
                     physics::TrapState::kEmpty});
  }
  RtnGeneratorOptions options;
  options.tf = 1e-6;
  const auto a = generate_device_rtn(srh_, device_, traps, Pwl::constant(0.9),
                                     Pwl::constant(1e-4), rng_a, options);
  const auto b = generate_device_rtn(srh_, device_, traps, Pwl::constant(0.9),
                                     Pwl::constant(1e-4), rng_b, options);
  ASSERT_EQ(a.trajectories.size(), b.trajectories.size());
  for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
    EXPECT_EQ(a.trajectories[i].num_switches(), b.trajectories[i].num_switches());
  }
}

TEST_F(RtnGeneratorTest, ParallelTrapFanOutIsBitIdenticalToSerial) {
  // Each trap draws only from rng.split(i + 1), so the per-trap fan-out
  // must reproduce the serial run exactly — switch times, occupancy
  // breakpoints, rendered trace and sampler stats.
  std::vector<physics::Trap> traps;
  for (int i = 0; i < 12; ++i) {
    traps.push_back({(0.08 + 0.04 * i) * tech_.t_ox, 0.48 + 0.02 * i,
                     physics::TrapState::kEmpty});
  }
  // A switching bias so the shared Pwl is evaluated concurrently.
  Pwl bias;
  for (int i = 0; i <= 40; ++i) bias.append(i * 2.5e-8, i % 2 ? 1.0 : 0.2);
  RtnGeneratorOptions options;
  options.tf = 1e-6;
  util::Rng rng_serial(9), rng_parallel(9);
  const auto serial = generate_device_rtn(srh_, device_, traps, bias,
                                          Pwl::constant(1e-4), rng_serial,
                                          options);
  options.threads = 8;
  const auto parallel = generate_device_rtn(srh_, device_, traps, bias,
                                            Pwl::constant(1e-4), rng_parallel,
                                            options);
  ASSERT_EQ(serial.trajectories.size(), parallel.trajectories.size());
  for (std::size_t i = 0; i < serial.trajectories.size(); ++i) {
    ASSERT_EQ(serial.trajectories[i].switch_times(),
              parallel.trajectories[i].switch_times());
  }
  EXPECT_EQ(serial.n_filled.times(), parallel.n_filled.times());
  EXPECT_EQ(serial.n_filled.values(), parallel.n_filled.values());
  EXPECT_EQ(serial.i_rtn.times(), parallel.i_rtn.times());
  EXPECT_EQ(serial.i_rtn.values(), parallel.i_rtn.values());
  EXPECT_EQ(serial.stats.candidates, parallel.stats.candidates);
  EXPECT_EQ(serial.stats.accepted, parallel.stats.accepted);
}

TEST_F(RtnGeneratorTest, OccupancyBoundedByTrapCount) {
  util::Rng rng(6);
  std::vector<physics::Trap> traps;
  for (int i = 0; i < 20; ++i) {
    traps.push_back({(0.05 + 0.04 * i) * tech_.t_ox, 0.45 + 0.02 * i,
                     physics::TrapState::kEmpty});
  }
  RtnGeneratorOptions options;
  options.tf = 5e-6;
  const auto result = generate_device_rtn(srh_, device_, traps,
                                          Pwl::constant(0.8),
                                          Pwl::constant(1e-4), rng, options);
  for (double v : result.n_filled.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 20.0);
  }
  EXPECT_EQ(result.stats.accepted,
            [&] {
              std::size_t total = 0;
              for (const auto& traj : result.trajectories) {
                total += traj.num_switches();
              }
              return total;
            }());
}

TEST_F(RtnGeneratorTest, SwitchingBiasModulatesActivity) {
  // A trap resonant near V_dd should toggle while the gate is high and
  // freeze while it is low (the Fig. 8 (b),(c) mechanism).
  physics::Trap trap{0.25 * tech_.t_ox, 0.62, physics::TrapState::kEmpty};
  // Find a gate bias where the trap is near resonance.
  double v_res = 0.0;
  for (double v = 0.0; v <= 1.3; v += 0.01) {
    if (srh_.beta(trap, v) < 1.0) {
      v_res = v;
      break;
    }
  }
  ASSERT_GT(v_res, 0.05);
  const double horizon = 4000.0 / srh_.total_rate(trap);
  Pwl bias;
  bias.append(0.0, v_res);
  bias.append(0.5 * horizon - 1e-12 * horizon, v_res);
  bias.append(0.5 * horizon, 0.0);  // gate drops far below resonance
  util::Rng rng(7);
  RtnGeneratorOptions options;
  options.tf = horizon;
  const auto result = generate_device_rtn(srh_, device_, {trap}, bias,
                                          Pwl::constant(1e-4), rng, options);
  const auto& switches = result.trajectories[0].switch_times();
  std::size_t active_phase = 0, frozen_phase = 0;
  for (double t : switches) {
    (t < 0.5 * horizon ? active_phase : frozen_phase)++;
  }
  EXPECT_GT(active_phase, 20u);
  EXPECT_LT(frozen_phase, active_phase / 5 + 3);
}

}  // namespace
}  // namespace samurai::core
