#include "core/propensity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "physics/technology.hpp"

namespace samurai::core {
namespace {

TEST(ConstantPropensity, ReturnsRatesAndBound) {
  const ConstantPropensity prop(2.0, 5.0);
  const auto p = prop.at(123.0);
  EXPECT_DOUBLE_EQ(p.lambda_c, 2.0);
  EXPECT_DOUBLE_EQ(p.lambda_e, 5.0);
  EXPECT_DOUBLE_EQ(prop.rate_bound(0.0, 1.0), 5.0);
}

TEST(ConstantPropensity, NegativeRatesThrow) {
  EXPECT_THROW(ConstantPropensity(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ConstantPropensity(1.0, -1.0), std::invalid_argument);
}

TEST(FunctionalPropensity, EvaluatesFunctions) {
  const FunctionalPropensity prop([](double t) { return 1.0 + t; },
                                  [](double t) { return 2.0 * t; }, 100.0);
  const auto p = prop.at(3.0);
  EXPECT_DOUBLE_EQ(p.lambda_c, 4.0);
  EXPECT_DOUBLE_EQ(p.lambda_e, 6.0);
  EXPECT_DOUBLE_EQ(prop.rate_bound(0.0, 10.0), 100.0);
}

TEST(FunctionalPropensity, NonPositiveBoundThrows) {
  EXPECT_THROW(FunctionalPropensity([](double) { return 1.0; },
                                    [](double) { return 1.0; }, 0.0),
               std::invalid_argument);
}

class BiasPropensityTest : public ::testing::Test {
 protected:
  physics::Technology tech_ = physics::technology("90nm");
  physics::SrhModel model_{tech_};
  physics::Trap trap_{0.35 * tech_.t_ox, 0.55, physics::TrapState::kEmpty};
};

TEST_F(BiasPropensityTest, ConstantBiasMatchesDirectModel) {
  const Pwl bias = Pwl::constant(0.8);
  const BiasPropensity prop(model_, trap_, bias);
  const auto direct = model_.propensities(trap_, 0.8);
  for (double t : {-1.0, 0.0, 5.0}) {
    const auto p = prop.at(t);
    EXPECT_EQ(p.lambda_c, direct.lambda_c) << "t=" << t;
    EXPECT_EQ(p.lambda_e, direct.lambda_e) << "t=" << t;
  }
}

TEST_F(BiasPropensityTest, RateBoundIsTheTotalRate) {
  // λ_c + λ_e = Λ at every bias (paper Eq. 1), so Λ bounds both on any
  // window — before any bias is looked at.
  const Pwl bias({0.0, 1e-9, 2e-9}, {0.0, 1.2, 0.0});
  const BiasPropensity prop(model_, trap_, bias);
  const double total = model_.total_rate(trap_);
  EXPECT_EQ(prop.total_rate(), total);
  EXPECT_EQ(prop.rate_bound(0.0, 2e-9), total);
  EXPECT_EQ(prop.rate_bound(0.0, 1e-10), total);
  for (double t = 0.0; t <= 2e-9; t += 1e-12) {
    const auto p = prop.at(t);
    EXPECT_NEAR(p.lambda_c + p.lambda_e, total, total * 1e-12);
    EXPECT_LE(std::max(p.lambda_c, p.lambda_e), total);
  }
}

TEST_F(BiasPropensityTest, AtIsTheSrhModelAtTheScheduleBias) {
  // On demand, not tabulated: at(t) is bitwise SrhModel::propensities at
  // the schedule's linear interpolation of V_gs — at schedule points, in
  // between, and clamped outside the schedule.
  const Pwl bias({0.0, 1e-9, 1.3e-9, 2e-9}, {0.0, 1.2, 0.4, 0.4});
  const BiasSchedule schedule = BiasSchedule::build(bias, 0.01);
  const BiasPropensity prop(model_, trap_, schedule);
  auto expect_model_at = [&](double t, double v) {
    const auto direct = model_.propensities(trap_, v);
    const auto p = prop.at(t);
    EXPECT_EQ(p.lambda_c, direct.lambda_c) << "t=" << t;
    EXPECT_EQ(p.lambda_e, direct.lambda_e) << "t=" << t;
  };
  for (std::size_t i = 0; i < schedule.times.size(); ++i) {
    expect_model_at(schedule.times[i], schedule.bias[i]);
  }
  for (std::size_t i = 0; i + 1 < schedule.times.size(); ++i) {
    const double t = 0.5 * (schedule.times[i] + schedule.times[i + 1]);
    const double alpha = (t - schedule.times[i]) /
                         (schedule.times[i + 1] - schedule.times[i]);
    const double v =
        schedule.bias[i] + alpha * (schedule.bias[i + 1] - schedule.bias[i]);
    expect_model_at(t, v);
    // The schedule reproduces V_gs itself to rounding.
    EXPECT_NEAR(v, bias.eval(t), 1e-12);
  }
  expect_model_at(-1e-9, schedule.bias.front());
  expect_model_at(5e-9, schedule.bias.back());
}

TEST_F(BiasPropensityTest, SharedScheduleMatchesWaveformConstructor) {
  const Pwl bias({0.0, 1e-9, 2e-9}, {0.0, 1.2, 0.0});
  const BiasSchedule schedule = BiasSchedule::build(bias, 0.005);
  const BiasPropensity shared(model_, trap_, schedule);
  const BiasPropensity owned(model_, trap_, bias, 0.005);
  const BiasPropensity copy = owned;  // shares the owned schedule
  for (double t = -1e-10; t <= 2.1e-9; t += 0.7e-12) {
    EXPECT_EQ(shared.at(t).lambda_c, owned.at(t).lambda_c) << "t=" << t;
    EXPECT_EQ(copy.at(t).lambda_c, owned.at(t).lambda_c) << "t=" << t;
  }
}

TEST_F(BiasPropensityTest, RefinementTracksFastEdges) {
  // One fast 0 -> 1.2 V edge. λ_c(t) must agree with the direct model at
  // the waveform's bias mid-edge.
  const Pwl bias({0.0, 1e-9, 1.1e-9, 2e-9}, {0.0, 0.0, 1.2, 1.2});
  const BiasPropensity prop(model_, trap_, bias, 0.005);
  for (double t : {1.02e-9, 1.05e-9, 1.08e-9}) {
    const double v = bias.eval(t);
    const auto direct = model_.propensities(trap_, v);
    EXPECT_NEAR(prop.at(t).lambda_c, direct.lambda_c,
                1e-9 * prop.total_rate())
        << "t=" << t;
  }
}

TEST_F(BiasPropensityTest, BadBiasStepThrows) {
  EXPECT_THROW(BiasPropensity(model_, trap_, Pwl::constant(1.0), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace samurai::core
