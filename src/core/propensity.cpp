#include "core/propensity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace samurai::core {

ConstantPropensity::ConstantPropensity(double lambda_c, double lambda_e)
    : p_{lambda_c, lambda_e} {
  if (lambda_c < 0.0 || lambda_e < 0.0) {
    throw std::invalid_argument("ConstantPropensity: negative rate");
  }
}

physics::Propensities ConstantPropensity::at(double) const { return p_; }

double ConstantPropensity::rate_bound(double, double) const {
  return std::max(p_.lambda_c, p_.lambda_e);
}

FunctionalPropensity::FunctionalPropensity(std::function<double(double)> lambda_c,
                                           std::function<double(double)> lambda_e,
                                           double global_bound)
    : lc_(std::move(lambda_c)), le_(std::move(lambda_e)), bound_(global_bound) {
  if (!(bound_ > 0.0)) {
    throw std::invalid_argument("FunctionalPropensity: bound must be positive");
  }
}

physics::Propensities FunctionalPropensity::at(double t) const {
  return {lc_(t), le_(t)};
}

double FunctionalPropensity::rate_bound(double, double) const { return bound_; }

BiasSchedule BiasSchedule::build(const Pwl& v_gs, double max_bias_step) {
  if (!(max_bias_step > 0.0)) {
    throw std::invalid_argument("BiasSchedule: max_bias_step must be > 0");
  }
  // Refine the bias breakpoints so each segment's voltage change is below
  // max_bias_step.
  BiasSchedule schedule;
  std::vector<double>& times = schedule.times;
  if (v_gs.is_constant() || v_gs.times().size() < 2) {
    times.push_back(v_gs.times().empty() ? 0.0 : v_gs.times().front());
  } else {
    const auto& ts = v_gs.times();
    const auto& vs = v_gs.values();
    times.push_back(ts.front());
    for (std::size_t i = 1; i < ts.size(); ++i) {
      const double dv = std::abs(vs[i] - vs[i - 1]);
      const auto pieces = static_cast<std::size_t>(
          std::max(1.0, std::ceil(dv / max_bias_step)));
      for (std::size_t k = 1; k <= pieces; ++k) {
        const double t = ts[i - 1] + (ts[i] - ts[i - 1]) *
                                         static_cast<double>(k) /
                                         static_cast<double>(pieces);
        if (t > times.back()) times.push_back(t);
      }
    }
  }
  schedule.bias.reserve(times.size());
  for (double t : times) schedule.bias.push_back(v_gs.eval(t));
  return schedule;
}

BiasPropensity::BiasPropensity(const physics::SrhModel& model,
                               const physics::Trap& trap, const Pwl& v_gs,
                               double max_bias_step)
    : model_(&model),
      trap_(trap),
      total_rate_(model.total_rate(trap)),
      owned_(std::make_shared<const BiasSchedule>(
          BiasSchedule::build(v_gs, max_bias_step))),
      schedule_(owned_.get()) {}

BiasPropensity::BiasPropensity(const physics::SrhModel& model,
                               const physics::Trap& trap,
                               const BiasSchedule& schedule)
    : model_(&model),
      trap_(trap),
      total_rate_(model.total_rate(trap)),
      schedule_(&schedule) {
  if (schedule.times.empty() ||
      schedule.times.size() != schedule.bias.size()) {
    throw std::invalid_argument("BiasPropensity: malformed schedule");
  }
}

physics::Propensities BiasPropensity::at_bias(double v_gs) const {
  const double lambda_c = total_rate_ / (1.0 + model_->beta(trap_, v_gs));
  return {lambda_c, total_rate_ - lambda_c};
}

physics::Propensities BiasPropensity::at(double t) const {
  const auto& times = schedule_->times;
  const auto& bias = schedule_->bias;
  if (t <= times.front()) return at_bias(bias.front());
  if (t >= times.back()) return at_bias(bias.back());
  // The segment [times[i], times[i+1]) holding t; V_gs is linear on it.
  const auto i = static_cast<std::size_t>(
      std::upper_bound(times.begin(), times.end(), t) - times.begin() - 1);
  const double alpha = (t - times[i]) / (times[i + 1] - times[i]);
  return at_bias(bias[i] + alpha * (bias[i + 1] - bias[i]));
}

double BiasPropensity::rate_bound(double, double) const {
  // λ_c + λ_e = Λ at every bias, so Λ dominates both (paper Eq. 1).
  return total_rate_;
}

}  // namespace samurai::core
