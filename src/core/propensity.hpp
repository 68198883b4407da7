// Propensity functions for two-state time-inhomogeneous Markov chains.
//
// A `PropensityFunction` exposes λ_c(t), λ_e(t) plus one certified upper
// bound — the ingredients Algorithm 1 needs:
//
//  * `rate_bound(t0, t1)` — one scalar λ* dominating *both* propensities
//    over the whole window. The sampler draws candidates at λ* and thins
//    each by λ_next(t)/λ*, so λ* must satisfy
//      rate_bound(t0, t1) >= max(λ_c(t), λ_e(t)) for all t in [t0, t1],
//    and be strictly positive whenever either propensity can be non-zero.
//    A violation is detected at run time and aborts the simulation as
//    biased. For SRH traps the paper's constant sum Λ = λ_c + λ_e (Eq. 1)
//    is such a bound, known before any bias is looked at (DESIGN.md §11).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/waveform.hpp"
#include "physics/srh_model.hpp"
#include "physics/trap.hpp"

namespace samurai::core {

class PropensityFunction {
 public:
  virtual ~PropensityFunction() = default;

  /// λ_c(t) and λ_e(t).
  virtual physics::Propensities at(double t) const = 0;

  /// A value λ* with λ* >= max(λ_c(t), λ_e(t)) for all t in [t0, t1].
  /// Must be strictly positive when either propensity can be non-zero.
  virtual double rate_bound(double t0, double t1) const = 0;
};

/// Time-invariant propensities: the stationary RTS of the validation
/// experiments (paper §IV-A). The bound is the exact max(λ_c, λ_e).
class ConstantPropensity final : public PropensityFunction {
 public:
  ConstantPropensity(double lambda_c, double lambda_e);
  physics::Propensities at(double t) const override;
  double rate_bound(double t0, double t1) const override;

 private:
  physics::Propensities p_;
};

/// Propensities driven by arbitrary user functions plus an explicit bound;
/// used by tests (e.g. sinusoidally modulated chains with known master-
/// equation solutions).
class FunctionalPropensity final : public PropensityFunction {
 public:
  FunctionalPropensity(std::function<double(double)> lambda_c,
                       std::function<double(double)> lambda_e,
                       double global_bound);
  physics::Propensities at(double t) const override;
  double rate_bound(double t0, double t1) const override;

 private:
  std::function<double(double)> lc_;
  std::function<double(double)> le_;
  double bound_;
};

/// Refined per-device bias schedule: V_gs's breakpoints subdivided so no
/// segment's voltage change exceeds `max_bias_step`, with the bias value
/// at each point. Every point lies on one of V_gs's linear segments, so
/// interpolating the schedule reproduces V_gs (to rounding) for any step;
/// `max_bias_step` only sets how fine the grid `BiasPropensity::at`
/// binary-searches is.
/// The schedule depends only on (V_gs, max_bias_step) — never on the
/// trap — so a device's traps share one.
struct BiasSchedule {
  std::vector<double> times;
  std::vector<double> bias;  ///< v_gs.eval(times[i])

  static BiasSchedule build(const Pwl& v_gs, double max_bias_step);
};

/// SRH trap propensities under a time-varying gate bias V_gs(t), evaluated
/// on demand: λ_c(t) = Λ/(1+β(V_gs(t))) and λ_e = Λ - λ_c, bitwise what
/// `SrhModel::propensities` gives at the schedule's bias. Construction is
/// O(1) — no table is built — and `rate_bound` is the trap's constant
/// total rate Λ (paper Eq. 1), so Algorithm 1 pays one SRH evaluation per
/// candidate and nothing for a trap that draws none (DESIGN.md §11).
///
/// The model and a schedule passed in are held by reference and must
/// outlive the propensity; the waveform constructor builds and owns its
/// schedule.
class BiasPropensity final : public PropensityFunction {
 public:
  BiasPropensity(const physics::SrhModel& model, const physics::Trap& trap,
                 const Pwl& v_gs, double max_bias_step = 0.01);

  /// Evaluate on a prebuilt schedule shared by a device's traps.
  /// Equivalent to the waveform constructor with the (v_gs,
  /// max_bias_step) the schedule was built from.
  BiasPropensity(const physics::SrhModel& model, const physics::Trap& trap,
                 const BiasSchedule& schedule);
  /// A temporary schedule would dangle.
  BiasPropensity(const physics::SrhModel&, const physics::Trap&,
                 BiasSchedule&&) = delete;

  physics::Propensities at(double t) const override;
  double rate_bound(double t0, double t1) const override;

  /// The trap's constant total rate Λ (paper Eq. 1).
  double total_rate() const noexcept { return total_rate_; }

 private:
  /// The propensities at gate bias v_gs (one SRH evaluation).
  physics::Propensities at_bias(double v_gs) const;

  const physics::SrhModel* model_;
  physics::Trap trap_;
  double total_rate_;
  std::shared_ptr<const BiasSchedule> owned_;  ///< waveform constructor only
  const BiasSchedule* schedule_;
};

}  // namespace samurai::core
