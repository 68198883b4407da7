#include "physics/srh_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "physics/constants.hpp"

namespace samurai::physics {

namespace {
// Per thread, so counting adds no shared write to the propensity hot path.
thread_local std::uint64_t t_srh_evaluations = 0;
}  // namespace

std::uint64_t srh_evaluation_count() { return t_srh_evaluations; }

SrhModel::SrhModel(const Technology& tech)
    : tech_(tech), surface_(tech), kt_ev_(kBoltzmannEv * tech.temperature) {
  // Tabulate the surface state over the full bias range any circuit
  // waveform can plausibly visit; 1-2 mV resolution is far below kT.
  table_lo_ = -1.0;
  const double table_hi = 2.0 * tech_.v_dd + 1.0;
  const std::size_t points = 4096;
  table_step_ = (table_hi - table_lo_) / static_cast<double>(points - 1);
  table_f_ox_.reserve(points);
  table_ef_ei_.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const SurfaceState s =
        surface_.solve(table_lo_ + table_step_ * static_cast<double>(i));
    table_f_ox_.push_back(s.f_ox);
    table_ef_ei_.push_back(s.ef_minus_ei);
  }
}

SurfaceState SrhModel::surface_state(double v_gs) const {
  const double pos = (v_gs - table_lo_) / table_step_;
  if (pos < 0.0 || pos >= static_cast<double>(table_f_ox_.size() - 1)) {
    return surface_.solve(v_gs);  // outside the table: direct solve
  }
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  SurfaceState s;
  s.f_ox = table_f_ox_[i] + frac * (table_f_ox_[i + 1] - table_f_ox_[i]);
  s.ef_minus_ei =
      table_ef_ei_[i] + frac * (table_ef_ei_[i + 1] - table_ef_ei_[i]);
  s.psi_s = 0.0;  // not tabulated; derive on demand if ever needed
  return s;
}

double SrhModel::total_rate(const Trap& trap) const {
  if (trap.y_tr < 0.0 || trap.y_tr > tech_.t_ox) {
    throw std::invalid_argument("SrhModel: trap depth outside oxide");
  }
  return 1.0 / (tech_.tau0 * std::exp(tech_.gamma_tunnel * trap.y_tr));
}

double SrhModel::trap_fermi_gap(const Trap& trap, double v_gs) const {
  const SurfaceState s = surface_state(v_gs);
  // Oxide-field lever arm: a positive field (inversion) pulls the trap
  // level down relative to the channel by F_ox * y_tr (volts == eV here).
  return trap.e_tr - s.f_ox * trap.y_tr - s.ef_minus_ei;
}

double SrhModel::beta(const Trap& trap, double v_gs) const {
  ++t_srh_evaluations;
  const double gap = trap_fermi_gap(trap, v_gs);
  // Clamp the exponent: beyond ±60 kT the trap is frozen either way and
  // exp() would overflow; the clamped value keeps λ's finite and ordered.
  const double x = std::clamp(gap / kt_ev_, -500.0, 500.0);
  return tech_.trap_degeneracy * std::exp(x);
}

Propensities SrhModel::propensities(const Trap& trap, double v_gs) const {
  const double total = total_rate(trap);
  const double b = beta(trap, v_gs);
  // λ_c = Λ/(1+β), λ_e = Λ β/(1+β); guard β=inf via the clamp in beta().
  Propensities p;
  p.lambda_c = total / (1.0 + b);
  p.lambda_e = total - p.lambda_c;
  return p;
}

double SrhModel::stationary_fill(const Trap& trap, double v_gs) const {
  return 1.0 / (1.0 + beta(trap, v_gs));
}

}  // namespace samurai::physics
