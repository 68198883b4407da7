// Shockley-Read-Hall-style capture/emission propensity model for oxide
// traps — the paper's Eqs. (1) and (2):
//
//   λ_c(t) + λ_e(t) = 1 / (τ0 e^{γ y_tr})                      (Eq. 1)
//   β(t) = λ_e(t)/λ_c(t) = g e^{(E_T - E_F)/kT}                (Eq. 2)
//
// The bias dependence enters through E_T - E_F: the trap level E_T shifts
// with the oxide field (lever arm q F_ox y_tr) while the channel Fermi
// level E_F moves with the surface potential:
//
//   E_T - E_F |_t = E_tr - F_ox(t)·y_tr - (E_F - E_i)(V_gs(t))   [eV]
//
// Both F_ox and E_F - E_i come from the SurfacePotentialSolver.
#pragma once

#include <cstdint>
#include <vector>

#include "physics/surface_potential.hpp"
#include "physics/technology.hpp"
#include "physics/trap.hpp"

namespace samurai::physics {

struct Propensities {
  double lambda_c;  ///< capture propensity, 1/s (empty -> filled)
  double lambda_e;  ///< emission propensity, 1/s (filled -> empty)
};

class SrhModel {
 public:
  explicit SrhModel(const Technology& tech);

  /// The bias-independent total rate Λ = λ_c + λ_e for a trap at depth
  /// y_tr (paper Eq. 1). This is also a tight uniformisation bound since
  /// max(λ_c, λ_e) <= Λ at all times.
  double total_rate(const Trap& trap) const;

  /// The ratio β = λ_e/λ_c at gate bias v_gs (paper Eq. 2). Every
  /// propensity evaluation goes through here; each call is counted in
  /// srh_evaluation_count().
  double beta(const Trap& trap, double v_gs) const;

  /// E_T - E_F in eV at gate bias v_gs.
  double trap_fermi_gap(const Trap& trap, double v_gs) const;

  /// Both propensities at gate bias v_gs.
  Propensities propensities(const Trap& trap, double v_gs) const;

  /// Stationary filled probability 1/(1+β) at constant bias v_gs.
  double stationary_fill(const Trap& trap, double v_gs) const;

  const Technology& tech() const noexcept { return tech_; }

 private:
  /// Surface state at bias v_gs, via a precomputed table (the solver's
  /// bisection is too slow to run per candidate event). Falls back to the
  /// direct solve outside the tabulated range.
  SurfaceState surface_state(double v_gs) const;

  Technology tech_;
  SurfacePotentialSolver surface_;
  double kt_ev_;

  // Tabulated surface state over [table_lo_, table_hi_].
  double table_lo_ = 0.0;
  double table_step_ = 0.0;
  std::vector<double> table_f_ox_;
  std::vector<double> table_ef_ei_;
};

/// Number of SrhModel::beta calls made so far on the calling thread. Diff
/// two snapshots around single-threaded work to count the SRH evaluations
/// it paid — e.g. that RTN generation evaluates SRH once per Algorithm-1
/// candidate and tabulates nothing. Work run on other threads (an
/// executor's workers) is not seen.
std::uint64_t srh_evaluation_count();

}  // namespace samurai::physics
