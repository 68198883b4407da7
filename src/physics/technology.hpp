// Technology cards: the per-node device and trap parameters every other
// module consumes. Values are representative planar-CMOS numbers chosen to
// reproduce the paper's qualitative regimes (many traps in old nodes, ~5-10
// active traps in scaled nodes, RTN amplitude growing as 1/(W·L)).
#pragma once

#include <string>
#include <vector>

namespace samurai::physics {

struct Technology {
  std::string name;        ///< e.g. "90nm"
  double l_min;            ///< minimum channel length, m
  double w_min;            ///< minimum device width, m
  double t_ox;             ///< oxide thickness, m
  double v_dd;             ///< nominal supply, V
  double v_fb;             ///< flat-band voltage (NMOS), V
  double n_a;              ///< substrate doping, m^-3
  double mu_n;             ///< electron mobility, m^2/(V s)
  double mu_p;             ///< hole mobility, m^2/(V s)
  double lambda_clm;       ///< channel-length modulation, 1/V
  double trap_density;     ///< oxide trap density within energy window, m^-3
  double trap_e_min;       ///< trap energy window lower edge, eV rel. to E_i
  double trap_e_max;       ///< trap energy window upper edge, eV rel. to E_i
  double tau0;             ///< interface trap time constant τ0, s (paper Eq. 1)
  double gamma_tunnel;     ///< tunnelling coefficient γ, 1/m (paper Eq. 1)
  double trap_degeneracy;  ///< degeneracy factor g (paper Eq. 2)
  double temperature;      ///< K

  /// Oxide capacitance per unit area, F/m^2.
  double c_ox() const;
  /// Bulk Fermi potential φ_F = φ_t ln(N_a/n_i), V.
  double phi_f() const;
  /// Body-effect coefficient γ_b = sqrt(2 q ε_si N_a)/C_ox, sqrt(V).
  double gamma_body() const;
  /// Long-channel threshold voltage V_fb + 2φ_F + γ_b sqrt(2φ_F), V.
  double v_th0() const;
  /// Thermal voltage at the card's temperature, V.
  double phi_t() const;

  bool operator==(const Technology&) const = default;
};

/// Predefined nodes: "130nm", "90nm", "65nm", "45nm", "32nm", "22nm".
/// Throws std::invalid_argument for unknown names.
Technology technology(const std::string& node);

/// All predefined node names, largest to smallest.
const std::vector<std::string>& technology_nodes();

}  // namespace samurai::physics
