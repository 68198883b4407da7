// SPICE-style netlist text frontend.
//
// The paper drives its experiments through SpiceOPUS decks; this parser
// accepts the classic subset needed for that role, so circuits can be
// described as text instead of C++:
//
//   * SRAM write test
//   R1 in mid 10k
//   C1 mid 0 1p
//   Vin in 0 PWL(0 0 1n 0 1.05n 1.2)
//   Vdd vdd 0 DC 1.2
//   M1 out g 0 0 nfet W=220n L=90n
//   .model nfet nmos node=90nm
//   .tran 10p 5n
//   .nodeset v(out)=0
//   .print v(mid) v(out)
//   .end
//
// Supported cards: R, C, V, I (DC / PWL / PULSE), M (4-terminal, .model
// with a technology-node reference), .model, .tran, .nodeset, .ic,
// .print, .end. '*' comment lines, trailing ';' comments and '+'
// continuation lines follow SPICE conventions. The first line is a title.
// Values accept engineering suffixes (f p n u m k meg g t).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/rtn_integration.hpp"

namespace samurai::spice {

/// A netlist parse/semantic error, with the 1-based source line.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& message);
  std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// One `.rtn` card (`.rtn M1 scale=30 seed=7`); run_netlist_rtn turns it
/// into RtnRequest::seeded(device, scale, seed).
struct RtnCard {
  std::string device;
  double scale = 1.0;      ///< finite, >= 0
  std::uint64_t seed = 1;
};

struct ParsedNetlist {
  std::string title;
  std::unique_ptr<Circuit> circuit;
  bool has_tran = false;
  TransientOptions tran;                ///< t_stop/dt from .tran, nodesets
  std::vector<std::string> print_nodes; ///< from .print v(...) cards
  std::vector<RtnCard> rtn_requests;    ///< from .rtn cards, one per MOSFET
};

/// Parse a netlist. Throws ParseError on malformed input.
ParsedNetlist parse_netlist(const std::string& text);

/// Parse a number with SPICE engineering suffixes ("2.2k", "10meg",
/// "0.5u", "1e-9"); throws std::invalid_argument on garbage.
double parse_spice_value(const std::string& token);

/// Convenience: parse, run the DC operating point and (if present) the
/// .tran analysis, and return the transient result. DC-only netlists get
/// a zero-length result holding the operating point.
TransientResult run_netlist(const std::string& text);

}  // namespace samurai::spice
