#include "spice/rtn_integration.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "physics/srh_model.hpp"
#include "spice/parser.hpp"
#include "util/thread_pool.hpp"

namespace samurai::spice {

void extract_device_bias(const TransientResult& result, const Circuit& circuit,
                         const Mosfet& mosfet, core::Pwl& v_gs,
                         core::Pwl& i_d) {
  auto samples_of = [&](int node) -> const std::vector<double>* {
    if (node < 0) return nullptr;
    return &result.voltage_samples(circuit.node_name(node));
  };
  const auto* vd = samples_of(mosfet.drain());
  const auto* vg = samples_of(mosfet.gate());
  const auto* vs = samples_of(mosfet.source());
  const auto& times = result.times();
  const bool nmos = mosfet.model().type() == physics::MosType::kNmos;

  std::vector<double> vgs_values(times.size());
  std::vector<double> id_values(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double d = vd ? (*vd)[i] : 0.0;
    const double g = vg ? (*vg)[i] : 0.0;
    const double s = vs ? (*vs)[i] : 0.0;
    // NMOS-equivalent trap bias referenced to the conducting source side.
    vgs_values[i] = nmos ? g - std::min(d, s) : std::max(d, s) - g;
    id_values[i] = mosfet.model().evaluate(g - s, d - s).i_d;  // signed
  }
  v_gs = core::Pwl(times, std::move(vgs_values));
  i_d = core::Pwl(times, std::move(id_values));
}

RtnRequest RtnRequest::seeded(std::string device, double scale,
                              std::uint64_t seed) {
  const util::Rng rng(seed);
  return {std::move(device), scale, rng.split(101), rng.split(977)};
}

namespace {

/// The circuit's MOSFET for each request, in request order (nullptr where
/// the circuit has none by that name).
std::vector<Mosfet*> requested_mosfets(
    Circuit& circuit, const std::vector<RtnRequest>& requests) {
  std::unordered_map<std::string_view, Mosfet*> by_name;
  for (auto& device : circuit.devices()) {
    if (auto* mosfet = dynamic_cast<Mosfet*>(device.get())) {
      by_name.emplace(mosfet->name(), mosfet);
    }
  }
  std::vector<Mosfet*> mosfets;
  mosfets.reserve(requests.size());
  for (const auto& request : requests) {
    const auto it = by_name.find(request.device);
    mosfets.push_back(it == by_name.end() ? nullptr : it->second);
  }
  return mosfets;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

RtnTransientResult run_rtn_transient(
    const std::function<std::unique_ptr<Circuit>()>& build,
    const TransientOptions& options, const std::vector<RtnRequest>& requests,
    const physics::TrapProfileOptions& profile,
    const core::RtnGeneratorOptions& generator, bool emit_breakpoints) {
  RtnTransientResult result;

  // One workspace for both passes: the injected circuit adds only current
  // sources (no Jacobian stamps), so its sparse pattern matches the
  // nominal one and the symbolic LU analysis from pass 1 is reused — and
  // on either engine the pass-2 attach reallocates nothing.
  NewtonWorkspace workspace;

  // Pass 1: nominal run.
  auto start = std::chrono::steady_clock::now();
  auto nominal_circuit = build();
  result.nominal = transient(*nominal_circuit, options, workspace);
  result.nominal_seconds = seconds_since(start);

  // SAMURAI per requested device. The trap model depends only on the
  // technology card, so devices sharing a card share one SrhModel.
  start = std::chrono::steady_clock::now();
  const auto mosfets = requested_mosfets(*nominal_circuit, requests);
  std::deque<physics::SrhModel> models;
  std::vector<const physics::SrhModel*> model_of;
  model_of.reserve(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    if (mosfets[k] == nullptr) {
      throw std::invalid_argument(".rtn references unknown MOSFET '" +
                                  requests[k].device + "'");
    }
    const auto& tech = mosfets[k]->model().tech();
    const auto it =
        std::find_if(models.begin(), models.end(),
                     [&](const auto& model) { return model.tech() == tech; });
    model_of.push_back(it != models.end() ? &*it : &models.emplace_back(tech));
  }

  core::RtnGeneratorOptions gen = generator;
  gen.t0 = options.t_start;
  gen.tf = options.t_stop;
  gen.threads = 1;  // `generator.threads` fans out devices, not traps
  // Each device draws only from its request's streams and writes only its
  // own slot, and the nominal run is read-only here, so the fan-out is
  // bit-identical for any width.
  result.traces.resize(requests.size());
  util::parallel_for_indexed(
      requests.size(),
      [&](std::size_t k) {
        const RtnRequest& request = requests[k];
        const auto& model = mosfets[k]->model();
        DeviceRtnTrace& trace = result.traces[k];
        trace.name = request.device;

        util::Rng profile_rng = request.profile_rng;
        trace.traps = physics::sample_trap_profile(
            model.tech(), model.geometry(), profile_rng, profile);
        extract_device_bias(result.nominal, *nominal_circuit, *mosfets[k],
                            trace.v_gs, trace.i_d);

        // Trap statistics and Eq. 3 use an NMOS-equivalent device so the
        // extracted (positive-when-on) bias feeds both consistently.
        const physics::MosDevice equivalent(
            model.tech(), physics::MosType::kNmos, model.geometry());
        core::RtnGeneratorOptions device_gen = gen;
        device_gen.amplitude_scale = request.scale;
        util::Rng trap_rng = request.trap_rng;
        auto device_rtn = core::generate_device_rtn(
            *model_of[k], equivalent, trace.traps, trace.v_gs, trace.i_d,
            trap_rng, device_gen);
        trace.n_filled = std::move(device_rtn.n_filled);
        trace.i_rtn = std::move(device_rtn.i_rtn);
        trace.stats = device_rtn.stats;
      },
      generator.threads);
  result.generation_seconds = seconds_since(start);

  // Pass 2: injected run on a fresh circuit.
  start = std::chrono::steady_clock::now();
  auto rtn_circuit = build();
  const auto targets = requested_mosfets(*rtn_circuit, requests);
  for (std::size_t k = 0; k < requests.size(); ++k) {
    if (!requests[k].inject) continue;
    const auto& trace = result.traces[k];
    if (targets[k] == nullptr) {
      throw std::runtime_error("circuit factory is not deterministic: '" +
                               trace.name + "' vanished");
    }
    // Inject opposing the nominal channel current (paper Fig. 4 right):
    // the trace is signed like I_d, so the negated source always bucks it.
    rtn_circuit
        ->add<CurrentSource>("Irtn_" + trace.name, targets[k]->drain(),
                             targets[k]->source(), trace.i_rtn.scaled(-1.0))
        .set_emit_breakpoints(emit_breakpoints);
  }
  result.with_rtn = transient(*rtn_circuit, options, workspace);
  result.injected_seconds = seconds_since(start);
  return result;
}

RtnTransientResult run_netlist_rtn(const std::string& netlist_text) {
  // Parse once for the analysis spec and request list.
  auto probe = parse_netlist(netlist_text);
  if (!probe.has_tran) {
    throw std::invalid_argument("run_netlist_rtn: netlist needs .tran");
  }
  if (probe.rtn_requests.empty()) {
    throw std::invalid_argument("run_netlist_rtn: netlist has no .rtn cards");
  }
  std::vector<RtnRequest> requests;
  for (const auto& card : probe.rtn_requests) {
    requests.push_back(RtnRequest::seeded(card.device, card.scale, card.seed));
  }
  return run_rtn_transient(
      [&netlist_text] { return parse_netlist(netlist_text).circuit; },
      probe.tran, requests);
}

}  // namespace samurai::spice
