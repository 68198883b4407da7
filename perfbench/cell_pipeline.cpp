#include "cell_pipeline.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "physics/trap_profile.hpp"
#include "spice/rtn_integration.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace samurai;

namespace {

// The two helpers below restate run_methodology's private wiring
// (sources and transient options) from public calls; the traced run's
// bit-identity check against run_methodology keeps them honest.
void attach_sources(spice::Circuit& circuit,
                    const sram::SramCellHandles& handles,
                    const sram::PatternWaveforms& pattern, double v_dd) {
  circuit.add<spice::VoltageSource>(circuit, "Vdd",
                                    circuit.find_node(handles.vdd),
                                    spice::kGround, core::Pwl::constant(v_dd));
  circuit.add<spice::VoltageSource>(circuit, "Vwl",
                                    circuit.find_node(handles.wl),
                                    spice::kGround, pattern.wl);
  circuit.add<spice::VoltageSource>(circuit, "Vbl",
                                    circuit.find_node(handles.bl),
                                    spice::kGround, pattern.bl);
  circuit.add<spice::VoltageSource>(circuit, "Vblb",
                                    circuit.find_node(handles.blb),
                                    spice::kGround, pattern.blb);
}

spice::TransientOptions transient_options(
    const sram::MethodologyConfig& config,
    const sram::PatternWaveforms& pattern,
    const sram::SramCellHandles& handles) {
  spice::TransientOptions options = config.transient;
  options.t_start = 0.0;
  options.t_stop = pattern.t_end;
  if (options.dt_max <= 0.0) options.dt_max = config.timing.period / 40.0;
  options.dc.nodeset[handles.q] = 0.0;
  options.dc.nodeset[handles.qb] = config.tech.v_dd;
  options.dc.nodeset[handles.vdd] = config.tech.v_dd;
  options.dc.nodeset[handles.bl] = config.tech.v_dd;
  options.dc.nodeset[handles.blb] = config.tech.v_dd;
  return options;
}

}  // namespace

sram::MethodologyResult compose_methodology(
    const sram::MethodologyConfig& config, Tracer& tracer,
    std::vector<ProbeInput>& probes) {
  sram::MethodologyResult result;
  spice::NewtonWorkspace workspace;

  spice::Circuit nominal_circuit;
  sram::SramCellHandles handles;
  spice::TransientOptions options;
  {
    Tracer::Scope span(tracer, "sram.build");
    result.pattern =
        sram::build_pattern(config.ops, config.tech.v_dd, config.timing);
    handles = sram::build_6t_cell(nominal_circuit, config.tech, config.sizing,
                                  "", config.vth_shifts);
    attach_sources(nominal_circuit, handles, result.pattern, config.tech.v_dd);
    options = transient_options(config, result.pattern, handles);
  }
  {
    Tracer::Scope span(tracer, "spice.nominal");
    result.nominal = spice::transient(nominal_circuit, options, workspace);
  }
  result.q_node = handles.q;
  result.qb_node = handles.qb;
  sram::DetectorOptions detector = config.detector;
  detector.v_dd = config.tech.v_dd;
  {
    Tracer::Scope span(tracer, "sram.detect");
    result.nominal_report = sram::check_pattern(
        result.nominal.voltage(handles.q), result.pattern, detector);
  }

  std::shared_ptr<const physics::SrhModel> srh;
  {
    Tracer::Scope span(tracer, "physics.srh_model");
    srh = std::make_shared<const physics::SrhModel>(config.tech);
  }
  util::Rng rng(config.seed);
  for (int m = 1; m <= 6; ++m) {
    sram::TransistorRtn entry;
    entry.name = "M" + std::to_string(m);
    const spice::Mosfet* mosfet = handles.mosfet(m);
    {
      Tracer::Scope span(tracer, "physics.trap_profile");
      util::Rng profile_rng = rng.split(static_cast<std::uint64_t>(m) * 101);
      entry.traps = physics::sample_trap_profile(
          config.tech, sram::transistor_geometry(config.tech, config.sizing, m),
          profile_rng, config.profile);
    }
    {
      Tracer::Scope span(tracer, "spice.extract");
      spice::extract_device_bias(result.nominal, nominal_circuit, *mosfet,
                                 entry.v_gs, entry.i_d);
    }
    const physics::MosDevice equivalent(config.tech, physics::MosType::kNmos,
                                        mosfet->model().geometry());
    core::RtnGeneratorOptions gen;
    gen.t0 = 0.0;
    gen.tf = result.pattern.t_end;
    gen.amplitude_scale = config.rtn_scale;
    gen.uniformisation = config.uniformisation;
    const util::Rng trap_rng =
        rng.split(static_cast<std::uint64_t>(m) * 977 + 13);
    util::Rng call_rng = trap_rng;
    core::DeviceRtnResult device;
    {
      Tracer::Scope span(tracer, "core.generate");
      device = core::generate_device_rtn(*srh, equivalent, entry.traps,
                                         entry.v_gs, entry.i_d, call_rng, gen);
    }
    probes.push_back({srh, entry.traps, entry.v_gs, trap_rng, gen,
                      digest_trajectories(device.trajectories), device.stats});
    entry.n_filled = std::move(device.n_filled);
    entry.i_rtn = std::move(device.i_rtn);
    entry.stats = device.stats;
    result.rtn.push_back(std::move(entry));
  }

  spice::Circuit rtn_circuit;
  sram::SramCellHandles rtn_handles;
  {
    Tracer::Scope span(tracer, "sram.build");
    rtn_handles = sram::build_6t_cell(rtn_circuit, config.tech, config.sizing,
                                      "", config.vth_shifts);
    attach_sources(rtn_circuit, rtn_handles, result.pattern, config.tech.v_dd);
    for (int m = 1; m <= 6; ++m) {
      const auto& entry = result.rtn[static_cast<std::size_t>(m - 1)];
      if (!config.rtn_devices.empty() &&
          config.rtn_devices.count(entry.name) == 0) {
        continue;
      }
      const spice::Mosfet* mosfet = rtn_handles.mosfet(m);
      rtn_circuit.add<spice::CurrentSource>("Irtn_" + entry.name,
                                            mosfet->drain(), mosfet->source(),
                                            entry.i_rtn.scaled(-1.0));
    }
  }
  {
    Tracer::Scope span(tracer, "spice.injected");
    result.with_rtn = spice::transient(rtn_circuit, options, workspace);
  }
  {
    Tracer::Scope span(tracer, "sram.detect");
    result.rtn_report = sram::check_pattern(
        result.with_rtn.voltage(rtn_handles.q), result.pattern, detector);
  }
  return result;
}

namespace {

void run_probe(const ProbeInput& input, Tracer& tracer, std::int64_t parent,
               Tally& tally, CallResult& result) {
  Tracer::Scope probe(tracer, "core.probe", parent);
  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const auto t0 = Clock::now();
  const core::BiasSchedule schedule =
      core::BiasSchedule::build(input.v_gs, input.gen.max_bias_step);
  tally["core.schedule_s"] += seconds(t0, Clock::now());
  // Construct and simulate trap by trap, as generate_device_rtn does, so
  // each table is used while it is still in cache; the two parts are timed
  // separately around each trap.
  std::vector<core::TrapTrajectory> trajectories(input.traps.size());
  core::UniformisationStats stats;
  double propensity_s = 0.0, uniformisation_s = 0.0;
  for (std::size_t i = 0; i < input.traps.size(); ++i) {
    const auto a = Clock::now();
    const core::BiasPropensity propensity(*input.srh, input.traps[i],
                                          schedule);
    const auto b = Clock::now();
    util::Rng trap_rng = input.rng.split(i + 1);
    core::UniformisationStats trap_stats;
    trajectories[i] = core::simulate_trap(
        propensity, input.gen.t0, input.gen.tf, input.traps[i].init_state,
        trap_rng, input.gen.uniformisation, &trap_stats);
    uniformisation_s += seconds(b, Clock::now());
    propensity_s += seconds(a, b);
    stats.merge(trap_stats);
  }
  tally["core.propensity_s"] += propensity_s;
  tally["core.uniformisation_s"] += uniformisation_s;
  if (digest_trajectories(trajectories) != input.trajectory_digest) {
    result.fail("probe trajectories differ from generate_device_rtn's");
  }
  if (stats.candidates != input.call_stats.candidates ||
      stats.accepted != input.call_stats.accepted) {
    result.fail("probe sampler counts differ from generate_device_rtn's");
  }
  result.probe_rtn.merge(stats);
  std::size_t switched = 0;
  for (const auto& trajectory : trajectories) {
    if (trajectory.num_switches() > 0) ++switched;
  }
  tally["core.traps_switched"] += static_cast<double>(switched);
  tally["core.propensity_points"] +=
      static_cast<double>(input.traps.size() * schedule.times.size());
}

}  // namespace

void run_probes(const std::vector<const ProbeInput*>& probes, Tracer& tracer,
                std::size_t call, std::size_t threads, Tally& tally,
                CallResult& result) {
  std::vector<Tally> tallies(probes.size());
  std::vector<CallResult> checks(probes.size());
  tracer.begin_run(probe_run(call));
  {
    Tracer::Scope root(tracer, "probe");
    tracer.set_concurrent(threads > 1);
    util::parallel_for_indexed(
        probes.size(),
        [&](std::size_t i) {
          run_probe(*probes[i], tracer, root.id(), tallies[i], checks[i]);
        },
        threads);
    tracer.set_concurrent(false);
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    for (const auto& [name, value] : tallies[i]) tally[name] += value;
    if (!checks[i].ok) result.fail(checks[i].error);
    result.probe_rtn.merge(checks[i].probe_rtn);
  }
}

std::uint64_t digest_trajectories(
    const std::vector<core::TrapTrajectory>& trajectories) {
  Digest digest;
  for (const auto& trajectory : trajectories) {
    digest.add(static_cast<std::uint64_t>(trajectory.initial_state()));
    digest.add(trajectory.switch_times());
  }
  return digest.value();
}

void add_digest(Digest& digest, const sram::MethodologyResult& run) {
  digest.add(run.nominal.times());
  digest.add(run.nominal.voltage_samples(run.q_node));
  digest.add(run.nominal.voltage_samples(run.qb_node));
  for (const auto& entry : run.rtn) {
    digest.add(static_cast<std::uint64_t>(entry.traps.size()));
    digest.add(entry.i_rtn.times());
    digest.add(entry.i_rtn.values());
    digest.add(entry.n_filled.times());
    digest.add(entry.n_filled.values());
    digest.add(entry.stats.candidates);
    digest.add(entry.stats.accepted);
  }
  digest.add(run.with_rtn.times());
  digest.add(run.with_rtn.voltage_samples(run.q_node));
  digest.add(run.with_rtn.voltage_samples(run.qb_node));
  for (const auto* report : {&run.nominal_report, &run.rtn_report}) {
    digest.add(static_cast<std::uint64_t>(report->any_error));
    digest.add(static_cast<std::uint64_t>(report->any_slow));
  }
}

void check_methodology(const sram::MethodologyResult& run,
                       CallResult& result) {
  if (run.nominal_report.any_error) {
    result.fail("nominal pattern not written");
  }
  if (run.rtn.size() != 6) result.fail("expected six I_RTN traces");
  for (const auto& entry : run.rtn) {
    if (entry.i_rtn.size() == 0 || !all_finite(entry.i_rtn.values())) {
      result.fail("non-finite I_RTN trace for " + entry.name);
    }
  }
  const auto& times = run.with_rtn.times();
  if (times.empty() || times.back() < run.pattern.t_end * (1.0 - 1e-12)) {
    result.fail("injected transient did not complete");
  }
}

void tally_methodology(const sram::MethodologyResult& run, Tally& tally) {
  for (const auto& entry : run.rtn) {
    tally["physics.traps_sampled"] += static_cast<double>(entry.traps.size());
    tally["core.candidates"] += static_cast<double>(entry.stats.candidates);
    tally["core.accepted"] += static_cast<double>(entry.stats.accepted);
  }
  tally_solver(tally, "spice.nominal_steps", run.nominal.stats());
  tally_solver(tally, "spice.injected_steps", run.with_rtn.stats());
}

}  // namespace perfbench
