// cell_fig8: sram::run_methodology with the paper's Fig. 8 setup — bits
// [1,1,0,1,0,1,0,0,1], 90 nm, V_dd 0.9 V, 40 fF node cap, 1 ns period,
// RTN ×30 — on consecutive seeds, single-threaded. One unit is one call.
#include <chrono>

#include "cell_pipeline.hpp"
#include "physics/technology.hpp"
#include "sram/pattern.hpp"

namespace perfbench {

using namespace samurai;

namespace {

class CellFig8 final : public Workload {
 public:
  explicit CellFig8(const Options& options) : options_(options) {}

  void setup() override {
    base_ = sram::MethodologyConfig{};
    base_.tech = physics::technology("90nm");
    base_.tech.v_dd = 0.9;
    base_.sizing.extra_node_cap = 40e-15;
    base_.timing.period = 1e-9;
    base_.ops = sram::ops_from_bits({1, 1, 0, 1, 0, 1, 0, 0, 1});
    base_.rtn_scale = 30.0;
    // Warm-up on a seed no timed call uses.
    rotation_.next();
    (void)sram::run_methodology(config(~options_.seed));
  }
  std::size_t max_calls() const override { return options_.tiny ? 2 : 0; }

  CallResult run(std::size_t call) override {
    rotation_.next();
    const auto run = sram::run_methodology(config(options_.seed + call));
    CallResult result;
    check_methodology(run, result);
    Digest digest;
    add_digest(digest, run);
    result.digest = digest.value();
    return result;
  }

  CallResult run_traced(std::size_t call, Tracer& tracer,
                        Tally& tally) override {
    const sram::MethodologyConfig cfg = config(options_.seed + call);
    std::vector<ProbeInput> probes;
    sram::MethodologyResult run;
    tracer.begin_run(composition_run(call));
    const double cpu0 = process_cpu_seconds();
    const auto wall0 = std::chrono::steady_clock::now();
    {
      Tracer::Scope root(tracer, "cell_fig8");
      run = compose_methodology(cfg, tracer, probes);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    tally["util.cpu_util"] = (process_cpu_seconds() - cpu0) / wall;

    CallResult result;
    check_methodology(run, result);
    Digest digest;
    add_digest(digest, run);
    result.digest = digest.value();
    tally_methodology(run, tally);

    std::vector<const ProbeInput*> inputs;
    for (const auto& probe : probes) inputs.push_back(&probe);
    run_probes(inputs, tracer, call, 1, tally, result);
    return result;
  }

 private:
  sram::MethodologyConfig config(std::uint64_t seed) const {
    sram::MethodologyConfig cfg = base_;
    cfg.seed = seed;
    return cfg;
  }

  Options options_;
  sram::MethodologyConfig base_;
  CpuRotation rotation_;
};

}  // namespace

std::unique_ptr<Workload> make_cell_fig8(const Options& options) {
  return std::make_unique<CellFig8>(options);
}

}  // namespace perfbench
