#include "workload.hpp"

#include <ctime>
#include <sched.h>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void tally_solver(Tally& tally, const char* steps_key,
                  const samurai::spice::SolverStats& stats) {
  tally[steps_key] += static_cast<double>(stats.steps_accepted);
  tally["spice.steps_rejected"] += static_cast<double>(stats.steps_rejected);
  tally["spice.newton_iterations"] +=
      static_cast<double>(stats.newton_iterations);
  tally["spice.lu_factorizations"] +=
      static_cast<double>(stats.lu_factorizations);
  tally["spice.sp_symbolic_analyses"] +=
      static_cast<double>(stats.sp_symbolic_analyses);
  tally["spice.device_loads"] += static_cast<double>(stats.device_loads);
}

}  // namespace perfbench
