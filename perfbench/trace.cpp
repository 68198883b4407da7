#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

#include "campaign/json.hpp"

namespace perfbench {

namespace {

thread_local std::int64_t t_current_span = -1;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t parent)
    : tracer_(tracer), saved_current_(t_current_span) {
  {
    const std::lock_guard<std::mutex> lock(tracer_.mutex_);
    span_.id = tracer_.next_id_++;
  }
  span_.parent = parent >= 0 ? parent : t_current_span;
  span_.run = tracer_.run_;
  span_.thread = thread_index();
  span_.name = name;
  span_.has_counts = !tracer_.concurrent_;
  if (span_.has_counts) {
    span_.solver = samurai::spice::solver_stats_snapshot();
    span_.rtn = samurai::core::uniformisation_stats_snapshot();
  }
  t_current_span = span_.id;
  span_.start = tracer_.now();
}

Tracer::Scope::~Scope() {
  span_.end = tracer_.now();
  if (span_.has_counts) {
    span_.solver = samurai::spice::solver_stats_snapshot().since(span_.solver);
    span_.rtn =
        samurai::core::uniformisation_stats_snapshot().since(span_.rtn);
  }
  t_current_span = saved_current_;
  tracer_.record(span_);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  for (const Span& span : spans()) {
    samurai::campaign::JsonWriter json;
    json.add("name", span.name);
    json.add_u64("run", span.run);
    json.add_u64("id", static_cast<std::uint64_t>(span.id));
    json.add("parent", static_cast<double>(span.parent));
    json.add_u64("thread", span.thread);
    json.add("start", span.start);
    json.add("end", span.end);
    if (span.has_counts) {
      json.add_u64("nw_iterations", span.solver.newton_iterations);
      json.add_u64("nw_factorizations", span.solver.lu_factorizations);
      json.add_u64("nw_steps_accepted", span.solver.steps_accepted);
      json.add_u64("nw_steps_rejected", span.solver.steps_rejected);
      json.add_u64("sp_symbolic_analyses", span.solver.sp_symbolic_analyses);
      json.add_u64("nw_device_loads", span.solver.device_loads);
      json.add_u64("rtn_candidates", span.rtn.candidates);
      json.add_u64("rtn_accepted", span.rtn.accepted);
    }
    out << json.str() << "\n";
  }
}

RunProfile profile_run(const std::vector<Span>& spans, std::uint64_t run) {
  std::map<std::int64_t, const Span*> by_id;
  for (const Span& span : spans) {
    if (span.run == run) by_id[span.id] = &span;
  }
  std::map<std::int64_t, double> child_seconds;  ///< same-thread children
  const Span* root = nullptr;
  for (const auto& [id, span] : by_id) {
    const auto parent = by_id.find(span->parent);
    if (parent == by_id.end()) {
      if (root != nullptr) throw std::logic_error("run has two root spans");
      root = span;
      continue;
    }
    if (parent->second->thread == span->thread) {
      child_seconds[span->parent] += span->end - span->start;
    }
  }
  RunProfile profile;
  if (root == nullptr) return profile;
  for (const auto& [id, span] : by_id) {
    if (span == root) continue;
    profile.self_seconds[span->name] +=
        (span->end - span->start) - child_seconds[id];
  }
  profile.root_seconds = root->end - root->start;
  profile.coverage = profile.root_seconds > 0.0
                         ? child_seconds[root->id] / profile.root_seconds
                         : 0.0;
  return profile;
}

}  // namespace perfbench
