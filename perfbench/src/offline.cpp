// offline-bounds: the RA-Bound offline pipeline on a synthetic near-DAG MDP
// (the bench/scaling_campaign shape: 4 actions, branching 4, locality 64,
// forward probability 0.005), the only workload large enough to load the
// linalg and artifact code.
//
// Set-up is the cold path — chain assembly, the SCC-scheduled Eq. 5 solve,
// seeding the bound set, hashing the model and saving the artifact — run
// several times. The measured loop is a fixed number of warm restarts
// (restarts_per_second × --seconds): hash_mdp, mmap load_bound_artifact,
// then the first V_B⁻ evaluation. Generating the synthetic model is
// excluded from both.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bounds/artifact.hpp"
#include "bounds/ra_bound.hpp"
#include "common.hpp"
#include "models/synthetic.hpp"
#include "util/work_pool.hpp"

namespace perfbench {

namespace {

namespace bounds = recoverd::bounds;

struct OfflineShape {
  std::size_t states;
  std::size_t setups;
  std::size_t restarts_per_second;  ///< measured warm restarts per --seconds
};

OfflineShape shape_for(bool smoke) {
  if (smoke) return {20000, 2, 5};
  return {1000000, 3, 4};
}

/// Removes the artifact file however the run ends.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

struct ColdBuild {
  bounds::RandomActionChain chain;
  bounds::RaBoundResult ra;
  std::unique_ptr<bounds::BoundSet> set;
  std::uint64_t model_hash = 0;
  std::uint64_t content_hash = 0;
  double assembly_ms = 0.0;
  double solve_ms = 0.0;
  double seed_ms = 0.0;
  double hash_ms = 0.0;
  double save_ms = 0.0;
  double total_s = 0.0;
};

ColdBuild cold_build(const recoverd::Mdp& mdp, const std::string& path) {
  ColdBuild out;
  Stopwatch total;
  Stopwatch stage;
  out.chain = bounds::build_random_action_chain(mdp);
  out.assembly_ms = stage.ms();
  stage.reset();
  out.ra = bounds::compute_ra_bound(out.chain);
  out.solve_ms = stage.ms();
  stage.reset();
  if (out.ra.converged()) {
    // make_ra_bound_set's seeding step: the first plane is protected.
    out.set = std::make_unique<bounds::BoundSet>(out.chain.num_states());
    out.set->add(out.ra.values);
  }
  out.seed_ms = stage.ms();
  stage.reset();
  out.model_hash = bounds::hash_mdp(mdp);
  out.hash_ms = stage.ms();
  stage.reset();
  if (out.set) {
    out.content_hash = bounds::save_bound_artifact(path, out.chain, *out.set,
                                                   out.model_hash);
  }
  out.save_ms = stage.ms();
  out.total_s = total.seconds();
  return out;
}

/// The loaded chain and set must be the cold-built bits.
bool round_trip_bitwise(const ColdBuild& cold, const bounds::BoundArtifact& warm) {
  const bounds::BoundSet::Snapshot a = cold.set->snapshot();
  const bounds::BoundSet::Snapshot b = warm.set.snapshot();
  if (a.generation != b.generation || a.planes.size() != b.planes.size()) return false;
  for (std::size_t i = 0; i < a.planes.size(); ++i) {
    if (a.planes[i].vector.size() != b.planes[i].vector.size() ||
        std::memcmp(a.planes[i].vector.data(), b.planes[i].vector.data(),
                    a.planes[i].vector.size() * sizeof(double)) != 0 ||
        a.planes[i].is_protected != b.planes[i].is_protected ||
        a.planes[i].uses != b.planes[i].uses) {
      return false;
    }
  }
  const auto same_bytes = [](auto x, auto y) {
    return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  };
  return same_bytes(std::span<const double>(cold.chain.c),
                    std::span<const double>(warm.chain.c)) &&
         same_bytes(cold.chain.q.row_offsets(), warm.chain.q.row_offsets()) &&
         same_bytes(cold.chain.q.entry_array(), warm.chain.q.entry_array()) &&
         cold.chain.plan.component == warm.chain.plan.component &&
         cold.chain.plan.level_ptr == warm.chain.plan.level_ptr;
}

struct Restart {
  bool ok = false;
  double hash_ms = 0.0;
  double load_ms = 0.0;
  double eval_ms = 0.0;
  double total_ms = 0.0;
};

/// hash_mdp → load_bound_artifact → first evaluate, checked against the
/// cold-built value bit for bit. A failed load counts as a failed restart.
Restart warm_restart(const recoverd::Mdp& mdp, const std::string& path,
                     const std::vector<double>& belief, double cold_value) {
  Restart out;
  Stopwatch total;
  try {
    Stopwatch stage;
    const std::uint64_t hash = bounds::hash_mdp(mdp);
    out.hash_ms = stage.ms();
    stage.reset();
    const bounds::BoundArtifact warm = bounds::load_bound_artifact(path, hash);
    out.load_ms = stage.ms();
    stage.reset();
    const double value = warm.set.evaluate(belief);
    out.eval_ms = stage.ms();
    out.ok = std::memcmp(&value, &cold_value, sizeof(double)) == 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "offline-bounds: warm restart failed: %s\n", e.what());
  }
  out.total_ms = total.ms();
  return out;
}

}  // namespace

Result run_offline(const Args& args) {
  Result result;
  const OfflineShape shape = shape_for(args.smoke);
  if (args.scratch_dir.empty()) {
    throw std::invalid_argument("offline-bounds needs --scratch-dir=DIR for its artifact");
  }
  const FileGuard file{args.scratch_dir + "/offline-bounds-" +
                       std::to_string(static_cast<long>(getpid())) + ".rdba"};

  recoverd::models::SyntheticMdpParams params;
  params.num_states = shape.states;
  params.num_actions = 4;
  params.branching = 4;
  params.locality = 64;
  params.forward_probability = 0.005;
  params.seed = args.seed;
  Stopwatch build_timer;
  const recoverd::Mdp mdp = recoverd::models::make_synthetic_recovery_mdp(params);
  const double build_ms = build_timer.ms();

  // --- set-up: the cold path, repeated; the last build is kept -----------
  std::vector<ColdBuild> builds;  // only the last keeps its heavy members
  std::uint64_t unconverged = 0;
  for (std::size_t i = 0; i < shape.setups; ++i) {
    if (!builds.empty()) {
      builds.back().chain = {};
      builds.back().set.reset();
      builds.back().ra.values = {};
    }
    builds.push_back(cold_build(mdp, file.path));
    if (!builds.back().ra.converged()) ++unconverged;
  }
  const ColdBuild& cold = builds.back();
  result.check(unconverged == 0, "the Eq. 5 solve did not converge");
  if (!cold.set) {
    result.attempted = shape.setups;
    result.failed = unconverged;
    return result;
  }

  {
    const bounds::BoundArtifact warm = bounds::load_bound_artifact(file.path,
                                                                   cold.model_hash);
    result.check(round_trip_bitwise(cold, warm),
                 "the artifact round trip is not bitwise-equal to the cold build");
    result.check(warm.content_hash == cold.content_hash,
                 "the loaded artifact's content hash differs from the saved one");
  }
  // Evaluating bumps the winning plane's use counter, so the cold value is
  // taken only after the round-trip comparison above.
  const std::vector<double> belief(shape.states,
                                   1.0 / static_cast<double>(shape.states));
  const double cold_value = cold.set->evaluate(belief);
  std::uint64_t artifact_bytes = 0;
  {
    struct stat st {};
    if (stat(file.path.c_str(), &st) == 0) {
      artifact_bytes = static_cast<std::uint64_t>(st.st_size);
    }
  }

  // --- measured loop: warm restarts --------------------------------------
  // Traced runs alternate an untraced restart with a traced one.
  const std::size_t count =
      shape.restarts_per_second * static_cast<std::size_t>(args.seconds);
  std::vector<Restart> untraced;
  std::vector<Restart> traced;
  const recoverd::util::WorkPool& pool = recoverd::util::WorkPool::instance();
  const recoverd::util::WorkPool::Stats pool_before = pool.stats();
  const double cpu_before = cpu_seconds();
  Stopwatch window;
  for (std::size_t r = 0; r < count; ++r) {
    (args.trace && r % 2 == 1 ? traced : untraced)
        .push_back(warm_restart(mdp, file.path, belief, cold_value));
  }
  const double wall_s = window.seconds();
  const double cpu_s = cpu_seconds() - cpu_before;
  const recoverd::util::WorkPool::Stats pool_after = pool.stats();
  const double resident = resident_mb();

  std::uint64_t failed_loads = 0;
  std::vector<double> restart_ms;
  std::vector<double> traced_ms;
  for (const Restart& r : untraced) {
    if (!r.ok) ++failed_loads;
    restart_ms.push_back(r.total_ms);
  }
  for (const Restart& r : traced) {
    if (!r.ok) ++failed_loads;
    traced_ms.push_back(r.total_ms);
  }
  const std::uint64_t restarts = untraced.size() + traced.size();
  result.attempted = shape.setups + restarts;
  result.failed = unconverged + failed_loads;
  result.check(failed_loads == 0, "a warm restart failed or evaluated different bits");

  Digest digest;
  digest.bytes(cold.ra.values.data(), cold.ra.values.size() * sizeof(double));
  digest.value(cold.content_hash);
  digest.value(cold.model_hash);
  digest.value(static_cast<std::uint64_t>(cold.chain.q.nonzeros()));
  result.digest = digest.hex();
  result.counts["solve_iterations"] = cold.ra.iterations;
  result.counts["scc_components"] = cold.chain.plan.num_components;
  result.counts["scc_levels"] = cold.chain.plan.num_levels();
  result.counts["artifact_bytes"] = artifact_bytes;

  // --- metrics -----------------------------------------------------------
  std::vector<double> setup_s;
  for (const ColdBuild& b : builds) setup_s.push_back(b.total_s);
  const double setup = median(setup_s);
  const double p50 = percentile(restart_ms, 0.5);
  const double p90 = percentile(restart_ms, 0.9);
  const double rss = peak_rss_mb();

  result.report["setup_s"] = {setup, "s"};
  result.report["warm_start_s"] = {p50 / 1e3, "s"};
  result.report["warm_start_s_p90"] = {p90 / 1e3, "s"};
  result.report["warm_starts_measured"] = {static_cast<double>(restart_ms.size()), "count"};
  result.report["failure_ratio"] = {
      static_cast<double>(result.failed) / static_cast<double>(result.attempted), "ratio"};
  result.report["peak_rss_mb"] = {rss, "MiB"};
  result.report["rss_mb"] = {resident, "MiB"};

  if (!args.trace) {
    const double restart_mean_ms = mean(restart_ms);
    result.metrics["throughput_per_s"] = {1e3 / restart_mean_ms, "1/s"};
    result.metrics["latency_ms_mean"] = {restart_mean_ms, "ms"};
    result.metrics["setup_s"] = {setup, "s"};
    result.metrics["rss_mb"] = {resident, "MiB"};
    return result;
  }

  const auto median_of = [&](auto field, const auto& rows) {
    std::vector<double> v;
    for (const auto& r : rows) v.push_back(r.*field);
    return median(v);
  };
  auto& m = result.metrics;
  m["bounds.chain_assembly_ms"] = {median_of(&ColdBuild::assembly_ms, builds), "ms"};
  m["linalg.solve_ms"] = {median_of(&ColdBuild::solve_ms, builds), "ms"};
  m["linalg.solve_iterations"] = {static_cast<double>(cold.ra.iterations), "count"};
  m["linalg.scc_components"] = {static_cast<double>(cold.chain.plan.num_components),
                                "count"};
  m["linalg.scc_levels"] = {static_cast<double>(cold.chain.plan.num_levels()), "count"};
  m["bounds.artifact_save_ms"] = {median_of(&ColdBuild::save_ms, builds), "ms"};
  m["bounds.artifact_bytes"] = {static_cast<double>(artifact_bytes), "bytes"};
  m["bounds.hash_mdp_ms"] = {median_of(&Restart::hash_ms, traced), "ms"};
  m["bounds.artifact_load_ms"] = {median_of(&Restart::load_ms, traced), "ms"};
  m["bounds.first_eval_ms"] = {median_of(&Restart::eval_ms, traced), "ms"};
  m["models.build_ms"] = {build_ms, "ms"};
  m["bounds.set_size"] = {static_cast<double>(cold.set->size()), "count"};
  // util.pool "per tick" here means per warm restart.
  const auto restarts_d = static_cast<double>(restarts);
  m["util.pool.dispatches_per_tick"] = {
      static_cast<double>(pool_after.dispatches - pool_before.dispatches) / restarts_d,
      "count"};
  m["util.pool.tasks_per_tick"] = {
      static_cast<double>(pool_after.tasks - pool_before.tasks) / restarts_d, "count"};
  m["util.pool.threads_created_after_warmup"] = {
      static_cast<double>(pool_after.threads_created - pool_before.threads_created),
      "count"};
  m["util.cpu_per_wall"] = {cpu_s / wall_s, "ratio"};
  const double untraced_mean = mean(restart_ms);
  m["obs.trace_overhead_pct"] = {
      untraced_mean > 0.0 ? 100.0 * (mean(traced_ms) - untraced_mean) / untraced_mean : 0.0,
      "%"};
  return result;
}

}  // namespace perfbench
