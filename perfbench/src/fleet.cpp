// fleet-deep and fleet-wide: a FleetDriver in Batch mode run as a lock-step
// closed loop (each tick starts when the previous one returned).
//
// The fleet is not stationary: its cross-tick decision cache keeps filling,
// so fewer roots are solved and ticks get cheaper tick after tick. A
// time-bounded window would therefore measure different ticks on a faster
// or slower build. Each pass instead sets up a fresh fleet from the run's
// seed and measures a fixed window of ticks right after the warm-up
// (window = ticks_per_second × --seconds / kPasses), so every pass does the
// same work, and every count and digest repeats exactly for a given seed.
//
// Traced runs alternate an untraced pass with a traced one. A traced tick
// snapshots the pre-tick beliefs, runs the tick, then replays
// ExpansionEngine::decide_batch_deep and BoundSet::evaluate_batch on the
// snapshot with the benchmark's own engine and evaluate scratch (never
// flushed, so the fleet's set is untouched).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "bounds/bound_set.hpp"
#include "common.hpp"
#include "pomdp/belief_batch.hpp"
#include "pomdp/expansion.hpp"
#include "sim/fleet_driver.hpp"
#include "util/work_pool.hpp"

namespace perfbench {

namespace {

using recoverd::StateId;
using recoverd::sim::FleetDriver;
using recoverd::sim::FleetOptions;
using recoverd::sim::FleetStats;

struct FleetShape {
  std::size_t sessions;
  int depth;
  std::size_t warmup_ticks;
  std::size_t ticks_per_second;  ///< ticks over all passes per --seconds
  std::size_t parity_sessions;
  std::size_t parity_ticks;
};

/// Each pass sets up a fresh fleet and measures the same window of ticks.
constexpr std::size_t kPasses = 5;

FleetShape shape_for(bool deep, bool smoke) {
  if (smoke) return {deep ? 256u : 512u, deep ? 2 : 1, 2, 14, 16, 4};
  // The deep fleet needs a few ticks before its belief population reaches
  // steady-state diversity (same warm-up as bench/throughput_campaign).
  if (deep) return {10000, 2, 6, 7, 64, 8};
  return {100000, 1, 2, 12, 64, 8};
}

FleetOptions fleet_options(const EmnSetup& emn, const FleetShape& shape) {
  FleetOptions options;
  options.sessions = shape.sessions;
  options.mode = recoverd::sim::FleetMode::Batch;
  options.observe_action = emn.ids.topo.observe_action;
  options.tree_depth = shape.depth;
  options.branch_floor = EmnSetup::kBranchFloor;
  options.max_steps = EmnSetup::kMaxSteps;
  return options;
}

/// Belief bits, last actions and tallies of the whole fleet.
std::string fleet_digest(const FleetDriver& fleet) {
  Digest digest;
  const recoverd::BeliefBatch& beliefs = fleet.beliefs();
  for (StateId s = 0; s < beliefs.num_states(); ++s) {
    const auto lanes = beliefs.state_lanes(s);
    digest.bytes(lanes.data(), lanes.size_bytes());
  }
  const auto actions = fleet.last_actions();
  digest.bytes(actions.data(), actions.size_bytes());
  const FleetStats& st = fleet.stats();
  for (const std::size_t v : {st.ticks, st.decisions, st.classes, st.shared_hits,
                              st.episodes_completed, st.episodes_recovered,
                              st.episodes_truncated, st.belief_mismatches}) {
    digest.value(static_cast<std::uint64_t>(v));
  }
  return digest.hex();
}

/// Bitwise lock-step comparison of a Batch and a Loop fleet from one seed:
/// belief bits, chosen actions and episode tallies after every tick.
bool batch_loop_parity(const EmnSetup& emn, recoverd::bounds::BoundSet& set,
                       std::uint64_t seed, FleetOptions options, std::size_t sessions,
                       std::size_t ticks) {
  options.sessions = sessions;
  options.mode = recoverd::sim::FleetMode::Batch;
  FleetDriver batch(emn.recovery, emn.base, set, emn.injector, seed, options);
  options.mode = recoverd::sim::FleetMode::Loop;
  FleetDriver loop(emn.recovery, emn.base, set, emn.injector, seed, options);
  for (std::size_t t = 0; t < ticks; ++t) {
    batch.tick();
    loop.tick();
    for (StateId s = 0; s < emn.recovery.num_states(); ++s) {
      const auto a = batch.beliefs().state_lanes(s);
      const auto b = loop.beliefs().state_lanes(s);
      if (std::memcmp(a.data(), b.data(), a.size_bytes()) != 0) return false;
    }
    if (!std::equal(batch.last_actions().begin(), batch.last_actions().end(),
                    loop.last_actions().begin())) {
      return false;
    }
    const FleetStats& sb = batch.stats();
    const FleetStats& sl = loop.stats();
    if (sb.decisions != sl.decisions || sb.episodes_completed != sl.episodes_completed ||
        sb.episodes_recovered != sl.episodes_recovered ||
        sb.episodes_truncated != sl.episodes_truncated ||
        sb.belief_mismatches != sl.belief_mismatches) {
      return false;
    }
  }
  return true;
}

/// Totals of the decide_batch_deep and evaluate_batch replays.
struct ReplayTotals {
  double engine_us = 0.0;
  std::uint64_t roots = 0;
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
  std::uint64_t deep_fallbacks = 0;
  double leaf_ns = 0.0;
  std::uint64_t leaf_evals = 0;
};

/// Replays the fleet's engine and leaf stages on a copy of its beliefs.
class Replayer {
 public:
  Replayer(const EmnSetup& emn, const recoverd::bounds::BoundSet& set, int depth)
      : set_(set),
        depth_(depth),
        engine_(emn.recovery),
        batch_(emn.recovery.num_states()),
        lane_(emn.recovery.num_states()) {
    // The fleet's expansion options (FleetDriver::decide_phase defaults).
    options_.branch_floor = EmnSetup::kBranchFloor;
    options_.memo_context = set.generation();
    scratch_.resize(recoverd::ExpansionEngine::leaf_slots(options_));
  }

  void snapshot(const recoverd::BeliefBatch& beliefs) {
    const std::size_t n = beliefs.size();
    const std::size_t dim = beliefs.num_states();
    batch_.clear();
    batch_.reserve(n);
    rows_.resize(n * dim);
    for (std::size_t lane = 0; lane < n; ++lane) {
      beliefs.copy_lane(lane, lane_);
      batch_.push_back(lane_, lane);
      std::copy(lane_.begin(), lane_.end(), rows_.begin() + lane * dim);
    }
  }

  void replay(ReplayTotals& totals) {
    for (auto& s : scratch_) set_.begin_eval(s);
    const recoverd::bounds::ScratchBoundLeaf leaf{&set_, scratch_.data()};
    const recoverd::SpanLeaf span_leaf =
        recoverd::SpanLeaf::of_batched(leaf, set_.size() + 1);
    recoverd::BatchExpansionStats stats;
    Stopwatch engine_timer;
    engine_.decide_batch_deep(batch_, depth_, span_leaf, options_, best_, &stats);
    totals.engine_us += engine_timer.us();
    totals.roots += stats.classes;
    totals.nodes += stats.frontier_nodes;
    totals.leaves += stats.frontier_leaves;
    if (!stats.deep) ++totals.deep_fallbacks;

    const std::size_t n = batch_.size();
    values_.resize(n);
    set_.begin_eval(scratch_[0]);
    Stopwatch leaf_timer;
    set_.evaluate_batch(rows_.data(), n, values_, scratch_[0]);
    totals.leaf_ns += leaf_timer.us() * 1e3;
    totals.leaf_evals += n;
  }

 private:
  const recoverd::bounds::BoundSet& set_;
  int depth_;
  recoverd::ExpansionEngine engine_;
  recoverd::ExpansionOptions options_;
  std::vector<recoverd::bounds::BoundSet::EvalScratch> scratch_;
  recoverd::BeliefBatch batch_;
  std::vector<double> lane_;
  std::vector<double> rows_;
  std::vector<double> values_;
  std::vector<recoverd::ActionValue> best_;
};

/// Least-squares fit tick_us = intercept + slope × solved_roots over the
/// measured ticks: the intercept is the tick's cost that does not scale
/// with the roots it solves (per-lane work), the slope the in-tick cost of
/// one solved root. The cache's fill-up makes solved roots fall steadily
/// across the window, which gives the fit its spread.
struct TickSplit {
  double intercept_us = 0.0;
  double slope_us = 0.0;
};

TickSplit split_ticks(const std::vector<double>& tick_us,
                      const std::vector<double>& solved) {
  const double n = static_cast<double>(tick_us.size());
  if (tick_us.size() < 2) return {};
  double mt = 0.0;
  double ms = 0.0;
  for (std::size_t i = 0; i < tick_us.size(); ++i) {
    mt += tick_us[i] / n;
    ms += solved[i] / n;
  }
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < tick_us.size(); ++i) {
    sxy += (tick_us[i] - mt) * (solved[i] - ms);
    sxx += (solved[i] - ms) * (solved[i] - ms);
  }
  if (sxx <= 0.0) return {mt, 0.0};
  const double slope = sxy / sxx;
  return {mt - slope * ms, slope};
}

}  // namespace

Result run_fleet(const Args& args, bool deep) {
  Result result;
  const FleetShape shape = shape_for(deep, args.smoke);
  Stopwatch models_timer;
  const EmnSetup emn;
  const double models_ms = models_timer.ms();
  const FleetOptions options = fleet_options(emn, shape);

  // Traced runs make kPasses - 1 passes, alternating untraced and traced.
  const std::size_t passes = args.trace ? kPasses - 1 : kPasses;
  const std::size_t window = std::max<std::size_t>(
      1, shape.ticks_per_second * static_cast<std::size_t>(args.seconds) / kPasses);
  const recoverd::util::WorkPool& pool = recoverd::util::WorkPool::instance();
  std::vector<double> setup_s;
  std::vector<std::vector<double>> untraced_ms;  // per pass, each tick's wall time
  std::vector<std::vector<double>> traced_ms;
  std::vector<double> solved;   // roots each tick solved (FleetStats::classes)
  FleetStats before;
  FleetStats after;
  std::uint64_t dispatches = 0;
  std::uint64_t tasks = 0;
  std::uint64_t threads_created = 0;
  double cpu_s = 0.0;
  double resident = 0.0;  // MiB resident at the end of the first pass
  ReplayTotals replay;
  std::unique_ptr<recoverd::bounds::BoundSet> set;
  std::unique_ptr<FleetDriver> fleet;

  for (std::size_t p = 0; p < passes; ++p) {
    const bool traced = args.trace && p % 2 == 1;
    // --- set-up: model in hand to the first measured tick --------------
    fleet.reset();
    set.reset();
    Stopwatch setup_timer;
    set = emn.build_bounds();
    fleet = std::make_unique<FleetDriver>(emn.recovery, emn.base, *set, emn.injector,
                                          args.seed, options);
    for (std::size_t t = 0; t < shape.warmup_ticks; ++t) fleet->tick();
    setup_s.push_back(setup_timer.seconds());

    // --- measured window -----------------------------------------------
    std::unique_ptr<Replayer> replayer;
    if (traced) replayer = std::make_unique<Replayer>(emn, *set, shape.depth);
    const FleetStats start = fleet->stats();
    std::vector<double>& tick_ms = (traced ? traced_ms : untraced_ms).emplace_back();
    for (std::size_t t = 0; t < window; ++t) {
      if (traced) replayer->snapshot(fleet->beliefs());
      const FleetStats pre = fleet->stats();
      const recoverd::util::WorkPool::Stats pool_pre = pool.stats();
      const double cpu_pre = args.trace ? cpu_seconds() : 0.0;
      Stopwatch timer;
      fleet->tick();
      tick_ms.push_back(timer.ms());
      if (args.trace) cpu_s += cpu_seconds() - cpu_pre;
      const recoverd::util::WorkPool::Stats pool_post = pool.stats();
      dispatches += pool_post.dispatches - pool_pre.dispatches;
      tasks += pool_post.tasks - pool_pre.tasks;
      threads_created += pool_post.threads_created - pool_pre.threads_created;
      if (p == 0) {
        solved.push_back(static_cast<double>(fleet->stats().classes - pre.classes));
      }
      if (traced) replayer->replay(replay);
    }
    const std::string digest = fleet_digest(*fleet);
    if (p == 0) {
      resident = resident_mb();
      result.digest = digest;
      before = start;
      after = fleet->stats();
    }
    result.check(digest == result.digest,
                 "a pass from the same seed ended in other beliefs, actions or tallies");
  }

  // --- correctness -------------------------------------------------------
  result.check(batch_loop_parity(emn, *set, args.seed, options, shape.parity_sessions,
                                 shape.parity_ticks),
               "Batch and Loop fleets diverged (belief bits, actions or tallies)");
  // The fleet's unit of work is a lane step; it fails when the lane is not
  // served a fresh decision (shed or fallback) or its episode hits the step
  // cap. Episodes that end unrecovered are a decision-quality outcome and
  // count in failure_ratio (an episode both truncated and unrecovered counts
  // once per cause there). The tallies are those of one pass; every pass
  // repeats them.
  const std::uint64_t ticks = after.ticks - before.ticks;
  const std::uint64_t decisions = after.decisions - before.decisions;
  const std::uint64_t episodes = after.episodes_completed - before.episodes_completed;
  const std::uint64_t unrecovered =
      episodes - (after.episodes_recovered - before.episodes_recovered);
  const std::uint64_t truncated = after.episodes_truncated - before.episodes_truncated;
  const std::uint64_t failed = (after.shed - before.shed) +
                               (after.cached_fallbacks - before.cached_fallbacks) +
                               (after.heuristic_fallbacks - before.heuristic_fallbacks) +
                               truncated;
  result.attempted = std::max<std::uint64_t>(passes * ticks * fleet->sessions(), 1);
  result.failed = passes * failed;
  result.check(episodes > 0, "no episode completed during a pass");

  // --- metrics -----------------------------------------------------------
  const auto flatten = [](const std::vector<std::vector<double>>& passes) {
    std::vector<double> out;
    for (const std::vector<double>& pass : passes) {
      out.insert(out.end(), pass.begin(), pass.end());
    }
    return out;
  };
  const std::vector<double> untraced_all = flatten(untraced_ms);
  const std::vector<double> traced_all = flatten(traced_ms);
  std::vector<double> all_ms = untraced_all;
  all_ms.insert(all_ms.end(), traced_all.begin(), traced_all.end());
  const double all_s = std::accumulate(all_ms.begin(), all_ms.end(), 0.0) / 1e3;
  const double untraced_s =
      std::accumulate(untraced_all.begin(), untraced_all.end(), 0.0) / 1e3;
  const double p50 = percentile(all_ms, 0.5);
  const double p90 = percentile(all_ms, 0.9);
  const double setup = median(setup_s);
  const double rss = peak_rss_mb();

  result.report["decisions_per_s"] = {
      all_s > 0.0 ? static_cast<double>(passes * decisions) / all_s : 0.0,
      "1/s"};
  result.report["tick_ms_p50"] = {p50, "ms"};
  result.report["tick_ms_p90"] = {p90, "ms"};
  result.report["ticks_measured"] = {static_cast<double>(all_ms.size()), "count"};
  result.report["ticks_above_p90"] = {
      static_cast<double>(std::count_if(all_ms.begin(), all_ms.end(),
                                        [p90](double v) { return v > p90; })),
      "count"};
  result.report["failure_ratio"] = {
      episodes > 0 ? static_cast<double>(std::min(unrecovered + truncated, episodes)) /
                         static_cast<double>(episodes)
                   : 0.0,
      "ratio"};
  result.report["episodes_unrecovered"] = {static_cast<double>(unrecovered), "count"};
  result.report["episodes_truncated"] = {static_cast<double>(truncated), "count"};
  result.report["setup_s"] = {setup, "s"};
  result.report["peak_rss_mb"] = {rss, "MiB"};
  result.report["rss_mb"] = {resident, "MiB"};
  result.counts["passes"] = passes;
  result.counts["ticks_per_pass"] = ticks;
  result.counts["decisions_per_pass"] = decisions;
  result.counts["solved_roots_per_pass"] = after.classes - before.classes;
  result.counts["episodes_per_pass"] = episodes;

  if (!args.trace) {
    result.metrics["throughput_per_s"] = {
        static_cast<double>(untraced_ms.size() * decisions) / untraced_s, "1/s"};
    result.metrics["latency_ms_mean"] = {mean(untraced_all), "ms"};
    result.metrics["setup_s"] = {setup, "s"};
    result.metrics["rss_mb"] = {resident, "MiB"};
    return result;
  }

  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  // Each tick's mean over the untraced passes, for the fit.
  std::vector<double> tick_us(window, 0.0);
  for (const std::vector<double>& pass : untraced_ms) {
    for (std::size_t t = 0; t < window; ++t) {
      tick_us[t] += pass[t] * 1e3 / static_cast<double>(untraced_ms.size());
    }
  }
  const TickSplit split = split_ticks(tick_us, solved);
  const double all_ticks = d(all_ms.size());
  auto& m = result.metrics;
  m["pomdp.engine.us_per_root"] = {per(replay.engine_us, d(replay.roots)), "us"};
  m["pomdp.engine.nodes_per_root"] = {per(d(replay.nodes), d(replay.roots)), "count"};
  m["pomdp.engine.leaves_per_root"] = {per(d(replay.leaves), d(replay.roots)), "count"};
  m["pomdp.engine.deep_fallbacks"] = {d(replay.deep_fallbacks), "count"};
  m["bounds.leaf_ns_per_eval"] = {per(replay.leaf_ns, d(replay.leaf_evals)), "ns"};
  m["sim.fleet.solved_roots_per_tick"] = {per(d(after.classes - before.classes), d(ticks)),
                                          "count"};
  m["sim.fleet.shared_ratio"] = {
      per(d(after.shared_hits - before.shared_hits), d(decisions)), "ratio"};
  m["sim.fleet.episodes_per_tick"] = {per(d(episodes), d(ticks)), "count"};
  m["sim.fleet.tick_minus_solve_us_per_lane"] = {
      per(split.intercept_us, d(fleet->sessions())), "us"};
  m["sim.fleet.us_per_solved_root"] = {split.slope_us, "us"};
  m["util.pool.dispatches_per_tick"] = {per(d(dispatches), all_ticks), "count"};
  m["util.pool.tasks_per_tick"] = {per(d(tasks), all_ticks), "count"};
  m["util.pool.threads_created_after_warmup"] = {d(threads_created), "count"};
  m["util.cpu_per_wall"] = {per(cpu_s, all_s), "ratio"};
  m["bounds.set_size"] = {d(set->size()), "count"};
  m["models.build_ms"] = {models_ms, "ms"};
  const double untraced_mean = mean(untraced_all);
  m["obs.trace_overhead_pct"] = {
      100.0 * per(mean(traced_all) - untraced_mean, untraced_mean), "%"};

  result.counts["replay_roots"] = replay.roots;
  result.counts["nodes"] = replay.nodes;
  result.counts["leaves"] = replay.leaves;
  return result;
}

}  // namespace perfbench
