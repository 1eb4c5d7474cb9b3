// session-online: one BoundedController (depth 1, online Eq. 7 improvement)
// running serial fault-injection episodes through sim::run_episode — a
// closed loop with one client. The controller writes to its bound set
// beside its reads, so later decides see the planes earlier ones added.
//
// Set-up is repeated kSetups times from the run's seed; the last controller
// then runs a fixed number of distinct episodes (episodes_per_second ×
// --seconds). The online improvement makes a controller's path depend on
// every episode before, so the gated figures need many distinct episodes.
// The controller is wrapped in a forwarding RecoveryController that times
// each decide(). Traced runs alternate an untraced episode with a traced
// one; in a traced episode every decide is followed by an action_values
// replay and a backup_vector replay on the same belief, made with the
// benchmark's own engine and evaluate scratch — neither flushes nor adds to
// the controller's set.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bounds/incremental_update.hpp"
#include "common.hpp"
#include "controller/bounded_controller.hpp"
#include "pomdp/expansion.hpp"
#include "sim/environment.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"
#include "util/work_pool.hpp"

namespace perfbench {

namespace {

using recoverd::controller::BoundedController;
using recoverd::controller::Decision;
using recoverd::controller::RecoveryController;

struct SessionShape {
  std::size_t warmup_episodes;
  std::size_t episodes_per_second;  ///< measured episodes per --seconds
};

/// Set-ups per run; one takes about a tenth of a second.
constexpr std::size_t kSetups = 7;

SessionShape shape_for(bool smoke) {
  if (smoke) return {2, 5};
  return {10, 200};
}

/// Per-decide stage totals of the traced episodes.
struct SessionTrace {
  std::uint64_t decides = 0;
  std::uint64_t records = 0;
  double record_us = 0.0;
  double expand_us = 0.0;
  double backup_us = 0.0;
  std::uint64_t planes_added = 0;
};

/// Forwards to the bounded controller, timing every decide() and — while
/// tracing — every record(), plus the replays after each decide.
class TimedController : public RecoveryController {
 public:
  TimedController(BoundedController& inner, const recoverd::Pomdp& model,
                  const recoverd::bounds::BoundSet& set, Digest& digest)
      : inner_(inner), set_(set), engine_(model), digest_(digest) {
    expansion_.branch_floor = EmnSetup::kBranchFloor;
    scratch_.resize(recoverd::ExpansionEngine::leaf_slots(expansion_));
  }

  const std::string& name() const override { return inner_.name(); }
  const recoverd::Belief& belief() const override { return inner_.belief(); }
  const recoverd::Pomdp& model() const override { return inner_.model(); }
  void begin_episode(const recoverd::Belief& initial) override {
    inner_.begin_episode(initial);
  }

  Decision decide() override {
    const std::uint64_t generation = set_.generation();
    Stopwatch timer;
    const Decision decision = inner_.decide();
    (tracing_ ? traced_ms_ : decide_ms_).push_back(timer.ms());
    if (tracing_) {
      ++trace_.decides;
      // Every generation bump inside one decide() comes from its single
      // improve_at() adding a plane (a capacity eviction rides along).
      if (set_.generation() != generation) ++trace_.planes_added;
      replay();
    }
    digest_.value(decision.action);
    digest_.value(decision.terminate);
    return decision;
  }

  void record(recoverd::ActionId action, recoverd::ObsId obs) override {
    if (!tracing_) {
      inner_.record(action, obs);
      return;
    }
    Stopwatch timer;
    inner_.record(action, obs);
    trace_.record_us += timer.us();
    ++trace_.records;
  }

  void set_tracing(bool on) { tracing_ = on; }
  const std::vector<double>& decide_ms() const { return decide_ms_; }
  const std::vector<double>& traced_ms() const { return traced_ms_; }
  const SessionTrace& trace() const { return trace_; }

 private:
  void replay() {
    const recoverd::Belief& pi = inner_.belief();
    for (auto& s : scratch_) set_.begin_eval(s);
    const recoverd::bounds::ScratchBoundLeaf leaf{&set_, scratch_.data()};
    const recoverd::SpanLeaf span_leaf =
        recoverd::SpanLeaf::of_batched(leaf, set_.size() + 1);
    expansion_.memo_context = set_.generation();
    Stopwatch expand_timer;
    engine_.action_values(pi.probabilities(), 1, span_leaf, expansion_, values_);
    trace_.expand_us += expand_timer.us();

    Stopwatch backup_timer;
    recoverd::bounds::backup_vector(inner_.model(), set_, pi);
    trace_.backup_us += backup_timer.us();
  }

  BoundedController& inner_;
  const recoverd::bounds::BoundSet& set_;
  recoverd::ExpansionEngine engine_;
  recoverd::ExpansionOptions expansion_;
  std::vector<recoverd::bounds::BoundSet::EvalScratch> scratch_;
  std::vector<recoverd::ActionValue> values_;
  bool tracing_ = false;
  Digest& digest_;
  std::vector<double> decide_ms_;
  std::vector<double> traced_ms_;
  SessionTrace trace_;
};

recoverd::sim::EpisodeConfig episode_config(const EmnSetup& emn) {
  recoverd::sim::EpisodeConfig config;
  config.observe_action = emn.ids.topo.observe_action;
  config.max_steps = EmnSetup::kMaxSteps;
  config.initial_observation = true;
  config.fault_support = emn.fault_support;
  return config;
}

}  // namespace

Result run_session(const Args& args) {
  Result result;
  const SessionShape shape = shape_for(args.smoke);
  Stopwatch models_timer;
  const EmnSetup emn;
  const double models_ms = models_timer.ms();
  const recoverd::sim::EpisodeConfig config = episode_config(emn);
  recoverd::controller::BoundedControllerOptions options;
  options.tree_depth = 1;
  options.branch_floor = EmnSetup::kBranchFloor;

  // Episode i runs on the i-th split of the master stream, the same
  // derivation sim::run_experiment uses for a clean campaign.
  std::unique_ptr<recoverd::Rng> master;
  const auto run_one = [&](RecoveryController& controller) {
    recoverd::Rng episode_rng = master->split();
    recoverd::sim::Environment env(emn.base, episode_rng.split());
    const recoverd::StateId fault = emn.injector.sample(episode_rng);
    return recoverd::sim::run_episode(env, controller, fault, config);
  };

  // --- set-up, repeated; the last controller is the one measured --------
  std::vector<double> setup_s;
  std::unique_ptr<recoverd::bounds::BoundSet> set;
  std::unique_ptr<BoundedController> controller;
  for (std::size_t i = 0; i < kSetups; ++i) {
    controller.reset();
    set.reset();
    Stopwatch timer;
    master = std::make_unique<recoverd::Rng>(args.seed);
    set = emn.build_bounds();
    controller = std::make_unique<BoundedController>(emn.recovery, *set, options);
    for (std::size_t e = 0; e < shape.warmup_episodes; ++e) run_one(*controller);
    setup_s.push_back(timer.seconds());
  }

  // --- measured episodes -------------------------------------------------
  const std::size_t episodes =
      shape.episodes_per_second * static_cast<std::size_t>(args.seconds);
  Digest digest;
  TimedController timed(*controller, emn.recovery, *set, digest);
  std::uint64_t unrecovered = 0;  // the controller quit with the fault present
  std::uint64_t truncated = 0;    // the step cap ended the episode
  std::uint64_t bad = 0;          // either of the two
  double cost = 0.0;
  double untraced_s = 0.0;        // wall time of the untraced episodes
  const recoverd::util::WorkPool& pool = recoverd::util::WorkPool::instance();
  const recoverd::util::WorkPool::Stats pool_before = pool.stats();
  const double cpu_before = cpu_seconds();
  Stopwatch window;
  for (std::size_t e = 0; e < episodes; ++e) {
    const bool traced = args.trace && e % 2 == 1;
    timed.set_tracing(traced);
    Stopwatch episode_timer;
    const recoverd::sim::EpisodeMetrics m = run_one(timed);
    if (!traced) untraced_s += episode_timer.seconds();
    if (!m.recovered) ++unrecovered;
    if (!m.terminated) ++truncated;
    if (!m.recovered || !m.terminated) ++bad;
    cost += m.cost;
    digest.value(m.cost);
    digest.value(m.injected_fault);
    digest.value(static_cast<std::uint64_t>(m.recovery_actions));
    digest.value(static_cast<std::uint64_t>(m.monitor_calls));
  }
  const double wall_s = window.seconds();
  const double cpu_s = cpu_seconds() - cpu_before;
  const recoverd::util::WorkPool::Stats pool_after = pool.stats();
  const double resident = resident_mb();
  digest.value(static_cast<std::uint64_t>(set->size()));
  digest.value(set->generation());
  result.digest = digest.hex();

  // --- correctness -------------------------------------------------------
  // An episode is the session's unit of work; it fails when the controller
  // never stops on its own (Property 1). Quitting with the fault still
  // present is a decision-quality outcome: the controller terminates once
  // the residual fault mass no longer pays for more steps, so over thousands
  // of episodes a few end unrecovered. Those count in failure_ratio.
  result.attempted = std::max<std::size_t>(episodes, 1);
  result.failed = truncated;
  result.check(truncated == 0, "an episode hit the step cap (Property 1 termination)");
  const std::vector<double>& decide_ms = timed.decide_ms();
  const std::uint64_t decides = decide_ms.size() + timed.traced_ms().size();
  result.counts["episodes"] = episodes;
  result.counts["decides"] = decides;
  result.counts["bound_generation"] = set->generation();

  // --- metrics -----------------------------------------------------------
  const double setup = median(setup_s);
  const double rss = peak_rss_mb();
  const double episodes_d = static_cast<double>(episodes);
  result.report["decide_ms_p50"] = {percentile(decide_ms, 0.5), "ms"};
  result.report["decide_ms_p90"] = {percentile(decide_ms, 0.9), "ms"};
  result.report["decide_ms_p99"] = {percentile(decide_ms, 0.99), "ms"};
  result.report["decides_measured"] = {static_cast<double>(decide_ms.size()), "count"};
  result.report["episodes_per_s"] = {episodes_d / wall_s, "1/s"};
  result.report["decides_per_s"] = {static_cast<double>(decides) / wall_s, "1/s"};
  result.report["cost_per_fault"] = {cost / episodes_d, "requests"};
  result.report["cost_episodes"] = {episodes_d, "count"};
  result.report["failure_ratio"] = {static_cast<double>(bad) / episodes_d, "ratio"};
  result.report["episodes_unrecovered"] = {static_cast<double>(unrecovered), "count"};
  result.report["episodes_truncated"] = {static_cast<double>(truncated), "count"};
  result.report["setup_s"] = {setup, "s"};
  result.report["peak_rss_mb"] = {rss, "MiB"};
  result.report["rss_mb"] = {resident, "MiB"};

  if (!args.trace) {
    // Decisions per second, as on the fleets. Episodes per second would
    // also carry the seed's learning path: one seed's controller settles on
    // 6.6 decides per episode where others take 8.0.
    result.metrics["throughput_per_s"] = {
        static_cast<double>(decide_ms.size()) / untraced_s, "1/s"};
    result.metrics["latency_ms_mean"] = {mean(decide_ms), "ms"};
    result.metrics["setup_s"] = {setup, "s"};
    result.metrics["rss_mb"] = {resident, "MiB"};
    return result;
  }

  const SessionTrace& t = timed.trace();
  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  auto& m = result.metrics;
  m["controller.record_us"] = {per(t.record_us, d(t.records)), "us"};
  m["pomdp.expand_us_per_decide"] = {per(t.expand_us, d(t.decides)), "us"};
  m["bounds.eq7_backup_us"] = {per(t.backup_us, d(t.decides)), "us"};
  m["bounds.planes_added_per_decide"] = {per(d(t.planes_added), d(t.decides)), "count"};
  m["bounds.set_size"] = {d(set->size()), "count"};
  m["sim.session.decides_per_episode"] = {per(d(decides), episodes_d), "count"};
  // util.pool "per tick" here means per decide: the session's unit step.
  m["util.pool.dispatches_per_tick"] = {
      per(d(pool_after.dispatches - pool_before.dispatches), d(decides)), "count"};
  m["util.pool.tasks_per_tick"] = {per(d(pool_after.tasks - pool_before.tasks), d(decides)),
                                   "count"};
  m["util.pool.threads_created_after_warmup"] = {
      d(pool_after.threads_created - pool_before.threads_created), "count"};
  m["util.cpu_per_wall"] = {per(cpu_s, wall_s), "ratio"};
  m["models.build_ms"] = {models_ms, "ms"};
  // Means, not medians: the decide time is multi-modal (see main.cpp).
  const double untraced_mean = mean(decide_ms);
  m["obs.trace_overhead_pct"] = {
      100.0 * per(mean(timed.traced_ms()) - untraced_mean, untraced_mean), "%"};

  result.counts["planes_added"] = t.planes_added;
  result.counts["traced_decides"] = t.decides;
  return result;
}

}  // namespace perfbench
