// The repo benchmark binary: runs one workload and prints three JSON lines
// on stdout — the machine block, the workload report (its named end-to-end
// figures with units, exact counts, output digest and failed checks), and
// last the result record {"correct", "attempted", "failed", "metrics"}.
//
//   recoverd_perfbench --workload=fleet-deep --seed=2006 --seconds=20 --trace=0
//
// Workloads: fleet-deep, fleet-wide, session-online, offline-bounds. With
// --trace=0 the record holds the end-to-end metrics, with --trace=1 the
// per-layer ones. Exit status: 0 when every correctness check passed, 1
// when one failed (the record is still printed), 2 on bad arguments or an
// error before any result exists (nothing is printed on stdout).
#include <cpuid.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/simd.hpp"
#include "util/work_pool.hpp"

namespace perfbench {
namespace {

constexpr unsigned kFleetDeep = 1u << 0;
constexpr unsigned kFleetWide = 1u << 1;
constexpr unsigned kSession = 1u << 2;
constexpr unsigned kOffline = 1u << 3;
constexpr unsigned kFleets = kFleetDeep | kFleetWide;
constexpr unsigned kAll = kFleets | kSession | kOffline;

struct MetricSpec {
  const char* name;
  const char* unit;
  unsigned workloads;  ///< workloads that measure it; the rest report 0
};

// The end-to-end set every untraced run reports, as plain means over the
// measured units. Latency is a mean: the session's decide time is
// multi-modal, decides with and without an Eq. 7 backup, so its median
// jumps between modes from seed to seed. Memory is the resident set after
// the measured work (after the first pass on the fleets); the peak is in
// the report line, with medians and tails.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_per_s", "1/s", kAll},
    {"latency_ms_mean", "ms", kAll},
    {"setup_s", "s", kAll},
    {"rss_mb", "MiB", kAll},
};

// The per-layer set every traced run reports. A layer a workload does not
// load reads 0 there (see perfbench/README.md).
constexpr MetricSpec kPerLayer[] = {
    {"pomdp.engine.us_per_root", "us", kFleets},
    {"pomdp.engine.nodes_per_root", "count", kFleets},
    {"pomdp.engine.leaves_per_root", "count", kFleets},
    {"pomdp.engine.deep_fallbacks", "count", kFleets},
    {"bounds.leaf_ns_per_eval", "ns", kFleets},
    {"sim.fleet.solved_roots_per_tick", "count", kFleets},
    {"sim.fleet.shared_ratio", "ratio", kFleets},
    {"sim.fleet.episodes_per_tick", "count", kFleets},
    {"sim.fleet.tick_minus_solve_us_per_lane", "us", kFleets},
    {"sim.fleet.us_per_solved_root", "us", kFleets},
    {"util.pool.dispatches_per_tick", "count", kAll},
    {"util.pool.tasks_per_tick", "count", kAll},
    {"util.pool.threads_created_after_warmup", "count", kAll},
    {"util.cpu_per_wall", "ratio", kAll},
    {"controller.record_us", "us", kSession},
    {"pomdp.expand_us_per_decide", "us", kSession},
    {"bounds.eq7_backup_us", "us", kSession},
    {"bounds.planes_added_per_decide", "count", kSession},
    {"bounds.set_size", "count", kAll},
    {"sim.session.decides_per_episode", "count", kSession},
    {"bounds.chain_assembly_ms", "ms", kOffline},
    {"linalg.solve_ms", "ms", kOffline},
    {"linalg.solve_iterations", "count", kOffline},
    {"linalg.scc_components", "count", kOffline},
    {"linalg.scc_levels", "count", kOffline},
    {"bounds.artifact_save_ms", "ms", kOffline},
    {"bounds.artifact_bytes", "bytes", kOffline},
    {"bounds.hash_mdp_ms", "ms", kOffline},
    {"bounds.artifact_load_ms", "ms", kOffline},
    {"bounds.first_eval_ms", "ms", kOffline},
    {"models.build_ms", "ms", kAll},
    {"obs.trace_overhead_pct", "%", kAll},
};

unsigned workload_bit(const std::string& workload) {
  if (workload == "fleet-deep") return kFleetDeep;
  if (workload == "fleet-wide") return kFleetWide;
  if (workload == "session-online") return kSession;
  if (workload == "offline-bounds") return kOffline;
  throw std::invalid_argument("unknown workload '" + workload +
                              "' (fleet-deep, fleet-wide, session-online, offline-bounds)");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest round-trip decimal form: every digit as measured.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : "null";
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string machine_block(const Args& args, std::size_t nproc) {
  std::string out = "{\"machine\": {";
  out += "\"nproc\": " + std::to_string(nproc);
  out += ", \"pool_thread_cap\": " +
         std::to_string(recoverd::util::WorkPool::instance().thread_cap());
  out += ", \"cpu_model\": " + json_string(cpu_model());
  out += ", \"simd\": " + json_string(recoverd::simd::describe_active_mode());
  out += ", \"compiler\": " + json_string(compiler());
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"git_rev\": " + json_string(args.git_rev);
  out += ", \"source_digest\": " + json_string(args.source_digest);
  return out + "}}";
}

/// Checks the workload emitted exactly the metrics it owns, with their
/// units and finite values, and fills in the zeros of the layers it does
/// not load.
bool complete_metrics(Result& result, bool trace, unsigned bit) {
  bool ok = true;
  std::size_t emitted = 0;
  std::map<std::string, Metric> complete;
  const auto take = [&](const auto& specs) {
    for (const MetricSpec& spec : specs) {
      const auto it = result.metrics.find(spec.name);
      const bool owned = (spec.workloads & bit) != 0;
      const bool found = it != result.metrics.end();
      emitted += found ? 1 : 0;
      // Gated end-to-end figures are never 0: a 0 means it was not measured.
      if (owned != found ||
          (found && (it->second.unit != spec.unit || !std::isfinite(it->second.value) ||
                     (!trace && it->second.value <= 0.0)))) {
        std::fprintf(stderr, "perfbench: metric %s wrongly emitted\n", spec.name);
        ok = false;
      }
      complete[spec.name] = found ? it->second : Metric{0.0, spec.unit};
    }
  };
  if (trace) {
    take(kPerLayer);
  } else {
    take(kEndToEnd);
  }
  if (emitted != result.metrics.size()) {
    std::fprintf(stderr, "perfbench: the workload emitted an undeclared metric\n");
    ok = false;
  }
  result.metrics = std::move(complete);
  return ok;
}

int run(int argc, char** argv) {
  Args args;
  unsigned bit = 0;
  try {
    args = parse_args(argc, argv);
    bit = workload_bit(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  // The pool's default cap is unbounded; the benchmark pins it to the host.
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  recoverd::util::WorkPool::instance().configure_threads(nproc);

  Result result;
  if (bit == kFleetDeep || bit == kFleetWide) {
    result = run_fleet(args, bit == kFleetDeep);
  } else if (bit == kSession) {
    result = run_session(args);
  } else {
    result = run_offline(args);
  }
  result.check(complete_metrics(result, args.trace, bit),
               "the workload did not emit its metric set");

  std::string report = "{\"report\": {\"workload\": " + json_string(args.workload);
  report += ", \"seed\": " + std::to_string(args.seed);
  report += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  report += ", \"size\": " + json_string(args.smoke ? "smoke" : "full");
  report += ", \"figures\": " + json_metrics(result.report);
  report += ", \"counts\": {";
  bool first = true;
  for (const auto& [name, v] : result.counts) {
    report += (first ? "" : ", ") + json_string(name) + ": " + std::to_string(v);
    first = false;
  }
  report += "}, \"digest\": " + json_string(result.digest);
  report += ", \"failed_checks\": [";
  for (std::size_t i = 0; i < result.check_failures.size(); ++i) {
    report += (i > 0 ? ", " : "") + json_string(result.check_failures[i]);
  }
  report += "]}}";

  std::printf("%s\n%s\n", machine_block(args, nproc).c_str(), report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed),
              json_metrics(result.metrics).c_str());
  std::fflush(stdout);
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
