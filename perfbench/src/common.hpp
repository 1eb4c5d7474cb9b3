// Shared plumbing of the repo benchmark: strict argument parsing, the
// result record (end-to-end and per-layer metrics, report fields, digest),
// timing helpers and the §5 EMN set-up every EMN workload starts from.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bounds/bound_set.hpp"
#include "models/emn.hpp"
#include "pomdp/pomdp.hpp"
#include "sim/fault_injector.hpp"

namespace perfbench {

/// Benchmark arguments. Only `--key=value` tokens are accepted; unknown
/// keys, positional tokens, repeated keys and missing required keys are
/// errors, so a workload can never run on silently defaulted settings.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;         ///< --size=smoke: tiny inputs for the self-test
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
  std::string scratch_dir;    ///< where offline-bounds writes its artifact
};

/// Throws std::invalid_argument with an actionable message on bad input.
Args parse_args(int argc, char** argv);

/// Monotonic stopwatch (steady_clock).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ms() const { return seconds() * 1e3; }
  double us() const { return seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// User + system CPU seconds of this process so far (getrusage).
double cpu_seconds();
/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();
/// Resident set size of this process now, in MiB (/proc/self/statm); 0 if
/// it cannot be read.
double resident_mb();

/// CRC-64 (util::crc64) over the bytes fed in: the output digests, which
/// must repeat bit for bit across runs of one seed.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  std::string hex() const;

 private:
  std::vector<unsigned char> buffer_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produces.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Contract metrics: the end-to-end set (untraced) or the per-layer set
  /// (traced).
  std::map<std::string, Metric> metrics;
  /// The workload's own named end-to-end figures (the human-facing report).
  std::map<std::string, Metric> report;
  /// Exact counts that must repeat across runs of one seed.
  std::map<std::string, std::uint64_t> counts;
  std::string digest;
  std::vector<std::string> check_failures;

  void check(bool ok, const std::string& what);
};

/// The Table 1 setup shared by the EMN workloads: §5 EMN model (base and
/// terminate-transformed), zombie-fault injector, branch floor 1e-2,
/// bound capacity 64, RA-Bound plus a 10-run depth-2 bootstrap.
struct EmnSetup {
  static constexpr double kBranchFloor = 1e-2;
  static constexpr std::size_t kBoundCapacity = 64;
  static constexpr std::size_t kBootstrapRuns = 10;
  static constexpr int kBootstrapDepth = 2;
  static constexpr std::size_t kMaxSteps = 10000;
  /// The bootstrap is part of the controller's configuration, not of the
  /// workload's inputs: it always runs on the Table 1 seed, so --seed moves
  /// only the injected faults and environment draws.
  static constexpr std::uint64_t kBootstrapSeed = 2006;

  recoverd::Pomdp base;
  recoverd::Pomdp recovery;
  recoverd::models::EmnIds ids;
  recoverd::sim::FaultInjector injector;
  std::vector<recoverd::StateId> fault_support;  ///< non-goal base states

  EmnSetup();

  /// RA-Bound set seeded and warmed by the bootstrap (heap-allocated so
  /// drivers and controllers can hold a stable reference).
  std::unique_ptr<recoverd::bounds::BoundSet> build_bounds() const;
};

Result run_fleet(const Args& args, bool deep);
Result run_session(const Args& args);
Result run_offline(const Args& args);

}  // namespace perfbench
