#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <stdexcept>

#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "util/crc64.hpp"

namespace perfbench {

namespace {

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  std::uint64_t out = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw std::invalid_argument("--" + key + " expects a non-negative integer, got '" +
                                text + "'");
  }
  return out;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  static const std::set<std::string> kRequired = {"workload", "seed", "seconds", "trace"};
  static const std::set<std::string> kOptional = {"size", "git-rev", "source-digest",
                                                  "scratch-dir"};
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    const std::size_t eq = token.find('=');
    if (token.rfind("--", 0) != 0 || eq == std::string::npos || eq == 2) {
      throw std::invalid_argument("unexpected argument '" + token +
                                  "': arguments take the form --key=value");
    }
    const std::string key = token.substr(2, eq - 2);
    if (kRequired.count(key) == 0 && kOptional.count(key) == 0) {
      throw std::invalid_argument("unknown argument --" + key);
    }
    if (!values.emplace(key, token.substr(eq + 1)).second) {
      throw std::invalid_argument("argument --" + key + " given twice");
    }
  }
  for (const std::string& key : kRequired) {
    if (values.count(key) == 0) {
      throw std::invalid_argument("missing required argument --" + key + "=...");
    }
  }

  Args args;
  args.workload = values["workload"];
  args.seed = parse_u64("seed", values["seed"]);
  const std::uint64_t seconds = parse_u64("seconds", values["seconds"]);
  if (seconds < 1 || seconds > 600) {
    throw std::invalid_argument("--seconds must be in [1, 600]");
  }
  args.seconds = static_cast<double>(seconds);
  const std::string& trace = values["trace"];
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace expects 0 or 1, got '" + trace + "'");
  }
  args.trace = trace == "1";
  if (values.count("size") != 0) {
    const std::string& size = values["size"];
    if (size != "full" && size != "smoke") {
      throw std::invalid_argument("--size expects full or smoke, got '" + size + "'");
    }
    args.smoke = size == "smoke";
  }
  if (values.count("git-rev") != 0) args.git_rev = values["git-rev"];
  if (values.count("source-digest") != 0) args.source_digest = values["source-digest"];
  if (values.count("scratch-dir") != 0) args.scratch_dir = values["scratch-dir"];
  return args;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double resident_mb() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int read = std::fscanf(statm, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(statm);
  if (read != 2) return 0.0;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  buffer_.insert(buffer_.end(), p, p + n);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    recoverd::util::crc64(buffer_.data(), buffer_.size())));
  return buf;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  check_failures.push_back(what);
}

EmnSetup::EmnSetup()
    : base(recoverd::models::make_emn_base()),
      recovery(recoverd::models::make_emn_recovery_model()),
      ids(recoverd::models::emn_ids(base)),
      injector(std::vector<recoverd::StateId>(ids.topo.zombie_states.begin(),
                                              ids.topo.zombie_states.end())) {
  for (recoverd::StateId s = 0; s < base.num_states(); ++s) {
    if (!base.mdp().is_goal(s)) fault_support.push_back(s);
  }
}

std::unique_ptr<recoverd::bounds::BoundSet> EmnSetup::build_bounds() const {
  auto set = std::make_unique<recoverd::bounds::BoundSet>(
      recoverd::bounds::make_ra_bound_set(recovery.mdp(), kBoundCapacity));
  recoverd::controller::BootstrapOptions boot;
  boot.iterations = kBootstrapRuns;
  boot.tree_depth = kBootstrapDepth;
  boot.observe_action = ids.topo.observe_action;
  boot.seed = kBootstrapSeed;
  boot.branch_floor = kBranchFloor;
  recoverd::controller::bootstrap_bounds(
      recovery, *set, recoverd::Belief::uniform(recovery.num_states()), boot);
  return set;
}

}  // namespace perfbench
