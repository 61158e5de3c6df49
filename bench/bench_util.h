// Shared helpers for the reproduction benchmark harness.

#ifndef DPCLUSTER_BENCH_BENCH_UTIL_H_
#define DPCLUSTER_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "dpcluster/api/solver.h"

namespace dpcluster {
namespace bench {

/// One measured operation for the machine-readable perf log.
struct BenchRecord {
  std::string op;      ///< Operation name, e.g. "PairwiseDistances::Compute".
  std::size_t n = 0;   ///< Input rows.
  std::size_t d = 0;   ///< Input dimension.
  std::size_t threads = 1;
  double ns_per_op = 0.0;
  std::size_t bytes = 0;  ///< Structure memory, 0 = not measured (omitted).
};

/// Collects BenchRecords and writes them as a JSON array (BENCH_*.json), so
/// the perf trajectory stays machine-readable across PRs. Records survive a
/// failed Write (the file is rewritten atomically per call).
class JsonReporter {
 public:
  explicit JsonReporter(std::string path) : path_(std::move(path)) {}

  void Add(std::string op, std::size_t n, std::size_t d, std::size_t threads,
           double ns_per_op, std::size_t bytes = 0) {
    records_.push_back({std::move(op), n, d, threads, ns_per_op, bytes});
  }

  /// Writes all records deduplicated on the (op, n, d, threads) key — last
  /// write wins — and sorted by that key, so re-measured configurations never
  /// pile up as duplicate rows and baseline diffs stay clean. Records with a
  /// measured allocation carry an extra "bytes" column (e.g. the coreset
  /// build's peak RSS). Returns false (and prints to stderr) on IO failure.
  bool Write() const {
    std::map<std::tuple<std::string, std::size_t, std::size_t, std::size_t>,
             std::pair<double, std::size_t>>
        rows;
    for (const BenchRecord& r : records_) {
      rows[{r.op, r.n, r.d, r.threads}] = {r.ns_per_op, r.bytes};
    }
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot open %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    std::size_t i = 0;
    for (const auto& [key, value] : rows) {
      const auto& [op, n, d, threads] = key;
      const auto& [ns_per_op, bytes] = value;
      std::fprintf(f,
                   "  {\"op\": \"%s\", \"n\": %zu, \"d\": %zu, \"threads\": "
                   "%zu, \"ns_per_op\": %.1f",
                   Escaped(op).c_str(), n, d, threads, ns_per_op);
      if (bytes > 0) std::fprintf(f, ", \"bytes\": %zu", bytes);
      std::fprintf(f, "}%s\n", ++i < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %zu records (%zu measured) to %s\n", rows.size(),
                records_.size(), path_.c_str());
    return true;
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<BenchRecord> records_;
};

/// Peak resident set size of this process in bytes (0 where unsupported).
/// A high-water mark, not a live gauge: it only ever grows, so measure the
/// large-n configuration first (or in a dedicated run) when gating memory —
/// the coreset scaling section and its --smoke floor rely on this.
inline std::size_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// Wall-clock milliseconds of a callable.
template <typename F>
double TimeMs(F&& f) {
  const auto start = std::chrono::steady_clock::now();
  f();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Section banner in the harness output.
inline void Banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void Note(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

/// Aggregate utility/timing stats of repeated Solver runs of one request —
/// the measured counterparts of the paper's (Delta, w) columns.
struct MethodStats {
  bool ran = false;
  double delta_mean = 0.0;  ///< mean max(0, t - captured)
  double w_eff_mean = 0.0;  ///< mean tight_radius / r_opt lower bound
  double ms_mean = 0.0;
  std::string note;         ///< error text of the last failing trial, if any
};

/// Runs `request` `trials` times through `solver` (each run gets a fresh RNG
/// stream from the solver) and averages the solver's utility diagnostics over
/// the successful trials. The request must leave diagnostics enabled and set
/// t, so the solver can score each response.
inline MethodStats RunTrials(Solver& solver, const Request& request,
                             int trials) {
  MethodStats stats;
  int ok_trials = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const auto response = solver.Run(request);
    if (!response.ok()) {
      stats.note = response.status().ToString().substr(0, 48);
      continue;
    }
    if (!response->diagnostics.has_value()) {
      stats.note = "no diagnostics (enable SolverOptions::diagnostics, set t)";
      continue;
    }
    stats.delta_mean += std::max(0.0, response->diagnostics->delta);
    stats.w_eff_mean += response->diagnostics->w_effective;
    stats.ms_mean += response->wall_ms;
    ++ok_trials;
  }
  if (ok_trials > 0) {
    stats.ran = true;
    stats.delta_mean /= ok_trials;
    stats.w_eff_mean /= ok_trials;
    stats.ms_mean /= ok_trials;
  }
  return stats;
}

}  // namespace bench
}  // namespace dpcluster

#endif  // DPCLUSTER_BENCH_BENCH_UTIL_H_
