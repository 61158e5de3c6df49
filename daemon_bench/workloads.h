// The benchmark's three workloads, generated from the workload seed before
// any timing starts. Every dataset comes from a ScenarioRegistry family and
// every request body is encoded up front with the repository's own wire
// encoder; per-request solver seeds are spliced into the pre-encoded bodies
// (see BodyTemplate), so the daemon receives only bytes and no two solves
// of a run are identical.
//
//   resident_solve  2 clients, 4 resident 2-d keys (n = 4096): one_cluster
//                   on planted_cluster and on gaussian_mixture, k_cluster
//                   (k = 4). Each client owns two keys, so after the first
//                   pass every lease is a cache hit.
//   bulk_1d         2 clients, threshold_release_1d over 16 1-d keys
//                   (n = 65536, ~1.4 MB bodies) cycled through the default
//                   8-entry cache: every lease misses and evicts.
//   stream_ingest   1 client keeps a resident 2-d stream (streaming family)
//                   at 4096 live rows: per tick append 256 rows, expire the
//                   256 oldest; every 16th tick a "stream": true one_cluster.

#ifndef DAEMON_BENCH_WORKLOADS_H_
#define DAEMON_BENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"

namespace daemon_bench {

enum class OpKind { kSolve, kStreamSolve, kAppend, kExpire };

const char* PathOf(OpKind kind);
bool IsSolve(OpKind kind);

/// A pre-encoded request body. A seeded body is split around its "seed"
/// lexeme: the bytes sent are prefix + Op::seed_lexeme + suffix.
struct BodyTemplate {
  std::string prefix;
  std::string suffix;
  bool seeded = false;
  std::size_t points = 0;  ///< Rows the body carries (solve or append).
  /// What the request asks for, as reported per request kind.
  std::string label;
  /// Solves: the requested budget, which the reply must report as charged.
  double epsilon = 0.0;
  double delta = 0.0;
};

struct Op {
  OpKind kind = OpKind::kSolve;
  std::uint32_t body = 0;    ///< Index into Workload::bodies.
  std::string seed_lexeme;   ///< Empty for unseeded bodies.
  /// Stream solves: first row (in Workload::stream_rows) of the live window
  /// the solve sees; the window is Workload::stream_live rows long.
  std::size_t live_begin = 0;
};

struct Workload {
  std::string name;
  std::size_t clients = 1;
  std::vector<BodyTemplate> bodies;
  /// setup[rep][client]: the warm-up pass of one set-up repetition (each
  /// repetition starts a fresh daemon; seeds differ per repetition).
  std::vector<std::vector<std::vector<Op>>> setup;
  /// ops[client]: the closed-loop sequence after warm-up. Long enough that
  /// no client runs out within the measured seconds.
  std::vector<std::vector<Op>> ops;

  // stream_ingest only: every row in arrival order and the stream's domain.
  dpcluster::PointSet stream_rows{2};
  dpcluster::GridDomain stream_domain{2, 1};
  std::size_t stream_live = 0;
};

/// Names of the workloads MakeWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Generates `name` from `seed`, sized for a measurement of `seconds`.
dpcluster::Result<Workload> MakeWorkload(const std::string& name,
                                         std::uint64_t seed, double seconds);

}  // namespace daemon_bench

#endif  // DAEMON_BENCH_WORKLOADS_H_
