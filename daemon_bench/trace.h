// The traced run's instruments: an in-memory span recorder and a Breakdown
// that times each layer of one daemon request by calling that layer's public
// entry point on the request's own bytes. Nothing in src/ is instrumented and
// no program logic is restated here: every span wraps one call into the
// program (ParseWireRequest, IndexCache::Acquire, Solver::Run, GoodRadius,
// RadiusProfile::Build, Evaluate, ResponseToJson, ...).
//
// Inside ClusterService::Handle the layers run nested. The Breakdown calls
// them one after another instead, after Handle has answered, on an
// IndexCache of its own that sees the same request sequence as the daemon's.
// A span's parent is therefore the layer that contains it in the program, not
// a span that was open while it ran, and a layer's self time is its span
// minus the spans of its children, each child timed on its own call. For
// example good_radius self = GoodRadius() - RadiusProfile::Build() on the
// same input, and service self = Handle() - the children it calls.

#ifndef DAEMON_BENCH_TRACE_H_
#define DAEMON_BENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/service/index_cache.h"
#include "dpcluster/service/service.h"

namespace daemon_bench {

/// Span names, each after the module whose entry point the span wraps.
enum class Layer : std::uint8_t {
  kRequest,           ///< Root: http_server + service of one request.
  kHttpServer,        ///< Round trip of the request bytes through HttpServer.
  kService,           ///< ClusterService::Handle on the request.
  kDecode,            ///< protocol: ParseWireRequest / ParseStream*.
  kValidate,          ///< SnapAll + registry Lookup + Request::Validate +
                      ///< Algorithm::ValidateRequest.
  kAcquire,           ///< index_cache: Acquire / AcquireStream.
  kCompact,           ///< dataset: IndexedDataset::Compact before a stream
                      ///< solve.
  kMutateStream,      ///< index_cache: MutateStream.
  kInsert,            ///< dataset: IndexedDataset::Insert over a batch.
  kRemove,            ///< dataset: IndexedDataset::Remove over a batch.
  kSolverRun,         ///< Solver::Run with diagnostics off.
  kKCluster,          ///< k_cluster: KCluster.
  kGoodRadius,        ///< good_radius: GoodRadius.
  kRadiusProfile,     ///< radius_profile: RadiusProfile::Build.
  kGoodCenter,        ///< good_center: GoodCenter.
  kRadiusRefine,      ///< radius_refine: one round's RefineRadius (see .cc).
  kThresholdRelease,  ///< baselines: ThresholdRelease1D build + query.
  kEvaluate,          ///< metrics: Evaluate (the non-private diagnostics).
  kOptRadius,         ///< minimal_ball: OptRadiusLowerBound.
  kEncode,            ///< protocol/json: ResponseToJson + Encode.
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  Layer layer;
  std::int32_t parent;    ///< Index of the parent span in the same Tracer.
  std::uint64_t request;  ///< Request id shared by one request's spans.
  std::int64_t start_ns;  ///< steady_clock, relative to the tracer's epoch.
  std::int64_t end_ns;
};

/// One thread's span buffer (no locking; read after the threads join).
class Tracer {
 public:
  explicit Tracer(std::chrono::steady_clock::time_point epoch)
      : epoch_(epoch) {}

  void set_request(std::uint64_t request) { request_ = request; }
  int Begin(Layer layer, int parent);
  void End(int span);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t Now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing and has index -1.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, int parent = -1)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(layer, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return span_; }

 private:
  Tracer* tracer_;
  int span_;
};

/// Per-request facts the spans do not carry.
struct LayerFacts {
  std::size_t kcluster_rounds = 0;  ///< Balls KCluster released.
  std::size_t kcluster_k = 0;       ///< Rounds KCluster was asked for.
  std::size_t compactions = 0;      ///< IndexedDataset compactions.
};

/// Times the layers of daemon requests against its own IndexCache (the
/// daemon's capacity). Thread-safe like the service: concurrent calls share
/// the cache through its exclusive leases.
class Breakdown {
 public:
  explicit Breakdown(const dpcluster::ServiceOptions& options);

  /// Times every layer of POST `path` with `body`; the spans of the layers
  /// Handle calls directly get `service` as their parent.
  dpcluster::Status Run(std::string_view path, std::string_view body,
                        Tracer* tracer, int service, LayerFacts* facts);

 private:
  dpcluster::Status Solve(std::string_view body, Tracer* tracer, int service,
                          LayerFacts* facts);
  dpcluster::Status StreamMutate(std::string_view body, bool append,
                                 Tracer* tracer, int service,
                                 LayerFacts* facts);

  const dpcluster::ServiceOptions options_;
  dpcluster::IndexCache cache_;
};

}  // namespace daemon_bench

#endif  // DAEMON_BENCH_TRACE_H_
