#include "dpcluster/api/request.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "dpcluster/parallel/thread_pool.h"

namespace dpcluster {
namespace {

bool DomainMatches(const IndexedDataset& index,
                   const std::optional<GridDomain>& domain) {
  return !domain.has_value() ||
         (index.domain().levels() == domain->levels() &&
          index.domain().dim() == domain->dim() &&
          index.domain().axis_length() == domain->axis_length());
}

// True if the index views exactly this data with every row active. A
// weighted index is a coreset summary: its rows cannot be compared to the
// data row-for-row, so the check is mass + dimension + domain — full
// correspondence is the builder's contract (BuildSharedIndex compresses the
// request's own data; the service cache keys entries on a dataset
// fingerprint).
bool IndexMatches(const IndexedDataset& index, const PointSet& data,
                  const std::optional<GridDomain>& domain) {
  if (index.weighted()) {
    return index.total_mass() == data.size() && index.dim() == data.dim() &&
           index.active_size() == index.size() && DomainMatches(index, domain);
  }
  if (index.size() != data.size() || index.dim() != data.dim() ||
      index.active_size() != index.size()) {
    return false;
  }
  if (!DomainMatches(index, domain)) return false;
  const std::span<const double> a = index.points().Data();
  const std::span<const double> b = data.Data();
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

const char* ProblemKindName(ProblemKind kind) {
  switch (kind) {
    case ProblemKind::kOneCluster:
      return "one-cluster";
    case ProblemKind::kKCluster:
      return "k-cluster";
    case ProblemKind::kOutlier:
      return "outlier";
    case ProblemKind::kInteriorPoint:
      return "interior-point";
    case ProblemKind::kSampleAggregate:
      return "sample-aggregate";
    case ProblemKind::kBaseline:
      return "baseline";
  }
  return "unknown";
}

CoresetOptions Tuning::coreset_options() const {
  return {coreset, coreset_min_points, coreset_target_size};
}

Status Request::Validate() const {
  if (algorithm.empty()) {
    return Status::InvalidArgument("Request: algorithm name is empty");
  }
  DPC_RETURN_IF_ERROR(budget.Validate());
  if (!(beta > 0.0) || !(beta < 1.0)) {
    return Status::InvalidArgument("Request: beta must be in (0,1)");
  }
  if (data.empty()) {
    return Status::InvalidArgument("Request: data is empty");
  }
  for (const double x : data.Data()) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument(
          "Request: data holds a non-finite coordinate");
    }
  }
  if (domain.has_value() && domain->dim() != data.dim()) {
    return Status::InvalidArgument(
        "Request: domain dimension does not match data dimension");
  }
  if (!(tuning.radius_budget_fraction > 0.0) ||
      !(tuning.radius_budget_fraction < 1.0)) {
    return Status::InvalidArgument(
        "Request: tuning.radius_budget_fraction must be in (0,1)");
  }
  if (!(tuning.refine_fraction >= 0.0) || !(tuning.refine_fraction < 1.0)) {
    return Status::InvalidArgument(
        "Request: tuning.refine_fraction must be in [0,1)");
  }
  if (!(inlier_fraction > 0.0) || !(inlier_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "Request: inlier_fraction must be in (0,1]");
  }
  if (!(alpha > 0.0) || !(alpha <= 1.0)) {
    return Status::InvalidArgument("Request: alpha must be in (0,1]");
  }
  if (!(tuning.stream_compact_fraction >= 0.0) ||
      !(tuning.stream_compact_fraction < 1.0)) {
    return Status::InvalidArgument(
        "Request: tuning.stream_compact_fraction must be in [0,1)");
  }
  if (!(tuning.coreset_staleness_fraction >= 0.0)) {
    return Status::InvalidArgument(
        "Request: tuning.coreset_staleness_fraction must be >= 0");
  }
  if (tuning.coreset && tuning.coreset_target_size < 1) {
    return Status::InvalidArgument(
        "Request: tuning.coreset_target_size must be >= 1");
  }
  if (shared_index != nullptr && !IndexMatches(*shared_index, data, domain)) {
    return Status::InvalidArgument(
        "Request: shared_index does not view this request's data (build it "
        "with BuildSharedIndex over the same data and domain, all rows "
        "active)");
  }
  return Status::OK();
}

Result<std::shared_ptr<IndexedDataset>> BuildSharedIndex(
    const Request& request) {
  if (!request.domain.has_value()) {
    return Status::InvalidArgument(
        "BuildSharedIndex: the request carries no domain");
  }
  // With the coreset rule applying, the index IS the weighted summary: every
  // consumer then runs at summary size, and the data is compressed once.
  const CoresetOptions coreset = request.tuning.coreset_options();
  if (coreset.Applies(request.data.size())) {
    ThreadPool pool(request.num_threads);
    DPC_ASSIGN_OR_RETURN(
        CoresetSummary summary,
        BuildCoreset(request.data, *request.domain, coreset, &pool));
    DPC_ASSIGN_OR_RETURN(
        IndexedDataset index,
        MakeWeightedIndex(std::move(summary), *request.domain));
    return std::make_shared<IndexedDataset>(std::move(index));
  }
  DPC_ASSIGN_OR_RETURN(IndexedDataset index,
                       IndexedDataset::Create(request.data, *request.domain));
  return std::make_shared<IndexedDataset>(std::move(index));
}

}  // namespace dpcluster
