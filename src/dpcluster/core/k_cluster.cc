#include "dpcluster/core/k_cluster.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "dpcluster/common/check.h"
#include "dpcluster/coreset/coreset.h"
#include "dpcluster/dp/accountant.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/thread_pool.h"

namespace dpcluster {

Status KClusterOptions::Validate() const {
  DPC_RETURN_IF_ERROR(params.ValidateWithPositiveDelta());
  if (k < 1) return Status::InvalidArgument("KCluster: k must be >= 1");
  if (!(beta > 0.0) || !(beta < 1.0)) {
    return Status::InvalidArgument("KCluster: beta must be in (0,1)");
  }
  if (!(refine_fraction >= 0.0) || !(refine_fraction < 1.0)) {
    return Status::InvalidArgument(
        "KCluster: refine_fraction must be in [0,1); 1 would leave the "
        "per-round 1-cluster solver with no budget");
  }
  if (!(one_cluster.radius_budget_fraction > 0.0) ||
      !(one_cluster.radius_budget_fraction < 1.0)) {
    return Status::InvalidArgument(
        "KCluster: one_cluster.radius_budget_fraction must be in (0,1)");
  }
  return Status::OK();
}

namespace {

// Restores a lent shared index to its entry state on every exit path.
class SnapshotGuard {
 public:
  SnapshotGuard(IndexedDataset* index, IndexedDataset::Snapshot snapshot)
      : index_(index), snapshot_(std::move(snapshot)) {}
  ~SnapshotGuard() {
    if (index_ != nullptr) {
      const Status restored = index_->Restore(snapshot_);
      DPC_CHECK(restored.ok());  // Same dataset by construction.
    }
  }
  SnapshotGuard(const SnapshotGuard&) = delete;
  SnapshotGuard& operator=(const SnapshotGuard&) = delete;

 private:
  IndexedDataset* index_;
  IndexedDataset::Snapshot snapshot_;
};

}  // namespace

Result<KClusterResult> KCluster(Rng& rng, const PointSet& s,
                                const GridDomain& domain,
                                const KClusterOptions& options,
                                IndexedDataset* shared_index) {
  DPC_RETURN_IF_ERROR(options.Validate());

  // Per-round budget under the selected composition rule.
  PrivacyParams per_round;
  if (options.advanced_composition && options.k > 1) {
    const double slack = options.params.delta / 2.0;
    per_round.epsilon =
        InverseAdvancedEpsilon(options.params.epsilon, options.k, slack);
    per_round.delta =
        (options.params.delta - slack) / static_cast<double>(options.k);
  } else {
    per_round.epsilon = options.params.epsilon / static_cast<double>(options.k);
    per_round.delta = options.params.delta / static_cast<double>(options.k);
  }

  // The incremental path keeps one deletion-capable index across rounds; the
  // legacy rebuild path re-subsets per round (kept as the bit-identity
  // reference — both paths release exactly the same bytes). The coreset
  // stage has no rebuild form, so it forces the incremental path.
  const bool compress = shared_index == nullptr && options.coreset.enabled &&
                        s.size() >= options.coreset.min_points;
  const bool incremental =
      shared_index != nullptr || compress ||
      options.index_mode == KClusterOptions::IndexMode::kIncremental;
  std::optional<IndexedDataset> local_index;
  std::optional<SnapshotGuard> restore_on_exit;
  IndexedDataset* index = nullptr;
  if (incremental) {
    if (shared_index != nullptr) {
      if (shared_index->weighted()) {
        // A weighted lend is a coreset summary of s (the service lends its
        // cached coreset index). Full row correspondence is the cache's
        // contract (it keys entries on the dataset fingerprint); check what
        // is checkable cheaply.
        if (shared_index->total_mass() != s.size() ||
            shared_index->dim() != s.dim() ||
            shared_index->active_size() != shared_index->size()) {
          return Status::InvalidArgument(
              "KCluster: weighted shared_index must summarize exactly the "
              "dataset with every row active");
        }
      } else {
        const std::span<const double> lent = shared_index->points().Data();
        const std::span<const double> given = s.Data();
        if (shared_index->active_size() != s.size() ||
            shared_index->dim() != s.dim() ||
            !std::equal(lent.begin(), lent.end(), given.begin(),
                        given.end())) {
          return Status::InvalidArgument(
              "KCluster: shared_index must view exactly the dataset with "
              "every row active");
        }
      }
      index = shared_index;
      restore_on_exit.emplace(index, index->TakeSnapshot());
    } else if (compress) {
      ThreadPool pool(options.num_threads);
      DPC_ASSIGN_OR_RETURN(CoresetSummary summary,
                           BuildCoreset(s, domain, options.coreset, &pool));
      DPC_ASSIGN_OR_RETURN(local_index,
                           MakeWeightedIndex(std::move(summary), domain));
      index = &*local_index;
    } else {
      DPC_ASSIGN_OR_RETURN(local_index, IndexedDataset::Create(s, domain));
      index = &*local_index;
    }
  }

  KClusterResult result;
  // Rebuild path's working copy: indices of points not yet covered.
  std::vector<std::size_t> remaining;
  if (!incremental) {
    remaining.resize(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) remaining[i] = i;
  }

  for (std::size_t round = 0; round < options.k; ++round) {
    // Weighted indexes size rounds by expanded mass, so per-round t keeps
    // its raw-input meaning (active_mass == active_size when unweighted).
    const std::size_t left =
        incremental ? static_cast<std::size_t>(index->active_mass())
                    : remaining.size();
    if (left == 0) break;
    // The incremental path never materializes the active subset: rounds run
    // through the index's span-based entry points (bit-identical outputs).
    std::optional<PointSet> current;
    if (!incremental) current.emplace(s.Subset(remaining));

    std::size_t t = options.per_round_t;
    if (t == 0) {
      const std::size_t rounds_left = options.k - round;
      t = (left + rounds_left - 1) / rounds_left;
    }
    t = std::min(t, left);
    if (t == 0) break;

    OneClusterOptions oc = options.one_cluster;
    oc.params = per_round;
    oc.params.epsilon *= (1.0 - options.refine_fraction);
    oc.beta = options.beta / static_cast<double>(options.k);
    oc.num_threads = options.num_threads;
    auto round_result = incremental
                            ? OneCluster(rng, *index, t, oc)
                            : OneCluster(rng, *current, t, domain, oc);
    if (!round_result.ok()) {
      if (options.best_effort) {
        // The failed round may have partially run (no partial ledger is
        // reported on error); account its whole share conservatively.
        result.ledger.Charge("round" + std::to_string(round) + "/failed",
                             per_round);
        continue;
      }
      return round_result.status();
    }

    const std::string scope = "round" + std::to_string(round) + "/";
    result.ledger.Absorb(round_result->ledger, scope);

    // Refine the radius so the removal ball hugs the found cluster instead of
    // the worst-case guarantee (which can span the whole domain).
    if (options.refine_fraction > 0.0) {
      RadiusRefineOptions refine;
      refine.epsilon = per_round.epsilon * options.refine_fraction;
      refine.beta = options.beta / static_cast<double>(options.k);
      auto refined =
          incremental
              ? RefineRadius(rng, *index, round_result->ball.center, t, refine)
              : RefineRadius(rng, *current, round_result->ball.center, t,
                             domain, refine);
      result.ledger.Charge(scope + "refine", {refine.epsilon, 0.0});
      if (refined.ok()) round_result->ball.radius = *refined;
    }

    // Remove the covered points (post-processing of the private ball) —
    // incrementally from the shared index, or by filtering the working copy.
    const Ball& ball = round_result->ball;
    if (incremental) {
      index->RemoveWithin(ball);
    } else {
      std::vector<std::size_t> next;
      next.reserve(remaining.size());
      for (std::size_t idx : remaining) {
        if (!ball.Contains(s[idx])) next.push_back(idx);
      }
      remaining = std::move(next);
    }
    result.rounds.push_back(std::move(*round_result));
  }

  result.uncovered = incremental
                         ? static_cast<std::size_t>(index->active_mass())
                         : remaining.size();
  return result;
}

}  // namespace dpcluster
