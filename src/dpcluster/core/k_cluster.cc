#include "dpcluster/core/k_cluster.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "dpcluster/common/check.h"
#include "dpcluster/dp/accountant.h"

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

  // One deletion-capable index serves every round: lent, or built over s.
  std::optional<IndexedDataset> local_index;
  std::optional<SnapshotGuard> restore_on_exit;
  IndexedDataset* index = nullptr;
  if (shared_index != nullptr) {
    if (shared_index->weighted()) {
      // A weighted lend is a coreset summary of s (BuildSharedIndex, or the
      // service's cached summary). Full row correspondence is the builder's
      // contract (the cache keys entries on the dataset fingerprint); check
      // what is checkable cheaply.
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
          !std::equal(lent.begin(), lent.end(), given.begin(), given.end())) {
        return Status::InvalidArgument(
            "KCluster: shared_index must view exactly the dataset with every "
            "row active");
      }
    }
    index = shared_index;
    restore_on_exit.emplace(index, index->TakeSnapshot());
  } else {
    DPC_ASSIGN_OR_RETURN(local_index, IndexedDataset::Create(s, domain));
    index = &*local_index;
  }

  KClusterResult result;
  for (std::size_t round = 0; round < options.k; ++round) {
    // Weighted indexes size rounds by expanded mass, so per-round t keeps
    // its raw-input meaning (active_mass == active_size when unweighted).
    const std::size_t left = static_cast<std::size_t>(index->active_mass());
    if (left == 0) break;

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
    auto round_result = OneCluster(rng, *index, t, oc);
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
          RefineRadius(rng, *index, round_result->ball.center, t, refine);
      result.ledger.Charge(scope + "refine", {refine.epsilon, 0.0});
      if (refined.ok()) round_result->ball.radius = *refined;
    }

    // Remove the covered points (post-processing of the private ball).
    index->RemoveWithin(round_result->ball);
    result.rounds.push_back(std::move(*round_result));
  }

  result.uncovered = static_cast<std::size_t>(index->active_mass());
  return result;
}

}  // namespace dpcluster
