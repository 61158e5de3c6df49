// Umbrella header: the public API of the dpcluster library.
//
// The recommended entry point is the Solver façade in api/ (typed
// Request/Response, algorithm registry, budget sessions). The paper's
// contribution lives in core/ (GoodRadius, GoodCenter, OneCluster) and sa/
// (SampleAggregate); everything else is the substrate it stands on. The free
// functions remain available as the internal layer the façade adapts.
// Include this for the whole surface, or the individual headers for less.

#ifndef DPCLUSTER_DPCLUSTER_H_
#define DPCLUSTER_DPCLUSTER_H_

#include "dpcluster/api/algorithm.h"
#include "dpcluster/api/budget.h"
#include "dpcluster/api/registry.h"
#include "dpcluster/api/request.h"
#include "dpcluster/api/response.h"
#include "dpcluster/api/scenario.h"
#include "dpcluster/api/solver.h"
#include "dpcluster/baselines/exp_mech_baseline.h"
#include "dpcluster/baselines/noisy_mean_baseline.h"
#include "dpcluster/baselines/nonprivate_baseline.h"
#include "dpcluster/baselines/threshold_release_1d.h"
#include "dpcluster/common/math_util.h"
#include "dpcluster/common/status.h"
#include "dpcluster/data/accuracy.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/data/scenario.h"
#include "dpcluster/core/good_center.h"
#include "dpcluster/core/good_radius.h"
#include "dpcluster/core/interior_point.h"
#include "dpcluster/core/k_cluster.h"
#include "dpcluster/core/one_cluster.h"
#include "dpcluster/core/outlier.h"
#include "dpcluster/core/radius_refine.h"
#include "dpcluster/dp/above_threshold.h"
#include "dpcluster/dp/accountant.h"
#include "dpcluster/dp/exponential_mechanism.h"
#include "dpcluster/dp/noisy_average.h"
#include "dpcluster/dp/privacy_params.h"
#include "dpcluster/dp/rec_concave.h"
#include "dpcluster/dp/stable_histogram.h"
#include "dpcluster/dp/step_function.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/minimal_ball.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/random/distributions.h"
#include "dpcluster/random/rng.h"
#include "dpcluster/sa/estimators.h"
#include "dpcluster/sa/sample_aggregate.h"
#include "dpcluster/workload/metrics.h"

#endif  // DPCLUSTER_DPCLUSTER_H_
