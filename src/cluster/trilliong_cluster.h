#ifndef TRILLIONG_CLUSTER_TRILLIONG_CLUSTER_H_
#define TRILLIONG_CLUSTER_TRILLIONG_CLUSTER_H_

#include "cluster/sim_cluster.h"
#include "core/trilliong.h"

namespace tg::cluster {

/// The full distributed TrillionG pipeline of Section 5 on the simulated
/// cluster, following Figure 6's four steps explicitly:
///   1. combine  — every worker sizes the scopes of its equal-vertex chunk
///                 and packs them into ~|E|/p bins (parallel, real threads);
///   2. gather   — bin summaries travel to the master (byte-accounted on the
///                 simulated wire; the paper notes this traffic is tiny);
///   3. repartition — the master re-cuts bin boundaries to equal mass;
///   4. scatter  — boundaries travel back and every worker generates its
///                 ranges through core::RunGeneration.
/// Unlike the in-process core::Generate (which uses the closed-form CDF
/// partitioner), this driver exercises the protocol the paper describes,
/// charges per-machine memory budgets, and reports simulated phase times.
struct ClusterGenerateStats {
  core::GenerateStats generate;      ///< per-worker aggregate (phase 4)
  double combine_seconds = 0;        ///< phase 1 (max per-worker CPU)
  double gather_scatter_seconds = 0; ///< phases 2+4 wire time
  double repartition_seconds = 0;    ///< phase 3 (master CPU)
  std::uint64_t control_bytes = 0;   ///< bin summaries on the wire
  std::uint64_t peak_machine_bytes = 0;

  /// End-to-end simulated elapsed time.
  double TotalSeconds() const {
    return combine_seconds + gather_scatter_seconds + repartition_seconds +
           generate.max_worker_cpu_seconds;
  }
};

/// Runs TrillionG across the cluster, whose worker count and per-machine
/// budgets replace `config.num_workers` and `config.budget`; every other
/// field means what it does for core::Generate. Output is identical to
/// core::Generate with the same seed (scope RNG streams are
/// partition-independent).
ClusterGenerateStats GenerateOnCluster(SimCluster* cluster,
                                       const core::TrillionGConfig& config,
                                       const core::SinkFactory& sink_factory);

}  // namespace tg::cluster

#endif  // TRILLIONG_CLUSTER_TRILLIONG_CLUSTER_H_
