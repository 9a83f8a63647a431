#include "cluster/trilliong_cluster.h"

#include <algorithm>
#include <vector>

#include "model/noise.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/stopwatch.h"

namespace tg::cluster {

namespace {

/// One bin of the combining step: contiguous vertex range + expected mass.
struct Bin {
  VertexId begin = 0;
  VertexId end = 0;
  double mass = 0.0;
};

}  // namespace

ClusterGenerateStats GenerateOnCluster(SimCluster* cluster,
                                       const core::TrillionGConfig& config,
                                       const core::SinkFactory& sink_factory) {
  const int workers = cluster->num_workers();
  const VertexId num_vertices = config.NumVertices();
  const std::uint64_t num_edges = config.NumEdges();
  const model::NoiseVector noise = core::MakeRunNoise(config);
  const int scale = config.scale;

  ClusterGenerateStats stats;

  // --- Phase 1: combine. Equal-vertex chunks; each worker cuts its chunk
  // into bins of ~|E|/p expected mass (Figure 6 "combine").
  const VertexId chunk = std::max<VertexId>(num_vertices / workers, 1);
  const double per_bin_target =
      static_cast<double>(num_edges) / static_cast<double>(workers);
  std::vector<std::vector<Bin>> worker_bins(workers);
  obs::SetCurrentPhase("cluster.combine");
  stats.combine_seconds = cluster->RunParallel([&](int w) {
    TG_SPAN("cluster.combine");
    VertexId begin =
        std::min<VertexId>(static_cast<VertexId>(w) * chunk, num_vertices);
    VertexId end = (w == workers - 1)
                       ? num_vertices
                       : std::min<VertexId>(begin + chunk, num_vertices);
    std::vector<Bin>& bins = worker_bins[w];
    Bin current{begin, begin, 0.0};
    for (VertexId u = begin; u < end; ++u) {
      double mass = static_cast<double>(num_edges);
      for (int p = 0; p < scale; ++p) {
        mass *= noise.RowSumAtBit(p, static_cast<int>((u >> p) & 1u));
      }
      current.mass += mass;
      current.end = u + 1;
      if (current.mass >= per_bin_target) {
        bins.push_back(current);
        current = Bin{u + 1, u + 1, 0.0};
      }
    }
    if (current.end > current.begin) bins.push_back(current);
  });

  // --- Phase 2: gather. Bin summaries travel to the master (machine 0,
  // worker 0); only cross-machine senders pay wire time.
  std::uint64_t gathered_bytes = 0;
  for (int w = 0; w < workers; ++w) {
    if (cluster->MachineOfWorker(w) != 0) {
      gathered_bytes += worker_bins[w].size() * sizeof(Bin);
    }
  }
  stats.control_bytes = gathered_bytes;
  obs::GetCounter("cluster.control_bytes")->Add(gathered_bytes);
  stats.gather_scatter_seconds =
      cluster->network().ChargeTransfer(gathered_bytes, workers - 1);

  // --- Phase 3: repartition (master). Chunks are in vertex order, so the
  // concatenation is a sorted bin list; cut at cumulative-mass multiples.
  std::vector<VertexId> boundaries;
  {
    Stopwatch master_watch;
    obs::SetCurrentPhase("cluster.repartition");
    TG_SPAN("cluster.repartition");
    double total_mass = 0;
    for (const auto& bins : worker_bins) {
      for (const Bin& b : bins) total_mass += b.mass;
    }
    boundaries.reserve(workers + 1);
    boundaries.push_back(0);
    double cum = 0;
    int next_cut = 1;
    for (const auto& bins : worker_bins) {
      for (const Bin& b : bins) {
        cum += b.mass;
        while (next_cut < workers && cum >= total_mass * next_cut / workers) {
          boundaries.push_back(b.end);
          ++next_cut;
        }
      }
    }
    while (static_cast<int>(boundaries.size()) < workers) {
      boundaries.push_back(num_vertices);
    }
    boundaries.push_back(num_vertices);
    for (std::size_t i = 1; i < boundaries.size(); ++i) {
      boundaries[i] = std::max(boundaries[i], boundaries[i - 1]);
    }
    stats.repartition_seconds = master_watch.ElapsedSeconds();
  }

  // --- Phase 4: scatter (boundaries: workers * 8 bytes, negligible but
  // accounted) + generation under the recursive vector model.
  stats.gather_scatter_seconds += cluster->network().ChargeTransfer(
      static_cast<std::uint64_t>(workers) * sizeof(VertexId), workers - 1);

  // Generation runs on core's run loop with stealing confined to each
  // simulated machine: the threads of one machine share memory, so a thief
  // can pick up a machine-mate's chunk, but chunks never migrate across the
  // (simulated) wire. Scope RNG streams are forked per vertex, so the
  // stolen schedule produces bit-identical output.
  core::RunTopology topology;
  topology.budgets.resize(cluster->num_machines());
  for (int m = 0; m < cluster->num_machines(); ++m) {
    topology.budgets[m] = cluster->machine_budget(m);
  }
  for (int w = 0; w < workers; ++w) {
    topology.steal_domain.push_back(cluster->MachineOfWorker(w));
  }
  topology.default_injector = cluster->fault_injector();
  stats.generate =
      core::RunGeneration(config, noise, boundaries, topology, sink_factory);
  stats.peak_machine_bytes = cluster->MaxMachinePeakBytes();
  cluster->RecordMachineStats();
  return stats;
}

}  // namespace tg::cluster
