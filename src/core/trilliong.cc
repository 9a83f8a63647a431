#include "core/trilliong.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/avs_generator.h"
#include "core/partitioner.h"
#include "core/prefix_tables.h"
#include "core/scheduler.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/stopwatch.h"

namespace tg::core {

/// Builds the per-level seed matrices for the run. AVS-I generates with the
/// transposed seed (the noisy transpose equals the transpose of the noisy
/// matrix because Definition 3 perturbs b and c symmetrically).
model::NoiseVector MakeRunNoise(const TrillionGConfig& config) {
  model::SeedMatrix seed = config.direction == Direction::kOut
                               ? config.seed
                               : config.seed.Transposed();
  if (config.noise <= 0.0) {
    return model::NoiseVector(seed, config.scale);
  }
  rng::Rng noise_rng(config.rng_seed, /*stream=*/0xA015E1ULL);
  return model::NoiseVector(seed, config.scale, config.noise, &noise_rng);
}

namespace {

template <typename Real>
GenerateStats RunTyped(const TrillionGConfig& config,
                       const model::NoiseVector& noise,
                       const std::vector<VertexId>& boundaries,
                       const RunTopology& topology,
                       const SinkFactory& sink_factory) {
  const int num_workers = static_cast<int>(boundaries.size()) - 1;
  TG_CHECK(num_workers >= 1);
  // A worker's steal domain is also its machine and its budget's index;
  // with no domains, worker w is machine w (the in-process convention).
  const std::vector<int>& domain = topology.steal_domain;
  auto machine_of = [&](int w) { return domain.empty() ? w : domain[w]; };

  GenerateStats stats;
  Stopwatch watch;
  obs::SetCurrentPhase("generate");
  TG_SPAN("generate");

  // Prefix tables: built at most once per run and shared by every worker.
  // Each domain's budget is charged one copy and, as every machine would
  // build its own, max_worker_cpu_seconds one build. Caller-supplied tables
  // are the caller's to account for.
  const AvsPrefixTables* tables = config.shared_prefix_tables;
  std::optional<AvsPrefixTables> own_tables;
  std::deque<ScopedAllocation> table_charges;
  double table_build_cpu = 0.0;
  if (tables == nullptr &&
      AvsRangeGenerator<Real>::UsesPrefixTables(config.determiner)) {
    const double cpu_start = ThreadCpuSeconds();
    tables = &own_tables.emplace(noise);
    table_build_cpu = ThreadCpuSeconds() - cpu_start;
    for (MemoryBudget* budget : topology.budgets) {
      table_charges.emplace_back(budget, tables->MemoryBytes(),
                                 "core.prefix_tables");
    }
  }
  // One read-only generator per domain, charging the domain's budget.
  std::deque<AvsRangeGenerator<Real>> generators;
  for (MemoryBudget* budget : topology.budgets) {
    generators.emplace_back(&noise, config.NumEdges(), config.determiner,
                            budget, config.exclude_self_loops, tables);
  }

  std::vector<std::unique_ptr<ScopeSink>> sinks;
  std::vector<ScopeSink*> sink_ptrs;
  sinks.reserve(num_workers);
  sink_ptrs.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    sinks.push_back(sink_factory(w, boundaries[w], boundaries[w + 1]));
    TG_CHECK(sinks.back() != nullptr);
    sink_ptrs.push_back(sinks.back().get());
  }

  // Split each worker's range into chunks of equal expected mass; per-scope
  // RNG forking makes the output bit-identical to the static schedule no
  // matter which thread runs which chunk.
  const std::vector<std::vector<Chunk>> queues = BuildChunkQueues(
      noise, boundaries, std::max(config.chunks_per_worker, 1));

  const rng::Rng root(config.rng_seed, /*stream=*/1);
  std::vector<AvsWorkerStats> worker_stats(num_workers);
  auto make_worker = [&](int w) -> ChunkFn {
    const AvsRangeGenerator<Real>* generator =
        &generators.at(domain.empty() ? 0 : domain[w]);
    // shared_ptr because ChunkFn (std::function) must be copyable; the
    // scratch itself is only ever touched by worker w's thread.
    auto scratch = std::make_shared<ScopeScratch<Real>>();
    AvsWorkerStats* stats_slot = &worker_stats[w];
    return [generator, &root, scratch, stats_slot](const Chunk& c,
                                                   ChunkBuffer* buffer) {
      generator->GenerateRange(c.lo, c.hi, root, scratch.get(), stats_slot,
                               buffer);
    };
  };

  // A machine that crashes mid-generation stops taking chunks, its queued
  // chunks migrate to surviving machines through the scheduler's recovery
  // queue, and — scope streams being forked per vertex — the output stays
  // bit-identical to the fault-free run.
  std::unique_ptr<fault::FaultInjector> env_injector;
  fault::FaultInjector* injector = config.fault_injector != nullptr
                                       ? config.fault_injector
                                       : topology.default_injector;
  if (injector == nullptr) {
    env_injector = fault::FaultInjector::FromEnvOrNull(
        domain.empty() ? num_workers
                       : static_cast<int>(topology.budgets.size()));
    injector = env_injector.get();
  }

  SchedulerOptions sched_options;
  sched_options.steal_domain = domain;
  sched_options.fault_injector = injector;
  sched_options.resume_next_seq = config.resume_next_seq;
  sched_options.on_chunk_commit = config.chunk_commit_hook;
  sched_options.cancel = config.cancel_flag;
  sched_options.worker_runner = config.worker_runner;
  const SchedulerStats sched =
      RunWorkStealing(queues, sink_ptrs, make_worker, sched_options);
  stats.sched_chunks = sched.num_chunks;
  stats.sched_steals = sched.num_steals;
  stats.sched_recovered = sched.num_recovered;
  stats.sched_imbalance = sched.imbalance;
  stats.max_worker_cpu_seconds =
      sched.max_worker_cpu_seconds + table_build_cpu;
  stats.cancelled = sched.cancelled;

  AvsWorkerStats merged;
  for (const AvsWorkerStats& s : worker_stats) merged.MergeFrom(s);
  stats.num_edges = merged.num_edges;
  stats.num_scopes = merged.num_scopes;
  stats.max_degree = merged.max_degree;
  stats.peak_scope_bytes = merged.peak_scope_bytes;
  stats.rec_vec_builds = merged.rec_vec_builds;
  stats.cdf_evaluations = merged.cdf_evaluations;
  stats.table_scopes = merged.table_scopes;
  stats.table_edges = merged.table_edges;
  stats.generate_seconds = watch.ElapsedSeconds();
  RecordAvsStats(merged);
  obs::GetGauge("avs.recvec_levels")
      ->Set(static_cast<double>(noise.levels()));
  obs::Registry& reg = obs::Registry::Global();
  for (int w = 0; w < num_workers; ++w) {
    reg.MaxMachineStat(machine_of(w), "peak_scope_bytes",
                       static_cast<double>(worker_stats[w].peak_scope_bytes));
    reg.MaxMachineStat(machine_of(w), "cpu_seconds",
                       sched.worker_cpu_seconds[w]);
  }
  obs::SetCurrentPhase("idle");
  return stats;
}

}  // namespace

GenerateStats RunGeneration(const TrillionGConfig& config,
                            const model::NoiseVector& noise,
                            const std::vector<VertexId>& boundaries,
                            const RunTopology& topology,
                            const SinkFactory& sink_factory) {
  return config.precision == Precision::kDoubleDouble
             ? RunTyped<numeric::DoubleDouble>(config, noise, boundaries,
                                               topology, sink_factory)
             : RunTyped<double>(config, noise, boundaries, topology,
                                sink_factory);
}

GenerateStats Generate(const TrillionGConfig& config,
                       const SinkFactory& sink_factory) {
  TG_CHECK(config.num_workers >= 1);
  Stopwatch watch;
  const model::NoiseVector noise = MakeRunNoise(config);
  obs::SetCurrentPhase("partition");
  const std::vector<VertexId> boundaries = [&]() -> std::vector<VertexId> {
    if (!config.precomputed_boundaries.empty()) {
      TG_CHECK_MSG(static_cast<int>(config.precomputed_boundaries.size()) ==
                       config.num_workers + 1,
                   "precomputed_boundaries must hold num_workers + 1 entries");
      return config.precomputed_boundaries;
    }
    TG_SPAN("partition");
    return PartitionByCdf(noise, config.num_workers);
  }();
  const double partition_seconds = watch.ElapsedSeconds();

  RunTopology topology;
  topology.budgets = {config.budget};
  GenerateStats stats =
      RunGeneration(config, noise, boundaries, topology, sink_factory);
  stats.partition_seconds = partition_seconds;
  return stats;
}

GenerateStats GenerateToSink(const TrillionGConfig& config, ScopeSink* sink) {
  TG_CHECK_MSG(config.num_workers == 1,
               "GenerateToSink requires num_workers == 1");
  return Generate(config, [sink](int, VertexId, VertexId) {
    // Non-owning wrapper around the caller's sink.
    class Forward : public ScopeSink {
     public:
      explicit Forward(ScopeSink* inner) : inner_(inner) {}
      void ConsumeScope(VertexId u, const VertexId* adj,
                        std::size_t n) override {
        inner_->ConsumeScope(u, adj, n);
      }
      // Finish() intentionally not forwarded: the caller owns flushing.

     private:
      ScopeSink* inner_;
    };
    return std::make_unique<Forward>(sink);
  });
}

}  // namespace tg::core
