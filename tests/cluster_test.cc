#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cluster/network_model.h"
#include "cluster/sim_cluster.h"
#include "cluster/trilliong_cluster.h"
#include "core/prefix_tables.h"
#include "core/trilliong.h"

namespace tg::cluster {
namespace {

TEST(NetworkModelTest, TransferTimeScalesWithBytes) {
  NetworkModel net = NetworkModel::OneGigabitEthernet();
  double t1 = net.TransferSeconds(125'000'000);  // 1 Gbit of payload
  EXPECT_NEAR(t1, 1.0, 0.01);
  double t2 = net.TransferSeconds(250'000'000);
  EXPECT_NEAR(t2 / t1, 2.0, 0.01);
}

TEST(NetworkModelTest, InfinibandIs100xFaster) {
  std::uint64_t bytes = 1ULL << 30;
  double slow = NetworkModel::OneGigabitEthernet().TransferSeconds(bytes);
  double fast = NetworkModel::InfinibandEdr().TransferSeconds(bytes);
  EXPECT_NEAR(slow / fast, 100.0, 1.0);
}

TEST(SimClusterTest, TopologyAccessors) {
  SimCluster cluster({3, 4, 0, {}});
  EXPECT_EQ(cluster.num_machines(), 3);
  EXPECT_EQ(cluster.num_workers(), 12);
  EXPECT_EQ(cluster.MachineOfWorker(0), 0);
  EXPECT_EQ(cluster.MachineOfWorker(3), 0);
  EXPECT_EQ(cluster.MachineOfWorker(4), 1);
  EXPECT_EQ(cluster.MachineOfWorker(11), 2);
  EXPECT_EQ(cluster.worker_budget(5), cluster.machine_budget(1));
}

TEST(SimClusterTest, RunParallelRunsEveryWorkerOnce) {
  SimCluster cluster({2, 3, 0, {}});
  std::vector<std::atomic<int>> hits(6);
  cluster.RunParallel([&](int w) { hits[w].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SimClusterTest, RunParallelPropagatesException) {
  SimCluster cluster({2, 2, 0, {}});
  EXPECT_THROW(cluster.RunParallel([](int w) {
    if (w == 2) throw tg::OomError("worker 2 died");
  }),
               tg::OomError);
}

TEST(SimClusterTest, ShuffleDeliversAllRecordsToRightWorkers) {
  SimCluster cluster({2, 2, 0, {}});
  const int n = cluster.num_workers();
  std::vector<std::vector<std::vector<int>>> outbox(n);
  for (int src = 0; src < n; ++src) {
    outbox[src].resize(n);
    for (int dst = 0; dst < n; ++dst) {
      // src sends (src*10 + dst) repeated (src + dst) times.
      outbox[src][dst].assign(src + dst, src * 10 + dst);
    }
  }
  auto inbox = cluster.Shuffle(std::move(outbox));
  for (int dst = 0; dst < n; ++dst) {
    std::size_t expected = 0;
    for (int src = 0; src < n; ++src) expected += src + dst;
    EXPECT_EQ(inbox[dst].size(), expected);
    for (int v : inbox[dst]) EXPECT_EQ(v % 10, dst);
  }
}

TEST(SimClusterTest, ShuffleChargesOnlyCrossMachineBytes) {
  SimCluster cluster({2, 1, 0, NetworkModel::OneGigabitEthernet()});
  std::vector<std::vector<std::vector<std::uint64_t>>> outbox(2);
  outbox[0].resize(2);
  outbox[1].resize(2);
  outbox[0][0].assign(1000, 1);  // intra-machine: free
  outbox[0][1].assign(500, 2);   // cross-machine
  auto inbox = cluster.Shuffle(std::move(outbox));
  EXPECT_EQ(cluster.shuffled_bytes(), 500 * sizeof(std::uint64_t));
  EXPECT_GT(cluster.network_seconds(), 0.0);
  EXPECT_EQ(inbox[0].size(), 1000u);
  EXPECT_EQ(inbox[1].size(), 500u);
}

TEST(SimClusterTest, SingleMachineShuffleIsFree) {
  SimCluster cluster({1, 4, 0, NetworkModel::OneGigabitEthernet()});
  std::vector<std::vector<std::vector<int>>> outbox(4);
  for (auto& row : outbox) row.resize(4, std::vector<int>(100, 7));
  cluster.Shuffle(std::move(outbox));
  EXPECT_EQ(cluster.shuffled_bytes(), 0u);
}

TEST(SimClusterTest, NetworkClockAccumulatesAndResets) {
  SimCluster cluster({2, 1, 0, NetworkModel::OneGigabitEthernet()});
  auto make_outbox = [] {
    std::vector<std::vector<std::vector<std::uint64_t>>> outbox(2);
    outbox[0].resize(2);
    outbox[1].resize(2);
    outbox[0][1].assign(1 << 16, 1);
    return outbox;
  };
  cluster.Shuffle(make_outbox());
  double t1 = cluster.network_seconds();
  cluster.Shuffle(make_outbox());
  EXPECT_NEAR(cluster.network_seconds(), 2 * t1, t1 * 0.01);
  cluster.ResetNetworkClock();
  EXPECT_EQ(cluster.network_seconds(), 0.0);
  EXPECT_EQ(cluster.shuffled_bytes(), 0u);
}

TEST(TrillionGClusterTest, OutputIdenticalToInProcessGenerate) {
  class Collect : public core::ScopeSink {
   public:
    explicit Collect(std::map<tg::VertexId, std::vector<tg::VertexId>>* out)
        : out_(out) {}
    void ConsumeScope(tg::VertexId u, const tg::VertexId* adj,
                      std::size_t n) override {
      (*out_)[u].assign(adj, adj + n);
    }
    std::map<tg::VertexId, std::vector<tg::VertexId>>* out_;
  };
  for (core::Precision precision :
       {core::Precision::kDouble, core::Precision::kDoubleDouble}) {
    SCOPED_TRACE(precision == core::Precision::kDouble ? "double"
                                                       : "double-double");
    core::TrillionGConfig config;
    config.scale = 11;
    config.edge_factor = 8;
    config.rng_seed = 555;
    config.precision = precision;

    // Reference: single worker, in-process driver.
    std::map<tg::VertexId, std::vector<tg::VertexId>> reference;
    {
      config.num_workers = 1;
      Collect sink(&reference);
      core::GenerateToSink(config, &sink);
    }

    // Cluster run with the Figure 6 combine/gather/repartition/scatter
    // protocol must produce the same graph (scope RNGs are
    // partition-independent).
    SimCluster cluster({2, 2, 0, {}});
    std::map<tg::VertexId, std::vector<tg::VertexId>> merged;
    std::mutex mu;
    ClusterGenerateStats stats = GenerateOnCluster(
        &cluster, config,
        [&](int, tg::VertexId,
            tg::VertexId) -> std::unique_ptr<core::ScopeSink> {
          class Locked : public core::ScopeSink {
           public:
            Locked(std::map<tg::VertexId, std::vector<tg::VertexId>>* out,
                   std::mutex* mu)
                : out_(out), mu_(mu) {}
            void ConsumeScope(tg::VertexId u, const tg::VertexId* adj,
                              std::size_t n) override {
              std::lock_guard<std::mutex> lock(*mu_);
              (*out_)[u].assign(adj, adj + n);
            }
            std::map<tg::VertexId, std::vector<tg::VertexId>>* out_;
            std::mutex* mu_;
          };
          return std::make_unique<Locked>(&merged, &mu);
        });
    EXPECT_EQ(merged, reference);
    EXPECT_GT(stats.generate.num_edges, 0u);
    EXPECT_GT(stats.combine_seconds, 0.0);
    EXPECT_GT(stats.control_bytes, 0u);
    EXPECT_GT(stats.TotalSeconds(), 0.0);
  }
}

/// Counts edges and Finish() calls; thread-safe, shared by all workers.
struct SinkLog {
  std::atomic<std::uint64_t> edges{0};
  std::atomic<int> finishes{0};
};

core::SinkFactory LoggingSinks(SinkLog* log) {
  return [log](int, tg::VertexId,
               tg::VertexId) -> std::unique_ptr<core::ScopeSink> {
    class Logging : public core::ScopeSink {
     public:
      explicit Logging(SinkLog* log) : log_(log) {}
      void ConsumeScope(tg::VertexId, const tg::VertexId*,
                        std::size_t n) override {
        log_->edges.fetch_add(n);
      }
      void Finish() override { log_->finishes.fetch_add(1); }

     private:
      SinkLog* log_;
    };
    return std::make_unique<Logging>(log);
  };
}

/// Peak bytes a budget ever held under `tag` (0 if never charged).
std::uint64_t TagPeak(const MemoryBudget& budget, const std::string& tag) {
  for (const OomReport::TagUsage& usage : budget.TagBreakdown()) {
    if (usage.tag == tag) return usage.peak_bytes;
  }
  return 0;
}

core::TrillionGConfig ParityConfig() {
  core::TrillionGConfig config;
  config.scale = 12;
  config.edge_factor = 8;
  config.rng_seed = 77;
  return config;
}

// The cluster driver runs the same generation loop as core::Generate, so it
// reports the same stats and honours the same config hooks.
TEST(TrillionGClusterTest, MatchesInProcessStatsAndHonoursConfigHooks) {
  core::TrillionGConfig config = ParityConfig();
  config.num_workers = 4;
  SinkLog in_process_log;
  const core::GenerateStats in_process =
      core::Generate(config, LoggingSinks(&in_process_log));

  SimCluster cluster({2, 2, 0, {}});
  SinkLog cluster_log;
  const core::GenerateStats on_cluster =
      GenerateOnCluster(&cluster, config, LoggingSinks(&cluster_log)).generate;
  EXPECT_EQ(on_cluster.num_edges, in_process.num_edges);
  EXPECT_EQ(on_cluster.num_scopes, in_process.num_scopes);
  EXPECT_EQ(on_cluster.max_degree, in_process.max_degree);
  EXPECT_GT(in_process.table_scopes, 0u);
  EXPECT_EQ(on_cluster.table_scopes, in_process.table_scopes);
  EXPECT_EQ(on_cluster.table_edges, in_process.table_edges);
  EXPECT_GT(on_cluster.generate_seconds, 0.0);
  EXPECT_EQ(cluster_log.edges.load(), in_process_log.edges.load());
  EXPECT_EQ(cluster_log.finishes.load(), 4);

  // Shared prefix tables are the caller's: no machine is charged for them.
  const core::AvsPrefixTables tables(core::MakeRunNoise(config));
  core::TrillionGConfig shared = config;
  shared.shared_prefix_tables = &tables;
  SimCluster shared_cluster({2, 2, 0, {}});
  SinkLog shared_log;
  GenerateOnCluster(&shared_cluster, shared, LoggingSinks(&shared_log));
  EXPECT_EQ(shared_log.edges.load(), in_process_log.edges.load());
  for (int m = 0; m < shared_cluster.num_machines(); ++m) {
    EXPECT_EQ(TagPeak(*shared_cluster.machine_budget(m), "core.prefix_tables"),
              0u)
        << "machine " << m;
  }

  // A cancel flag set before the run stops it before any range finishes.
  std::atomic<bool> cancel{true};
  core::TrillionGConfig cancelled = config;
  cancelled.cancel_flag = &cancel;
  SimCluster cancel_cluster({2, 2, 0, {}});
  SinkLog cancel_log;
  const ClusterGenerateStats cancel_stats = GenerateOnCluster(
      &cancel_cluster, cancelled, LoggingSinks(&cancel_log));
  EXPECT_TRUE(cancel_stats.generate.cancelled);
  EXPECT_EQ(cancel_log.finishes.load(), 0);

  // An injected executor receives every worker body. It runs them
  // concurrently: with a fault injector armed (TG_FAULT_PLAN), a machine's
  // workers wait for other machines' chunks to commit.
  std::atomic<int> bodies_run{0};
  core::TrillionGConfig pooled = config;
  pooled.worker_runner = [&](std::vector<std::function<void()>>& bodies) {
    bodies_run.fetch_add(static_cast<int>(bodies.size()));
    std::vector<std::thread> threads;
    for (auto& body : bodies) threads.emplace_back(body);
    for (std::thread& t : threads) t.join();
  };
  SimCluster pooled_cluster({2, 2, 0, {}});
  SinkLog pooled_log;
  GenerateOnCluster(&pooled_cluster, pooled, LoggingSinks(&pooled_log));
  EXPECT_EQ(bodies_run.load(), 4);
  EXPECT_EQ(pooled_log.edges.load(), in_process_log.edges.load());
}

// Prefix tables are built once per run; each machine holds one copy, so
// each machine budget is charged exactly one table set, however many
// threads the machine runs.
TEST(TrillionGClusterTest, PrefixTablesChargedOncePerMachine) {
  const core::TrillionGConfig config = ParityConfig();
  const core::AvsPrefixTables tables(core::MakeRunNoise(config));
  SimCluster cluster({2, 2, 0, {}});
  SinkLog log;
  GenerateOnCluster(&cluster, config, LoggingSinks(&log));
  for (int m = 0; m < cluster.num_machines(); ++m) {
    EXPECT_EQ(TagPeak(*cluster.machine_budget(m), "core.prefix_tables"),
              tables.MemoryBytes())
        << "machine " << m;
  }
}

TEST(TrillionGClusterTest, RespectsMachineBudgets) {
  core::TrillionGConfig config;
  config.scale = 12;
  config.edge_factor = 16;
  SimCluster cluster({2, 1, /*memory=*/64, {}});  // 64 bytes: instant OOM
  EXPECT_THROW(
      GenerateOnCluster(&cluster, config,
                        [](int, tg::VertexId, tg::VertexId)
                            -> std::unique_ptr<core::ScopeSink> {
                          return std::make_unique<core::CountingSink>();
                        }),
      tg::OomError);
}

TEST(TrillionGClusterTest, ControlTrafficIsTiny) {
  // Figure 6's gather moves bin summaries only — "network communication
  // overhead is quite small since just bin sizes are sent".
  core::TrillionGConfig config;
  config.scale = 14;
  config.edge_factor = 16;
  SimCluster cluster({4, 1, 0, NetworkModel::OneGigabitEthernet()});
  ClusterGenerateStats stats = GenerateOnCluster(
      &cluster, config,
      [](int, tg::VertexId, tg::VertexId) -> std::unique_ptr<core::ScopeSink> {
        return std::make_unique<core::CountingSink>();
      });
  // Control bytes are orders of magnitude below the edge data volume.
  EXPECT_LT(stats.control_bytes, config.NumEdges() * sizeof(tg::Edge) / 1000);
  EXPECT_LT(stats.gather_scatter_seconds, 0.01);
}

TEST(SimClusterTest, MachineBudgetsAreIndependent) {
  SimCluster cluster({2, 2, 1000, {}});
  cluster.machine_budget(0)->Allocate(900);
  // Machine 1's budget is untouched.
  cluster.machine_budget(1)->Allocate(900);
  EXPECT_THROW(cluster.machine_budget(0)->Allocate(200), tg::OomError);
  EXPECT_EQ(cluster.MaxMachinePeakBytes(), 900u);
}

}  // namespace
}  // namespace tg::cluster
