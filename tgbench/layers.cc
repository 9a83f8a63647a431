// tgb_layers: per-layer probes for the TrillionG pipeline. Each probe times
// calls into one layer's public functions on the workload's graph config and
// records them as spans (name, start, end, parent, count), kept in memory and
// written to DIR/spans.json at exit. Per-scope calls are recorded as one
// aggregate span per layer (summed duration and call count) instead of one
// span per call.
//
//   tgb_layers --scale=21 --edge_factor=16 --seed=7 --workers=2
//              --format=adj6 --dir=DIR
//
// Prints one JSON object of layer metrics on stdout.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/avs_generator.h"
#include "core/partitioner.h"
#include "core/prefix_tables.h"
#include "core/scheduler.h"
#include "core/scope_dedup.h"
#include "core/scope_size.h"
#include "core/trilliong.h"
#include "format/adj6.h"
#include "format/csr6.h"
#include "format/tsv.h"
#include "obs/metrics.h"
#include "rng/lane_rng.h"
#include "rng/random.h"
#include "serve/request.h"
#include "storage/async_writer.h"
#include "util/flags.h"

namespace {

using Clock = std::chrono::steady_clock;

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

/// In-memory span recorder. Begin/End nest on a stack; Aggregate() opens a
/// child of the current span that accumulates the duration and count of many
/// short calls.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent;
    double start_ns;
    double end_ns;
    double busy_ns;  // aggregate spans: summed duration of their calls
    std::uint64_t count;
    bool aggregate;
  };

  int Begin(const std::string& name) {
    spans_.push_back({name, Top(), NowNs(), 0, 0, 0, false});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  double End(std::uint64_t count = 0) {
    Span& s = spans_[stack_.back()];
    stack_.pop_back();
    s.end_ns = NowNs();
    s.count += count;
    return s.end_ns - s.start_ns;
  }

  int Aggregate(const std::string& name) {
    const double now = NowNs();
    spans_.push_back({name, Top(), now, now, 0, 0, true});
    return static_cast<int>(spans_.size()) - 1;
  }

  void Add(int id, double ns, std::uint64_t count) {
    Span& s = spans_[id];
    s.busy_ns += ns;
    s.count += count;
    s.end_ns = NowNs();
  }

  double Duration(int id) const {
    const Span& s = spans_[id];
    return s.aggregate ? s.busy_ns : s.end_ns - s.start_ns;
  }

  /// Span duration minus the durations of its direct children.
  double SelfNs(int id) const {
    double self = Duration(id);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent == id) self -= Duration(static_cast<int>(i));
    }
    return self;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"start_ns\": %.0f, "
                    "\"end_ns\": %.0f, \"duration_ns\": %.0f, \"self_ns\": %.0f, "
                    "\"count\": %llu, \"aggregate\": %s}%s\n",
                    i, s.name.c_str(), s.parent, s.start_ns, s.end_ns,
                    Duration(static_cast<int>(i)), SelfNs(static_cast<int>(i)),
                    static_cast<unsigned long long>(s.count), s.aggregate ? "true" : "false",
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]\n";
  }

 private:
  int Top() const { return stack_.empty() ? -1 : stack_.back(); }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times every ConsumeScope and Finish of the wrapped sink into two
/// aggregate spans.
class TimingSink : public tg::core::ScopeSink {
 public:
  TimingSink(tg::core::ScopeSink* inner, Tracer* tracer, const std::string& layer)
      : inner_(inner),
        tracer_(tracer),
        consume_(tracer->Aggregate(layer + ".consume")),
        finish_(tracer->Aggregate(layer + ".finish")) {}

  void ConsumeScope(tg::VertexId u, const tg::VertexId* adj, std::size_t n) override {
    const double t0 = NowNs();
    inner_->ConsumeScope(u, adj, n);
    tracer_->Add(consume_, NowNs() - t0, n);
  }

  void Finish() override {
    const double t0 = NowNs();
    inner_->Finish();
    tracer_->Add(finish_, NowNs() - t0, 1);
  }

  double busy_ns() const { return tracer_->Duration(consume_) + tracer_->Duration(finish_); }

 private:
  tg::core::ScopeSink* inner_;
  Tracer* tracer_;
  int consume_;
  int finish_;
};

std::unique_ptr<tg::core::ScopeSink> MakeWriter(const std::string& format,
                                                const std::string& path, tg::VertexId n) {
  if (format == "tsv") return std::make_unique<tg::format::TsvWriter>(path);
  if (format == "csr6") return std::make_unique<tg::format::Csr6Writer>(path, 0, n);
  return std::make_unique<tg::format::Adj6Writer>(path);
}

template <typename Fn>
double MedianMs(int reps, Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowNs();
    fn();
    ms.push_back((NowNs() - t0) / 1e6);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// What one recomposed-kernel pass did.
struct PassResult {
  double ns = 0;
  std::uint64_t draws = 0;
  std::uint64_t edges = 0;
  double sink = 0;  // keeps the computed values observable
};

enum class Stage { kScopeHeader, kFill, kInvert, kDedup };

/// Re-runs the table kernel's per-scope steps from their public parts, up to
/// `stage`: scope header (lane seed, ViewFor, Theorem 1 size), then lane
/// fill, then prefix-table inversion, then the dedup rejection loop. The
/// differences between stages give each layer's cost.
PassResult RecomposedPass(const tg::core::AvsPrefixTables& tables, std::uint64_t num_edges,
                          int scale, const tg::rng::Rng& root, Stage stage) {
  constexpr std::size_t kBatch = tg::core::AvsRangeGenerator<double>::kDrawBatch;
  const tg::VertexId n = tg::VertexId{1} << scale;
  PassResult r;
  tg::core::ScopeDedup dedup;
  double xs[kBatch];
  const double t0 = NowNs();
  for (tg::VertexId u = 0; u < n; ++u) {
    tg::rng::LaneRng lane(tg::rng::MixSeeds(root.StreamKey(), u + 1));
    const auto view = tables.ViewFor(u);
    const std::uint64_t degree = tg::core::SampleScopeSize(num_edges, view.total, n, &lane);
    if (degree == 0 || stage == Stage::kScopeHeader) {
      r.sink += static_cast<double>(degree);
      continue;
    }
    if (stage != Stage::kDedup) {
      for (std::uint64_t left = degree; left > 0;) {
        const std::size_t block = left < kBatch ? left : kBatch;
        lane.FillUnit(xs, block);
        if (stage == Stage::kFill) {
          for (std::size_t i = 0; i < block; ++i) r.sink += xs[i];
        } else {
          for (std::size_t i = 0; i < block; ++i) {
            r.sink += static_cast<double>(tables.Invert(view, xs[i]));
          }
        }
        left -= block;
      }
      r.draws += degree;
      r.edges += degree;
      continue;
    }
    dedup.Reset(degree, n);
    const std::uint64_t max_attempts = 100 * degree + 10000;
    std::uint64_t attempts = 0;
    while (dedup.size() < degree && attempts < max_attempts) {
      std::uint64_t block = degree - dedup.size();
      if (block > kBatch) block = kBatch;
      lane.FillUnit(xs, block);
      attempts += block;
      for (std::uint64_t i = 0; i < block; ++i) dedup.Insert(tables.Invert(view, xs[i]));
    }
    r.draws += attempts;
    r.edges += dedup.size();
  }
  r.ns = NowNs() - t0;
  return r;
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace

int main(int argc, char** argv) {
  tg::FlagParser flags(argc, argv);
  tg::core::TrillionGConfig config;
  config.scale = static_cast<int>(flags.GetInt("scale", 18));
  config.edge_factor = static_cast<std::uint64_t>(flags.GetInt("edge_factor", 16));
  config.rng_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const int workers = std::max(1, static_cast<int>(flags.GetInt("workers", 1)));
  const std::string format = flags.GetString("format", "adj6");
  const std::string dir = flags.GetString("dir", ".");
  const tg::VertexId num_vertices = config.NumVertices();
  const std::uint64_t num_edges = config.NumEdges();

  Tracer tracer;
  std::map<std::string, double> m;
  const tg::model::NoiseVector noise = tg::core::MakeRunNoise(config);
  const tg::rng::Rng root(config.rng_seed, /*stream=*/1);

  // Set-up layers: prefix tables and the range partition.
  tracer.Begin("core.setup");
  m["core.tables.build_ms"] = MedianMs(5, [&] {
    tg::core::AvsPrefixTables t;
    t.Build(noise);
  });
  m["core.partition_ms"] = MedianMs(5, [&] {
    const auto b = tg::core::PartitionByCdf(noise, workers);
    tg::core::BuildChunkQueues(noise, b, tg::core::kDefaultChunksPerWorker);
  });
  tracer.End();

  // Edge-kernel layers, recomposed from public parts, one stage at a time.
  const tg::core::AvsPrefixTables tables(noise);
  tracer.Begin("core.recomposed");
  tracer.Begin("core.recomposed.view_for");
  double view_sink = 0;
  for (tg::VertexId u = 0; u < num_vertices; ++u) view_sink += tables.ViewFor(u).total;
  const double view_ns = tracer.End(num_vertices);
  PassResult pass[4];
  const char* stage_names[4] = {"scope_header", "fill", "invert", "dedup"};
  for (int s = 0; s < 4; ++s) {
    tracer.Begin(std::string("core.recomposed.") + stage_names[s]);
    pass[s] = RecomposedPass(tables, num_edges, config.scale, root, static_cast<Stage>(s));
    tracer.End(pass[s].edges);
  }
  tracer.End();
  const double per_draw = (pass[2].ns - pass[0].ns) / static_cast<double>(pass[2].draws);
  m["rng.fill_ns_per_deviate"] = (pass[1].ns - pass[0].ns) / static_cast<double>(pass[1].draws);
  m["core.tables.invert_ns_per_edge"] =
      (pass[2].ns - pass[1].ns + view_ns) / static_cast<double>(pass[2].edges);
  m["core.dedup.ns_per_edge"] =
      (pass[3].ns - pass[0].ns - per_draw * static_cast<double>(pass[3].draws)) /
      static_cast<double>(pass[3].edges);
  m["core.dedup.draws_per_edge"] =
      static_cast<double>(pass[3].draws) / static_cast<double>(pass[3].edges);

  // The real kernel into a counting sink: no format, no storage. Best of two.
  tg::core::AvsRangeGenerator<double> generator(&noise, num_edges, config.determiner);
  double best_kernel = 0;
  for (int rep = 0; rep < 2; ++rep) {
    tracer.Begin("core.kernel");
    tg::core::CountingSink counter;
    generator.GenerateRange(0, num_vertices, root, &counter);
    const double ns = tracer.End(counter.num_edges());
    best_kernel = std::max(best_kernel, static_cast<double>(counter.num_edges()) / ns * 1e3);
  }
  m["core.kernel.medges_per_s"] = best_kernel;

  // Formats over the storage layer: the kernel feeds each writer through a
  // TimingSink; the writer's self time is what the sink spans cover.
  tg::obs::Counter* stall = tg::obs::GetCounter("io.writer_stall_ms");
  const std::uint64_t stall_before = stall->value();
  std::uint64_t adj6_bytes = 0;
  double traced_ns = 0;
  for (const std::string f : {"adj6", "tsv", "csr6"}) {
    const std::string path = dir + "/layers." + f;
    tracer.Begin("pipeline." + f);
    std::uint64_t edges = 0;
    double busy = 0;
    {
      std::unique_ptr<tg::core::ScopeSink> writer = MakeWriter(f, path, num_vertices);
      TimingSink timed(writer.get(), &tracer, "format." + f);
      tg::core::ScopeScratch<double> scratch;
      tg::core::AvsWorkerStats stats;
      generator.GenerateRange(0, num_vertices, root, &scratch, &stats, &timed);
      timed.Finish();
      edges = stats.num_edges;
      busy = timed.busy_ns();
    }
    const double wall = tracer.End(edges);
    if (f == format) traced_ns = wall;
    const std::uint64_t bytes = FileBytes(path);
    if (f == "adj6") adj6_bytes = bytes;
    m["format." + f + ".ns_per_edge"] = busy / static_cast<double>(edges);
    m["format." + f + ".bytes_per_edge"] = static_cast<double>(bytes) / static_cast<double>(edges);
    std::filesystem::remove(path);
  }
  m["storage.writer_stall_ms"] = static_cast<double>(stall->value() - stall_before);

  // Tracing overhead: the workload's format once more without the wrapper.
  {
    const std::string path = dir + "/layers.untraced." + format;
    const double t0 = NowNs();
    {
      std::unique_ptr<tg::core::ScopeSink> writer = MakeWriter(format, path, num_vertices);
      tg::core::ScopeScratch<double> scratch;
      tg::core::AvsWorkerStats stats;
      generator.GenerateRange(0, num_vertices, root, &scratch, &stats, writer.get());
      writer->Finish();
    }
    const double untraced_ns = NowNs() - t0;
    m["trace.overhead_pct"] = (traced_ns / untraced_ns - 1.0) * 100.0;
    std::filesystem::remove(path);
  }

  // Storage transport alone: the ADJ6 volume appended in 64 KiB blocks.
  {
    const std::string path = dir + "/layers.storage";
    std::vector<char> block(64 << 10, 'x');
    tracer.Begin("storage.write");
    std::unique_ptr<tg::storage::FileWriterBase> w = tg::storage::MakeFileWriter();
    tg::Status st = w->Open(path);
    for (std::uint64_t done = 0; st.ok() && done < adj6_bytes; done += block.size()) {
      w->Append(block.data(), block.size());
    }
    st = w->Close();
    const double ns = tracer.End(adj6_bytes);
    m["storage.write_mb_per_s"] = st.ok() ? static_cast<double>(adj6_bytes) / ns * 1e3 : 0.0;
    std::filesystem::remove(path);
  }

  // Scheduler: the workload's worker count through RunWorkStealing; time
  // outside chunk bodies is commit, reorder and steal overhead plus idling.
  {
    const auto bounds = tg::core::PartitionByCdf(noise, workers);
    const auto queues =
        tg::core::BuildChunkQueues(noise, bounds, tg::core::kDefaultChunksPerWorker);
    std::vector<tg::core::CountingSink> sinks(workers);
    std::vector<tg::core::ScopeSink*> sink_ptrs;
    for (auto& s : sinks) sink_ptrs.push_back(&s);
    std::vector<double> busy(workers, 0.0);
    auto make_worker = [&](int w) -> tg::core::ChunkFn {
      auto scratch = std::make_shared<tg::core::ScopeScratch<double>>();
      auto stats = std::make_shared<tg::core::AvsWorkerStats>();
      return [&generator, &root, &busy, w, scratch, stats](const tg::core::Chunk& c,
                                                          tg::core::ChunkBuffer* buffer) {
        const double t0 = NowNs();
        generator.GenerateRange(c.lo, c.hi, root, scratch.get(), stats.get(), buffer);
        busy[w] += NowNs() - t0;
      };
    };
    tracer.Begin("core.sched");
    const tg::core::SchedulerStats sched =
        tg::core::RunWorkStealing(queues, sink_ptrs, make_worker);
    const double wall = tracer.End(sched.num_chunks);
    double busy_total = 0;
    for (double b : busy) busy_total += b;
    m["core.sched.commit_wait_ms"] = (workers * wall - busy_total) / 1e6;
    m["core.sched.imbalance"] = sched.imbalance;
    m["core.sched.steals"] = static_cast<double>(sched.num_steals);
  }

  // Serve request parsing, on the request shapes the serve workloads send.
  {
    std::vector<std::string> bodies;
    for (int scale = 16; scale <= 18; ++scale) {
      for (const char* f : {"tsv", "adj6", "csr6"}) {
        bodies.push_back("{\"tenant\": \"c0\", \"scale\": " + std::to_string(scale) +
                         ", \"format\": \"" + f + "\", \"workers\": 2, \"seed\": " +
                         std::to_string(config.rng_seed) + "}");
      }
    }
    tg::serve::RequestLimits limits;
    tg::serve::GenRequest req;
    constexpr int kParses = 20000;
    tracer.Begin("serve.parse");
    std::uint64_t ok = 0;
    for (int i = 0; i < kParses; ++i) {
      ok += tg::serve::ParseGenRequest(bodies[i % bodies.size()], limits, &req).ok();
    }
    const double ns = tracer.End(kParses);
    m["serve.parse_us"] = ok == kParses ? ns / kParses / 1e3 : 0.0;
  }

  tracer.Write(dir + "/spans.json");
  std::printf("{");
  std::size_t i = 0;
  for (const auto& [k, v] : m) std::printf("%s\"%s\": %.9g", i++ ? ", " : "", k.c_str(), v);
  std::printf(", \"_checksum\": %.6g}\n", view_sink + pass[0].sink + pass[1].sink +
                                              pass[2].sink);
  return 0;
}
