// tgb_check: output checks for TrillionG graphs that share no code with the
// program's own readers. It decodes ADJ6, TSV and CSR6 shard files itself and
// tests structural and statistical properties of the recursive vector model.
//
//   tgb_check check FORMAT SCALE EDGE_FACTOR A B C D FILE...
//   tgb_check hash FILE...
//   tgb_check selftest FORMAT SCALE EDGE_FACTOR A B C D FILE...
//
// `check` prints one JSON object: per-check verdicts, the edge count, the
// order-independent edge-multiset hash (equal for TSV and CSR6 of one
// config) and a byte hash of the concatenated files. `hash` prints only the
// byte hash. `selftest` decodes the files, applies one corruption per check,
// re-encodes the corrupted graph in the same format and shows that the
// targeted check, and only a check, rejects it. Exit status is 0 when every
// check (or every self-test case) passed.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using u64 = std::uint64_t;

u64 Mix64(u64 z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Byte hash: 8-byte words folded through Mix64, then the tail and length.
struct ByteHash {
  u64 h = 0x6a09e667f3bcc908ULL;
  u64 len = 0;
  void Add(const unsigned char* p, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      u64 w;
      std::memcpy(&w, p + i, 8);
      h = Mix64(h ^ w);
    }
    u64 tail = 0;
    for (std::size_t k = 0; i < n; ++i, ++k) tail |= u64{p[i]} << (8 * k);
    h = Mix64(h ^ tail ^ (n << 56));
    len += n;
  }
  u64 Value() const { return Mix64(h ^ len); }
};

struct Scope {
  u64 u;
  std::vector<u64> adj;
};

// Decoded graph: scopes in file order, shard by shard. A decode error is a
// failed "format" check; the other checks then do not run.
struct Graph {
  std::vector<Scope> scopes;
};

u64 Read48(const unsigned char* p) {
  u64 v = 0;
  for (int i = 0; i < 6; ++i) v |= u64{p[i]} << (8 * i);
  return v;
}

u64 Read64(const unsigned char* p) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= u64{p[i]} << (8 * i);
  return v;
}

void Write48(std::string* out, u64 v) {
  for (int i = 0; i < 6; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void Write64(std::string* out, u64 v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  out->resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(out->data(), static_cast<std::streamsize>(out->size()));
  return static_cast<bool>(in);
}

std::string DecodeAdj6(const std::string& bytes, Graph* g) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (pos + 12 > bytes.size()) return "truncated ADJ6 record header";
    Scope s;
    s.u = Read48(p + pos);
    const u64 deg = Read48(p + pos + 6);
    pos += 12;
    if (deg == 0) return "ADJ6 record with degree 0";
    if (deg > (bytes.size() - pos) / 6) return "ADJ6 degree past end of file";
    s.adj.resize(deg);
    for (u64 i = 0; i < deg; ++i, pos += 6) s.adj[i] = Read48(p + pos);
    g->scopes.push_back(std::move(s));
  }
  return "";
}

std::string DecodeTsv(const std::string& bytes, Graph* g) {
  std::size_t pos = 0;
  auto number = [&](char end, u64* v) {
    const std::size_t start = pos;
    *v = 0;
    while (pos < bytes.size() && bytes[pos] >= '0' && bytes[pos] <= '9') {
      if (pos - start >= 18) return false;
      *v = *v * 10 + static_cast<u64>(bytes[pos] - '0');
      ++pos;
    }
    if (pos == start || pos >= bytes.size() || bytes[pos] != end) return false;
    ++pos;
    return true;
  };
  while (pos < bytes.size()) {
    u64 u = 0, v = 0;
    if (!number('\t', &u) || !number('\n', &v)) {
      return "malformed TSV line near byte " + std::to_string(pos);
    }
    if (g->scopes.empty() || g->scopes.back().u != u) g->scopes.push_back({u, {}});
    g->scopes.back().adj.push_back(v);
  }
  return "";
}

// `expect_lo` is the vertex the shard must start at (the previous shard's
// end); the shard's end is returned through it.
std::string DecodeCsr6(const std::string& bytes, u64* expect_lo, Graph* g) {
  static const char kMagic[8] = {'T', 'G', 'C', 'S', 'R', '6', 0, 0};
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (bytes.size() < 40 || std::memcmp(p, kMagic, 8) != 0) return "bad CSR6 magic";
  if (Read64(p + 8) != 1) return "unknown CSR6 version";
  const u64 lo = Read64(p + 16), hi = Read64(p + 24), m = Read64(p + 32);
  if (lo != *expect_lo || hi < lo) return "CSR6 shard range does not continue the previous one";
  const u64 n = hi - lo;
  if (n > (bytes.size() - 40) / 8) return "CSR6 offsets past end of file";
  const std::size_t nbr_at = 40 + static_cast<std::size_t>(n + 1) * 8;
  if (m > (bytes.size() - std::min<std::size_t>(nbr_at, bytes.size())) / 6 ||
      nbr_at + m * 6 != bytes.size()) {
    return "CSR6 size does not match its edge count";
  }
  u64 prev = Read64(p + 40);
  if (prev != 0) return "CSR6 first offset is not 0";
  for (u64 i = 0; i < n; ++i) {
    const u64 next = Read64(p + 40 + (i + 1) * 8);
    if (next < prev || next > m) return "CSR6 offsets not monotone";
    if (next > prev) {
      Scope s{lo + i, std::vector<u64>(next - prev)};
      for (u64 k = 0; k < next - prev; ++k) s.adj[k] = Read48(p + nbr_at + (prev + k) * 6);
      if (!std::is_sorted(s.adj.begin(), s.adj.end())) return "CSR6 adjacency not sorted";
      g->scopes.push_back(std::move(s));
    }
    prev = next;
  }
  if (prev != m) return "CSR6 last offset differs from its edge count";
  *expect_lo = hi;
  return "";
}

// Decodes one file's bytes into `g`; `csr_lo` threads the CSR6 range chain.
std::string DecodeBytes(const std::string& format, const std::string& bytes,
                        u64* csr_lo, Graph* g) {
  if (format == "adj6") return DecodeAdj6(bytes, g);
  if (format == "tsv") return DecodeTsv(bytes, g);
  if (format == "csr6") return DecodeCsr6(bytes, csr_lo, g);
  return "unknown format " + format;
}

// Re-encodes scopes as the files of one shard each (CSR6 keeps the shard
// boundaries passed in `bounds`; the other formats write one file).
std::vector<std::string> Encode(const std::string& format, const Graph& g,
                                const std::vector<u64>& bounds) {
  std::vector<std::string> files;
  if (format == "adj6" || format == "tsv") {
    std::string out;
    for (const Scope& s : g.scopes) {
      if (format == "adj6") {
        Write48(&out, s.u);
        Write48(&out, s.adj.size());
        for (u64 v : s.adj) Write48(&out, v);
      } else {
        for (u64 v : s.adj) out += std::to_string(s.u) + "\t" + std::to_string(v) + "\n";
      }
    }
    files.push_back(std::move(out));
    return files;
  }
  std::size_t si = 0;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const u64 lo = bounds[b], hi = bounds[b + 1];
    std::vector<u64> offsets(hi - lo + 1, 0);
    std::string nbrs;
    u64 edges = 0;
    for (u64 u = lo; u < hi; ++u) {
      offsets[u - lo] = edges;
      if (si < g.scopes.size() && g.scopes[si].u == u) {
        for (u64 v : g.scopes[si].adj) Write48(&nbrs, v);
        edges += g.scopes[si].adj.size();
        ++si;
      }
    }
    offsets[hi - lo] = edges;
    std::string out("TGCSR6\0\0", 8);
    Write64(&out, 1);
    Write64(&out, lo);
    Write64(&out, hi);
    Write64(&out, edges);
    for (u64 o : offsets) Write64(&out, o);
    files.push_back(out + nbrs);
  }
  return files;
}

struct Model {
  int scale = 0;
  u64 num_edges = 0;
  double a = 0, b = 0, c = 0, d = 0;
};

struct Verdict {
  std::string name;
  bool ok = true;
  std::string detail;
};

// E[max(0, llround(X))] for X ~ Normal(mu, var): the realised scope size of
// Theorem 1 as the generator draws it (rounded, clamped at zero).
double ClampedRoundedMean(double mu, double var) {
  const double sd = std::sqrt(std::max(var, 0.0));
  if (sd == 0.0) return mu > 0.5 ? std::llround(mu) : 0.0;
  if (mu > 12.0 * sd + 1.0) return mu;
  double sum = 0.0;
  for (double k = 1.0; k < mu + 14.0 * sd + 2.0; k += 1.0) {
    sum += 0.5 * std::erfc((k - 0.5 - mu) / (sd * std::sqrt(2.0)));
  }
  return sum;
}

struct Report {
  std::vector<Verdict> verdicts;
  u64 edges = 0;
  u64 multiset_hash = 0;
  std::map<std::string, double> stats;
  bool ok() const {
    for (const Verdict& v : verdicts) {
      if (!v.ok) return false;
    }
    return true;
  }
  const Verdict* Find(const std::string& name) const {
    for (const Verdict& v : verdicts) {
      if (v.name == name) return &v;
    }
    return nullptr;
  }
};

Report Check(const Graph& g, const Model& m) {
  Report r;
  const int L = m.scale;
  const u64 nv = u64{1} << L;
  Verdict ids{"ids_below_2^scale", true, ""}, order{"scopes_increasing", true, ""},
      dup{"no_repeated_neighbour", true, ""}, degree{"degree_class_means", true, ""},
      bits{"destination_bit_shares", true, ""};
  std::vector<u64> mark((nv + 63) / 64, 0);
  std::vector<u64> touched;
  std::vector<double> class_edges(L + 1, 0.0);
  // ones[k][s]: edges whose source bit k is s and destination bit k is 1;
  // total[k][s]: edges whose source bit k is s.
  std::vector<std::array<double, 2>> ones(L), total(L);
  std::vector<u64> bit_count(L);
  // collision[j]: sum over destinations v of P(v | u)^2 for a source with j
  // one-bits, the chance that two draws of one scope coincide. Duplicate
  // rejection flattens a scope's destination distribution, so the bit-share
  // test only counts scopes where under 1% of draws are expected to repeat.
  std::vector<double> collision(L + 1);
  for (int j = 0; j <= L; ++j) {
    const double r0 = (m.a * m.a + m.b * m.b) / ((m.a + m.b) * (m.a + m.b));
    const double r1 = (m.c * m.c + m.d * m.d) / ((m.c + m.d) * (m.c + m.d));
    collision[j] = std::pow(r0, L - j) * std::pow(r1, j);
  }
  bool have_prev = false;
  u64 prev_u = 0;
  for (const Scope& s : g.scopes) {
    if (s.u >= nv && ids.ok) {
      ids = {ids.name, false, "source " + std::to_string(s.u)};
    }
    if (have_prev && s.u <= prev_u && order.ok) {
      order = {order.name, false,
               "scope " + std::to_string(s.u) + " after " + std::to_string(prev_u)};
    }
    have_prev = true;
    prev_u = s.u;
    std::fill(bit_count.begin(), bit_count.end(), 0);
    for (u64 v : s.adj) {
      r.multiset_hash += Mix64(Mix64(s.u + 0x9e3779b97f4a7c15ULL) ^ v);
      if (v >= nv) {
        if (ids.ok) ids = {ids.name, false, "neighbour " + std::to_string(v)};
        continue;
      }
      u64& word = mark[v >> 6];
      const u64 bit = u64{1} << (v & 63);
      if (word & bit) {
        if (dup.ok) {
          dup = {dup.name, false,
                 "scope " + std::to_string(s.u) + " repeats " + std::to_string(v)};
        }
      } else {
        if (word == 0) touched.push_back(v >> 6);
        word |= bit;
      }
      for (int k = 0; k < L; ++k) bit_count[k] += (v >> k) & 1;
    }
    for (u64 w : touched) mark[w] = 0;
    touched.clear();
    const double deg = static_cast<double>(s.adj.size());
    r.edges += s.adj.size();
    if (s.u >= nv) continue;
    const int j = __builtin_popcountll(s.u);
    class_edges[j] += deg;
    if (deg * collision[j] >= 0.01) continue;
    for (int k = 0; k < L; ++k) {
      const int sb = static_cast<int>((s.u >> k) & 1);
      ones[k][sb] += static_cast<double>(bit_count[k]);
      total[k][sb] += deg;
    }
  }

  // Theorem 1: a source with j one-bits has P_{u->} = (a+b)^(L-j) (c+d)^j.
  // Its degree is the rounded, zero-clamped Normal(|E|p, |E|p(1-p)); the
  // class mean is tested at 6 standard errors plus 0.1% of the expectation.
  double worst_z = 0.0;
  for (int j = 0; j <= L; ++j) {
    const double p = std::pow(m.a + m.b, L - j) * std::pow(m.c + m.d, j);
    const double mu = static_cast<double>(m.num_edges) * p;
    const double var = mu * (1.0 - p);
    const double count = std::round(std::exp(std::lgamma(L + 1.0) - std::lgamma(j + 1.0) -
                                             std::lgamma(L - j + 1.0)));
    const double expect = ClampedRoundedMean(mu, var);
    const double mean = class_edges[j] / count;
    const double se = std::sqrt(var / count + 1.0 / (12.0 * count));
    const double tol = 6.0 * se + 1e-3 * expect + 1e-9;
    worst_z = std::max(worst_z, std::fabs(mean - expect) / tol);
    if (std::fabs(mean - expect) > tol && degree.ok) {
      std::ostringstream os;
      os << "class " << j << " mean " << mean << " expected " << expect << " +- " << tol;
      degree = {degree.name, false, os.str()};
    }
  }
  r.stats["degree_worst_ratio_to_tolerance"] = worst_z;

  // Lemma 2: destination bit k is 1 with probability b/(a+b) when source bit
  // k is 0 and d/(c+d) when it is 1. The counted scopes repeat under 1% of
  // their draws, which bounds the rejection bias on a share by 0.005.
  double worst_dev = 0.0;
  const double q[2] = {m.b / (m.a + m.b), m.d / (m.c + m.d)};
  for (int k = 0; k < L; ++k) {
    for (int sb = 0; sb < 2; ++sb) {
      if (total[k][sb] == 0) continue;
      const double share = ones[k][sb] / total[k][sb];
      const double se = std::sqrt(q[sb] * (1 - q[sb]) / total[k][sb]);
      const double dev = std::fabs(share - q[sb]);
      worst_dev = std::max(worst_dev, dev);
      if (dev > 6.0 * se + 0.005 && bits.ok) {
        std::ostringstream os;
        os << "bit " << k << " source " << sb << " share " << share << " expected " << q[sb];
        bits = {bits.name, false, os.str()};
      }
    }
  }
  r.stats["bit_share_worst_abs_dev"] = worst_dev;
  r.verdicts = {ids, order, dup, degree, bits};
  return r;
}

std::string Hex(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

struct Input {
  std::string format;
  Model model;
  std::vector<std::string> files;
};

bool ParseInput(int argc, char** argv, Input* in) {
  if (argc < 9) return false;
  in->format = argv[2];
  in->model.scale = std::atoi(argv[3]);
  if (in->model.scale < 1 || in->model.scale > 40) return false;
  in->model.num_edges = std::strtoull(argv[4], nullptr, 10) << in->model.scale;
  in->model.a = std::atof(argv[5]);
  in->model.b = std::atof(argv[6]);
  in->model.c = std::atof(argv[7]);
  in->model.d = std::atof(argv[8]);
  for (int i = 9; i < argc; ++i) in->files.push_back(argv[i]);
  return !in->files.empty();
}

// Decodes `files` (their bytes) as one graph; returns the error, if any.
std::string DecodeAll(const std::string& format, const std::vector<std::string>& bytes,
                      Graph* g, std::vector<u64>* csr_bounds) {
  u64 csr_lo = 0;
  if (csr_bounds != nullptr) csr_bounds->assign(1, 0);
  for (const std::string& b : bytes) {
    std::string err = DecodeBytes(format, b, &csr_lo, g);
    if (!err.empty()) return err;
    if (csr_bounds != nullptr) csr_bounds->push_back(csr_lo);
  }
  return "";
}

Report CheckBytes(const Input& in, const std::vector<std::string>& bytes) {
  Graph g;
  const std::string err = DecodeAll(in.format, bytes, &g, nullptr);
  Report r;
  if (err.empty() && in.format == "csr6" && !bytes.empty()) {
    // The shards must together cover [0, 2^scale).
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.back().data());
    if (Read64(p + 24) != (u64{1} << in.model.scale)) {
      r.verdicts.push_back({"format", false, "CSR6 shards do not end at 2^scale"});
      return r;
    }
  }
  if (!err.empty()) {
    r.verdicts.push_back({"format", false, err});
    return r;
  }
  r = Check(g, in.model);
  r.verdicts.insert(r.verdicts.begin(), Verdict{"format", true, ""});
  return r;
}

int RunCheck(const Input& in) {
  std::vector<std::string> bytes(in.files.size());
  ByteHash bh;
  u64 total_bytes = 0;
  for (std::size_t i = 0; i < in.files.size(); ++i) {
    if (!ReadFile(in.files[i], &bytes[i])) {
      std::printf("{\"ok\": false, \"error\": %s}\n", Quote("cannot read " + in.files[i]).c_str());
      return 1;
    }
    bh.Add(reinterpret_cast<const unsigned char*>(bytes[i].data()), bytes[i].size());
    total_bytes += bytes[i].size();
  }
  const Report r = CheckBytes(in, bytes);
  std::printf("{\"ok\": %s, \"edges\": %llu, \"bytes\": %llu, \"multiset_hash\": \"%s\", "
              "\"byte_hash\": \"%s\", \"checks\": {",
              r.ok() ? "true" : "false", static_cast<unsigned long long>(r.edges),
              static_cast<unsigned long long>(total_bytes), Hex(r.multiset_hash).c_str(),
              Hex(bh.Value()).c_str());
  for (std::size_t i = 0; i < r.verdicts.size(); ++i) {
    std::printf("%s%s: %s", i ? ", " : "", Quote(r.verdicts[i].name).c_str(),
                r.verdicts[i].ok ? "\"pass\"" : Quote("FAIL: " + r.verdicts[i].detail).c_str());
  }
  std::printf("}, \"stats\": {");
  std::size_t i = 0;
  for (const auto& [k, v] : r.stats) std::printf("%s%s: %.6g", i++ ? ", " : "", Quote(k).c_str(), v);
  std::printf("}}\n");
  return r.ok() ? 0 : 1;
}

int RunHash(int argc, char** argv) {
  ByteHash bh;
  std::string bytes;
  for (int i = 2; i < argc; ++i) {
    if (!ReadFile(argv[i], &bytes)) {
      std::fprintf(stderr, "cannot read %s\n", argv[i]);
      return 1;
    }
    bh.Add(reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
  }
  std::printf("%s\n", Hex(bh.Value()).c_str());
  return 0;
}

// One corruption per check. Each case edits the decoded graph, re-encodes
// it in the input's format and expects exactly the named check to fail.
int RunSelftest(const Input& in) {
  std::vector<std::string> bytes(in.files.size());
  for (std::size_t i = 0; i < in.files.size(); ++i) {
    if (!ReadFile(in.files[i], &bytes[i])) return 1;
  }
  Graph base;
  std::vector<u64> bounds;
  if (!DecodeAll(in.format, bytes, &base, &bounds).empty() || base.scopes.size() < 4) {
    std::printf("{\"ok\": false, \"error\": \"input does not decode\"}\n");
    return 1;
  }
  const u64 nv = u64{1} << in.model.scale;
  const Report clean = CheckBytes(in, bytes);
  // The heaviest scope: large enough that every edit below is visible.
  std::size_t hub = 0;
  for (std::size_t i = 0; i < base.scopes.size(); ++i) {
    if (base.scopes[i].adj.size() > base.scopes[hub].adj.size()) hub = i;
  }

  struct Case {
    std::string name;
    std::string expect;  // check that must fail; "multiset_hash" compares hashes
    void (*edit)(Graph*, std::size_t, u64);
  };
  const std::vector<Case> cases = {
      {"id_out_of_range", "ids_below_2^scale",
       [](Graph* g, std::size_t h, u64 n) { g->scopes[h].adj.back() = n; }},
      {"scopes_swapped", "scopes_increasing",
       [](Graph* g, std::size_t h, u64) {
         const std::size_t i = h + 1 < g->scopes.size() ? h : h - 1;
         std::swap(g->scopes[i].u, g->scopes[i + 1].u);
       }},
      {"neighbour_repeated", "no_repeated_neighbour",
       [](Graph* g, std::size_t h, u64) {
         auto& adj = g->scopes[h].adj;
         adj.back() = adj.front();
         std::sort(adj.begin(), adj.end());
       }},
      {"hub_degree_halved", "degree_class_means",
       [](Graph* g, std::size_t h, u64) {
         auto& adj = g->scopes[h].adj;
         adj.resize(adj.size() / 2);
       }},
      {"destination_bit_skewed", "destination_bit_shares",
       [](Graph* g, std::size_t, u64 n) {
         // Sets bit 1 on a fifth of the edges whose source bit 1 is 0 and
         // that still fit below |V| without colliding within the scope.
         for (Scope& s : g->scopes) {
           if (s.u & 2) continue;
           std::vector<u64> sorted = s.adj;
           std::sort(sorted.begin(), sorted.end());
           for (std::size_t i = 0; i < s.adj.size(); i += 5) {
             const u64 v = s.adj[i] | 2;
             if (v < n && !std::binary_search(sorted.begin(), sorted.end(), v)) s.adj[i] = v;
           }
           std::vector<u64> check = s.adj;
           std::sort(check.begin(), check.end());
           if (std::adjacent_find(check.begin(), check.end()) != check.end()) s.adj = sorted;
         }
       }},
      {"edge_replaced", "multiset_hash",
       [](Graph* g, std::size_t h, u64 n) {
         auto& adj = g->scopes[h].adj;
         std::vector<u64> sorted = adj;
         std::sort(sorted.begin(), sorted.end());
         u64 v = 0;
         while (v < n && std::binary_search(sorted.begin(), sorted.end(), v)) ++v;
         adj.front() = v;
         if (g->scopes[h].adj.size() > 1) std::sort(adj.begin(), adj.end());
       }},
  };

  bool all_ok = clean.ok();
  std::printf("{\"clean\": %s, \"cases\": {", clean.ok() ? "\"pass\"" : "\"FAIL\"");
  // The untouched graph, re-encoded, must reproduce the input byte for byte:
  // the corrupted files below differ from real output only by their edit.
  {
    std::string again, input;
    for (const std::string& f : Encode(in.format, base, bounds)) again += f;
    for (const std::string& f : bytes) input += f;
    const bool same = again == input;
    all_ok = all_ok && same;
    std::printf("\"reencode_identical\": %s", same ? "\"pass\"" : "\"FAIL\"");
  }
  for (const Case& c : cases) {
    Graph g = base;
    c.edit(&g, hub, nv);
    if (in.format == "csr6") {
      for (Scope& s : g.scopes) std::sort(s.adj.begin(), s.adj.end());
    }
    std::vector<std::string> files = Encode(in.format, g, bounds);
    if (in.format == "csr6" && c.expect == "scopes_increasing") {
      // CSR6 places scopes by position, so order lives in the offset table:
      // swap two adjacent distinct offsets of the first shard instead.
      files = Encode(in.format, base, bounds);
      std::string& f = files.front();
      for (std::size_t at = 40; at + 16 <= f.size(); at += 8) {
        if (f.compare(at, 8, f, at + 8, 8) != 0) {
          std::string tmp = f.substr(at, 8);
          f.replace(at, 8, f, at + 8, 8);
          f.replace(at + 8, 8, tmp);
          break;
        }
      }
    }
    const Report r = CheckBytes(in, files);
    std::string failed;
    for (const Verdict& v : r.verdicts) {
      if (!v.ok) failed += (failed.empty() ? "" : ",") + v.name;
    }
    bool caught;
    if (c.expect == "multiset_hash") {
      caught = r.multiset_hash != clean.multiset_hash;
      if (caught) failed += (failed.empty() ? "" : ",") + std::string("multiset_hash");
    } else if (in.format == "csr6" && c.expect == "scopes_increasing") {
      const Verdict* v = r.Find("format");
      caught = v != nullptr && !v->ok;
    } else {
      const Verdict* v = r.Find(c.expect);
      caught = (v != nullptr && !v->ok) || (v == nullptr && !r.ok());
    }
    all_ok = all_ok && caught;
    std::printf(", %s: %s", Quote(c.name).c_str(),
                Quote(std::string(caught ? "rejected" : "MISSED") + " (failed: " +
                      (failed.empty() ? "none" : failed) + ")")
                    .c_str());
  }
  std::printf("}, \"ok\": %s}\n", all_ok ? "true" : "false");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "hash" && argc > 2) return RunHash(argc, argv);
  Input in;
  if ((mode == "check" || mode == "selftest") && ParseInput(argc, argv, &in)) {
    return mode == "check" ? RunCheck(in) : RunSelftest(in);
  }
  std::fprintf(stderr,
               "usage: %s check|selftest FORMAT SCALE EDGE_FACTOR A B C D FILE...\n"
               "       %s hash FILE...\n",
               argv[0], argv[0]);
  return 2;
}
