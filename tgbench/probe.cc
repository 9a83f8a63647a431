// tgb_probe: a fixed reference kernel that measures the host's current speed.
//
//   tgb_probe
//
// Prints one JSON object, {"seconds": S, "checksum": C}: the wall time of one
// pass over a kernel shaped like edge generation. A counter-based RNG draws
// keys, a binary search over a cumulative table inverts each draw (an
// L2-resident table, like the prefix tables), a bitmap rejects repeats (like
// the scope dedup), and each kept key is written as decimal text into a
// buffer larger than the caches (like the writers). The code never changes
// with the program, so its time tracks only how fast the host runs at that
// moment. run.py interleaves it with the program's operations and scales the
// program's times to a host on which this pass takes a fixed nominal time.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

namespace {

using u64 = std::uint64_t;

u64 Mix64(u64 z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::size_t kTable = 1u << 16;      // 256 KiB of cumulative weights
constexpr std::size_t kBitmapWords = 1u << 14;  // 1 Mi bits, 128 KiB
constexpr std::size_t kOut = 32u << 20;       // 32 MiB text buffer
constexpr u64 kDraws = 1200000;
constexpr u64 kScope = 4096;                   // draws between bitmap resets

}  // namespace

int main() {
  std::vector<std::uint32_t> cdf(kTable);
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < kTable; ++i) {
    acc += 1 + static_cast<std::uint32_t>(Mix64(i) % 64);
    cdf[i] = acc;
  }
  std::vector<u64> seen(kBitmapWords);
  std::vector<char> out(kOut + 32);
  std::fill(out.begin(), out.end(), 0);  // fault the pages in before timing

  const auto t0 = std::chrono::steady_clock::now();
  u64 checksum = 0;
  std::size_t pos = 0;
  for (u64 i = 0; i < kDraws; ++i) {
    if (i % kScope == 0) std::memset(seen.data(), 0, kBitmapWords * sizeof(u64));
    const u64 r = Mix64(i);
    const std::uint32_t key = static_cast<std::uint32_t>(r % acc);
    const std::size_t idx =
        static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), key) - cdf.begin());
    const std::size_t bit = (idx ^ (r >> 40)) & (kBitmapWords * 64 - 1);
    u64& word = seen[bit >> 6];
    if (word & (u64{1} << (bit & 63))) continue;
    word |= u64{1} << (bit & 63);
    char digits[24];
    int n = 0;
    u64 v = (i << 16) | idx;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    if (pos + n + 1 > kOut) pos = 0;
    while (n > 0) out[pos++] = digits[--n];
    out[pos++] = '\n';
    checksum += idx;
  }
  checksum += static_cast<unsigned char>(out[kOut / 2]) + pos;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("{\"seconds\": %.9f, \"checksum\": %llu}\n", seconds,
              static_cast<unsigned long long>(checksum));
  return 0;
}
