// Standalone ThreadSanitizer check for the parallel runtime, run as part of
// the tier-1 ctest pass (see tests/CMakeLists.txt). The binary is compiled
// with -fsanitize=thread from source - parallel.cpp plus this driver and
// nothing else - so every instruction touching shared pool state is
// instrumented and data races are caught structurally, not by luck.
//
// The workload mirrors the pipeline's two usage patterns and doubles as a
// determinism check: per-shard integer-valued accumulation with serial
// reduction (Reconstructor::Run) and dynamic task claiming with a
// deterministic argmax reduction (MatchTemplate), plus the two call sites
// taking turns (the streaming caller and decomposition passes). Exits
// non-zero on any mismatch; TSan itself aborts the run on a race.
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace {

using bb::common::ParallelFor;
using bb::common::ParallelShards;
using bb::common::NumShards;
using bb::common::SetThreadCount;

// xorshift64 so the workload is identical every run.
std::uint64_t Rng(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

int failures = 0;

// Busy work long enough that woken helpers join a job before the caller
// has drained it alone.
std::uint64_t Spin(std::int64_t i) {
  volatile std::uint64_t x = static_cast<std::uint64_t>(i);
  for (std::uint64_t k = 0; k < 200; ++k) x = x * 31 + k;
  return x;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

// Reconstructor-style accumulation: shard the "frame" range, accumulate
// per-shard sums of byte-valued samples, reduce serially in shard order.
std::vector<double> AccumulateWithThreads(int threads,
                                          const std::vector<std::uint8_t>& v,
                                          int bins) {
  SetThreadCount(threads);
  const int shards = NumShards(static_cast<std::int64_t>(v.size()));
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(shards),
      std::vector<double>(static_cast<std::size_t>(bins), 0.0));
  ParallelShards(0, static_cast<std::int64_t>(v.size()), 1,
                 [&](int s, std::int64_t b, std::int64_t e) {
                   auto& acc = partial[static_cast<std::size_t>(s)];
                   for (std::int64_t i = b; i < e; ++i) {
                     acc[static_cast<std::size_t>(i) %
                         static_cast<std::size_t>(bins)] +=
                         v[static_cast<std::size_t>(i)];
                   }
                 });
  std::vector<double> total(static_cast<std::size_t>(bins), 0.0);
  for (const auto& acc : partial) {
    for (std::size_t k = 0; k < total.size(); ++k) total[k] += acc[k];
  }
  return total;
}

// MatchTemplate-style reduction: per-job local best, then a serial argmax
// over jobs in index order.
std::pair<int, int> BestWithThreads(int threads,
                                    const std::vector<int>& scores) {
  SetThreadCount(threads);
  struct Local {
    int score = -1;
    int index = -1;
  };
  std::vector<Local> local(scores.size());
  ParallelFor(0, static_cast<std::int64_t>(scores.size()), 1,
              [&](std::int64_t j) {
                local[static_cast<std::size_t>(j)] = {
                    scores[static_cast<std::size_t>(j)],
                    static_cast<int>(j)};
              });
  Local best;
  for (const auto& l : local) {
    if (l.score > best.score) best = l;
  }
  return {best.score, best.index};
}

}  // namespace

int main() {
  std::uint64_t seed = 0x5ab7a2022ULL;
  std::vector<std::uint8_t> samples(50000);
  for (auto& s : samples) s = static_cast<std::uint8_t>(Rng(seed) & 0xFF);
  std::vector<int> scores(64);
  for (auto& s : scores) s = static_cast<int>(Rng(seed) % 1000);

  const auto serial_acc = AccumulateWithThreads(1, samples, 97);
  const auto serial_best = BestWithThreads(1, scores);
  for (int threads : {2, 4, 8}) {
    for (int rep = 0; rep < 5; ++rep) {
      Check(AccumulateWithThreads(threads, samples, 97) == serial_acc,
            "sharded accumulation != serial");
      Check(BestWithThreads(threads, scores) == serial_best,
            "argmax reduction != serial");
    }
  }

  // Hammer the pool with many small jobs to give TSan interleavings.
  SetThreadCount(4);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<int> out(37, 0);
    ParallelFor(0, 37, 1,
                [&](std::int64_t i) { out[static_cast<std::size_t>(i)] = 1; });
    for (int v : out) Check(v == 1, "index skipped");
    if (failures) break;
  }

  // Alternate a ParallelFor site with a ParallelShards site, each with a
  // fresh stack-local body: a helper still holding one job must never run
  // the next job's tasks with the previous body.
  for (int rep = 0; rep < 2000 && failures == 0; ++rep) {
    std::vector<int> hits(13, 0);
    ParallelFor(0, 13, 1, [&](std::int64_t i) {
      (void)Spin(i);
      ++hits[static_cast<std::size_t>(i)];
    });
    for (int v : hits) Check(v == 1, "alternating: index not run once");
    std::vector<std::int64_t> sums(static_cast<std::size_t>(NumShards(29)),
                                   0);
    ParallelShards(0, 29, 1, [&](int s, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        (void)Spin(i);
        sums[static_cast<std::size_t>(s)] += i;
      }
    });
    std::int64_t total = 0;
    for (std::int64_t v : sums) total += v;
    Check(total == 29 * 28 / 2, "alternating: shard sums wrong");
  }

  if (failures == 0) std::printf("parallel_tsan_check: OK\n");
  return failures == 0 ? 0 : 1;
}
