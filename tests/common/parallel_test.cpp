#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace bb::common {
namespace {

// Restores the default thread-count resolution after each test.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetThreadCount(0); }
};

TEST_F(ParallelTest, ThreadCountOverrideAndReset) {
  SetThreadCount(3);
  EXPECT_EQ(ThreadCount(), 3);
  SetThreadCount(0);
  EXPECT_GE(ThreadCount(), 1);
}

TEST_F(ParallelTest, NumShardsRespectsGrainAndThreads) {
  SetThreadCount(4);
  EXPECT_EQ(NumShards(0), 1);
  EXPECT_EQ(NumShards(1), 1);
  EXPECT_EQ(NumShards(100), 4);
  EXPECT_EQ(NumShards(100, 50), 2);   // grain limits the split
  EXPECT_EQ(NumShards(3), 3);         // never more shards than items
  SetThreadCount(1);
  EXPECT_EQ(NumShards(100), 1);
}

TEST_F(ParallelTest, ParallelForVisitsEveryIndexOnce) {
  SetThreadCount(4);
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(0, 1000, 1, [&](std::int64_t i) {
    visits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST_F(ParallelTest, ParallelForSmallRangeRunsInline) {
  SetThreadCount(4);
  int count = 0;  // non-atomic: safe only if inline
  ParallelFor(0, 5, 100, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 5);
}

TEST_F(ParallelTest, ShardsCoverRangeContiguously) {
  SetThreadCount(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks(8);
  ParallelShards(10, 110, 1, [&](int s, std::int64_t b, std::int64_t e) {
    chunks[static_cast<std::size_t>(s)] = {b, e};
  });
  // Exactly the first NumShards chunks are filled, back to back.
  std::int64_t expect_begin = 10;
  for (int s = 0; s < NumShards(100); ++s) {
    EXPECT_EQ(chunks[static_cast<std::size_t>(s)].first, expect_begin);
    expect_begin = chunks[static_cast<std::size_t>(s)].second;
  }
  EXPECT_EQ(expect_begin, 110);
}

TEST_F(ParallelTest, ShardBoundariesAreAPureFunctionOfTheRange) {
  SetThreadCount(4);
  auto capture = [&] {
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    std::mutex mu;
    ParallelShards(0, 97, 1, [&](int s, std::int64_t b, std::int64_t e) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.resize(std::max<std::size_t>(chunks.size(),
                                          static_cast<std::size_t>(s) + 1));
      chunks[static_cast<std::size_t>(s)] = {b, e};
    });
    return chunks;
  };
  const auto first = capture();
  for (int rep = 0; rep < 10; ++rep) EXPECT_EQ(capture(), first);
}

TEST_F(ParallelTest, PerShardIntegerSumsReduceExactly) {
  // The Reconstructor's accumulation pattern in miniature: integer-valued
  // doubles summed per shard then reduced serially must equal the serial
  // sum bit-for-bit.
  std::vector<int> data(10000);
  std::iota(data.begin(), data.end(), 1);

  SetThreadCount(1);
  double serial = 0.0;
  ParallelShards(0, 10000, 1, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      // Single-threaded by construction (SetThreadCount(1) above): this IS
      // the serial reference the sharded sum is checked against.
      // bblint: allow(no-unshared-float-accumulation)
      serial += data[static_cast<std::size_t>(i)];
    }
  });

  SetThreadCount(4);
  std::vector<double> partial(static_cast<std::size_t>(NumShards(10000)),
                              0.0);
  ParallelShards(0, 10000, 1, [&](int s, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      partial[static_cast<std::size_t>(s)] +=
          data[static_cast<std::size_t>(i)];
    }
  });
  double reduced = 0.0;
  for (double p : partial) reduced += p;
  EXPECT_EQ(serial, reduced);
}

TEST_F(ParallelTest, NestedParallelismRunsInline) {
  SetThreadCount(4);
  std::atomic<int> total{0};
  ParallelFor(0, 8, 1, [&](std::int64_t) {
    EXPECT_TRUE(InParallelRegion());
    int inner = 0;  // non-atomic: inner loop must be inline
    ParallelFor(0, 100, 1, [&](std::int64_t) { ++inner; });
    total.fetch_add(inner);
  });
  EXPECT_EQ(total.load(), 800);
}

TEST_F(ParallelTest, ExceptionsPropagateToCaller) {
  SetThreadCount(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](std::int64_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> ok{0};
  ParallelFor(0, 100, 1, [&](std::int64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 100);
}

TEST_F(ParallelTest, RepeatedJobsReuseThePool) {
  SetThreadCount(4);
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<long> sum{0};
    ParallelFor(0, 256, 1, [&](std::int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 256L * 255 / 2);
  }
  EXPECT_LE(ThreadPool::Instance().worker_count(), 4);
}

TEST_F(ParallelTest, RunAdmitsAtMostMaxWorkers) {
  // Grow the pool past the limit first, so idle workers exist that a job
  // with a smaller max_workers must leave asleep.
  ThreadPool::Instance().Run(4, 4, [](int) {});
  std::mutex mu;
  std::vector<std::thread::id> ran;
  ThreadPool::Instance().Run(2, 32, [&](int) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    const std::lock_guard<std::mutex> lock(mu);
    if (std::find(ran.begin(), ran.end(), std::this_thread::get_id()) ==
        ran.end()) {
      ran.push_back(std::this_thread::get_id());
    }
  });
  EXPECT_LE(ran.size(), 2u);
}

// Busy work long enough that woken helpers join a job before the caller
// has drained it alone.
std::uint64_t Spin(std::int64_t i) {
  volatile std::uint64_t x = static_cast<std::uint64_t>(i);
  for (std::uint64_t k = 0; k < 200; ++k) x = x * 31 + k;
  return x;
}

// Two call sites with different (stack-local) bodies taking turns, as the
// streaming caller and decomposition passes do: a helper still holding the
// previous job must never claim the next job's indices with the previous
// body.
TEST(PoolStressTest, AlternatingForAndShardSites) {
  SetThreadCount(4);
  for (int rep = 0; rep < 20000; ++rep) {
    std::vector<int> hits(13, 0);
    ParallelFor(0, 13, 1, [&](std::int64_t i) {
      (void)Spin(i);
      ++hits[static_cast<std::size_t>(i)];
    });
    ASSERT_EQ(std::count(hits.begin(), hits.end(), 1), 13) << "rep " << rep;

    std::vector<std::int64_t> sums(static_cast<std::size_t>(NumShards(29)),
                                   0);
    ParallelShards(0, 29, 1, [&](int s, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        (void)Spin(i);
        sums[static_cast<std::size_t>(s)] += i;
      }
    });
    ASSERT_EQ(std::accumulate(sums.begin(), sums.end(), std::int64_t{0}),
              29 * 28 / 2)
        << "rep " << rep;
  }
  SetThreadCount(0);
}

}  // namespace
}  // namespace bb::common
