#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace kgeval {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, CodesHaveDistinctNames) {
  std::set<std::string> names;
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kIoError, StatusCode::kCancelled}) {
    names.insert(StatusCodeToString(code));
  }
  EXPECT_EQ(names.size(), 7u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ReturnNotOkTest, PropagatesError) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    KGEVAL_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(77);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ZipfTest, FirstRankMostProbable) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(13);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[99]);
}

TEST(ZipfTest, ZeroExponentIsUniformish) {
  ZipfSampler zipf(4, 0.0);
  Rng rng(29);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) EXPECT_NEAR(c, n / 4, n / 40);
}

// The guide table only picks where the scan starts: every draw must land on
// exactly the index a binary search over the same CDF returns, including
// for u on the bucket edges j/n, on the CDF values themselves, and one ulp
// to either side of both.
TEST(ZipfTest, GuideTableMatchesBinarySearch) {
  for (size_t n : {1, 2, 3, 51, 1000, 17050}) {
    for (double exponent : {0.0, 0.4, 1.3}) {
      const ZipfSampler zipf(n, exponent);
      const std::vector<double>& cdf = zipf.cdf();
      ASSERT_EQ(cdf.size(), n);
      auto lower_bound_index = [&](double u) {
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        return it == cdf.end() ? n - 1 : static_cast<size_t>(it - cdf.begin());
      };
      const std::string where = "n=" + std::to_string(n) +
                                " exponent=" + std::to_string(exponent);

      Rng sampled(n * 7919 + static_cast<uint64_t>(exponent * 10));
      Rng reference = sampled;
      size_t stream_mismatches = 0;
      for (int i = 0; i < 20000; ++i) {
        const size_t got = zipf.Sample(&sampled);
        if (got != lower_bound_index(reference.NextDouble())) {
          ++stream_mismatches;
        }
      }
      EXPECT_EQ(stream_mismatches, 0u) << where;

      std::vector<double> probes;
      for (size_t j = 0; j < n; ++j) {
        probes.push_back(static_cast<double>(j) / static_cast<double>(n));
      }
      probes.insert(probes.end(), cdf.begin(), cdf.end());
      size_t edge_mismatches = 0;
      for (double probe : probes) {
        for (double u : {std::nextafter(probe, 0.0), probe,
                         std::nextafter(probe, 1.0)}) {
          if (u < 0.0 || u >= 1.0) continue;
          if (zipf.IndexOf(u) != lower_bound_index(u)) {
            ++edge_mismatches;
            ADD_FAILURE() << where << " u=" << u << " guide "
                          << zipf.IndexOf(u) << " vs lower_bound "
                          << lower_bound_index(u);
            if (edge_mismatches > 5) return;
          }
        }
      }
    }
  }
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-45678), "-45,678");
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  // The substrate has no join/wait surface of its own (grouping lives in
  // sched/task_group.h); its one completion guarantee is that destruction
  // drains the remaining queue before joining the workers.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadPoolStillRunsTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, InThreadPoolWorkerFlag) {
  std::atomic<int> in_worker{0};
  std::atomic<int> in_other{0};
  {
    ThreadPool pool(2);
    ThreadPool other(1);
    EXPECT_FALSE(InThreadPoolWorker(&pool));
    pool.Submit([&] {
      if (InThreadPoolWorker(&pool)) in_worker.fetch_add(1);
      if (InThreadPoolWorker(&other)) in_other.fetch_add(1);
    });
  }
  EXPECT_EQ(in_worker.load(), 1);
  EXPECT_EQ(in_other.load(), 0);
}

TEST(ThreadPoolTest, ConcurrentSubmitIsSafe) {
  // Hammer Submit from several producers; destruction drains whatever is
  // still queued, and every task must run exactly once.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&pool, &counter] {
        for (int i = 0; i < 250; ++i) {
          pool.Submit([&counter] { counter.fetch_add(1); });
        }
      });
    }
    for (auto& producer : producers) producer.join();
  }
  EXPECT_EQ(counter.load(), 1000);
}

}  // namespace
}  // namespace kgeval
