// Self-tests for the benchmark's own arithmetic (stats.hpp), on synthetic
// inputs whose answers are known by hand.  Exits 0 when every check
// holds; run.py runs it after each build, before any measurement.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9 * std::fmax(1.0, std::fabs(want))) {
    std::fprintf(stderr, "selftest: %s: got %.12g, want %.12g\n", what, got,
                 want);
    ++g_failures;
  }
}

void expect_true(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: %s\n", what);
    ++g_failures;
  }
}

void test_median_and_quartiles() {
  using perfbench::median;
  using perfbench::quartiles;
  expect_near(median({3.0}), 3.0, "median of one");
  expect_near(median({5.0, 1.0, 3.0}), 3.0, "median of odd sample");
  expect_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median of even sample");
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect_near(q.q1, 2.75, "q1 of 1..10");
  expect_near(q.q2, 5.5, "q2 of 1..10");
  expect_near(q.q3, 8.25, "q3 of 1..10");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = quartiles({2.0, 1.0});
  expect_near(q2.q1, 0.75, "q1 of two samples");
  expect_near(q2.q3, 2.25, "q3 of two samples");
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const auto q5 = quartiles({1, 2, 3, 4, 5});
  expect_near(q5.q1, 1.5, "q1 of 1..5");
  expect_near(q5.q2, 3.0, "q2 of 1..5");
  expect_near(q5.q3, 4.5, "q3 of 1..5");
}

void test_tail_percentile() {
  using perfbench::percentile;
  using perfbench::tail_percentile;
  expect_true(!tail_percentile(19).has_value(), "19 samples: no tail");
  expect_true(tail_percentile(20) == 50, "20 samples: p50");
  expect_true(tail_percentile(100) == 90, "100 samples: p90");
  expect_true(tail_percentile(199) == 94, "199 samples: p94");
  expect_true(tail_percentile(200) == 95, "200 samples: p95");
  expect_true(tail_percentile(1000) == 99, "1000 samples: p99");
  expect_true(tail_percentile(100000) == 99, "tail capped at p99");
  expect_true(tail_percentile(40, 20) == 50, "min_beyond is honoured");

  std::vector<double> xs;
  for (int i = 1; i <= 200; ++i) xs.push_back(i);
  // p95 of 1..200 is 190: exactly ten samples lie beyond it.
  expect_near(percentile(xs, 95.0), 190.0, "p95 of 1..200");
  expect_near(percentile(xs, 50.0), 100.0, "p50 of 1..200");
  expect_near(percentile(xs, 100.0), 200.0, "p100 is the max");
  expect_near(percentile(xs, 0.0), 1.0, "p0 is the min");
}

void test_self_time() {
  using perfbench::SpanRecord;
  // pass [0, 100] with children [10, 30] and [50, 90]; the second child
  // has a grandchild [60, 70] that must not be subtracted from the pass.
  std::vector<SpanRecord> spans = {
      {"pass", 0, 100, -1, 0},
      {"a", 10, 30, 0, 0},
      {"b", 50, 90, 0, 0},
      {"b.inner", 60, 70, 2, 0},
  };
  auto self = perfbench::self_times_ns(spans);
  expect_near(self[0], 40.0, "self = span - children");
  expect_near(self[1], 20.0, "leaf self = duration");
  expect_near(self[2], 30.0, "self excludes own child only");
  expect_near(self[3], 10.0, "grandchild leaf");

  // Spans of two operations stay apart.
  spans = {
      {"pass", 0, 10, -1, 0},
      {"pass", 10, 30, -1, 1},
      {"a", 12, 20, 1, 1},
  };
  self = perfbench::self_times_ns(spans);
  expect_near(self[0], 10.0, "first op untouched by second op's child");
  expect_near(self[1], 12.0, "second op self time");
}

void test_busy_frac() {
  using perfbench::busy_frac;
  expect_near(busy_frac(400.0, 4, 100.0), 1.0, "fully busy pool");
  expect_near(busy_frac(100.0, 4, 100.0), 0.25, "one of four busy");
  expect_near(busy_frac(50.0, 1, 200.0), 0.25, "serial quarter busy");
  bool threw = false;
  try {
    (void)busy_frac(1.0, 0, 1.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect_true(threw, "zero threads rejected");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_tail_percentile();
  test_self_time();
  test_busy_frac();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
