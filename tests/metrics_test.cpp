// Metrics registry: correctness of counters and histograms, registry
// get-or-create semantics, and — the part that matters under debug-tsan —
// concurrent updates from many threads, both through cached references
// and through fresh registry lookups.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "netsim/network.h"
#include "rpc/rpc.h"

namespace pocs::metrics {
namespace {

TEST(Counter, AddAndIncrement) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Histogram, SummaryStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean_seconds(), 0.0);
  for (double s : {0.001, 0.002, 0.004, 0.008}) h.Record(s);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.mean_seconds(), 0.015 / 4, 1e-9);
  // Negative and NaN samples count, as zero.
  Histogram clamped;
  clamped.Record(-1.0);
  clamped.Record(std::nan(""));
  clamped.Record(0.003);
  EXPECT_EQ(clamped.count(), 3u);
  EXPECT_NEAR(clamped.mean_seconds(), 0.001, 1e-9);
  // A sample too large for nanoseconds saturates instead of wrapping.
  Histogram huge;
  huge.Record(1e300);
  EXPECT_GT(huge.mean_seconds(), 1e9);
}

TEST(Registry, GetOrCreateReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.GetCounter("x");
  Counter& b = reg.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  EXPECT_EQ(b.value(), 7u);
  // Distinct names, distinct metrics.
  EXPECT_NE(&reg.GetCounter("y"), &a);
}

TEST(Registry, SnapshotSortedAndTyped) {
  Registry reg;
  reg.GetCounter("b.count").Add(3);
  reg.GetCounter("a.rows").Add(2);
  reg.GetHistogram("c.lat").Record(0.5);
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.rows");
  EXPECT_EQ(samples[0].kind, MetricKind::kCounter);
  EXPECT_EQ(samples[0].value, 2u);
  EXPECT_EQ(samples[1].name, "b.count");
  EXPECT_EQ(samples[1].kind, MetricKind::kCounter);
  EXPECT_EQ(samples[1].value, 3u);
  EXPECT_EQ(samples[2].name, "c.lat");
  EXPECT_EQ(samples[2].kind, MetricKind::kHistogram);
  EXPECT_EQ(samples[2].value, 1u);  // histogram sample count
  EXPECT_NEAR(samples[2].mean, 0.5, 1e-9);
}

TEST(Registry, DefaultIsProcessWide) {
  Counter& a = Registry::Default().GetCounter("metrics_test.default_probe");
  Counter& b = Registry::Default().GetCounter("metrics_test.default_probe");
  EXPECT_EQ(&a, &b);
}

// Regression test: rpc.calls / rpc.request_bytes used to be recorded only
// after a successful dispatch, so failed calls vanished from the request
// side of the ledger. They must be counted per attempt, before dispatch —
// a failed call still put its request on the wire — and every failed
// attempt must show up in rpc.failed_calls.
TEST(RpcMetrics, FailedCallsStillCountRequestSideMetrics) {
  auto net = std::make_shared<pocs::netsim::Network>();
  auto client = net->AddNode("client");
  auto server_node = net->AddNode("server");
  auto server = std::make_shared<pocs::rpc::Server>(server_node, "svc");
  server->RegisterMethod("Flaky", [](pocs::ByteSpan) -> pocs::Result<pocs::Bytes> {
    return pocs::Status::Unavailable("induced");
  });
  pocs::rpc::Channel channel(net, client, server);

  auto& reg = Registry::Default();
  const uint64_t calls0 = reg.GetCounter("rpc.calls").value();
  const uint64_t req0 = reg.GetCounter("rpc.request_bytes").value();
  const uint64_t resp0 = reg.GetCounter("rpc.response_bytes").value();
  const uint64_t failed0 = reg.GetCounter("rpc.failed_calls").value();
  const uint64_t retries0 = reg.GetCounter("rpc.retries").value();

  pocs::Bytes request = {1, 2, 3, 4, 5};
  pocs::rpc::CallOptions options;
  options.max_attempts = 3;
  options.backoff_base_seconds = 0;  // no modelled waiting in this test
  auto result = channel.Call(
      "Flaky", pocs::ByteSpan(request.data(), request.size()), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), pocs::StatusCode::kUnavailable);

  // All three attempts hit the wire: each counts a call + request bytes.
  EXPECT_EQ(reg.GetCounter("rpc.calls").value() - calls0, 3u);
  EXPECT_EQ(reg.GetCounter("rpc.request_bytes").value() - req0,
            3u * request.size());
  EXPECT_EQ(reg.GetCounter("rpc.failed_calls").value() - failed0, 3u);
  EXPECT_EQ(reg.GetCounter("rpc.retries").value() - retries0, 2u);
  // Nothing ever came back.
  EXPECT_EQ(reg.GetCounter("rpc.response_bytes").value() - resp0, 0u);
}

// The TSan target: hammer one counter and one histogram from many
// threads, half through cached references and half through fresh
// name lookups (exercising the registry mutex against the lock-free
// updates).
TEST(MetricsConcurrency, ParallelUpdatesAreExact) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  Counter& counter = reg.GetCounter("stress.counter");
  Histogram& hist = reg.GetHistogram("stress.hist");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &counter, &hist, t] {
      for (int i = 0; i < kIters; ++i) {
        if (t % 2 == 0) {
          counter.Increment();
          hist.Record(1e-6);
        } else {
          reg.GetCounter("stress.counter").Increment();
          reg.GetHistogram("stress.hist").Record(1e-6);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kIters);
  // The nanosecond sum is exact too: every sample is 1000 ns.
  EXPECT_NEAR(hist.mean_seconds(), 1e-6, 1e-12);
}

// Snapshots taken while writers are active must be internally sane
// (never torn below zero or above the final value).
TEST(MetricsConcurrency, SnapshotDuringWrites) {
  Registry reg;
  constexpr int kWriters = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        reg.GetCounter("live.rows").Add(2);
        reg.GetHistogram("live.lat").Record(1e-7);
      }
    });
  }
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    for (const MetricSample& s : reg.Snapshot()) {
      if (s.name == "live.rows") {
        const uint64_t v = s.value;
        EXPECT_GE(v, last);  // counters are monotone
        EXPECT_LE(v, static_cast<uint64_t>(kWriters) * kIters * 2);
        last = v;
      }
    }
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(reg.GetCounter("live.rows").value(),
            static_cast<uint64_t>(kWriters) * kIters * 2);
}

}  // namespace
}  // namespace pocs::metrics
