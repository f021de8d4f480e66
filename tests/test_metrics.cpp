// The observability primitives: counter/gauge/histogram semantics,
// streaming percentile accuracy, concurrent recording losslessness, and
// the JSON/CSV/table exporters (including a full JSON round-trip through
// the in-repo parser).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"

namespace brsmn::obs {
namespace {

TEST(Counter, AccumulatesDeltas) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, KeepsLastValue) {
  Gauge g;
  g.set(1.5);
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -3.0);
}

TEST(P2Quantile, ExactForSmallSamples) {
  P2Quantile q(0.5);
  EXPECT_DOUBLE_EQ(q.estimate(), 0.0);  // no samples
  q.observe(10.0);
  EXPECT_DOUBLE_EQ(q.estimate(), 10.0);
  q.observe(2.0);
  q.observe(6.0);
  EXPECT_DOUBLE_EQ(q.estimate(), 6.0);  // median of {2, 6, 10}
}

TEST(P2Quantile, ConvergesOnUniformStream) {
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  std::vector<double> values(10000);
  std::iota(values.begin(), values.end(), 1.0);
  std::mt19937 shuffle_rng(123);
  std::shuffle(values.begin(), values.end(), shuffle_rng);
  for (const double v : values) {
    p50.observe(v);
    p99.observe(v);
  }
  EXPECT_NEAR(p50.estimate(), 5000.0, 250.0);  // within 5 %
  EXPECT_NEAR(p99.estimate(), 9900.0, 200.0);  // within 2 %
}

TEST(Histogram, TracksMomentsExactly) {
  Histogram h;
  for (const double v : {4.0, 1.0, 9.0, 16.0}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 30.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 16.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
}

TEST(Histogram, PowerOfTwoBuckets) {
  Histogram h;
  h.record(0.5);   // bucket 0: [0, 1)
  h.record(1.0);   // bucket 1: [1, 2)
  h.record(3.0);   // bucket 2: [2, 4)
  h.record(3.9);   // bucket 2
  h.record(700.0);  // bucket 10: [512, 1024)
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 11u);  // trailing zeros trimmed
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[10], 1u);
}

TEST(Histogram, BucketQuantileWithinBucketResolution) {
  Histogram h;
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 1.0);
  for (const double v : values) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  // Bucket bounds are powers of two, so the estimate can be off by at
  // most a factor of two from the exact quantile.
  const double q50 = s.bucket_quantile(0.5);
  EXPECT_GE(q50, 250.0);
  EXPECT_LE(q50, 1000.0);
  EXPECT_DOUBLE_EQ(s.bucket_quantile(0.0), s.min);
  EXPECT_DOUBLE_EQ(s.bucket_quantile(1.0), s.max);
}

TEST(Histogram, EmptySnapshotIsZeroed) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(s.buckets.empty());
  EXPECT_DOUBLE_EQ(s.bucket_quantile(0.5), 0.0);
}

TEST(MetricRegistry, InstrumentsAreStableSingletons) {
  MetricRegistry r;
  Counter& a = r.counter("x");
  Counter& b = r.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&r.counter("x"), reinterpret_cast<Counter*>(&r.histogram("x")));
  a.add(7);
  EXPECT_EQ(r.counter("x").value(), 7u);
}

TEST(MetricRegistry, SnapshotIsNameSorted) {
  MetricRegistry r;
  r.counter("zeta").add(1);
  r.counter("alpha").add(2);
  r.gauge("mid").set(3.0);
  const RegistrySnapshot s = r.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "alpha");
  EXPECT_EQ(s.counters[1].first, "zeta");
  ASSERT_EQ(s.gauges.size(), 1u);
}

TEST(MetricRegistry, ConcurrentRecordingLosesNothing) {
  MetricRegistry r;
  constexpr unsigned kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&r] {
      // Deliberately re-resolve by name to also exercise the registry
      // lock, not just the instruments.
      for (std::size_t i = 0; i < kPerThread; ++i) {
        r.counter("shared.count").add(1);
        r.histogram("shared.hist").record(static_cast<double>(i));
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(r.counter("shared.count").value(), kThreads * kPerThread);
  EXPECT_EQ(r.histogram("shared.hist").count(), kThreads * kPerThread);
}

TEST(MetricRegistry, ResetZeroesValuesButKeepsRegistrations) {
  MetricRegistry r;
  Counter& c = r.counter("route.routes");
  Gauge& g = r.gauge("cluster.shard.0.failure_rate");
  Histogram& h = r.histogram("route.phase.total_ns");
  c.add(42);
  g.set(0.75);
  for (const double v : {100.0, 200.0, 400.0}) h.record(v);

  r.reset();

  // Same instrument objects, zeroed state.
  EXPECT_EQ(&r.counter("route.routes"), &c);
  EXPECT_EQ(&r.gauge("cluster.shard.0.failure_rate"), &g);
  EXPECT_EQ(&r.histogram("route.phase.total_ns"), &h);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_TRUE(s.buckets.empty());
  EXPECT_DOUBLE_EQ(s.p50, 0.0);

  // Recording after reset behaves like a fresh histogram.
  h.record(16.0);
  const HistogramSnapshot after = h.snapshot();
  EXPECT_EQ(after.count, 1u);
  EXPECT_DOUBLE_EQ(after.min, 16.0);
  EXPECT_DOUBLE_EQ(after.max, 16.0);
  EXPECT_DOUBLE_EQ(after.p50, 16.0);
}

TEST(MetricRegistry, ResetPrefixZeroesOnlyThatFamily) {
  MetricRegistry r;
  Counter& hits = r.counter("route.hits");
  Counter& exact = r.counter("route");
  Counter& sibling = r.counter("routes.hits");  // shares spelling, not family
  Gauge& depth = r.gauge("route.depth");
  Histogram& h = r.histogram("route.phase.total_ns");
  Histogram& other = r.histogram("switch.cell_latency_epochs");
  hits.add(5);
  exact.add(3);
  sibling.add(7);
  depth.set(2.5);
  h.record(100.0);
  other.record(9.0);

  r.reset("route");

  // The family — the exact name and every dotted descendant — is zeroed,
  // registrations intact.
  EXPECT_EQ(&r.counter("route.hits"), &hits);
  EXPECT_EQ(hits.value(), 0u);
  EXPECT_EQ(exact.value(), 0u);
  EXPECT_DOUBLE_EQ(depth.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);

  // Sibling spellings and other families are untouched.
  EXPECT_EQ(sibling.value(), 7u);
  EXPECT_EQ(other.count(), 1u);
}

TEST(MetricRegistry, ResetOnEmptyRegistryIsANoOp) {
  MetricRegistry r;
  r.reset();
  EXPECT_TRUE(r.snapshot().counters.empty());
}

// --- exporters ------------------------------------------------------------

void fill_sample_registry(MetricRegistry& r) {
  r.counter("route.routes").add(3);
  r.gauge("cluster.shard.0.failure_rate").set(0.25);
  Histogram& h = r.histogram("route.phase.total_ns");
  for (const double v : {100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0}) {
    h.record(v);
  }
}

TEST(Export, JsonRoundTripsThroughParser) {
  MetricRegistry r;
  fill_sample_registry(r);
  const RegistrySnapshot snap = r.snapshot();
  const JsonValue doc = parse_json(to_json(r));

  EXPECT_EQ(doc.at("counters").at("route.routes").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(
      doc.at("gauges").at("cluster.shard.0.failure_rate").as_number(), 0.25);

  const JsonValue& hist = doc.at("histograms").at("route.phase.total_ns");
  const HistogramSnapshot& expect = snap.histograms[0].second;
  EXPECT_EQ(hist.at("count").as_number(), static_cast<double>(expect.count));
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), expect.sum);
  EXPECT_DOUBLE_EQ(hist.at("min").as_number(), expect.min);
  EXPECT_DOUBLE_EQ(hist.at("max").as_number(), expect.max);
  EXPECT_DOUBLE_EQ(hist.at("mean").as_number(), expect.mean());
  EXPECT_DOUBLE_EQ(hist.at("p50").as_number(), expect.p50);
  EXPECT_DOUBLE_EQ(hist.at("p99").as_number(), expect.p99);
  const JsonArray& buckets = hist.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), expect.buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].as_number(),
              static_cast<double>(expect.buckets[i]));
  }
}

TEST(Export, EmptyRegistryIsValidJson) {
  const MetricRegistry r;
  const JsonValue doc = parse_json(to_json(r));
  EXPECT_TRUE(doc.at("counters").as_object().empty());
  EXPECT_TRUE(doc.at("gauges").as_object().empty());
  EXPECT_TRUE(doc.at("histograms").as_object().empty());
}

TEST(Export, CsvHasHeaderAndOneRowPerInstrument) {
  MetricRegistry r;
  fill_sample_registry(r);
  const std::string csv = to_csv(r);
  EXPECT_NE(csv.find("kind,name,count,sum,min,max,mean,p50,p99\n"),
            std::string::npos);
  EXPECT_NE(csv.find("counter,route.routes,3"), std::string::npos);
  EXPECT_NE(csv.find("gauge,cluster.shard.0.failure_rate,0.25"),
            std::string::npos);
  EXPECT_NE(csv.find("histogram,route.phase.total_ns,6"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(Export, TableListsEveryInstrument) {
  MetricRegistry r;
  fill_sample_registry(r);
  const std::string table = to_table(r);
  EXPECT_NE(table.find("counters:"), std::string::npos);
  EXPECT_NE(table.find("route.routes"), std::string::npos);
  EXPECT_NE(table.find("gauges:"), std::string::npos);
  EXPECT_NE(table.find("histograms:"), std::string::npos);
  EXPECT_NE(table.find("route.phase.total_ns"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
}

TEST(Export, WriteFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "brsmn_metrics_test.json";
  MetricRegistry r;
  fill_sample_registry(r);
  write_file(path, to_json(r));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, to_json(r));
  EXPECT_NO_THROW(parse_json(content));
}

TEST(Export, WriteFileRejectsBadPath) {
  EXPECT_THROW(write_file("/nonexistent-dir/x/y.json", "{}"),
               ContractViolation);
}

TEST(Export, TryWriteMetricsNeverThrows) {
  MetricRegistry r;
  fill_sample_registry(r);
  EXPECT_FALSE(try_write_metrics("", r));
  EXPECT_FALSE(try_write_metrics("/nonexistent-dir/x/y.json", r));
  const std::string path = ::testing::TempDir() + "brsmn_try_write.json";
  EXPECT_TRUE(try_write_metrics(path, r));
  std::remove(path.c_str());
}

// --- JSON parser ----------------------------------------------------------

TEST(Json, ParsesScalarsAndNesting) {
  const JsonValue v = parse_json(
      R"({"a": [1, 2.5, -3e2], "b": {"nested": true}, "c": null,
          "s": "hi\n\"there\""})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(v.at("b").at("nested").as_bool());
  EXPECT_TRUE(v.at("c").is_null());
  EXPECT_EQ(v.at("s").as_string(), "hi\n\"there\"");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("zz"));
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), ContractViolation);
  EXPECT_THROW(parse_json("{"), ContractViolation);
  EXPECT_THROW(parse_json("[1, ]"), ContractViolation);
  EXPECT_THROW(parse_json("{\"a\" 1}"), ContractViolation);
  EXPECT_THROW(parse_json("tru"), ContractViolation);
  EXPECT_THROW(parse_json("\"unterminated"), ContractViolation);
  EXPECT_THROW(parse_json("1 2"), ContractViolation);
  EXPECT_THROW(parse_json("--1"), ContractViolation);
}

TEST(Json, TypeMismatchThrows) {
  const JsonValue v = parse_json("{\"n\": 1}");
  EXPECT_THROW(v.at("n").as_string(), ContractViolation);
  EXPECT_THROW(v.at("missing"), ContractViolation);
  EXPECT_THROW(v.as_array(), ContractViolation);
}

TEST(Json, RoundTripsDoublesExactly) {
  // %.17g printing must survive parse: pi-ish and tiny/huge magnitudes.
  MetricRegistry r;
  r.gauge("g1").set(3.141592653589793);
  r.gauge("g2").set(1e-9);
  r.gauge("g3").set(123456789012345.0);
  const JsonValue doc = parse_json(to_json(r));
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("g1").as_number(), 3.141592653589793);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("g2").as_number(), 1e-9);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("g3").as_number(), 123456789012345.0);
}

}  // namespace
}  // namespace brsmn::obs
