#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>

#include <sstream>
#include <stdexcept>

#include "dfs/util/args.h"
#include "dfs/util/epoch.h"
#include "dfs/util/jsonl.h"
#include "dfs/util/rng.h"
#include "dfs/util/stale_queue.h"
#include "dfs/util/stats.h"
#include "dfs/util/streaming_quantile.h"
#include "dfs/util/table.h"
#include "dfs/util/units.h"

namespace dfs::util {
namespace {

// --- units -------------------------------------------------------------------

TEST(Units, ByteConversions) {
  EXPECT_DOUBLE_EQ(kilobytes(1), 1e3);
  EXPECT_DOUBLE_EQ(megabytes(2), 2e6);
  EXPECT_DOUBLE_EQ(gigabytes(1.5), 1.5e9);
  EXPECT_DOUBLE_EQ(mebibytes(1), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(gibibytes(1), 1024.0 * 1024.0 * 1024.0);
}

TEST(Units, BandwidthConversions) {
  // 1 Gbps = 125 MB/s.
  EXPECT_DOUBLE_EQ(gigabits_per_sec(1), 125e6);
  EXPECT_DOUBLE_EQ(megabits_per_sec(100), 12.5e6);
}

TEST(Units, PaperBlockTransferTime) {
  // §III: a 128 MB block over 100 Mbps takes "around 10s".
  const double t = mebibytes(128) / megabits_per_sec(100);
  EXPECT_NEAR(t, 10.7, 0.1);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1000000) == b.uniform_int(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = r.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, NormalMeanAndClamp) {
  Rng r(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = r.normal(20.0, 1.0);
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 20.0, 0.1);
}

TEST(Rng, NormalZeroStddevIsDeterministic) {
  Rng r(7);
  EXPECT_DOUBLE_EQ(r.normal(10.0, 0.0), 10.0);
}

TEST(Rng, NormalClampsAtFloor) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.normal(0.0, 5.0, 0.5), 0.5);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) sum += r.exponential(120.0);
  EXPECT_NEAR(sum / 50000, 120.0, 3.0);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng r(3);
  for (int trial = 0; trial < 100; ++trial) {
    auto s = r.sample_indices(10, 4);
    ASSERT_EQ(s.size(), 4u);
    std::sort(s.begin(), s.end());
    EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
    for (auto v : s) EXPECT_LT(v, 10u);
  }
}

TEST(Rng, ZipfRankOneMostFrequent) {
  Rng r(5);
  std::vector<int> hits(21, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto z = r.zipf(20, 1.0);
    ASSERT_GE(z, 1u);
    ASSERT_LE(z, 20u);
    ++hits[z];
  }
  EXPECT_GT(hits[1], hits[2]);
  EXPECT_GT(hits[2], hits[10]);
}

TEST(Rng, ForkIndependence) {
  Rng parent(9);
  Rng child = parent.fork();
  // The child should not replay the parent's stream.
  Rng parent_copy(9);
  (void)parent_copy.fork();
  EXPECT_DOUBLE_EQ(parent.uniform(0, 1), parent_copy.uniform(0, 1));
  (void)child;
}

// --- stats -------------------------------------------------------------------

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({1, 2, 3, 4});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile({5}, 37), 5.0);
}

TEST(Stats, BoxplotQuartilesAndOutliers) {
  std::vector<double> xs;
  for (int i = 1; i <= 29; ++i) xs.push_back(i);
  xs.push_back(1000.0);  // a clear outlier
  const BoxPlot b = boxplot(xs);
  EXPECT_NEAR(b.median, 15.5, 1e-9);
  EXPECT_EQ(b.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(b.outliers.front(), 1000.0);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 29.0);  // whisker excludes the outlier
}

TEST(Stats, ReductionPercent) {
  EXPECT_DOUBLE_EQ(reduction_percent(200, 150), 25.0);
  EXPECT_DOUBLE_EQ(reduction_percent(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(reduction_percent(100, 125), -25.0);
}

// --- streaming_quantile ------------------------------------------------------

TEST(StreamingQuantile, ExactRegimeMatchesPercentileBitForBit) {
  // Below the exact limit the accumulator must reproduce the
  // materialize-and-sort path exactly — the cluster summaries feed golden
  // byte-identity tests.
  Rng r(17);
  std::vector<double> xs;
  StreamingQuantile q({50.0, 95.0, 99.0}, 1000);
  for (int i = 0; i < 997; ++i) {
    const double v = r.exponential(30.0);
    xs.push_back(v);
    q.add(v);
  }
  EXPECT_EQ(q.count(), xs.size());
  EXPECT_EQ(q.quantile(50.0), percentile(xs, 50.0));
  EXPECT_EQ(q.quantile(95.0), percentile(xs, 95.0));
  EXPECT_EQ(q.quantile(99.0), percentile(xs, 99.0));
  // Any percentile is queryable in the exact regime, tracked or not.
  EXPECT_EQ(q.quantile(12.5), percentile(xs, 12.5));
  EXPECT_EQ(q.mean(), summarize(xs).mean);
}

TEST(StreamingQuantile, EstimatorRegimeTracksLargeSamples) {
  // Past the limit the P-squared markers take over: bounded memory, small
  // relative error. Exercise with 200k exponential draws (heavy tail).
  Rng r(23);
  std::vector<double> xs;
  StreamingQuantile q({50.0, 99.0}, 1024);
  for (int i = 0; i < 200000; ++i) {
    const double v = r.exponential(10.0);
    xs.push_back(v);
    q.add(v);
  }
  const double exact_p50 = percentile(xs, 50.0);
  const double exact_p99 = percentile(xs, 99.0);
  EXPECT_NEAR(q.quantile(50.0), exact_p50, 0.05 * exact_p50);
  EXPECT_NEAR(q.quantile(99.0), exact_p99, 0.05 * exact_p99);
  // The mean stays exact in either regime (plain running sum).
  EXPECT_DOUBLE_EQ(q.mean(), summarize(xs).mean);
  // The exact buffer is freed, not just cleared.
  EXPECT_EQ(q.exact_capacity(), 0u);
}

TEST(StreamingQuantile, TinySamplesAndEmptyBehave) {
  StreamingQuantile q({50.0});
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.mean(), 0.0);
  q.add(7.0);
  EXPECT_EQ(q.quantile(50.0), 7.0);  // single sample: every percentile is it
  q.add(9.0);
  q.add(8.0);
  EXPECT_EQ(q.quantile(50.0), 8.0);
  EXPECT_DOUBLE_EQ(q.mean(), 8.0);
}

// --- table -------------------------------------------------------------------

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.2345, 2)});
  t.add_row({"b", Table::pct(27.04, 1)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("27.0%"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream os;
  EXPECT_NO_THROW(t.print(os));
}

// --- stale_queue -------------------------------------------------------------

TEST(StaleQueue, FifoOrderAndExactCount) {
  StaleQueue<int> q;
  q.push(3);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.live_count(), 3);
  EXPECT_TRUE(q.contains(1));
  EXPECT_EQ(q.pop(), std::optional<int>(3));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.live_count(), 0);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(StaleQueue, InvalidateIsLazyAndIdempotent) {
  StaleQueue<int> q;
  q.push(10);
  q.push(11);
  EXPECT_TRUE(q.invalidate(10));
  EXPECT_FALSE(q.invalidate(10));  // already stale: no-op
  EXPECT_FALSE(q.invalidate(99));  // never queued: no-op
  EXPECT_EQ(q.live_count(), 1);
  EXPECT_FALSE(q.contains(10));
  // The stale entry is still physically queued until a pop scans past it.
  EXPECT_EQ(q.queued_entries(), 2u);
  EXPECT_EQ(q.pop(), std::optional<int>(11));
  EXPECT_EQ(q.queued_entries(), 0u);
}

TEST(StaleQueue, AbaReentryJoinsAtTheBack) {
  // The queue-jump bug the generation tag exists to kill: a key that leaves
  // the pool and re-enters must queue behind everyone, not revive its old
  // (earlier) entry.
  StaleQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_TRUE(q.invalidate(1));
  q.push(1);  // re-entry: fresh generation, at the back
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_FALSE(q.pop().has_value());
  // The superseded generation-1 entry for key 1 must not double-deliver.
  EXPECT_EQ(q.live_count(), 0);
}

TEST(StaleQueue, RepushDeliversEarliestSurvivingEntry) {
  // Predicate semantics: invalidation is revocable, so a repush makes the
  // key's *original* entry deliverable again — it does not lose its place.
  StaleQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_TRUE(q.invalidate(1));
  q.repush(1);  // duplicate at the back; the front entry is live again
  EXPECT_EQ(q.queued_entries(), 3u);
  EXPECT_EQ(q.live_count(), 2);
  EXPECT_EQ(q.pop(), std::optional<int>(1));  // front position, not the back
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  // The latent duplicate for 1 must not double-deliver.
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.queued_entries(), 0u);
}

TEST(StaleQueue, RepushAfterScanDiscardStartsOverAtTheBack) {
  StaleQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_TRUE(q.invalidate(1));
  // Pop scans past the dead entry for 1, physically discarding it.
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  q.repush(1);  // nothing left to resurrect: lands behind 3
  EXPECT_EQ(q.pop(), std::optional<int>(3));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
}

TEST(StaleQueue, RepushRoundTripsPreserveOnePositionAtATime) {
  // Several invalidate/repush round trips: each consumes one surviving
  // duplicate, earliest first — mirroring a pending task that is assigned,
  // requeued, and reassigned through the same node queue.
  StaleQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.pop(), std::optional<int>(1));  // assigned
  q.repush(1);                                // requeued: behind 2 now
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.live_count(), 0);
}

TEST(StaleQueue, PopConsumesThenInvalidateIsNoOp) {
  // The master pops a key, assigns it, then retires it from *every* queue it
  // might still sit in — including the one just popped. That second retire
  // must not corrupt the count.
  StaleQueue<int> q;
  q.push(5);
  EXPECT_EQ(q.pop(), std::optional<int>(5));
  EXPECT_FALSE(q.invalidate(5));
  EXPECT_EQ(q.live_count(), 0);
}

TEST(StaleQueue, PeekSkipsStalePrefixWithoutConsuming) {
  StaleQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_TRUE(q.invalidate(1));
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(*q.peek(), 2);
  EXPECT_EQ(q.live_count(), 1);          // peek consumed nothing
  EXPECT_EQ(q.queued_entries(), 2u);     // stale prefix left in place
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.peek(), nullptr);
}

TEST(StaleQueue, ManyGenerationsOfSameKey) {
  StaleQueue<int> q;
  for (int round = 0; round < 5; ++round) {
    q.push(7);
    EXPECT_TRUE(q.invalidate(7));
  }
  q.push(7);
  EXPECT_EQ(q.live_count(), 1);
  // Only the newest generation is delivered; the five stale entries are
  // silently discarded on the way.
  EXPECT_EQ(q.pop(), std::optional<int>(7));
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.queued_entries(), 0u);
}

// --- epoch -------------------------------------------------------------------

TEST(Epoch, TicketsValidUntilBumped) {
  Epoch e;
  const Epoch::Ticket t = e.ticket();
  EXPECT_TRUE(e.valid(t));
  e.bump();
  EXPECT_FALSE(e.valid(t));
  EXPECT_TRUE(e.valid(e.ticket()));
}

TEST(Epoch, BumpReturnsTheNewEpoch) {
  Epoch e;
  const Epoch::Ticket t1 = e.bump();
  EXPECT_TRUE(e.valid(t1));
  const Epoch::Ticket t2 = e.bump();
  EXPECT_NE(t1, t2);
  EXPECT_FALSE(e.valid(t1));
  EXPECT_TRUE(e.valid(t2));
}

TEST(Epoch, StaleCallbackGuardIdiom) {
  // The armed-callback pattern: capture a ticket, bump on teardown, and the
  // late-firing closure must see itself invalidated.
  Epoch e;
  int fired = 0;
  const Epoch::Ticket armed = e.ticket();
  auto callback = [&] {
    if (!e.valid(armed)) return;
    ++fired;
  };
  callback();
  EXPECT_EQ(fired, 1);
  e.bump();  // world torn down and rebuilt
  callback();
  EXPECT_EQ(fired, 1);  // neutralized, not re-fired
}

// --- args --------------------------------------------------------------------

std::vector<const char*> argv_of(std::initializer_list<const char*> parts) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), parts);
  return v;
}

TEST(Args, ParsesSpaceAndEqualsForms) {
  const auto v = argv_of({"--seeds", "12", "--code=rs:6,4", "file.txt"});
  const Args args(static_cast<int>(v.size()), v.data());
  EXPECT_EQ(args.get_int("seeds", 0), 12);
  EXPECT_EQ(args.get_or("code", ""), "rs:6,4");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file.txt");
}

TEST(Args, DefaultsWhenAbsent) {
  const auto v = argv_of({});
  const Args args(static_cast<int>(v.size()), v.data());
  EXPECT_EQ(args.get_int("seeds", 30), 30);
  EXPECT_DOUBLE_EQ(args.get_double("shuffle", 0.01), 0.01);
  EXPECT_FALSE(args.get("anything").has_value());
  EXPECT_FALSE(args.has("flag"));
}

TEST(Args, BooleanFlagWithoutValue) {
  const auto v = argv_of({"--normalize", "--seeds", "3"});
  const Args args(static_cast<int>(v.size()), v.data());
  EXPECT_TRUE(args.has("normalize"));
  EXPECT_EQ(args.get_int("seeds", 0), 3);
}

TEST(Args, UnrecognizedReportsUnqueriedFlags) {
  const auto v = argv_of({"--seeds", "3", "--tpyo", "x"});
  const Args args(static_cast<int>(v.size()), v.data());
  (void)args.get_int("seeds", 0);
  const auto unknown = args.unrecognized();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "tpyo");
}

TEST(Args, SplitBasics) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("lone", ','), (std::vector<std::string>{"lone"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{}));
  EXPECT_EQ(split("x,,y", ','), (std::vector<std::string>{"x", "", "y"}));
}

TEST(Args, NumericGettersRejectMalformedValues) {
  // atoi/atof would have read these as 2, 1 and 0: a strict whole-token
  // parse throws instead, naming the flag.
  const auto v = argv_of({"--seeds", "2x", "--hours", "1,5", "--skew", ""});
  const Args args(static_cast<int>(v.size()), v.data());
  try {
    (void)args.get_int("seeds", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--seeds: expected an integer, got '2x'");
  }
  EXPECT_THROW((void)args.get_double("hours", 2.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("skew", 0.0), std::invalid_argument);
}

TEST(Args, ParseNumberAcceptsWholeTokensOnly) {
  EXPECT_EQ(parse_number<int>("--n", "-42"), -42);
  EXPECT_EQ(parse_number<std::uint64_t>("--n", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parse_number<double>("--x", "2.5e-3"), 2.5e-3);
  EXPECT_DOUBLE_EQ(parse_number<double>("--x", "-0.5"), -0.5);
  for (const char* bad : {"", " 1", "1 ", "+1", "1x", "0x10", "1.0"}) {
    EXPECT_THROW((void)parse_number<int>("--n", bad), std::invalid_argument)
        << "'" << bad << "'";
  }
  for (const char* bad : {"", "1.5.2", "2x", "1,5", "inf", "nan", "1e999"}) {
    EXPECT_THROW((void)parse_number<double>("--x", bad), std::invalid_argument)
        << "'" << bad << "'";
  }
  EXPECT_THROW((void)parse_number<int>("--n", "2147483648"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_number<std::uint64_t>("--n", "-1"),
               std::invalid_argument);
  try {
    (void)parse_number<int>("--n", "99999999999");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--n: '99999999999' is out of range");
  }
}

TEST(Args, ParseDoubleListIsStrictPerItem) {
  EXPECT_EQ(parse_double_list("--t", "20,1"), (std::vector<double>{20.0, 1.0}));
  EXPECT_EQ(parse_double_list("--t", "3"), (std::vector<double>{3.0}));
  for (const char* bad : {"", "20x,1", "20,", ",1", "1,,2"}) {
    EXPECT_THROW((void)parse_double_list("--t", bad), std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(Jsonl, RecordShapeMatchesInlineStreaming) {
  std::ostringstream os;
  JsonlWriter w(os);
  w.begin("job").field("id", 3).field("runtime", 12.5).end();
  w.flush();
  EXPECT_EQ(os.str(), "{\"type\":\"job\",\"id\":3,\"runtime\":12.5}\n");
}

TEST(Jsonl, DestructorFlushesBufferedRecords) {
  std::ostringstream os;
  {
    JsonlWriter w(os);
    w.begin("job").field("id", 1).end();
    // Small output sits in the writer's buffer until a flush boundary.
    EXPECT_EQ(os.str(), "");
  }
  EXPECT_EQ(os.str(), "{\"type\":\"job\",\"id\":1}\n");
}

TEST(Jsonl, FlushDrainsPartialRecordBeforeDirectStreamUse) {
  std::ostringstream os;
  JsonlWriter w(os);
  w.begin("t").field("a", 1);
  w.flush();  // contract: flush before writing to the stream directly
  os << "|";
  w.field("b", 2).end();
  w.flush();
  EXPECT_EQ(os.str(), "{\"type\":\"t\",\"a\":1|,\"b\":2}\n");
}

TEST(Jsonl, CapturesStreamFormattingStateAtConstruction) {
  // Values must render exactly as `os << v` would have at the time the
  // writer was created, even though they are formatted internally now.
  std::ostringstream os;
  os.precision(10);
  JsonlWriter w(os);
  w.begin("t").field("v", 0.1234567891234).end();
  w.flush();
  EXPECT_EQ(os.str(), "{\"type\":\"t\",\"v\":0.1234567891}\n");
}

TEST(Jsonl, ManyRecordsMatchInlineStreamingByteForByte) {
  // Regression for the buffered rewrite: a multi-flush-window stream of
  // records must be byte-identical to the unbuffered inline chains.
  std::ostringstream inline_os;
  std::ostringstream os;
  {
    JsonlWriter w(os);
    for (int i = 0; i < 20000; ++i) {
      const double t = i * 0.137;
      w.begin("map").field("id", i).field("finish", t).end();
      inline_os << "{\"type\":\"map\",\"id\":" << i << ",\"finish\":" << t
                << "}\n";
    }
    // A 20k-record run crosses the flush threshold several times; some of
    // it must already have drained before destruction.
    EXPECT_NE(os.str(), "");
  }
  EXPECT_EQ(os.str(), inline_os.str());
}

TEST(Jsonl, NumbersUseDefaultStreamFormatting) {
  // The golden-corpus tests diff tool output byte-for-byte, so the writer
  // must not alter the ostream defaults (6 significant digits, no forced
  // decimal point) that the inline chains relied on.
  std::ostringstream inline_os;
  inline_os << 0.1 + 0.2 << ',' << 1234567.0 << ',' << 3.0;
  std::ostringstream os;
  JsonlWriter w(os);
  w.begin("t")
      .field("a", 0.1 + 0.2)
      .field("b", 1234567.0)
      .field("c", 3.0)
      .end();
  w.flush();
  EXPECT_EQ(os.str(),
            "{\"type\":\"t\",\"a\":0.3,\"b\":1.23457e+06,\"c\":3}\n");
  EXPECT_EQ(inline_os.str(), "0.3,1.23457e+06,3");
}

TEST(Jsonl, TextFieldsAreQuotedAndEscaped) {
  std::ostringstream os;
  JsonlWriter w(os);
  w.begin("t").text("kind", "deg\"raded\\x\n").end();
  w.flush();
  EXPECT_EQ(os.str(), "{\"type\":\"t\",\"kind\":\"deg\\\"raded\\\\x\\n\"}\n");
}

TEST(Jsonl, ArraysAndConditionalFieldsCompose) {
  std::ostringstream os;
  JsonlWriter w(os);
  const std::vector<int> nodes{4, 7};
  const std::vector<int> none;
  w.begin("failure").array("nodes", nodes).field("rack", 0);
  const int jobs_failed = 2;
  if (jobs_failed > 0) w.field("jobs_failed", jobs_failed);
  w.end();
  w.begin("failure").array("nodes", none).end();
  w.flush();
  EXPECT_EQ(os.str(),
            "{\"type\":\"failure\",\"nodes\":[4,7],\"rack\":0,"
            "\"jobs_failed\":2}\n"
            "{\"type\":\"failure\",\"nodes\":[]}\n");
}

}  // namespace
}  // namespace dfs::util
