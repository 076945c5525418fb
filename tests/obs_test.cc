#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/rgae_trainer.h"
#include "src/graph/generators.h"
#include "src/models/model_factory.h"
#include "src/obs/json.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/run_report.h"
#include "src/obs/trace.h"

namespace rgae {
namespace {

using obs::JsonValue;

/// RAII fixture turning instrumentation + tracing on for one test and
/// restoring a clean global state afterwards (other tests must not see
/// stray spans or counts).
class ObsScope {
 public:
  ObsScope() {
    obs::MetricsRegistry::Global().Reset();
    obs::TraceCollector::Global().Clear();
    obs::SetEnabled(true);
    obs::SetTraceEnabled(true);
  }
  ~ObsScope() {
    obs::SetEnabled(false);
    obs::SetTraceEnabled(false);
    obs::MetricsRegistry::Global().Reset();
    obs::TraceCollector::Global().Clear();
  }
};

// ---- JSON ------------------------------------------------------------------

TEST(JsonTest, DumpParseRoundTrip) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("name", JsonValue("spmm \"hot\" path\n"));
  obj.Set("count", JsonValue(42));
  obj.Set("mean", JsonValue(1.5));
  obj.Set("ok", JsonValue(true));
  obj.Set("missing", JsonValue::Null());
  JsonValue arr = JsonValue::MakeArray();
  arr.Append(JsonValue(1));
  arr.Append(JsonValue("two"));
  obj.Set("items", std::move(arr));

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(obj.Dump(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.Get("name")->string(), "spmm \"hot\" path\n");
  EXPECT_EQ(parsed.Get("count")->number(), 42.0);
  EXPECT_EQ(parsed.Get("mean")->number(), 1.5);
  EXPECT_TRUE(parsed.Get("ok")->bool_value());
  EXPECT_TRUE(parsed.Get("missing")->is_null());
  ASSERT_EQ(parsed.Get("items")->size(), 2u);
  EXPECT_EQ(parsed.Get("items")->at(1).string(), "two");

  // Pretty-printed output parses to the same document.
  JsonValue pretty;
  ASSERT_TRUE(JsonValue::Parse(obj.Dump(2), &pretty, &error)) << error;
  EXPECT_EQ(pretty.Dump(), parsed.Dump());
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  JsonValue out;
  EXPECT_FALSE(JsonValue::Parse("{", &out));
  EXPECT_FALSE(JsonValue::Parse("[1,]2", &out));
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing", &out));
  EXPECT_FALSE(JsonValue::Parse("nul", &out));
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  JsonValue v(std::nan(""));
  EXPECT_EQ(v.Dump(), "null");
}

// ---- Metrics ---------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeMath) {
  ObsScope scope;
  obs::Counter* c = obs::MetricsRegistry::Global().GetCounter("test.c");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5);
  // Same name resolves to the same counter.
  EXPECT_EQ(obs::MetricsRegistry::Global().GetCounter("test.c"), c);

  obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge("test.g");
  g->Set(2.5);
  g->Set(7.0);  // Last write wins.
  EXPECT_EQ(g->value(), 7.0);
}

TEST(MetricsTest, HistogramMathAndBuckets) {
  obs::Histogram h;
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(3.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 6.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 3.0);
  EXPECT_EQ(h.mean(), 2.0);

  // Bucket boundaries are inclusive upper bounds: 1 → le=1, 2 → le=2,
  // 3 → le=4; the overflow bucket catches everything past 2^30.
  EXPECT_EQ(obs::Histogram::BucketIndex(1.0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(2.0), 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(3.0), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(1e12),
            obs::Histogram::kNumBuckets - 1);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 1);

  const JsonValue json = h.ToJson();
  EXPECT_EQ(json.Get("count")->number(), 3.0);
  EXPECT_EQ(json.Get("mean")->number(), 2.0);
  EXPECT_EQ(json.Get("buckets")->size(), 3u);  // Only non-empty buckets.
}

TEST(MetricsTest, RegistrySnapshotAndReset) {
  ObsScope scope;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("snap.c")->Inc(3);
  reg.GetHistogram("snap.h")->Observe(10.0);

  const JsonValue json = reg.ToJson();
  EXPECT_EQ(json.Get("counters")->Get("snap.c")->number(), 3.0);
  EXPECT_EQ(json.Get("histograms")->Get("snap.h")->Get("count")->number(),
            1.0);

  reg.Reset();  // Zeroes in place; pointers stay valid.
  EXPECT_EQ(reg.GetCounter("snap.c")->value(), 0);
  EXPECT_EQ(reg.GetHistogram("snap.h")->count(), 0);
}

// ---- Spans / trace ---------------------------------------------------------

TEST(TraceTest, TimersNestIntoATree) {
  ObsScope scope;
  {
    obs::ScopedTimer outer("outer");
    {
      obs::ScopedTimer inner("inner");
      obs::ScopedTimer innermost("innermost");
    }
    obs::ScopedTimer sibling("sibling");
  }
  const std::vector<obs::TraceEvent> events =
      obs::TraceCollector::Global().Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[0].parent, -1);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[1].parent, 0);
  EXPECT_EQ(events[2].name, "innermost");
  EXPECT_EQ(events[2].depth, 2);
  EXPECT_EQ(events[2].parent, 1);
  EXPECT_EQ(events[3].name, "sibling");
  EXPECT_EQ(events[3].depth, 1);
  EXPECT_EQ(events[3].parent, 0);
  for (const obs::TraceEvent& e : events) {
    EXPECT_GE(e.dur_us, 0) << e.name;  // All spans closed.
    EXPECT_GE(e.start_us, 0) << e.name;
  }
  // Children are contained in their parents' intervals.
  EXPECT_GE(events[1].start_us, events[0].start_us);
  EXPECT_LE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
}

TEST(TraceTest, DisabledTimersRecordNothing) {
  obs::MetricsRegistry::Global().Reset();
  obs::TraceCollector::Global().Clear();
  ASSERT_FALSE(obs::Enabled());
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram("off.us");
  {
    obs::ScopedTimer t("off", h);
  }
  EXPECT_EQ(obs::TraceCollector::Global().size(), 0u);
  EXPECT_EQ(h->count(), 0);
}

TEST(TraceTest, ScopedTimerFeedsHistogramWithoutTracing) {
  ObsScope scope;
  obs::SetTraceEnabled(false);  // Metrics on, spans off.
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram("t.us");
  {
    obs::ScopedTimer t("t", h);
  }
  EXPECT_EQ(h->count(), 1);
  EXPECT_EQ(obs::TraceCollector::Global().size(), 0u);
}

TEST(TraceTest, ChromeTraceRoundTrips) {
  ObsScope scope;
  {
    obs::ScopedTimer outer("phase");
    obs::ScopedTimer inner("kernel");
  }
  const JsonValue doc = obs::TraceCollector::Global().ChromeTraceJson();
  // Round-trip through text, as chrome://tracing would read it.
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(doc.Dump(), &parsed, &error)) << error;
  const JsonValue* events = parsed.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 2u);
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    EXPECT_EQ(e.Get("ph")->string(), "X");
    EXPECT_EQ(e.Get("cat")->string(), "rgae");
    EXPECT_TRUE(e.Get("ts")->is_number());
    EXPECT_TRUE(e.Get("dur")->is_number());
    EXPECT_TRUE(e.Get("pid")->is_number());
    EXPECT_TRUE(e.Get("tid")->is_number());
  }
  EXPECT_EQ(events->at(0).Get("name")->string(), "phase");
  EXPECT_EQ(events->at(1).Get("name")->string(), "kernel");
  EXPECT_EQ(parsed.Get("displayTimeUnit")->string(), "ms");
}

TEST(MetricsTest, HistogramEdgeBuckets) {
  // The base-2 bucket ladder at its edges: zero and one both land in the
  // first bucket (le=1), anything past 2^30 lands in the overflow bucket,
  // and a negative observation (a clock surprise) must not fall off the
  // bottom of the ladder.
  EXPECT_EQ(obs::Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1.0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(-5.0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(std::numeric_limits<double>::max()),
            obs::Histogram::kNumBuckets - 1);
  EXPECT_TRUE(std::isinf(
      obs::Histogram::BucketUpperBound(obs::Histogram::kNumBuckets - 1)));

  obs::Histogram h;
  h.Observe(0.0);
  h.Observe(1.0);
  h.Observe(1e18);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(obs::Histogram::kNumBuckets - 1), 1);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 1e18);
  // ToJson emits the overflow bucket with a null upper bound.
  const JsonValue json = h.ToJson();
  const JsonValue* buckets = json.Get("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->size(), 2u);
  EXPECT_EQ(buckets->at(0).Get("le")->number(), 1.0);
  EXPECT_EQ(buckets->at(0).Get("count")->number(), 2.0);
  EXPECT_TRUE(buckets->at(1).Get("le")->is_null());
  EXPECT_EQ(buckets->at(1).Get("count")->number(), 1.0);
}

TEST(TraceTest, ThrowingSpanStillClosesItsTraceEvent) {
  ObsScope scope;
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram("boom.us");
  try {
    obs::ScopedTimer t("boom", h);
    throw std::runtime_error("mid-span failure");
  } catch (const std::runtime_error&) {
  }
  const std::vector<obs::TraceEvent> events =
      obs::TraceCollector::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "boom");
  // dur_us is -1 while a span is open; unwinding must have closed it.
  EXPECT_GE(events[0].dur_us, 0);
  EXPECT_EQ(h->count(), 1);
  // The thread-local nesting stack unwound too: the next span is a root.
  {
    obs::ScopedTimer t("after");
  }
  const std::vector<obs::TraceEvent> after =
      obs::TraceCollector::Global().Snapshot();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].depth, 0);
  EXPECT_EQ(after[1].parent, -1);
}

TEST(TraceTest, ZeroDurationSpanIsClampedNonNegative) {
  ObsScope scope;
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram("fast.us");
  // An empty body is faster than the microsecond tick; the monotonic
  // guard must record 0, never a negative duration.
  for (int i = 0; i < 100; ++i) {
    obs::ScopedTimer t("fast", h);
  }
  EXPECT_EQ(h->count(), 100);
  EXPECT_GE(h->min(), 0.0);
  for (const obs::TraceEvent& e :
       obs::TraceCollector::Global().Snapshot()) {
    EXPECT_GE(e.dur_us, 0);
  }
  const JsonValue doc = obs::TraceCollector::Global().ChromeTraceJson();
  const JsonValue* events = doc.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  for (size_t i = 0; i < events->size(); ++i) {
    EXPECT_GE(events->at(i).Get("dur")->number(), 0.0);
  }
}

TEST(TraceTest, ConcurrentWritersKeepTheCollectorConsistent) {
  ObsScope scope;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::ScopedTimer outer("mt.outer");
        obs::ScopedTimer inner("mt.inner");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::vector<obs::TraceEvent> events =
      obs::TraceCollector::Global().Snapshot();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread * 2);
  EXPECT_EQ(obs::TraceCollector::Global().dropped(), 0);
  for (const obs::TraceEvent& e : events) {
    EXPECT_GE(e.dur_us, 0) << e.name;  // Every span closed.
    // Nesting is tracked per thread: inner spans parent onto an outer
    // span from the SAME thread.
    if (e.parent >= 0) {
      const obs::TraceEvent& parent = events[e.parent];
      EXPECT_EQ(parent.tid, e.tid);
      EXPECT_EQ(parent.name, "mt.outer");
      EXPECT_EQ(e.name, "mt.inner");
    }
  }
}

// ---- Logger ----------------------------------------------------------------

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(LogTest, JsonlSinkRoundTripsAndFiltersByLevel) {
  const std::string path = ::testing::TempDir() + "/rgae_obs_log_test.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::SetLogJsonlPath(path));
  obs::SetLogStderr(false);
  const obs::LogLevel old_level = obs::GetLogLevel();

  obs::SetLogLevel(obs::LogLevel::kWarn);
  RGAE_LOG(kInfo).Event("filtered.out").Field("x", 1);   // Below threshold.
  RGAE_LOG(kWarn).Event("kept.warn").Field("epoch", 12).Field("lr", 0.5);
  RGAE_LOG(kError).Event("kept.error").Msg("boom boom");

  obs::SetLogLevel(obs::LogLevel::kOff);
  RGAE_LOG(kError).Event("filtered.off");

  obs::SetLogJsonlPath("");  // Close sink before reading.
  obs::SetLogStderr(true);
  obs::SetLogLevel(old_level);

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  JsonValue warn, error;
  std::string perr;
  ASSERT_TRUE(JsonValue::Parse(lines[0], &warn, &perr)) << perr;
  ASSERT_TRUE(JsonValue::Parse(lines[1], &error, &perr)) << perr;
  EXPECT_EQ(warn.Get("level")->string(), "warn");
  EXPECT_EQ(warn.Get("event")->string(), "kept.warn");
  EXPECT_EQ(warn.Get("epoch")->number(), 12.0);
  EXPECT_EQ(warn.Get("lr")->number(), 0.5);
  EXPECT_TRUE(warn.Get("ts_us")->is_number());
  EXPECT_EQ(error.Get("level")->string(), "error");
  EXPECT_EQ(error.Get("msg")->string(), "boom boom");
}

// ---- Run reports -----------------------------------------------------------

TEST(RunReportTest, EpochRecordSentinelsBecomeNull) {
  EpochRecord record;  // Everything untracked.
  record.epoch = 7;
  record.loss = 0.25;
  const JsonValue json = obs::EpochRecordJson(record);
  EXPECT_EQ(json.Get("epoch")->number(), 7.0);
  EXPECT_EQ(json.Get("loss")->number(), 0.25);
  for (const char* key :
       {"acc", "nmi", "ari", "lambda_fr_plain", "lambda_fr_r",
        "lambda_fd_plain", "lambda_fd_r", "omega_size", "omega_acc",
        "rest_acc", "self_links", "self_true_links", "self_false_links",
        "separability", "upsilon"}) {
    ASSERT_NE(json.Get(key), nullptr) << key;
    EXPECT_TRUE(json.Get(key)->is_null()) << key << " should be null";
  }
  // The serialized text carries no sentinel values at all.
  const std::string text = json.Dump();
  EXPECT_EQ(text.find("-1"), std::string::npos) << text;
  EXPECT_EQ(text.find("-2"), std::string::npos) << text;
}

TEST(RunReportTest, TrackedFieldsSurviveIncludingNegativeLambdas) {
  EpochRecord record;
  record.acc = 0.0;               // Legitimate zero, not a sentinel.
  record.lambda_fr_plain = -0.8;  // Legitimate negative cosine.
  record.omega_size = 33;
  record.upsilon_ran = true;
  record.upsilon_stats.added_edges = 4;
  const JsonValue json = obs::EpochRecordJson(record);
  EXPECT_EQ(json.Get("acc")->number(), 0.0);
  EXPECT_EQ(json.Get("lambda_fr_plain")->number(), -0.8);
  EXPECT_EQ(json.Get("omega_size")->number(), 33.0);
  EXPECT_EQ(json.Get("upsilon")->Get("added_edges")->number(), 4.0);
}

TEST(RunReportTest, BenchDocumentShape) {
  ObsScope scope;
  TrialOutcome outcome;
  outcome.result.scores.acc = 0.5;
  outcome.result.cluster_epochs_run = 3;
  obs::RunReportInfo info;
  info.model = "GAE";
  info.dataset = "Cora";
  info.variant = "base";
  info.trial = 0;
  info.seed = 1;
  std::vector<JsonValue> reports;
  reports.push_back(obs::RunReportJson(info, outcome));
  const JsonValue doc = obs::BenchDocument("unit_test", std::move(reports));
  EXPECT_EQ(doc.Get("schema")->string(), "rgae.bench.v1");
  EXPECT_EQ(doc.Get("bench")->string(), "unit_test");
  ASSERT_EQ(doc.Get("trials")->size(), 1u);
  const JsonValue& trial = doc.Get("trials")->at(0);
  EXPECT_EQ(trial.Get("model")->string(), "GAE");
  EXPECT_EQ(trial.Get("scores")->Get("acc")->number(), 0.5);
  EXPECT_TRUE(trial.Get("failure_reason")->is_null());
  ASSERT_NE(doc.Get("metrics"), nullptr);
  EXPECT_TRUE(doc.Get("metrics")->Get("counters")->is_object());
}

// ---- End-to-end: instrumented trainer run ----------------------------------

AttributedGraph TinyGraph(uint64_t seed = 1) {
  CitationLikeOptions o;
  o.num_nodes = 70;
  o.num_clusters = 3;
  o.feature_dim = 50;
  o.topic_words = 14;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(seed);
  return MakeCitationLike(o, rng);
}

TEST(ObsIntegrationTest, TrainerRunPopulatesSpansAndMetrics) {
  ObsScope scope;
  const AttributedGraph g = TinyGraph();
  ModelOptions mo;
  mo.hidden_dim = 12;
  mo.latent_dim = 6;
  mo.seed = 5;
  auto model = CreateModel("DGAE", g, mo);
  TrainerOptions opts;
  opts.pretrain_epochs = 8;
  opts.max_cluster_epochs = 6;
  opts.m1 = 5;
  opts.m2 = 5;
  opts.seed = 11;
  opts.use_operators = true;
  opts.xi.alpha1 = 0.2;
  opts.resilience.enabled = true;
  RGaeTrainer trainer(model.get(), opts);
  const TrainResult result = trainer.Run();
  EXPECT_FALSE(result.failed);

  // Spans: both phases, per-epoch spans nested under them, kernels below.
  const std::vector<obs::TraceEvent> events =
      obs::TraceCollector::Global().Snapshot();
  std::set<std::string> names;
  int pretrain_idx = -1, cluster_idx = -1;
  for (size_t i = 0; i < events.size(); ++i) {
    names.insert(events[i].name);
    if (events[i].name == "train.pretrain")
      pretrain_idx = static_cast<int>(i);
    if (events[i].name == "train.cluster") cluster_idx = static_cast<int>(i);
  }
  for (const char* expected :
       {"train.pretrain", "train.cluster", "epoch.pretrain", "epoch.cluster",
        "kernel.spmm", "kernel.matmul", "tape.backward", "op.xi",
        "op.upsilon", "ckpt.capture"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
  }
  ASSERT_GE(pretrain_idx, 0);
  ASSERT_GE(cluster_idx, 0);
  int pretrain_epochs = 0;
  bool kernel_under_epoch = false;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "epoch.pretrain") {
      EXPECT_EQ(e.parent, pretrain_idx);
      ++pretrain_epochs;
    }
    if (e.name == "kernel.spmm" && e.depth >= 2) kernel_under_epoch = true;
  }
  // GE, not EQ: a resilience rollback would legitimately re-run epochs.
  EXPECT_GE(pretrain_epochs, opts.pretrain_epochs);
  EXPECT_TRUE(kernel_under_epoch);

  // Metrics: kernel histograms and trainer counters are populated.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_GT(reg.GetHistogram("kernel.spmm.us")->count(), 0);
  EXPECT_GT(reg.GetHistogram("kernel.matmul.us")->count(), 0);
  EXPECT_GT(reg.GetHistogram("tape.backward.us")->count(), 0);
  EXPECT_GT(reg.GetHistogram("op.xi.us")->count(), 0);
  EXPECT_GE(reg.GetCounter("trainer.epochs.pretrain")->value(),
            opts.pretrain_epochs);
  EXPECT_GT(reg.GetCounter("tape.op.spmm")->value(), 0);
  EXPECT_GT(reg.GetCounter("ckpt.captures")->value(), 0);

  // The run exports a loadable Chrome trace.
  const std::string path = ::testing::TempDir() + "/rgae_trainer_trace.json";
  std::string error;
  ASSERT_TRUE(
      obs::TraceCollector::Global().WriteChromeTrace(path, &error))
      << error;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(buffer.str(), &parsed, &error)) << error;
  EXPECT_GT(parsed.Get("traceEvents")->size(), 0u);
  std::remove(path.c_str());
}

TEST(ObsIntegrationTest, FirstGroupRefreshFitsStayOffTheCallersScope) {
  // A first-group refresh fits its two GMMs as pool tasks inside one
  // op.refresh_fits span. A fit on the calling thread nests under that
  // span; a fit on a pool worker opens its kernel spans as roots of the
  // worker's thread, never under the caller's scope, where they would
  // overlap their siblings.
  ObsScope scope;
  const AttributedGraph g = TinyGraph();
  ModelOptions mo;
  mo.hidden_dim = 12;
  mo.latent_dim = 6;
  mo.seed = 5;
  auto model = CreateModel("GAE", g, mo);
  TrainerOptions opts;
  opts.pretrain_epochs = 8;
  opts.first_group_transform_start = 4;
  opts.m2 = 1;
  opts.seed = 11;
  opts.use_operators = true;
  opts.xi.alpha1 = 0.2;
  RGaeTrainer trainer(model.get(), opts);
  ASSERT_TRUE(trainer.Pretrain());

  const std::vector<obs::TraceEvent> events =
      obs::TraceCollector::Global().Snapshot();
  uint64_t caller = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "train.pretrain") caller = e.tid;
  }
  int refreshes = 0;
  int fits = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "op.refresh_fits") {
      ++refreshes;
      ASSERT_GE(e.parent, 0);
      EXPECT_EQ(events[e.parent].name, "epoch.pretrain");
      EXPECT_EQ(e.tid, caller);
    }
    if (e.name != "kernel.gmm_em") continue;
    ++fits;
    int up = e.parent;
    while (up >= 0 && events[up].name != "op.refresh_fits") {
      up = events[up].parent;
    }
    if (up >= 0) {
      EXPECT_EQ(e.tid, caller);
    } else {
      EXPECT_EQ(e.parent, -1);
      EXPECT_NE(e.tid, caller);
    }
  }
  EXPECT_EQ(refreshes, 4);  // Epochs 4 to 7.
  EXPECT_EQ(fits, 2 * refreshes);
}

}  // namespace
}  // namespace rgae
