#ifndef RGAE_BENCH_BENCH_COMMON_H_
#define RGAE_BENCH_BENCH_COMMON_H_

// Shared helpers for the table/figure bench binaries. Every bench prints
// paper-style rows to stdout; effort scales with the RGAE_TRIALS and
// RGAE_EPOCH_SCALE environment variables (see eval/harness.h).
//
// Observability: constructing a `BenchObs` at the top of main() gives every
// bench binary these flags (consumed before any other argv processing):
//   --json=<path>   write a machine-readable `rgae.bench.v1` document with
//                   one RunReport per trial plus a MetricsRegistry snapshot
//   --trace=<path>  export a Chrome `chrome://tracing` span trace
//   --log-jsonl=<path>  route structured log records to a JSONL file
// Either of the first two also turns instrumentation on (unless
// RGAE_OBS_ENABLED=0 forces it off, the perf-baseline escape hatch).
//
// Crash safety (DESIGN.md §5.1):
//   --journal=<path>      append every completed trial to a resumable
//                         `rgae.journal.v1` JSONL journal; re-running with
//                         the same journal skips the recorded trials and
//                         replays their outcomes bit-identically
// SIGINT/SIGTERM request a cooperative stop: the running trial finishes its
// current epoch, is neither journaled nor aggregated, sinks are flushed, and
// a second signal force-exits. A failed trial is reported failed and dropped
// by `AggregateTrials`; a run that takes too long is stopped with SIGINT and
// resumed from its journal.

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/stop.h"
#include "src/eval/datasets.h"
#include "src/eval/harness.h"
#include "src/eval/run_journal.h"
#include "src/eval/table.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/run_report.h"
#include "src/obs/trace.h"

namespace rgae_bench {

/// Linear-interpolated percentile of an ascending-sorted sample set;
/// `p` in [0, 100]. Returns 0 for an empty set.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double clamped = std::min(100.0, std::max(0.0, p));
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

/// Latency/runtime distribution of one sample set. Units follow the input
/// (the serve bench feeds microseconds, the table benches seconds).
struct LatencySummary {
  long long count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Sorts a copy of `samples` and reads off mean/min/max/p50/p95/p99.
inline LatencySummary SummarizeLatencies(std::vector<double> samples) {
  LatencySummary s;
  s.count = static_cast<long long>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.min = samples.front();
  s.max = samples.back();
  s.p50 = PercentileSorted(samples, 50.0);
  s.p95 = PercentileSorted(samples, 95.0);
  s.p99 = PercentileSorted(samples, 99.0);
  return s;
}

/// JSON object form of a summary, used by the serve bench report (the
/// fields `scripts/check_bench_json.py` validates for bench_serve).
inline rgae::obs::JsonValue LatencySummaryJson(const LatencySummary& s) {
  rgae::obs::JsonValue out = rgae::obs::JsonValue::MakeObject();
  out.Set("count", rgae::obs::JsonValue(s.count));
  out.Set("mean", rgae::obs::JsonValue(s.mean));
  out.Set("min", rgae::obs::JsonValue(s.min));
  out.Set("max", rgae::obs::JsonValue(s.max));
  out.Set("p50", rgae::obs::JsonValue(s.p50));
  out.Set("p95", rgae::obs::JsonValue(s.p95));
  out.Set("p99", rgae::obs::JsonValue(s.p99));
  return out;
}

/// First signal: cooperative stop (trainers bail at the next epoch
/// boundary, loops stop starting trials, sinks flush on the way out).
/// Second signal: the run is wedged or the user is impatient — die now.
/// Only async-signal-safe calls here (atomic store / _Exit).
inline void BenchSignalHandler(int /*sig*/) {
  if (rgae::GlobalStopRequested()) std::_Exit(130);
  rgae::RequestGlobalStop();
}

/// Per-binary observability session. Parses and removes its flags from
/// argv (so benches with their own arg handling, e.g. google-benchmark,
/// see a clean command line), collects one RunReport per executed trial,
/// and writes the requested sinks on destruction.
class BenchObs {
 public:
  BenchObs(int* argc, char** argv, std::string bench_name)
      : bench_(std::move(bench_name)) {
    std::string journal_path;
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      if (std::strncmp(argv[i], "--json=", 7) == 0) {
        json_path_ = argv[i] + 7;
      } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
        trace_path_ = argv[i] + 8;
      } else if (std::strncmp(argv[i], "--log-jsonl=", 12) == 0) {
        rgae::obs::SetLogJsonlPath(argv[i] + 12);
      } else if (std::strncmp(argv[i], "--journal=", 10) == 0) {
        journal_path = argv[i] + 10;
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
    if (!json_path_.empty() || !trace_path_.empty()) {
      rgae::obs::SetEnabled(true);
      // The profile tree rides the same sinks (a `profile` block in the
      // JSON document, span attribution in the trace).
      rgae::obs::SetProfileEnabled(true);
    }
    if (!trace_path_.empty()) rgae::obs::SetTraceEnabled(true);

    if (!journal_path.empty()) {
      std::string error;
      if (journal_.Open(journal_path, &error)) {
        std::printf("trial journal: %s (%zu completed trial(s) on file)\n",
                    journal_path.c_str(), journal_.size());
      } else {
        std::fprintf(stderr, "cannot open trial journal: %s\n",
                     error.c_str());
        std::exit(2);  // Running un-journaled would discard work silently.
      }
    }
    rgae::ClearGlobalStop();
    std::signal(SIGINT, BenchSignalHandler);
    std::signal(SIGTERM, BenchSignalHandler);
    active_ = this;
  }

  /// Convenience overload for benches that take no other arguments.
  BenchObs(int argc, char** argv, std::string bench_name)
      : BenchObs(&argc, argv, std::move(bench_name)) {}

  ~BenchObs() {
    active_ = nullptr;
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    if (rgae::GlobalStopRequested()) {
      std::printf(
          "bench interrupted: partial results; journaled trials resume on "
          "the next run\n");
    }
    std::string error;
    if (!json_path_.empty()) {
      rgae::obs::JsonValue doc =
          rgae::obs::BenchDocument(bench_, std::move(trials_));
      for (auto& [key, value] : extras_) doc.Set(key, std::move(value));
      if (rgae::obs::WriteJsonFile(doc, json_path_, &error)) {
        std::printf("bench json written: %s\n", json_path_.c_str());
      } else {
        RGAE_LOG(kError).Event("bench.json_failed").Msg(error);
      }
    }
    if (!trace_path_.empty()) {
      if (rgae::obs::TraceCollector::Global().WriteChromeTrace(trace_path_,
                                                               &error)) {
        std::printf("chrome trace written: %s (load via chrome://tracing)\n",
                    trace_path_.c_str());
      } else {
        RGAE_LOG(kError).Event("bench.trace_failed").Msg(error);
      }
    }
  }

  BenchObs(const BenchObs&) = delete;
  BenchObs& operator=(const BenchObs&) = delete;

  /// The session of this binary, or null when main() did not create one
  /// (unit tests using bench helpers, for example).
  static BenchObs* active() { return active_; }

  void RecordTrial(const rgae::obs::RunReportInfo& info,
                   const rgae::TrialOutcome& outcome) {
    if (json_path_.empty()) return;  // Reports only feed the JSON sink.
    trials_.push_back(rgae::obs::RunReportJson(info, outcome));
  }

  /// Attaches a top-level section to the `--json` document (e.g. the serve
  /// bench's "serve" latency report). Replaces an existing key.
  void SetExtra(const std::string& key, rgae::obs::JsonValue value) {
    for (auto& [existing, stored] : extras_) {
      if (existing == key) {
        stored = std::move(value);
        return;
      }
    }
    extras_.emplace_back(key, std::move(value));
  }

  /// True when `--json=` was given (extras and trial reports will be
  /// written on destruction).
  bool json_requested() const { return !json_path_.empty(); }

  /// The journal behind `--journal=`, or null when the run is unjournaled.
  rgae::RunJournal* journal() {
    return journal_.is_open() ? &journal_ : nullptr;
  }

 private:
  inline static BenchObs* active_ = nullptr;

  std::string bench_;
  std::string json_path_;
  std::string trace_path_;
  std::vector<rgae::obs::JsonValue> trials_;
  std::vector<std::pair<std::string, rgae::obs::JsonValue>> extras_;
  rgae::RunJournal journal_;
};

inline void RecordTrialReport(const std::string& model,
                              const std::string& dataset, const char* variant,
                              int trial, uint64_t seed,
                              const rgae::TrialOutcome& outcome) {
  if (BenchObs* session = BenchObs::active()) {
    rgae::obs::RunReportInfo info;
    info.model = model;
    info.dataset = dataset;
    info.variant = variant;
    info.trial = trial;
    info.seed = seed;
    session->RecordTrial(info, outcome);
  }
}

/// Per-method aggregate over trials for one dataset.
struct MethodResult {
  rgae::Aggregate base;
  rgae::Aggregate rvariant;
};

inline rgae::RunJournal* ActiveJournal() {
  BenchObs* session = BenchObs::active();
  return session != nullptr ? session->journal() : nullptr;
}

/// Journals one completed trial; a write failure aborts the bench rather
/// than silently continuing with a journal that no longer matches reality.
inline void JournalTrial(rgae::RunJournal* journal, std::string key,
                         const std::string& model, const std::string& dataset,
                         const char* variant, int trial, uint64_t seed,
                         const rgae::TrialOutcome& outcome) {
  rgae::JournalRecord record;
  record.key = std::move(key);
  record.model = model;
  record.dataset = dataset;
  record.variant = variant;
  record.trial = trial;
  record.seed = seed;
  record.outcome = outcome;
  std::string error;
  if (!journal->Append(record, &error)) {
    std::fprintf(stderr, "trial journal append failed: %s\n", error.c_str());
    std::exit(2);
  }
}

/// Runs `trials` shared-pretrain couples of `model` on fresh instances of
/// `dataset` (trial t uses generation seed `t+1`), mutating the config via
/// `tweak` when non-null. Under an active `BenchObs`: completed couples are
/// journaled, journaled couples are skipped on resume (their recorded
/// outcomes are replayed), and a requested stop ends the loop between
/// trials.
inline MethodResult RunCoupleTrials(
    const std::string& model, const std::string& dataset, int trials,
    void (*tweak)(rgae::CoupleConfig*) = nullptr) {
  rgae::RunJournal* journal = ActiveJournal();
  std::vector<rgae::TrialOutcome> base_trials, r_trials;
  for (int t = 0; t < trials; ++t) {
    const uint64_t seed = static_cast<uint64_t>(t) + 1;
    rgae::CoupleConfig config = rgae::MakeCoupleConfig(model, dataset, seed);
    if (tweak != nullptr) tweak(&config);
    config.base.trial_id = t;
    config.rvariant.trial_id = t;
    rgae::CoupleOutcome outcome;
    std::string base_key, r_key;
    const rgae::JournalRecord* base_rec = nullptr;
    const rgae::JournalRecord* r_rec = nullptr;
    if (journal != nullptr) {
      base_key = rgae::TrialConfigKey(model, dataset, "base", t,
                                      config.model_options, config.base);
      r_key = rgae::TrialConfigKey(model, dataset, "r", t,
                                   config.model_options, config.rvariant);
      base_rec = journal->Find(base_key);
      r_rec = journal->Find(r_key);
    }
    if (base_rec != nullptr && r_rec != nullptr) {
      // Both halves are on file: replay without building the dataset.
      outcome.base = base_rec->outcome;
      outcome.rmodel = r_rec->outcome;
      RGAE_COUNT("journal.replayed_trials");
    } else {
      if (rgae::GlobalStopRequested()) break;
      const rgae::AttributedGraph graph = rgae::MakeDataset(dataset, seed);
      outcome = rgae::RunCouple(config, graph);
      // An interrupted couple is a partial run — never journaled, never
      // aggregated; the resumed run re-executes it from scratch.
      if (rgae::GlobalStopRequested()) break;
      if (journal != nullptr) {
        JournalTrial(journal, std::move(base_key), model, dataset, "base", t,
                     seed, outcome.base);
        JournalTrial(journal, std::move(r_key), model, dataset, "r", t, seed,
                     outcome.rmodel);
      }
    }
    RecordTrialReport(model, dataset, "base", t, seed, outcome.base);
    RecordTrialReport(model, dataset, "r", t, seed, outcome.rmodel);
    base_trials.push_back(std::move(outcome.base));
    r_trials.push_back(std::move(outcome.rmodel));
  }
  return {rgae::AggregateTrials(base_trials),
          rgae::AggregateTrials(r_trials)};
}

/// Runs `trials` single runs of one configuration on fresh `dataset`
/// instances and aggregates. Journal and stop semantics match
/// `RunCoupleTrials`.
inline rgae::Aggregate RunSingleTrials(
    const std::string& model, const std::string& dataset, int trials,
    bool use_operators,
    void (*tweak)(rgae::TrainerOptions*) = nullptr) {
  rgae::RunJournal* journal = ActiveJournal();
  const char* variant = use_operators ? "r" : "base";
  std::vector<rgae::TrialOutcome> outcomes;
  for (int t = 0; t < trials; ++t) {
    const uint64_t seed = static_cast<uint64_t>(t) + 1;
    rgae::CoupleConfig config = rgae::MakeCoupleConfig(model, dataset, seed);
    rgae::TrainerOptions opts =
        use_operators ? config.rvariant : config.base;
    if (tweak != nullptr) tweak(&opts);
    opts.trial_id = t;
    rgae::TrialOutcome outcome;
    std::string key;
    const rgae::JournalRecord* rec = nullptr;
    if (journal != nullptr) {
      key = rgae::TrialConfigKey(model, dataset, variant, t,
                                 config.model_options, opts);
      rec = journal->Find(key);
    }
    if (rec != nullptr) {
      outcome = rec->outcome;
      RGAE_COUNT("journal.replayed_trials");
    } else {
      if (rgae::GlobalStopRequested()) break;
      const rgae::AttributedGraph graph = rgae::MakeDataset(dataset, seed);
      outcome = rgae::RunSingle(model, graph, config.model_options, opts);
      if (rgae::GlobalStopRequested()) break;
      if (journal != nullptr) {
        JournalTrial(journal, std::move(key), model, dataset, variant, t,
                     seed, outcome);
      }
    }
    RecordTrialReport(model, dataset, variant, t, seed, outcome);
    outcomes.push_back(std::move(outcome));
  }
  return rgae::AggregateTrials(outcomes);
}

/// Three "best" score cells (ACC NMI ARI) as strings.
inline std::vector<std::string> BestCells(const rgae::Aggregate& a) {
  return {rgae::FormatPct(a.best.acc), rgae::FormatPct(a.best.nmi),
          rgae::FormatPct(a.best.ari)};
}

/// Three "mean ± std" score cells.
inline std::vector<std::string> MeanCells(const rgae::Aggregate& a) {
  return {rgae::FormatMeanStd(a.mean.acc, a.stddev.acc),
          rgae::FormatMeanStd(a.mean.nmi, a.stddev.nmi),
          rgae::FormatMeanStd(a.mean.ari, a.stddev.ari)};
}

inline void AppendCells(std::vector<std::string>* row,
                        const std::vector<std::string>& cells) {
  row->insert(row->end(), cells.begin(), cells.end());
}

inline void PrintRunBanner(const char* what, int trials = -1) {
  std::printf("rgae bench: %s (trials=%d, epoch_scale=%.2f)\n", what,
              trials > 0 ? trials : rgae::NumTrialsFromEnv(),
              rgae::EpochScaleFromEnv());
  std::fflush(stdout);
}

}  // namespace rgae_bench

#endif  // RGAE_BENCH_BENCH_COMMON_H_
