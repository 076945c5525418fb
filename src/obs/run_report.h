#ifndef RGAE_OBS_RUN_REPORT_H_
#define RGAE_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/eval/harness.h"
#include "src/obs/json.h"

namespace rgae {
namespace obs {

/// Machine-readable run reports: one JSON document per trial, assembled
/// from a `TrialOutcome` / `TrainResult` plus identifying metadata, and a
/// top-level bench document (`rgae.bench.v1`) bundling the trial reports
/// with a `MetricsRegistry` snapshot. `bench_common.h` wires this into
/// every bench binary behind `--json=<path>`;
/// `scripts/check_bench_json.py` schema-checks the output.

/// Identifies one trial inside a bench run.
struct RunReportInfo {
  std::string model;    // "GAE", … (empty when not applicable).
  std::string dataset;  // Registry name.
  std::string variant;  // "base" or "r".
  int trial = 0;
  uint64_t seed = 0;
};

/// One trace row. Untracked sentinel fields (-1 scores, -2 Λ diagnostics,
/// -1 dynamics counters) are emitted as JSON `null`, never as their
/// sentinel values, so downstream plots cannot ingest them as data.
JsonValue EpochRecordJson(const EpochRecord& record);

/// Scores + timing + resilience outcome + per-epoch trace of one run.
JsonValue TrainResultJson(const TrainResult& result);

/// Full per-trial document: info + TrainResultJson fields.
JsonValue RunReportJson(const RunReportInfo& info, const TrialOutcome& outcome);

/// Top-level bench document:
/// {"schema":"rgae.bench.v1","bench":…,"trials":[…],"memory":{…},
///  "metrics":{…},"profile":{…},"dropped_trace_events":…}. `trials`
/// entries must come from `RunReportJson`; `memory` is
/// `MemoryReportJson()` and `profile` is `Profiler::ToJson()`.
JsonValue BenchDocument(const std::string& bench_name,
                        std::vector<JsonValue> trial_reports);

/// Writes `doc.Dump(2)` to `path`. Returns false on I/O error.
bool WriteJsonFile(const JsonValue& doc, const std::string& path,
                   std::string* error = nullptr);

}  // namespace obs
}  // namespace rgae

#endif  // RGAE_OBS_RUN_REPORT_H_
