#include "src/obs/run_report.h"

#include "src/core/health.h"
#include "src/kernels/dispatch.h"
#include "src/obs/memstat.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/util/fileio.h"

namespace rgae {
namespace obs {

namespace {

/// -1 sentinels ("not tracked") → null.
JsonValue OrNull(double v) {
  return v < 0.0 ? JsonValue::Null() : JsonValue(v);
}
JsonValue OrNull(int v) { return v < 0 ? JsonValue::Null() : JsonValue(v); }

/// Λ_FR / Λ_FD live in [-1, 1]; their "not tracked" sentinel is -2.
JsonValue LambdaOrNull(double v) {
  return v <= -1.5 ? JsonValue::Null() : JsonValue(v);
}

JsonValue ScoresJson(const ClusteringScores& scores) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("acc", JsonValue(scores.acc));
  out.Set("nmi", JsonValue(scores.nmi));
  out.Set("ari", JsonValue(scores.ari));
  return out;
}

JsonValue HealthEventJson(const HealthEvent& event) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("epoch", JsonValue(event.epoch));
  out.Set("phase", JsonValue(event.pretrain ? "pretrain" : "cluster"));
  out.Set("status", JsonValue(HealthStatusName(event.status)));
  out.Set("action", JsonValue(event.action));
  return out;
}

}  // namespace

JsonValue EpochRecordJson(const EpochRecord& record) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("epoch", JsonValue(record.epoch));
  out.Set("loss", JsonValue(record.loss));
  out.Set("acc", OrNull(record.acc));
  out.Set("nmi", OrNull(record.nmi));
  out.Set("ari", OrNull(record.ari));
  out.Set("lambda_fr_plain", LambdaOrNull(record.lambda_fr_plain));
  out.Set("lambda_fr_r", LambdaOrNull(record.lambda_fr_r));
  out.Set("lambda_fd_plain", LambdaOrNull(record.lambda_fd_plain));
  out.Set("lambda_fd_r", LambdaOrNull(record.lambda_fd_r));
  out.Set("omega_size", OrNull(record.omega_size));
  out.Set("omega_acc", OrNull(record.omega_acc));
  out.Set("rest_acc", OrNull(record.rest_acc));
  out.Set("self_links", OrNull(record.self_links));
  out.Set("self_true_links", OrNull(record.self_true_links));
  out.Set("self_false_links", OrNull(record.self_false_links));
  out.Set("separability", OrNull(record.separability));
  out.Set("health", JsonValue(HealthStatusName(record.health)));
  if (record.upsilon_ran) {
    JsonValue u = JsonValue::MakeObject();
    u.Set("added_edges", JsonValue(record.upsilon_stats.added_edges));
    u.Set("added_true", JsonValue(record.upsilon_stats.added_true));
    u.Set("added_false", JsonValue(record.upsilon_stats.added_false));
    u.Set("dropped_edges", JsonValue(record.upsilon_stats.dropped_edges));
    u.Set("dropped_true", JsonValue(record.upsilon_stats.dropped_true));
    u.Set("dropped_false", JsonValue(record.upsilon_stats.dropped_false));
    out.Set("upsilon", std::move(u));
  } else {
    out.Set("upsilon", JsonValue::Null());
  }
  return out;
}

JsonValue TrainResultJson(const TrainResult& result) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("scores", ScoresJson(result.scores));
  out.Set("pretrain_seconds", JsonValue(result.pretrain_seconds));
  out.Set("cluster_seconds", JsonValue(result.cluster_seconds));
  out.Set("cluster_epochs_run", JsonValue(result.cluster_epochs_run));
  out.Set("failed", JsonValue(result.failed));
  out.Set("failure_reason", result.failure_reason.empty()
                                ? JsonValue::Null()
                                : JsonValue(result.failure_reason));
  out.Set("timed_out", JsonValue(result.timed_out));
  out.Set("rollbacks", JsonValue(result.rollbacks));
  JsonValue health = JsonValue::MakeArray();
  for (const HealthEvent& event : result.health_log) {
    health.Append(HealthEventJson(event));
  }
  out.Set("health_events", std::move(health));
  JsonValue trace = JsonValue::MakeArray();
  for (const EpochRecord& record : result.trace) {
    trace.Append(EpochRecordJson(record));
  }
  out.Set("trace", std::move(trace));
  return out;
}

JsonValue RunReportJson(const RunReportInfo& info,
                        const TrialOutcome& outcome) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("model", info.model.empty() ? JsonValue::Null()
                                      : JsonValue(info.model));
  out.Set("dataset", info.dataset.empty() ? JsonValue::Null()
                                          : JsonValue(info.dataset));
  out.Set("variant", JsonValue(info.variant));
  out.Set("trial", JsonValue(info.trial));
  out.Set("seed", JsonValue(info.seed));
  out.Set("seconds", JsonValue(outcome.seconds));
  const JsonValue result = TrainResultJson(outcome.result);
  for (const auto& [key, value] : result.entries()) {
    out.Set(key, value);
  }
  // The outcome-level flags win over the raw result's: the R half of a
  // couple whose shared pretraining failed is failed although its own
  // clustering run was not.
  out.Set("failed", JsonValue(outcome.failed));
  out.Set("failure_reason", outcome.failure_reason.empty()
                                ? JsonValue::Null()
                                : JsonValue(outcome.failure_reason));
  out.Set("timed_out", JsonValue(outcome.timed_out));
  return out;
}

JsonValue BenchDocument(const std::string& bench_name,
                        std::vector<JsonValue> trial_reports) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("schema", JsonValue("rgae.bench.v1"));
  doc.Set("bench", JsonValue(bench_name));
  JsonValue trials = JsonValue::MakeArray();
  for (JsonValue& report : trial_reports) trials.Append(std::move(report));
  doc.Set("trials", std::move(trials));
  // The ISA every kernel stub dispatched to while this document's numbers
  // were produced ("scalar" / "avx2"), exported both as a
  // top-level field and as the kernel.isa_level gauge.
  const kernels::Isa isa = kernels::SelectedIsa();
  doc.Set("kernel_isa", JsonValue(kernels::IsaName(isa)));
  MetricsRegistry::Global()
      .GetGauge("kernel.isa_level")
      ->Set(static_cast<double>(kernels::IsaLevel(isa)));
  // Memory first: MemoryReportJson refreshes the mem.* gauges, which the
  // metrics snapshot below should include.
  doc.Set("memory", MemoryReportJson());
  doc.Set("metrics", MetricsRegistry::Global().ToJson());
  doc.Set("profile", Profiler::Global().ToJson());
  doc.Set("dropped_trace_events",
          JsonValue(TraceCollector::Global().dropped()));
  return doc;
}

bool WriteJsonFile(const JsonValue& doc, const std::string& path,
                   std::string* error) {
  return WriteFileAtomic(path, doc.Dump(2) + "\n", error);
}

}  // namespace obs
}  // namespace rgae
