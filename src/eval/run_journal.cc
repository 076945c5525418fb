#include "src/eval/run_journal.h"

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/obs/json.h"
#include "src/obs/log.h"
#include "src/obs/trace.h"
#include "src/util/fileio.h"

namespace rgae {

namespace {

constexpr const char* kSchema = "rgae.journal.v1";

// Canonical "name=value;" serialization feeding the config hash. Doubles
// use %.17g so every distinct double hashes distinctly and the canonical
// form is platform-stable.
void Put(std::string* out, const char* name, const std::string& v) {
  out->append(name);
  out->push_back('=');
  out->append(v);
  out->push_back(';');
}

void Put(std::string* out, const char* name, long long v) {
  Put(out, name, std::to_string(v));
}

void Put(std::string* out, const char* name, uint64_t v) {
  Put(out, name, std::to_string(v));
}

void Put(std::string* out, const char* name, int v) {
  Put(out, name, static_cast<long long>(v));
}

void Put(std::string* out, const char* name, bool v) {
  Put(out, name, static_cast<long long>(v ? 1 : 0));
}

void Put(std::string* out, const char* name, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  Put(out, name, std::string(buf));
}

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

obs::JsonValue RecordJson(const JournalRecord& r) {
  using obs::JsonValue;
  const TrialOutcome& o = r.outcome;
  JsonValue out = JsonValue::MakeObject();
  out.Set("schema", JsonValue(kSchema));
  out.Set("key", JsonValue(r.key));
  out.Set("model", JsonValue(r.model));
  out.Set("dataset", JsonValue(r.dataset));
  out.Set("variant", JsonValue(r.variant));
  out.Set("trial", JsonValue(r.trial));
  out.Set("seed", JsonValue(r.seed));
  JsonValue scores = JsonValue::MakeObject();
  scores.Set("acc", JsonValue(o.scores.acc));
  scores.Set("nmi", JsonValue(o.scores.nmi));
  scores.Set("ari", JsonValue(o.scores.ari));
  out.Set("scores", std::move(scores));
  out.Set("seconds", JsonValue(o.seconds));
  out.Set("pretrain_seconds", JsonValue(o.result.pretrain_seconds));
  out.Set("cluster_seconds", JsonValue(o.result.cluster_seconds));
  out.Set("cluster_epochs_run", JsonValue(o.result.cluster_epochs_run));
  out.Set("failed", JsonValue(o.failed));
  out.Set("failure_reason", o.failure_reason.empty()
                                ? JsonValue::Null()
                                : JsonValue(o.failure_reason));
  out.Set("timed_out", JsonValue(o.timed_out));
  out.Set("rollbacks", JsonValue(o.result.rollbacks));
  return out;
}

// Pulls one typed field out of a parsed record line; each Get* returns
// false on a missing or mis-typed field so a record from a future schema
// (or a corrupted line that still parses) is rejected, not misread. Keys
// the reader does not ask for are ignored: records written while the
// harness still had a retry ladder also carry `retries` and `degraded`.
bool GetString(const obs::JsonValue& doc, const char* key, std::string* out) {
  const obs::JsonValue* v = doc.Get(key);
  if (v == nullptr || !v->is_string()) return false;
  *out = v->string();
  return true;
}

bool GetNumber(const obs::JsonValue& doc, const char* key, double* out) {
  const obs::JsonValue* v = doc.Get(key);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->number();
  return true;
}

bool GetInt(const obs::JsonValue& doc, const char* key, int* out) {
  double d = 0.0;
  if (!GetNumber(doc, key, &d)) return false;
  *out = static_cast<int>(d);
  return true;
}

bool GetBool(const obs::JsonValue& doc, const char* key, bool* out) {
  const obs::JsonValue* v = doc.Get(key);
  if (v == nullptr || !v->is_bool()) return false;
  *out = v->bool_value();
  return true;
}

bool ParseRecord(const obs::JsonValue& doc, JournalRecord* r) {
  std::string schema;
  if (!GetString(doc, "schema", &schema) || schema != kSchema) return false;
  TrialOutcome& o = r->outcome;
  double seed = 0.0;
  int rollbacks = 0;
  const obs::JsonValue* scores = doc.Get("scores");
  if (scores == nullptr || !scores->is_object()) return false;
  const bool ok =
      GetString(doc, "key", &r->key) && GetString(doc, "model", &r->model) &&
      GetString(doc, "dataset", &r->dataset) &&
      GetString(doc, "variant", &r->variant) &&
      GetInt(doc, "trial", &r->trial) && GetNumber(doc, "seed", &seed) &&
      GetNumber(*scores, "acc", &o.scores.acc) &&
      GetNumber(*scores, "nmi", &o.scores.nmi) &&
      GetNumber(*scores, "ari", &o.scores.ari) &&
      GetNumber(doc, "seconds", &o.seconds) &&
      GetNumber(doc, "pretrain_seconds", &o.result.pretrain_seconds) &&
      GetNumber(doc, "cluster_seconds", &o.result.cluster_seconds) &&
      GetInt(doc, "cluster_epochs_run", &o.result.cluster_epochs_run) &&
      GetBool(doc, "failed", &o.failed) &&
      GetBool(doc, "timed_out", &o.timed_out) &&
      GetInt(doc, "rollbacks", &rollbacks);
  if (!ok) return false;
  r->seed = static_cast<uint64_t>(seed);
  const obs::JsonValue* reason = doc.Get("failure_reason");
  if (reason != nullptr && reason->is_string()) {
    o.failure_reason = reason->string();
  }
  // Mirror the replayable fields into the embedded TrainResult so replayed
  // outcomes look the same to reports as freshly-run ones.
  o.result.scores = o.scores;
  o.result.failed = o.failed;
  o.result.failure_reason = o.failure_reason;
  o.result.timed_out = o.timed_out;
  o.result.rollbacks = rollbacks;
  return true;
}

}  // namespace

uint64_t TrialConfigHash(const std::string& model, const std::string& dataset,
                         const std::string& variant, int trial,
                         const ModelOptions& model_options,
                         const TrainerOptions& trainer) {
  std::string c;
  c.reserve(512);
  Put(&c, "model", model);
  Put(&c, "dataset", dataset);
  Put(&c, "variant", variant);
  Put(&c, "trial", trial);
  const ModelOptions& m = model_options;
  Put(&c, "m.hidden_dim", m.hidden_dim);
  Put(&c, "m.latent_dim", m.latent_dim);
  Put(&c, "m.learning_rate", m.learning_rate);
  Put(&c, "m.adversarial_weight", m.adversarial_weight);
  Put(&c, "m.discriminator_hidden", m.discriminator_hidden);
  Put(&c, "m.discriminator_learning_rate", m.discriminator_learning_rate);
  Put(&c, "m.target_refresh", m.target_refresh);
  Put(&c, "m.seed", m.seed);
  const TrainerOptions& t = trainer;
  Put(&c, "t.pretrain_epochs", t.pretrain_epochs);
  Put(&c, "t.max_cluster_epochs", t.max_cluster_epochs);
  Put(&c, "t.gamma", t.gamma);
  Put(&c, "t.num_clusters", t.num_clusters);
  Put(&c, "t.use_operators", t.use_operators);
  Put(&c, "t.xi.alpha1", t.xi.alpha1);
  Put(&c, "t.xi.alpha2", t.xi.alpha2);
  Put(&c, "t.xi.use_alpha1", t.xi.use_alpha1);
  Put(&c, "t.xi.use_alpha2", t.xi.use_alpha2);
  Put(&c, "t.upsilon.add_edges", t.upsilon.add_edges);
  Put(&c, "t.upsilon.drop_edges", t.upsilon.drop_edges);
  Put(&c, "t.m1", t.m1);
  Put(&c, "t.m2", t.m2);
  Put(&c, "t.first_group_transform_start", t.first_group_transform_start);
  Put(&c, "t.xi_delay_epochs", t.xi_delay_epochs);
  Put(&c, "t.fd_protection", t.fd_protection);
  Put(&c, "t.convergence_fraction", t.convergence_fraction);
  Put(&c, "t.seed", t.seed);
  return Fnv1a64(c);
}

std::string TrialConfigKey(const std::string& model,
                           const std::string& dataset,
                           const std::string& variant, int trial,
                           const ModelOptions& model_options,
                           const TrainerOptions& trainer) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(TrialConfigHash(
                    model, dataset, variant, trial, model_options, trainer)));
  return std::string(buf);
}

RunJournal::~RunJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

bool RunJournal::Open(const std::string& path, std::string* error) {
  if (file_ != nullptr) return Fail(error, "journal already open");
  // Load phase: every complete line must be a valid record. The final line
  // may be torn (the one write a crash can interrupt — Append fsyncs, but
  // the kill can land mid-write); it is dropped with a warning and its
  // trial simply re-runs. A missing file is an empty journal.
  std::string contents;
  ReadFileToString(path, &contents);
  size_t torn_at = std::string::npos;  // Offset of the dropped final line.
  std::string tail_error;
  int lineno = 0;
  for (size_t pos = 0; pos < contents.size();) {
    ++lineno;
    if (torn_at != std::string::npos) {
      // The previous bad line was not the last one: corrupt journal.
      return Fail(error, path + ":" + std::to_string(lineno - 1) + ": " +
                             tail_error);
    }
    const size_t start = pos;
    const size_t newline = contents.find('\n', start);
    const size_t end =
        newline == std::string::npos ? contents.size() : newline;
    pos = end + 1;
    if (end == start) continue;
    obs::JsonValue doc;
    std::string parse_error;
    JournalRecord record;
    if (!obs::JsonValue::Parse(contents.substr(start, end - start), &doc,
                               &parse_error)) {
      torn_at = start;
      tail_error = "malformed journal line: " + parse_error;
      continue;
    }
    if (!ParseRecord(doc, &record)) {
      torn_at = start;
      tail_error = "journal line is not an " + std::string(kSchema) +
                   " record";
      continue;
    }
    by_key_[record.key] = records_.size();
    records_.push_back(std::move(record));
  }
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    return Fail(error, "cannot open journal " + path + " for append: " +
                           std::strerror(errno));
  }
  // Appends must start on a fresh line, or the next record would be glued
  // onto the fragment (and lost) or onto the last record (and corrupt the
  // journal for the following resume): cut a dropped tail back to the end
  // of the last complete line, and end a final record that parsed without
  // its newline.
  bool repaired = true;
  if (torn_at != std::string::npos) {
    RGAE_COUNT("journal.torn_tail_dropped");
    RGAE_LOG(kWarn)
        .Event("journal.torn_tail")
        .Field("path", path)
        .Field("line", lineno)
        .Msg(tail_error + " (torn final line dropped; trial will re-run)");
    repaired = ftruncate(fileno(file_), static_cast<off_t>(torn_at)) == 0;
  } else if (!contents.empty() && contents.back() != '\n') {
    repaired = std::fputc('\n', file_) != EOF && std::fflush(file_) == 0;
  }
  if (!repaired) {
    const std::string message = "cannot repair the final line of journal " +
                                path + ": " + std::strerror(errno);
    std::fclose(file_);
    file_ = nullptr;
    return Fail(error, message);
  }
  path_ = path;
  if (const char* env = std::getenv("RGAE_JOURNAL_CRASH_AFTER")) {
    crash_after_ = std::atol(env);
  }
  RGAE_LOG(kInfo)
      .Event("journal.opened")
      .Field("path", path)
      .Field("records", static_cast<long long>(records_.size()))
      .Msg("trial journal opened");
  return true;
}

const JournalRecord* RunJournal::Find(const std::string& key) const {
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &records_[it->second];
}

bool RunJournal::Append(const JournalRecord& record, std::string* error) {
  if (file_ == nullptr) return Fail(error, "journal is not open");
  const std::string line = RecordJson(record).Dump() + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    return Fail(error, "journal write to " + path_ + " failed: " +
                           std::strerror(errno));
  }
  // Durability point: after the fsync the record survives power loss, so a
  // trial is either fully journaled or (torn tail) not journaled at all.
  if (fsync(fileno(file_)) != 0) {
    return Fail(error, "journal fsync of " + path_ + " failed: " +
                           std::strerror(errno));
  }
  by_key_[record.key] = records_.size();
  records_.push_back(record);
  RGAE_COUNT("journal.records_appended");
  ++appended_;
  if (crash_after_ > 0 && appended_ >= crash_after_) {
    // Test-only crash fault: die *after* the record is durable, exactly
    // like a kill between trials (see RGAE_JOURNAL_CRASH_AFTER).
    std::fprintf(stderr, "journal: injected crash after %ld append(s)\n",
                 appended_);
    std::_Exit(137);
  }
  return true;
}

}  // namespace rgae
