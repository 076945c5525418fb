#ifndef RGAE_EVAL_RUN_JOURNAL_H_
#define RGAE_EVAL_RUN_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/eval/harness.h"
#include "src/models/model.h"

namespace rgae {

/// Crash-safe trial journal (`rgae.journal.v1`): an append-only JSONL file
/// with one record per *completed* trial, keyed by a deterministic hash of
/// everything that determines the trial's outcome. A bench run opened with
/// `--journal=<path>` appends each finished trial and, after a crash or
/// kill, skips every journaled trial on restart — replaying the recorded
/// outcomes so the resumed run's aggregates are bit-identical to an
/// uninterrupted one (doubles are serialized with %.17g, an exact
/// round-trip).
///
/// Durability: each record is flushed and fsync'd before `Append` returns,
/// so a trial is either fully journaled or not journaled at all. The file
/// itself is append-only on purpose (see util/fileio.h); a torn final line
/// — the one write a crash can interrupt — is detected on load and cut off
/// the file before the next append, costing at most one re-run trial.

/// One journal record: the identity of the trial plus its replayable
/// outcome (scores, timings, and the failure/stop accounting).
struct JournalRecord {
  std::string key;      // TrialConfigKey of the run that produced it.
  std::string model;    // "GAE", ...
  std::string dataset;  // Registry name.
  std::string variant;  // "base" or "r".
  int trial = 0;
  uint64_t seed = 0;
  TrialOutcome outcome;
};

/// Deterministic 64-bit FNV-1a hash over the canonical serialization of
/// every outcome-affecting knob: the model and dataset names, the variant,
/// the trial index, all `ModelOptions` fields, and the `TrainerOptions`
/// schedule/operator/seed fields. Observability switches (`track_*`), the
/// resilience policy, fault injectors and `trial_id` are
/// excluded — they do not change what a *completed* healthy trial computes,
/// and a journal must survive being resumed under different instrumentation
/// or a different recovery budget.
uint64_t TrialConfigHash(const std::string& model, const std::string& dataset,
                         const std::string& variant, int trial,
                         const ModelOptions& model_options,
                         const TrainerOptions& trainer);

/// `TrialConfigHash` as a fixed-width 16-digit lowercase hex string — the
/// `key` field of the journal record.
std::string TrialConfigKey(const std::string& model,
                           const std::string& dataset,
                           const std::string& variant, int trial,
                           const ModelOptions& model_options,
                           const TrainerOptions& trainer);

class RunJournal {
 public:
  RunJournal() = default;
  ~RunJournal();
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Opens `path` for appending, first loading every complete record
  /// already present (a missing file is an empty journal, not an error).
  /// A torn final line is tolerated and truncated away, and a final record
  /// that lost only its newline gets it back, so the next append starts on
  /// a fresh line; a malformed line anywhere else makes the open fail — the
  /// file is not a journal. Returns false and fills `*error` (when
  /// non-null) on I/O or format errors.
  bool Open(const std::string& path, std::string* error = nullptr);

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// The completed record for `key`, or null. Later records win, so a
  /// trial journaled twice (e.g. by overlapping runs) replays its most
  /// recent outcome.
  const JournalRecord* Find(const std::string& key) const;

  /// Appends one completed trial, durably: the record is written, flushed
  /// and fsync'd before this returns, and becomes visible to `Find`.
  /// Returns false (with `*error` filled when non-null) on I/O errors.
  bool Append(const JournalRecord& record, std::string* error = nullptr);

  /// Records loaded at `Open` plus records appended since.
  size_t size() const { return records_.size(); }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<JournalRecord> records_;
  std::unordered_map<std::string, size_t> by_key_;
  /// Fault hook: RGAE_JOURNAL_CRASH_AFTER=<n> hard-kills the process
  /// (std::_Exit) right after the n-th successful append, simulating a
  /// crash between trials for the resume tests. -1 = disabled.
  long crash_after_ = -1;
  long appended_ = 0;
};

}  // namespace rgae

#endif  // RGAE_EVAL_RUN_JOURNAL_H_
