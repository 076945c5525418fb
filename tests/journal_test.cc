#include "src/eval/run_journal.h"

#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "src/util/fileio.h"

namespace rgae {
namespace {

namespace fs = std::filesystem;

std::string TmpPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

JournalRecord MakeRecord(const std::string& key, double acc = 0.625) {
  JournalRecord r;
  r.key = key;
  r.model = "GAE";
  r.dataset = "Cora";
  r.variant = "base";
  r.trial = 3;
  r.seed = 4;
  r.outcome.scores = {acc, 0.1234567891011121, 0.3333333333333333};
  r.outcome.seconds = 1.5;
  r.outcome.result.scores = r.outcome.scores;
  r.outcome.result.pretrain_seconds = 2.25;
  r.outcome.result.cluster_seconds = 1.5;
  r.outcome.result.cluster_epochs_run = 17;
  r.outcome.result.rollbacks = 2;
  r.outcome.timed_out = true;
  return r;
}

// ---------------------------------------------------------------------------
// Config hash / key.

TEST(TrialConfigHashTest, DeterministicAndSensitive) {
  const ModelOptions m;
  const TrainerOptions t;
  const uint64_t h = TrialConfigHash("GAE", "Cora", "base", 0, m, t);
  EXPECT_EQ(h, TrialConfigHash("GAE", "Cora", "base", 0, m, t));

  EXPECT_NE(h, TrialConfigHash("VGAE", "Cora", "base", 0, m, t));
  EXPECT_NE(h, TrialConfigHash("GAE", "Citeseer", "base", 0, m, t));
  EXPECT_NE(h, TrialConfigHash("GAE", "Cora", "r", 0, m, t));
  EXPECT_NE(h, TrialConfigHash("GAE", "Cora", "base", 1, m, t));

  ModelOptions m2 = m;
  m2.seed += 1;
  EXPECT_NE(h, TrialConfigHash("GAE", "Cora", "base", 0, m2, t));
  TrainerOptions t2 = t;
  t2.xi.alpha1 += 0.01;
  EXPECT_NE(h, TrialConfigHash("GAE", "Cora", "base", 0, m, t2));
  TrainerOptions t3 = t;
  t3.pretrain_epochs += 1;
  EXPECT_NE(h, TrialConfigHash("GAE", "Cora", "base", 0, m, t3));
}

TEST(TrialConfigHashTest, IgnoresNonOutcomeKnobs) {
  // Observability, recovery budgets and harness bookkeeping must not change
  // the key: a journal has to survive being resumed under different
  // instrumentation or a different rollback budget.
  const ModelOptions m;
  const TrainerOptions t;
  const uint64_t h = TrialConfigHash("GAE", "Cora", "base", 0, m, t);
  TrainerOptions t2 = t;
  t2.track_scores = true;
  t2.track_fr_fd = true;
  t2.track_dynamics = true;
  t2.track_every = 5;
  t2.trial_id = 42;
  t2.resilience.enabled = true;
  t2.resilience.max_rollbacks = 9;
  EXPECT_EQ(h, TrialConfigHash("GAE", "Cora", "base", 0, m, t2));
}

TEST(TrialConfigHashTest, KeyIsFixedWidthLowercaseHex) {
  const std::string key =
      TrialConfigKey("GAE", "Cora", "base", 0, ModelOptions(),
                     TrainerOptions());
  ASSERT_EQ(key.size(), 16u);
  for (const char c : key) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << key;
  }
}

// ---------------------------------------------------------------------------
// RunJournal.

TEST(RunJournalTest, AppendFindAndReopenRoundTrip) {
  const std::string path = TmpPath("journal_roundtrip.jsonl");
  fs::remove(path);
  {
    RunJournal journal;
    std::string error;
    ASSERT_TRUE(journal.Open(path, &error)) << error;
    EXPECT_EQ(journal.size(), 0u);
    ASSERT_TRUE(journal.Append(MakeRecord("00000000000000aa"), &error))
        << error;
    ASSERT_TRUE(journal.Append(MakeRecord("00000000000000bb", 0.75), &error))
        << error;
    EXPECT_EQ(journal.size(), 2u);
  }
  RunJournal reopened;
  std::string error;
  ASSERT_TRUE(reopened.Open(path, &error)) << error;
  EXPECT_EQ(reopened.size(), 2u);
  const JournalRecord* rec = reopened.Find("00000000000000aa");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->model, "GAE");
  EXPECT_EQ(rec->dataset, "Cora");
  EXPECT_EQ(rec->variant, "base");
  EXPECT_EQ(rec->trial, 3);
  EXPECT_EQ(rec->seed, 4u);
  // %.17g serialization: the replayed doubles are bit-identical.
  const JournalRecord expected = MakeRecord("00000000000000aa");
  EXPECT_EQ(rec->outcome.scores.acc, expected.outcome.scores.acc);
  EXPECT_EQ(rec->outcome.scores.nmi, expected.outcome.scores.nmi);
  EXPECT_EQ(rec->outcome.scores.ari, expected.outcome.scores.ari);
  EXPECT_EQ(rec->outcome.seconds, expected.outcome.seconds);
  EXPECT_EQ(rec->outcome.result.pretrain_seconds,
            expected.outcome.result.pretrain_seconds);
  EXPECT_EQ(rec->outcome.result.cluster_epochs_run, 17);
  EXPECT_EQ(rec->outcome.result.rollbacks, 2);
  EXPECT_TRUE(rec->outcome.timed_out);
  EXPECT_FALSE(rec->outcome.failed);
  EXPECT_EQ(reopened.Find("00000000000000cc"), nullptr);
  fs::remove(path);
}

TEST(RunJournalTest, FailedTrialRoundTripsReason) {
  const std::string path = TmpPath("journal_failed.jsonl");
  fs::remove(path);
  JournalRecord r = MakeRecord("00000000000000dd");
  r.outcome.failed = true;
  r.outcome.failure_reason = "shared pretrain failed: non-finite loss";
  {
    RunJournal journal;
    ASSERT_TRUE(journal.Open(path));
    ASSERT_TRUE(journal.Append(r));
  }
  RunJournal reopened;
  ASSERT_TRUE(reopened.Open(path));
  const JournalRecord* rec = reopened.Find("00000000000000dd");
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->outcome.failed);
  EXPECT_EQ(rec->outcome.failure_reason, r.outcome.failure_reason);
  fs::remove(path);
}

TEST(RunJournalTest, LaterRecordWinsForDuplicateKey) {
  const std::string path = TmpPath("journal_dup.jsonl");
  fs::remove(path);
  {
    RunJournal journal;
    ASSERT_TRUE(journal.Open(path));
    ASSERT_TRUE(journal.Append(MakeRecord("00000000000000ee", 0.1)));
    ASSERT_TRUE(journal.Append(MakeRecord("00000000000000ee", 0.9)));
  }
  RunJournal reopened;
  ASSERT_TRUE(reopened.Open(path));
  const JournalRecord* rec = reopened.Find("00000000000000ee");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome.scores.acc, 0.9);
  fs::remove(path);
}

// A crash mid-append leaves half a record with no newline; a record can
// also lose just its newline. Either way the reopened journal keeps every
// complete record and stays appendable: records appended after the reopen
// are found by the next one.
TEST(RunJournalTest, ToleratesTornFinalLine) {
  for (const bool torn : {true, false}) {
    SCOPED_TRACE(torn ? "torn final line" : "final newline missing");
    const std::string path = TmpPath("journal_torn.jsonl");
    fs::remove(path);
    {
      RunJournal journal;
      ASSERT_TRUE(journal.Open(path));
      ASSERT_TRUE(journal.Append(MakeRecord("00000000000000f1")));
    }
    std::string contents;
    ASSERT_TRUE(ReadFileToString(path, &contents));
    if (torn) {
      contents += "{\"schema\":\"rgae.journal.v1\",\"key\":\"00000000";
    } else {
      ASSERT_EQ(contents.back(), '\n');
      contents.pop_back();
    }
    ASSERT_TRUE(WriteFileAtomic(path, contents));

    {
      RunJournal reopened;
      std::string error;
      ASSERT_TRUE(reopened.Open(path, &error)) << error;
      EXPECT_EQ(reopened.size(), 1u);  // A torn tail costs exactly one trial.
      EXPECT_NE(reopened.Find("00000000000000f1"), nullptr);
      ASSERT_TRUE(reopened.Append(MakeRecord("00000000000000f3"), &error))
          << error;
      ASSERT_TRUE(reopened.Append(MakeRecord("00000000000000f4"), &error))
          << error;
    }
    RunJournal resumed;
    std::string error;
    ASSERT_TRUE(resumed.Open(path, &error)) << error;
    EXPECT_EQ(resumed.size(), 3u);
    EXPECT_NE(resumed.Find("00000000000000f1"), nullptr);
    EXPECT_NE(resumed.Find("00000000000000f3"), nullptr);
    EXPECT_NE(resumed.Find("00000000000000f4"), nullptr);
    fs::remove(path);
  }
}

// Records written while the harness had a retry ladder carry `retries` and
// `degraded`; the reader ignores both, so such journals still resume.
TEST(RunJournalTest, ReadsRecordsCarryingRetiredLadderKeys) {
  const std::string path = TmpPath("journal_ladder_keys.jsonl");
  fs::remove(path);
  {
    RunJournal journal;
    ASSERT_TRUE(journal.Open(path));
    ASSERT_TRUE(journal.Append(MakeRecord("00000000000000f5")));
  }
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents));
  const size_t at = contents.find(",\"rollbacks\"");
  ASSERT_NE(at, std::string::npos) << contents;
  contents.insert(at, ",\"retries\":1,\"degraded\":true");
  ASSERT_TRUE(WriteFileAtomic(path, contents));

  RunJournal reopened;
  std::string error;
  ASSERT_TRUE(reopened.Open(path, &error)) << error;
  const JournalRecord* rec = reopened.Find("00000000000000f5");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome.scores.acc, MakeRecord("x").outcome.scores.acc);
  EXPECT_EQ(rec->outcome.result.rollbacks, 2);
  fs::remove(path);
}

TEST(RunJournalTest, RejectsCorruptionBeforeFinalLine) {
  const std::string path = TmpPath("journal_corrupt.jsonl");
  fs::remove(path);
  {
    RunJournal journal;
    ASSERT_TRUE(journal.Open(path));
    ASSERT_TRUE(journal.Append(MakeRecord("00000000000000f2")));
  }
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents));
  ASSERT_TRUE(WriteFileAtomic(path, "not json at all\n" + contents));

  RunJournal reopened;
  std::string error;
  EXPECT_FALSE(reopened.Open(path, &error));
  EXPECT_FALSE(error.empty());
  fs::remove(path);
}

TEST(RunJournalTest, AppendWithoutOpenFails) {
  RunJournal journal;
  std::string error;
  EXPECT_FALSE(journal.Append(MakeRecord("0000000000000000"), &error));
  EXPECT_FALSE(error.empty());
}

TEST(RunJournalTest, MissingFileIsEmptyJournal) {
  const std::string path = TmpPath("journal_fresh.jsonl");
  fs::remove(path);
  RunJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(path, &error)) << error;
  EXPECT_EQ(journal.size(), 0u);
  fs::remove(path);
}

TEST(RunJournalDeathTest, CrashAfterEnvDiesAfterNthDurableAppend) {
  const std::string path = TmpPath("journal_crash.jsonl");
  fs::remove(path);
  EXPECT_EXIT(
      {
        setenv("RGAE_JOURNAL_CRASH_AFTER", "2", 1);
        RunJournal journal;
        if (!journal.Open(path)) std::_Exit(1);
        JournalRecord a = MakeRecord("00000000000000a1");
        JournalRecord b = MakeRecord("00000000000000a2");
        if (!journal.Append(a)) std::_Exit(1);  // Survives append #1 ...
        journal.Append(b);                      // ... dies inside append #2.
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(137), "injected crash");
  // Both records were durable before the injected kill.
  RunJournal reopened;
  std::string error;
  ASSERT_TRUE(reopened.Open(path, &error)) << error;
  EXPECT_EQ(reopened.size(), 2u);
  fs::remove(path);
  unsetenv("RGAE_JOURNAL_CRASH_AFTER");
}

}  // namespace
}  // namespace rgae
