#!/usr/bin/env python3
"""Crash/resume acceptance test for the trial journal (DESIGN.md §5).

Usage:
    resume_test.py <bench_crash_safety_binary>

Runs the crash-safety bench four times and asserts the journal contract:

1. a reference run with a fresh journal, uninterrupted;
2. a crashed run with a second journal: RGAE_JOURNAL_CRASH_AFTER=1 makes
   the journal hard-kill the process (std::_Exit(137)) right after the
   first trial record is durable — the "kill after trial k" scenario.
   Half a record is then appended to that journal, the footprint of a kill
   that lands mid-append;
3. a resume run with the *same* second journal and no crash hook: it must
   drop the torn tail, skip/replay the journaled work and complete only the
   remaining trials;
4. a second resume on that journal: every line must still be a record, so
   it must replay everything and print the same aggregates.

The bench prints its aggregates with %.17g (exact double round-trip), so
the reference and resumed aggregate lines are compared *bit-for-bit*.
Wall-clock seconds are excluded from those lines by design — timing is the
one field that legitimately differs between runs of the same trial.
"""

import json
import os
import subprocess
import sys
import tempfile

TRIALS = "2"
EPOCH_SCALE = "0.02"


def run(binary, journal, crash_after=None):
    env = dict(os.environ)
    env["RGAE_TRIALS"] = TRIALS
    env["RGAE_EPOCH_SCALE"] = EPOCH_SCALE
    env.pop("RGAE_JOURNAL_CRASH_AFTER", None)
    if crash_after is not None:
        env["RGAE_JOURNAL_CRASH_AFTER"] = str(crash_after)
    proc = subprocess.run(
        [binary, f"--journal={journal}"], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def agg_lines(stdout):
    lines = [l for l in stdout.splitlines() if l.startswith("agg ")]
    if not lines:
        raise SystemExit(f"FAIL: no aggregate lines in output:\n{stdout}")
    return lines


def journal_records(path):
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise SystemExit(f"FAIL: {path}:{lineno} is not a record: {e}")
    return records


def line_count(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


def check_resumed(reference, label, code, out):
    if code != 0:
        raise SystemExit(f"FAIL: {label} exited {code}:\n{out}")
    resumed = agg_lines(out)
    if resumed != reference:
        diff = "\n".join(
            f"  reference: {a}\n  resumed:   {b}"
            for a, b in zip(reference, resumed) if a != b)
        raise SystemExit(
            f"FAIL: {label} aggregates differ from the uninterrupted "
            f"run:\n{diff}")


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip())
        return 2
    binary = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        ref_journal = os.path.join(tmp, "reference.jsonl")
        crash_journal = os.path.join(tmp, "crashed.jsonl")

        code, ref_out = run(binary, ref_journal)
        if code != 0:
            raise SystemExit(f"FAIL: reference run exited {code}:\n{ref_out}")
        reference = agg_lines(ref_out)

        code, crash_out = run(binary, crash_journal, crash_after=1)
        if code != 137:
            raise SystemExit(
                f"FAIL: crashed run exited {code}, expected the injected "
                f"_Exit(137):\n{crash_out}")
        survivors = journal_records(crash_journal)
        if len(survivors) != 1:
            raise SystemExit(
                f"FAIL: expected exactly 1 durable record after the crash, "
                f"found {len(survivors)}")
        with open(crash_journal, encoding="utf-8") as f:
            record_line = f.readline()
        with open(crash_journal, "a", encoding="utf-8") as f:
            f.write(record_line[:len(record_line) // 2])

        code, resume_out = run(binary, crash_journal)
        check_resumed(reference, "resume run", code, resume_out)
        resumed_lines = line_count(crash_journal)
        code, resume_out = run(binary, crash_journal)
        check_resumed(reference, "second resume run", code, resume_out)
        if line_count(crash_journal) != resumed_lines:
            raise SystemExit(
                "FAIL: the second resume re-ran trials the first one had "
                "journaled")

        # The resumed journal must cover every trial the reference run did
        # (keyed identically), with the crashed half re-journaled.
        ref_keys = {r["key"] for r in journal_records(ref_journal)}
        resumed_keys = {r["key"] for r in journal_records(crash_journal)}
        if ref_keys != resumed_keys:
            raise SystemExit(
                f"FAIL: journal keys diverge: only-reference="
                f"{sorted(ref_keys - resumed_keys)} only-resumed="
                f"{sorted(resumed_keys - ref_keys)}")

    print(f"OK: resumed aggregates bit-identical across a crash, a torn "
          f"tail and two resumes: {len(reference)} aggregate line(s), "
          f"{len(ref_keys)} trial key(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
