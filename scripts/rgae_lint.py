#!/usr/bin/env python3
"""Project-specific source linter for the rgae codebase.

Enforces invariants that generic tools do not know about:

  R1 determinism   -- no wall-clock or ambient-RNG calls in src/ or
                      bench/. Every stochastic component takes an explicit
                      seeded Rng; every timing component uses
                      std::chrono::steady_clock. (std::rand, srand,
                      random_device, system_clock, localtime, time(...),
                      clock() are all banned.)
  R2 ordering      -- no range-for over a std::unordered_{map,set} declared
                      in the same file. Unordered iteration order feeds
                      output ordering bugs; use std::map/std::set or sort.
  R3 includes      -- quoted #include paths must be repo-rooted
                      ("src/...", "bench/...", "tests/...", "examples/...")
                      and src/ headers must carry an RGAE_<PATH>_H_ guard.
  R4 ownership     -- no raw `new`; use containers or std::make_unique.
                      Intentional leak-once singletons are exempted by a
                      `// Never dies.` comment on the same line.
  R5 namespaces    -- no `using namespace std`.
  R6 serving locks -- in src/serve/*.cc, a write to a member field
                      (trailing-underscore identifier) must happen inside a
                      constructor/destructor or after a lock acquisition
                      (std::lock_guard / unique_lock / scoped_lock) in the
                      same function. Atomics are fine: writes through
                      .fetch_add/.store are not flagged. A class that
                      deliberately leaves locking to its caller opts out by
                      carrying an `Externally synchronized` comment in the
                      .cc file or its paired header (ForwardEngine does).
  R8 timing        -- in src/ (outside src/obs/), raw monotonic-clock
                      reads (steady_clock::now, high_resolution_clock::now,
                      Clock::now, NowMicros) are banned: timing must flow through the RGAE_SPAN /
                      RGAE_TIMED_KERNEL macros so the profiler and metrics
                      see it. Product timestamps that are data rather than
                      instrumentation (phase seconds on TrainResult,
                      serve_us on QueryResult) opt out with a
                      `// Raw timing: <why>` comment on the line or within
                      the three lines above it.
  R10 raw sync     -- in src/ outside util/sync.h, the std synchronization
                      types (std::mutex and friends, std::lock_guard,
                      std::unique_lock, std::scoped_lock,
                      std::condition_variable, and their headers) are
                      banned: use rgae::Mutex / MutexLock / CondVar from
                      src/util/sync.h so every lock carries thread-safety
                      annotations (DESIGN.md §7). There is no opt-out.
  R11 guarded-by   -- in src/, a `Mutex` member must either appear in an
                      `RGAE_GUARDED_BY(<member>)` annotation somewhere in
                      the same file (it guards data), or carry a
                      `// Protocol lock:` comment within the three lines
                      above its declaration (it serializes operations, not
                      data). A mutex that
                      guards nothing and says nothing is either dead weight
                      or an unprotected invariant.
  R12 simd scope   -- raw SIMD intrinsics (an <immintrin.h>/<x86intrin.h>
                      include or an _mm*/__m128/__m256/__m512 token) and
                      ISA target switches (`__attribute__((target(...)))`,
                      `[[gnu::target(...)]]`, their target_clones forms and
                      `#pragma GCC target`) are banned outside
                      src/kernels/: vector code must live in the per-ISA
                      kernel tiers behind a KernelStub so the determinism
                      contract and the RGAE_KERNEL override stay airtight
                      (DESIGN.md §9). A function compiled for AVX2 by a
                      target attribute has no runtime dispatch and ignores
                      RGAE_KERNEL=scalar. A site that genuinely needs one
                      elsewhere opts out with a `// Raw SIMD: <why>`
                      comment on the line or within the three lines above.

Run: python3 scripts/rgae_lint.py [--root DIR]. Exits 1 if any finding.
Run: python3 scripts/rgae_lint.py --self-test to lint seeded fixture files
and verify each rule both fires on a violation and respects its opt-out; it
also fails when a rule the linter can report has no fixture that fires it.
Registered as the ctest cases `lint_rgae_sources` and `lint_rgae_selftest`
(label: lint).
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "bench", "tests", "examples")
EXTS = (".h", ".cc")

# R1 applies to library and bench code; tests may construct edge cases.
DETERMINISM_DIRS = ("src", "bench")
DETERMINISM_TOKENS = [
    (re.compile(r"\bstd::rand\b"), "std::rand"),
    (re.compile(r"\bsrand\s*\("), "srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\blocaltime\b"), "localtime"),
    (re.compile(r"\bgmtime\b"), "gmtime"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"), "time()"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"), "clock()"),
]

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s*&?\s*"
    r"([A-Za-z_]\w*)\s*[;={(]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;:)]*:\s*([^)]+)\)")
RAW_NEW_RE = re.compile(r"\bnew\b")
USING_STD_RE = re.compile(r"\busing\s+namespace\s+std\b")

# R6: src/serve implementation files only — shared mutable state written by
# the worker pool must sit behind a mutex (DESIGN.md §8.4).
SERVE_SCOPE = "src/serve/"
SERVE_ANNOTATION = "Externally synchronized"
SERVE_LOCK_RE = re.compile(
    r"\b(?:lock_guard|unique_lock|scoped_lock)\s*<|\bMutexLock\b"
)
# Top-level (column 0) function definition, Google style.
SERVE_FUNC_RE = re.compile(r"^[A-Za-z_][\w:<>,*& ]*\(")
SERVE_CTOR_RE = re.compile(r"\b([A-Za-z_]\w*)::(~?)([A-Za-z_]\w*)\s*\(")
SERVE_MUTATORS = (
    "push_back|push_front|pop_back|pop_front|emplace_back|emplace_front|"
    "emplace|insert|erase|clear|splice|resize|assign|swap|reserve"
)
SERVE_WRITE_RE = re.compile(
    # ++member_ / member_++ (also through one field: ++counters_.hits)
    r"(?:\+\+|--)\s*[A-Za-z_]\w*_\b"
    r"|\b[A-Za-z_]\w*_\s*(?:\+\+|--)"
    # member_ = / op= / [i] =, and member_.field = / op=  (== etc. excluded)
    r"|\b[A-Za-z_]\w*_\s*(?:\[[^\]]*\]\s*|\.\s*\w+\s*)?"
    r"(?:[-+*/|&^]|<<|>>)?=(?![=])"
    # mutating container calls on a member
    r"|\b[A-Za-z_]\w*_\s*\.\s*(?:" + SERVE_MUTATORS + r")\s*\("
)

# R8: raw clock reads in src/ must go through the obs macros. src/obs/ is
# the implementation of those macros.
TIMING_SCOPE = "src/"
TIMING_ALLOW_PREFIXES = ("src/obs/",)
TIMING_RE = re.compile(
    r"\b(?:steady_clock|high_resolution_clock|[A-Za-z_]\w*Clock)\s*::\s*"
    r"now\s*\(|\bNowMicros\s*\("
)
TIMING_NOTE = "Raw timing:"
TIMING_NOTE_WINDOW = 3  # opt-out comment may sit up to 3 lines above

# R10: raw std synchronization in src/ outside the wrapper itself. The
# token list covers the types and their headers.
SYNC_SCOPE = "src/"
SYNC_ALLOW_FILES = ("src/util/sync.h",)
SYNC_RAW_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|shared_)?mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)

# R11: a Mutex member must guard something (appear in RGAE_GUARDED_BY) or
# declare itself a protocol lock. Matches member-style declarations only;
# references/parameters (`Mutex& mu`) don't.
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*(?:RGAE_[A-Z_]+\([^)]*\)\s*)?[{;=]"
)
GUARDED_BY_RE = re.compile(r"RGAE_(?:PT_)?GUARDED_BY\(\s*(\w+)\s*\)")
PROTOCOL_NOTE = "Protocol lock:"
PROTOCOL_NOTE_WINDOW = 3

# R12: raw SIMD stays inside the kernel library. Intrinsic calls start with
# _mm (possibly _mm256_/_mm512_), vector types are __m128/__m256/__m512
# variants, and the headers are the *intrin.h family.
SIMD_ALLOW_PREFIX = "src/kernels/"
SIMD_RAW_RE = re.compile(
    r"\b_mm(?:\d+)?_\w+\s*\("
    r"|\b__m(?:128|256|512)[a-z]*\b"
    r"|#\s*include\s*<(?:imm|x86|avx|emm|xmm|smm|wmm)[a-z0-9]*intrin\.h>"
)
# Function- and file-level ISA switches: GCC/Clang target attributes (in
# either spelling, with or without clones) and the target pragma. Matched
# on comment- and string-stripped code, so the ISA string itself is gone.
SIMD_TARGET_RE = re.compile(
    r"__attribute__\s*\(\(.*\b(?:__)?target(?:_clones)?(?:__)?\s*\("
    r"|\[\[.*\bgnu::(?:__)?target(?:_clones)?(?:__)?\s*\("
    r"|#\s*pragma\s+GCC\s+target\b"
)
SIMD_NOTE = "Raw SIMD:"
SIMD_NOTE_WINDOW = 3


def strip_comments_and_strings(line):
    """Removes // comments and the contents of string/char literals."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def expected_guard(rel):
    """src/models/gae.h -> RGAE_MODELS_GAE_H_ (leading src/ dropped)."""
    stem = rel[len("src/"):] if rel.startswith("src/") else rel
    return "RGAE_" + re.sub(r"[/.]", "_", stem).upper() + "_"


def serve_sync_exempt(root, rel, raw_lines):
    """True when the file (or its paired header) opts out of R6 with an
    `Externally synchronized` annotation — locking is the caller's job."""
    if any(SERVE_ANNOTATION in line for line in raw_lines):
        return True
    header = os.path.join(root, rel[:-len(".cc")] + ".h")
    if os.path.exists(header):
        with open(header, encoding="utf-8") as f:
            return SERVE_ANNOTATION in f.read()
    return False


def lint_serve_sync(root, rel, raw_lines, code_lines, findings):
    """R6: member writes in src/serve/*.cc must be constructor/destructor
    work or sit after a lock acquisition in the same function."""
    if serve_sync_exempt(root, rel, raw_lines):
        return
    in_function = False
    exempt = False   # constructor or destructor body
    locked = False   # a lock_guard/unique_lock/scoped_lock seen earlier
    for lineno, code in enumerate(code_lines, 1):
        if SERVE_FUNC_RE.match(code):
            in_function = True
            locked = False
            m = SERVE_CTOR_RE.search(code)
            exempt = bool(m and (m.group(2) == "~"
                                 or m.group(1) == m.group(3)))
        if not in_function:
            continue
        if SERVE_LOCK_RE.search(code):
            locked = True
            continue
        if exempt or locked:
            continue
        if SERVE_WRITE_RE.search(code):
            findings.append(
                f"{rel}:{lineno}: [R6] member write without a lock in "
                "src/serve; acquire a mutex first, use an atomic, or mark "
                "the class `Externally synchronized` (DESIGN.md §8.4)"
            )


def lint_timing(rel, raw_lines, code_lines, findings):
    """R8: raw clock reads in src/ must go through RGAE_SPAN /
    RGAE_TIMED_KERNEL (or carry a `// Raw timing:` opt-out nearby)."""
    if not rel.startswith(TIMING_SCOPE):
        return
    if rel.startswith(TIMING_ALLOW_PREFIXES):
        return
    for i, code in enumerate(code_lines):
        if not TIMING_RE.search(code):
            continue
        lo = max(0, i - TIMING_NOTE_WINDOW)
        if any(TIMING_NOTE in raw_lines[j] for j in range(lo, i + 1)):
            continue
        findings.append(
            f"{rel}:{i + 1}: [R8] raw clock read; time through RGAE_SPAN / "
            "RGAE_TIMED_KERNEL so the profiler sees it, or mark the site "
            "`// Raw timing: <why>` when the timestamp is product data "
            "(DESIGN.md §7)"
        )


def lint_raw_sync(rel, raw_lines, code_lines, findings):
    """R10: std synchronization primitives in src/ must go through the
    annotated wrappers in src/util/sync.h."""
    if not rel.startswith(SYNC_SCOPE) or rel in SYNC_ALLOW_FILES:
        return
    for i, code in enumerate(code_lines):
        if not SYNC_RAW_RE.search(code):
            continue
        findings.append(
            f"{rel}:{i + 1}: [R10] raw std synchronization; use rgae::Mutex"
            " / MutexLock / CondVar from src/util/sync.h so the lock carries"
            " thread-safety annotations (DESIGN.md §7)"
        )


def lint_simd_scope(rel, raw_lines, code_lines, findings):
    """R12: raw SIMD intrinsics belong to src/kernels/ — everything else
    reaches vector code through the dispatched kernel stubs."""
    if rel.startswith(SIMD_ALLOW_PREFIX):
        return
    for i, code in enumerate(code_lines):
        raw_simd = SIMD_RAW_RE.search(code)
        if not raw_simd and not SIMD_TARGET_RE.search(code):
            continue
        lo = max(0, i - SIMD_NOTE_WINDOW)
        if any(SIMD_NOTE in raw_lines[j] for j in range(lo, i + 1)):
            continue
        what = ("raw SIMD intrinsic" if raw_simd else
                "ISA target attribute or pragma (no runtime dispatch, and"
                " RGAE_KERNEL=scalar cannot turn it off)")
        findings.append(
            f"{rel}:{i + 1}: [R12] {what} outside src/kernels/;"
            " add the op to the kernel library behind a KernelStub (scalar"
            " reference + per-ISA tiers), or justify with"
            " `// Raw SIMD: <why>` (DESIGN.md §9)"
        )


def lint_guarded_by(rel, raw_lines, code_lines, findings):
    """R11: every `Mutex` member either appears in an RGAE_GUARDED_BY in
    the same file or carries a `// Protocol lock:` declaration of intent."""
    if not rel.startswith(SYNC_SCOPE) or rel in SYNC_ALLOW_FILES:
        return
    guarded = set()
    for code in code_lines:
        for m in GUARDED_BY_RE.finditer(code):
            guarded.add(m.group(1))
    for i, code in enumerate(code_lines):
        m = MUTEX_MEMBER_RE.match(code)
        if not m:
            continue
        name = m.group(1)
        if name in guarded:
            continue
        lo = max(0, i - PROTOCOL_NOTE_WINDOW)
        if any(PROTOCOL_NOTE in raw_lines[j] for j in range(lo, i + 1)):
            continue
        findings.append(
            f"{rel}:{i + 1}: [R11] Mutex member '{name}' guards no "
            "RGAE_GUARDED_BY member in this file; annotate the data it "
            "protects, or mark it `// Protocol lock: <what it serializes>` "
            "(DESIGN.md §7)"
        )


def lint_file(root, rel, findings):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()

    code_lines = [strip_comments_and_strings(l) for l in raw_lines]
    unordered_names = set()
    for code in code_lines:
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))

    in_determinism_scope = rel.startswith(
        tuple(d + "/" for d in DETERMINISM_DIRS))

    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        loc = f"{rel}:{lineno}"

        if in_determinism_scope:
            for pattern, name in DETERMINISM_TOKENS:
                if pattern.search(code):
                    findings.append(
                        f"{loc}: [R1] nondeterministic call ({name}); use a "
                        "seeded Rng or steady_clock"
                    )

        m = RANGE_FOR_RE.search(code)
        if m:
            target = m.group(1).strip()
            base = re.split(r"[.\->\[(]", target)[-1].strip()
            first = re.split(r"[.\->\[(]", target)[0].strip()
            if ("unordered_" in target or base in unordered_names
                    or first in unordered_names):
                findings.append(
                    f"{loc}: [R2] iteration over unordered container "
                    f"'{target}'; order is unspecified — use std::map/"
                    "std::set or collect-and-sort before emitting"
                )

        # The raw line: string stripping blanks the include path.
        inc = INCLUDE_RE.match(raw)
        if inc and not inc.group(1).startswith(
                ("src/", "bench/", "tests/", "examples/")):
            findings.append(
                f"{loc}: [R3] quoted include \"{inc.group(1)}\" is not "
                "repo-rooted; use \"src/...\"-style paths"
            )

        # `#include <new>` is not a raw new.
        is_include = code.lstrip().startswith("#") and "include" in code
        if RAW_NEW_RE.search(code) and not is_include \
                and "Never dies." not in raw:
            findings.append(
                f"{loc}: [R4] raw new; use std::make_unique or a container "
                "(leak-once singletons must carry a `// Never dies.` note)"
            )

        if USING_STD_RE.search(code):
            findings.append(f"{loc}: [R5] `using namespace std`")

    if rel.startswith(SERVE_SCOPE) and rel.endswith(".cc"):
        lint_serve_sync(root, rel, raw_lines, code_lines, findings)

    lint_timing(rel, raw_lines, code_lines, findings)
    lint_raw_sync(rel, raw_lines, code_lines, findings)
    lint_guarded_by(rel, raw_lines, code_lines, findings)
    lint_simd_scope(rel, raw_lines, code_lines, findings)

    if rel.startswith("src/") and rel.endswith(".h"):
        guard = expected_guard(rel)
        text = "\n".join(code_lines)
        if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
            findings.append(
                f"{rel}:1: [R3] missing or misnamed header guard; "
                f"expected {guard}"
            )


def scan_tree(root):
    """Lints every source file under `root`'s scan dirs; returns findings."""
    files = []
    for d in SCAN_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(EXTS):
                    files.append(
                        os.path.relpath(os.path.join(dirpath, name), root)
                    )
    files.sort()
    findings = []
    for rel in files:
        lint_file(root, rel, findings)
    return files, findings


# Seeded fixtures for --self-test: (relative path, contents, rules that MUST
# fire on the file, rules that must NOT). Every rule gets a violating
# fixture, and every opt-out comment or carve-out an exempted twin, so the
# self-test catches both a rule going blind and an opt-out losing effect.
SELF_TEST_FIXTURES = [
    (
        "src/fix/ambient_rng.cc",
        '#include "src/fix/ambient_rng.h"\n'
        "#include <cstdlib>\n"
        "namespace rgae {\n"
        "int Roll() { return std::rand(); }\n"
        "}  // namespace rgae\n",
        ["R1"],
        [],
    ),
    (
        "src/fix/unordered_iter.cc",
        '#include "src/fix/unordered_iter.h"\n'
        "#include <unordered_map>\n"
        "namespace rgae {\n"
        "int Total() {\n"
        "  std::unordered_map<int, int> counts;\n"
        "  int total = 0;\n"
        "  for (const auto& kv : counts) total += kv.second;\n"
        "  return total;\n"
        "}\n"
        "}  // namespace rgae\n",
        ["R2"],
        [],
    ),
    (
        "src/fix/unrooted_include.cc",
        '#include "helpers.h"\n'
        "namespace rgae {\n"
        "int Answer() { return 42; }\n"
        "}  // namespace rgae\n",
        ["R3"],
        [],
    ),
    (
        "src/fix/no_guard.h",
        '#include "src/util/sync.h"\n'
        "namespace rgae {\n"
        "int Answer();\n"
        "}  // namespace rgae\n",
        ["R3"],
        [],
    ),
    (
        "src/fix/raw_new.cc",
        '#include "src/fix/raw_new.h"\n'
        "namespace rgae {\n"
        "int* Make() { return new int(7); }\n"
        "}  // namespace rgae\n",
        ["R4"],
        [],
    ),
    (
        "src/fix/leak_once.cc",
        '#include "src/fix/leak_once.h"\n'
        "namespace rgae {\n"
        "Registry& Registry::Global() {\n"
        "  static Registry* const instance = new Registry();  // Never dies.\n"
        "  return *instance;\n"
        "}\n"
        "}  // namespace rgae\n",
        [],
        ["R4"],
    ),
    (
        "src/fix/using_std.cc",
        '#include "src/fix/using_std.h"\n'
        "using namespace std;\n",
        ["R5"],
        [],
    ),
    (
        # A class whose caller holds the lock opts out of R6.
        "src/serve/fix_external_sync.cc",
        '#include "src/serve/fix_external_sync.h"\n'
        "namespace rgae {\n"
        "namespace serve {\n"
        "// Externally synchronized: the owner holds its state mutex.\n"
        "void Fixture::Bump() {\n"
        "  ++count_;\n"
        "}\n"
        "}  // namespace serve\n"
        "}  // namespace rgae\n",
        [],
        ["R6"],
    ),
    (
        "src/fix/raw_clock.cc",
        '#include "src/fix/raw_clock.h"\n'
        "#include <chrono>\n"
        "namespace rgae {\n"
        "auto Stamp() { return std::chrono::steady_clock::now(); }\n"
        "}  // namespace rgae\n",
        ["R8"],
        [],
    ),
    (
        "src/fix/raw_clock_optout.cc",
        '#include "src/fix/raw_clock_optout.h"\n'
        "#include <chrono>\n"
        "namespace rgae {\n"
        "// Raw timing: fixture stores the timestamp as product data.\n"
        "auto Stamp() { return std::chrono::steady_clock::now(); }\n"
        "}  // namespace rgae\n",
        [],
        ["R8"],
    ),
    (
        "src/fix/raw_sync_bad.cc",
        '#include "src/fix/raw_sync_bad.h"\n'
        "#include <mutex>\n"
        "namespace rgae {\n"
        "std::mutex g_bad_mu;\n"
        "void Touch() { std::lock_guard<std::mutex> lock(g_bad_mu); }\n"
        "}  // namespace rgae\n",
        ["R10"],
        [],
    ),
    (
        "src/fix/unguarded_mutex.h",
        "#ifndef RGAE_FIX_UNGUARDED_MUTEX_H_\n"
        "#define RGAE_FIX_UNGUARDED_MUTEX_H_\n"
        '#include "src/util/sync.h"\n'
        "namespace rgae {\n"
        "class Widget {\n"
        " private:\n"
        "  Mutex mu_;\n"
        "  int value_ = 0;\n"
        "};\n"
        "}  // namespace rgae\n"
        "#endif  // RGAE_FIX_UNGUARDED_MUTEX_H_\n",
        ["R11"],
        [],
    ),
    (
        "src/fix/guarded_mutex.h",
        "#ifndef RGAE_FIX_GUARDED_MUTEX_H_\n"
        "#define RGAE_FIX_GUARDED_MUTEX_H_\n"
        '#include "src/util/sync.h"\n'
        "namespace rgae {\n"
        "class Gadget {\n"
        " private:\n"
        "  Mutex mu_;\n"
        "  int value_ RGAE_GUARDED_BY(mu_) = 0;\n"
        "  // Protocol lock: serializes Frob against Wobble.\n"
        "  Mutex order_mu_;\n"
        "};\n"
        "}  // namespace rgae\n"
        "#endif  // RGAE_FIX_GUARDED_MUTEX_H_\n",
        [],
        ["R11"],
    ),
    (
        # R6 must recognize MutexLock as a lock acquisition: a member write
        # after it is legal in src/serve.
        "src/serve/fix_mutexlock_write.cc",
        '#include "src/util/sync.h"\n'
        "namespace rgae {\n"
        "namespace serve {\n"
        "void Fixture::Bump() {\n"
        "  MutexLock lock(mu_);\n"
        "  ++count_;\n"
        "}\n"
        "}  // namespace serve\n"
        "}  // namespace rgae\n",
        [],
        ["R6"],
    ),
    (
        # ...and still fire with no lock in sight.
        "src/serve/fix_unlocked_write.cc",
        '#include "src/util/sync.h"\n'
        "namespace rgae {\n"
        "namespace serve {\n"
        "void Fixture::Bump() {\n"
        "  ++count_;\n"
        "}\n"
        "}  // namespace serve\n"
        "}  // namespace rgae\n",
        ["R6"],
        [],
    ),
    (
        "src/fix/raw_simd_bad.cc",
        '#include "src/fix/raw_simd_bad.h"\n'
        "#include <immintrin.h>\n"
        "namespace rgae {\n"
        "double SumFour(const double* p) {\n"
        "  __m256d v = _mm256_loadu_pd(p);\n"
        "  return p[0] + p[1];\n"
        "}\n"
        "}  // namespace rgae\n",
        ["R12"],
        [],
    ),
    (
        # A target attribute compiles one function for AVX2 with no
        # dispatch: each spelling fires R12 on its own.
        "src/fix/target_attr_bad.cc",
        '#include "src/fix/target_attr_bad.h"\n'
        "namespace rgae {\n"
        '__attribute__((target("avx2"))) double Sum(const double* p) {\n'
        "  return p[0] + p[1];\n"
        "}\n"
        "}  // namespace rgae\n",
        ["R12"],
        [],
    ),
    (
        "src/fix/gnu_target_bad.cc",
        '#include "src/fix/gnu_target_bad.h"\n'
        "namespace rgae {\n"
        '[[gnu::target("avx2,fma")]] double Sum(const double* p) {\n'
        "  return p[0] + p[1];\n"
        "}\n"
        "}  // namespace rgae\n",
        ["R12"],
        [],
    ),
    (
        "src/fix/pragma_target_bad.cc",
        '#include "src/fix/pragma_target_bad.h"\n'
        '#pragma GCC target("avx2")\n'
        "namespace rgae {\n"
        "double Sum(const double* p) { return p[0] + p[1]; }\n"
        "}  // namespace rgae\n",
        ["R12"],
        [],
    ),
    (
        # The same tokens are legal inside src/kernels/ (tier TUs) and
        # elsewhere under a `// Raw SIMD:` justification.
        "src/kernels/fix_simd_tier.cc",
        '#include "src/kernels/fix_simd_tier.h"\n'
        "#include <immintrin.h>\n"
        '#pragma GCC target("avx2")\n'
        "namespace rgae {\n"
        "namespace kernels {\n"
        "double SumFour(const double* p) {\n"
        "  __m256d v = _mm256_loadu_pd(p);\n"
        "  return p[0] + p[1];\n"
        "}\n"
        '__attribute__((target("avx2"))) double Two(const double* p) {\n'
        "  return p[0] + p[1];\n"
        "}\n"
        '[[gnu::target("avx2")]] double Three(const double* p) {\n'
        "  return p[0] + p[1] + p[2];\n"
        "}\n"
        "}  // namespace kernels\n"
        "}  // namespace rgae\n",
        [],
        ["R12"],
    ),
    (
        "src/fix/raw_simd_optout.cc",
        '#include "src/fix/raw_simd_optout.h"\n'
        "namespace rgae {\n"
        "// Raw SIMD: fixture justifies a one-off prefetch intrinsic.\n"
        "void Warm(const double* p) { _mm_prefetch(p, 1); }\n"
        "// Raw SIMD: fixture justifies a one-off target attribute.\n"
        '__attribute__((target("popcnt"))) int Bits(unsigned v) {\n'
        "  return __builtin_popcount(v);\n"
        "}\n"
        "}  // namespace rgae\n",
        [],
        ["R12"],
    ),
]


def reported_rules():
    """Every rule id a finding can carry, read off the `[Rn]` tags of this
    file's finding messages, so a new rule cannot ship without a fixture."""
    with open(__file__, encoding="utf-8") as f:
        return set(re.findall(r"\[(R\d+)\]", f.read()))


def run_self_test():
    """Writes the seeded fixtures into a temp tree, lints it, and checks
    every expected rule fired (and no suppressed rule leaked), and that
    every reportable rule has a fixture that fires it."""
    import tempfile

    covered = {rule for _, _, must_fire, _ in SELF_TEST_FIXTURES
               for rule in must_fire}
    failures = [
        f"self-test: no fixture fires {rule}"
        for rule in sorted(reported_rules() - covered,
                           key=lambda r: int(r[1:]))
    ]
    with tempfile.TemporaryDirectory(prefix="rgae_lint_selftest_") as root:
        for rel, content, _, _ in SELF_TEST_FIXTURES:
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        _, findings = scan_tree(root)

        by_file = {}
        for finding in findings:
            rel = finding.split(":", 1)[0]
            rule = finding.split("[", 1)[1].split("]", 1)[0]
            by_file.setdefault(rel, set()).add(rule)

        for rel, _, must_fire, must_not in SELF_TEST_FIXTURES:
            fired = by_file.get(rel, set())
            for rule in must_fire:
                if rule not in fired:
                    failures.append(
                        f"self-test: {rel}: expected {rule} to fire, "
                        f"got {sorted(fired) or 'nothing'}"
                    )
            for rule in must_not:
                if rule in fired:
                    failures.append(
                        f"self-test: {rel}: {rule} fired on a clean/"
                        "opted-out fixture"
                    )

    for failure in failures:
        print(failure)
    status = "FAILED" if failures else "ok"
    print(
        f"rgae_lint --self-test: {len(SELF_TEST_FIXTURES)} fixtures, "
        f"{len(failures)} failure(s) [{status}]",
        file=sys.stderr,
    )
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="lint seeded fixture files and verify rule coverage",
    )
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    root = os.path.abspath(args.root)

    files, findings = scan_tree(root)

    for finding in findings:
        print(finding)
    print(
        f"rgae_lint: {len(files)} files scanned, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
