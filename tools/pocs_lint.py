#!/usr/bin/env python3
"""Repo linter enforcing presto_ocs C++ invariants.

Rules (each can be suppressed on a line with  // pocs-lint: allow(<rule>)):

  naked-new          `new` outside make_unique/make_shared/placement forms.
                     Ownership must be expressed with smart pointers.
  std-rand           std::rand/srand/rand(). Benchmarks and tests must use
                     <random> engines with fixed seeds for reproducibility.
  pragma-once        Every header starts with `#pragma once` (after the
                     leading comment block).
  relative-include   Project includes are rooted at src/ ("common/status.h"),
                     never relative ("../common/status.h").
  quoted-system      System/third-party headers use <>, project headers "".
  manual-lock        .lock()/.unlock() (or .Lock()/.Unlock()) on a mutex
                     object outside an RAII guard (pocs::MutexLock and
                     friends). Manual unlock paths leak the lock on early
                     return and break exception safety.
  unannotated-mutex  Three sub-checks feeding the compiler-enforced lock
                     discipline (common/thread_annotations.h):
                     (a) declaring a raw std::mutex/std::shared_mutex
                     object — Thread Safety Analysis cannot see it; use
                     pocs::Mutex / pocs::SharedMutex; (b) declaring a
                     std::counting_semaphore/binary_semaphore/latch/
                     barrier — blocking primitives the analysis is equally
                     blind to; build admission/throttle state on
                     pocs::Mutex + condition_variable (see
                     engine/admission.h) so the guard annotations keep
                     working; (c) inside a class that declares a
                     pocs::Mutex member, any data member declared *after*
                     the mutex that carries no POCS_GUARDED_BY/
                     POCS_PT_GUARDED_BY (atomics, condition variables,
                     const and static members are exempt — they need no
                     guard).
  row-loop-in-hot-path
                     A per-row accessor (Get{Bool,Int32,Int64,Float64,
                     String,Datum}, AsDouble) called inside a for/while
                     body in a hot-path TU (src/exec/*.cpp,
                     src/ocs/*.cpp, src/substrait/eval.cpp, and the
                     write path's src/format/*.cpp). Row loops over
                     per-element getters are exactly what the
                     vectorized kernels (columnar/kernels.h, DESIGN.md
                     §15) replace: batch operators should go through
                     CompareScalar/Take/HashRows or typed spans, and
                     the Parquet-lite writer's statistics and page
                     encoders read typed spans.
                     Suppress with the allow comment where per-row access
                     is genuinely required (e.g. key equality probes on
                     hash collisions).
  throwing-conversion
                     std::sto{i,l,ll,ul,ull,f,d,ld} or std::ato{i,l,ll,f}
                     in src/. Library code returns Status: the sto*
                     family throws on malformed or out-of-range text (an
                     uncaught exception aborts the process) and ato*
                     silently returns garbage. Parse numbers with
                     std::from_chars and report a Status instead.

Modes:
  pocs_lint.py --root <repo>                 lint src/ tests/ bench/ examples/
  pocs_lint.py --root <repo> --nodiscard-check
                                             additionally compile a snippet
                                             that discards a Status and a
                                             Result and require the compiler
                                             to reject both (guards the
                                             [[nodiscard]] annotations that
                                             make a discarded Status a
                                             build error under
                                             -DPOCS_WERROR=ON).
  pocs_lint.py --root <repo> --thread-safety-check [--clang <clang++>]
                                             compile probe snippets with
                                             clang and require the thread
                                             safety analysis to reject a
                                             lock-free read of a
                                             POCS_GUARDED_BY field and an
                                             out-of-order acquisition —
                                             guards against the annotation
                                             macros silently compiling away.

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

LINT_DIRS = ["src", "tests", "bench", "examples"]
CPP_EXTENSIONS = {".cpp", ".cc", ".h", ".hpp"}

ALLOW_RE = re.compile(r"pocs-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Headers that live outside this repo and therefore must use <> includes.
SYSTEM_INCLUDE_PREFIXES = ("gtest/", "gmock/", "benchmark/")


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line structure.

    Lint regexes run on the result so `new` in a comment or "rand" in a
    string never fires. Raw strings are handled; escapes inside normal
    literals are respected.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == 'R' and nxt == '"':
                m = re.match(r'R"([^(]*)\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append(" " * (len(m.group(0))))
                    i += len(m.group(0))
                else:
                    out.append(c)
                    i += 1
            elif c == '"':
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append('"')
                i += 1
            else:
                out.append(" ")
                i += 1
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def line_allows(raw_line, rule):
    m = ALLOW_RE.search(raw_line)
    if not m:
        return False
    allowed = {r.strip() for r in m.group(1).split(",")}
    return rule in allowed


def allows(raw_lines, line_no, rule):
    """A suppression applies on the flagged line or the line above it."""
    for no in (line_no, line_no - 1):
        if 1 <= no <= len(raw_lines) and line_allows(raw_lines[no - 1], rule):
            return True
    return False


def lint_file(path, rel_path, findings):
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    stripped = strip_comments_and_strings(raw)
    lines = stripped.splitlines()
    is_header = os.path.splitext(path)[1] in {".h", ".hpp"}

    def report(line_no, rule, message):
        if not allows(raw_lines, line_no, rule):
            findings.append(Finding(rel_path, line_no, rule, message))

    # ---- pragma-once -------------------------------------------------------
    if is_header:
        has_pragma = any(line.strip() == "#pragma once" for line in lines)
        if not has_pragma:
            report(1, "pragma-once", "header missing #pragma once")

    naked_new_re = re.compile(r"(?<![:_\w])new\s+[\w:<]")
    std_rand_re = re.compile(r"\b(?:std::)?s?rand\s*\(")
    manual_lock_re = re.compile(
        r"\b(\w*(?:mu|mutex|mtx)\w*)(?:_)?\s*(?:\.|->)\s*"
        r"(lock_shared|unlock_shared|lock|unlock|"
        r"LockShared|UnlockShared|Lock|Unlock)\s*\(\s*\)"
    )
    raw_mutex_decl_re = re.compile(
        r"\bstd\s*::\s*((?:recursive_|timed_|shared_timed_|shared_)?mutex)"
        r"\s+\w+\s*[;={[]"
    )
    # Blocking primitives Thread Safety Analysis cannot model: a guarded
    # member protected by a semaphore/latch/barrier looks unguarded to the
    # compiler, so the discipline silently erodes. Build on pocs::Mutex +
    # std::condition_variable instead (engine/admission.h,
    # connectors/ocs/split_dispatcher.h are the reference patterns).
    raw_blocking_decl_re = re.compile(
        r"\bstd\s*::\s*(counting_semaphore|binary_semaphore|latch|barrier)"
        r"\b\s*(?:<[^<>;]*>)?\s+\w+\s*[;={[(]"
    )
    include_re = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')

    for idx, line in enumerate(lines):
        line_no = idx + 1

        # Include paths live inside string literals, which the stripped
        # text blanks out — match them on the raw line.
        raw_line = raw_lines[idx] if idx < len(raw_lines) else ""
        m = include_re.match(raw_line)
        if m:
            quote, target = m.groups()
            if quote == '"':
                if target.startswith("../") or "/../" in target:
                    report(line_no, "relative-include",
                           f'relative include "{target}"; root at src/')
                if target.startswith(SYSTEM_INCLUDE_PREFIXES):
                    report(line_no, "quoted-system",
                           f'third-party header "{target}" must use <>')

        if naked_new_re.search(line):
            report(line_no, "naked-new",
                   "naked new; use std::make_unique/make_shared")

        if std_rand_re.search(line):
            report(line_no, "std-rand",
                   "std::rand/srand; use a seeded <random> engine")

        m = manual_lock_re.search(line)
        if m:
            report(line_no, "manual-lock",
                   f"manual {m.group(2)}() on '{m.group(1)}'; use "
                   "pocs::MutexLock (or SharedMutexLock/SharedReaderLock)")

        m = raw_mutex_decl_re.search(line)
        if m:
            report(line_no, "unannotated-mutex",
                   f"raw std::{m.group(1)} declaration; use pocs::Mutex / "
                   "pocs::SharedMutex (common/thread_annotations.h) so the "
                   "thread safety analysis can see it")

        m = raw_blocking_decl_re.search(line)
        if m:
            report(line_no, "unannotated-mutex",
                   f"std::{m.group(1)} declaration; thread safety analysis "
                   "cannot model it, so guarded state behind it goes "
                   "unchecked — use pocs::Mutex + std::condition_variable "
                   "(see engine/admission.h for the pattern)")

    check_unannotated_members(stripped, report)
    check_row_loop_in_hot_path(stripped, rel_path, report)
    check_throwing_conversion(stripped, rel_path, report)


POCS_MUTEX_MEMBER_RE = re.compile(
    r"^(?:mutable\s+)?(?:pocs\s*::\s*)?(?:Mutex|SharedMutex)\s+\w+")

# Member types that need no POCS_GUARDED_BY: they synchronize themselves
# (atomics), are waited on rather than guarded (condition variables), or
# cannot be written after construction (const/static/constexpr).
UNGUARDED_EXEMPT_RE = re.compile(
    r"std\s*::\s*atomic|condition_variable|"
    r"^(?:static|constexpr|const|using|typedef|friend)\b")


def check_unannotated_members(stripped, report):
    """Part (b) of unannotated-mutex: inside a class/struct that declares a
    pocs::Mutex member, every data member declared after it must carry
    POCS_GUARDED_BY/POCS_PT_GUARDED_BY (or be exempt/suppressed).

    Works on the comment/string-stripped text: class bodies are brace-
    matched, nested brace groups (methods, nested types, initializers) are
    blanked to `;`, and the remaining `;`-separated member declarations are
    inspected in order.
    """
    for head in re.finditer(r"\b(?:class|struct)\b[^;{}()]*{", stripped):
        open_pos = head.end() - 1
        depth = 0
        close_pos = None
        for i in range(open_pos, len(stripped)):
            c = stripped[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    close_pos = i
                    break
        if close_pos is None:
            continue
        body = list(stripped[open_pos + 1:close_pos])
        # Blank nested brace groups, keeping newlines for line numbers and
        # terminating each with `;` so inline method definitions read as
        # complete (skippable) statements.
        depth = 0
        for i, c in enumerate(body):
            if c == "{":
                depth += 1
                body[i] = " "
            elif c == "}":
                depth -= 1
                body[i] = ";"
            elif depth > 0 and c != "\n":
                body[i] = " "
        body = "".join(body)

        saw_mutex = False
        pos = 0
        for stmt in body.split(";"):
            stmt_start = pos
            pos += len(stmt) + 1
            # Line of the first non-blank character of the statement.
            lead = len(stmt) - len(stmt.lstrip())
            line_no = 1 + stripped.count("\n", 0, open_pos + 1 + stmt_start +
                                         lead)
            flat = " ".join(stmt.split())
            flat = re.sub(r"^(?:public|protected|private)\s*:\s*", "", flat)
            if not flat:
                continue
            if POCS_MUTEX_MEMBER_RE.match(flat):
                saw_mutex = True
                continue
            if not saw_mutex:
                continue
            if "POCS_GUARDED_BY" in flat or "POCS_PT_GUARDED_BY" in flat:
                continue
            # Anything with parens that is not an annotation is a function
            # declaration/definition, not a data member.
            if "(" in flat:
                continue
            if UNGUARDED_EXEMPT_RE.search(flat):
                continue
            m = re.search(r"(\w+)\s*(?:=.*)?$", flat)
            member = m.group(1) if m else flat
            report(line_no, "unannotated-mutex",
                   f"member '{member}' follows a pocs::Mutex in this class "
                   "but has no POCS_GUARDED_BY; annotate it (or suppress "
                   "with a comment explaining why it needs no guard)")


THROWING_CONVERSION_RE = re.compile(
    r"\bstd\s*::\s*(sto(?:i|l|ll|ul|ull|f|d|ld)|ato(?:i|l|ll|f))\s*\(")


def check_throwing_conversion(stripped, rel_path, report):
    """throwing-conversion: flag std::sto*/std::ato* number parsing in
    src/; library code parses with std::from_chars and returns Status."""
    if not rel_path.replace(os.sep, "/").startswith("src/"):
        return
    for m in THROWING_CONVERSION_RE.finditer(stripped):
        line_no = 1 + stripped.count("\n", 0, m.start())
        report(line_no, "throwing-conversion",
               f"std::{m.group(1)}() throws or silently misparses; use "
               "std::from_chars and return a Status")


# TUs on the batch-execution hot path: the engine's operators, the
# storage node's embedded engine and the expression evaluator, plus the
# write path every ingested object crosses: the Parquet-lite writer, its
# statistics and its page encoders. Headers are exempt (inline helpers
# like Column::GetInt64 itself live there), as are tests/benches (naive
# reference loops are the point there).
HOT_PATH_FILE_RE = re.compile(
    r"^src/(?:(?:exec|ocs|format)/[^/]+\.(?:cpp|cc)|substrait/eval\.cpp)$")
ROW_GET_RE = re.compile(
    r"(?:\.|->)\s*(Get(?:Bool|Int32|Int64|Float64|String|Datum)|AsDouble)"
    r"\s*\(")


def check_row_loop_in_hot_path(stripped, rel_path, report):
    """row-loop-in-hot-path: flag per-row typed accessors inside loop
    bodies in hot-path TUs, the write path's src/format/ included; batch
    work belongs in the vectorized kernels or typed spans (DESIGN.md
    §15)."""
    if not HOT_PATH_FILE_RE.match(rel_path.replace(os.sep, "/")):
        return
    reported = set()
    for m in re.finditer(r"\b(?:for|while)\s*\(", stripped):
        # Walk past the loop header's parens, then bound the body: a
        # braced compound statement or a single statement up to ';'.
        i, depth = m.end() - 1, 0
        while i < len(stripped):
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        j = i + 1
        while j < len(stripped) and stripped[j] in " \t\n":
            j += 1
        if j >= len(stripped):
            continue
        if stripped[j] == "{":
            k, depth = j, 0
            while k < len(stripped):
                if stripped[k] == "{":
                    depth += 1
                elif stripped[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            start, stop = j, k
        else:
            stop = stripped.find(";", j)
            if stop == -1:
                continue
            start = j
        for g in ROW_GET_RE.finditer(stripped, start, stop):
            line_no = 1 + stripped.count("\n", 0, g.start())
            if line_no in reported:  # nested loops: report a line once
                continue
            reported.add(line_no)
            report(line_no, "row-loop-in-hot-path",
                   f"per-row {g.group(1)}() in a loop on the execution "
                   "or write hot path; use the vectorized kernels "
                   "(columnar/kernels.h) or typed spans instead")


def run_nodiscard_check(root):
    """Compile-fail check: discarding Status/Result must not compile warning-
    free. Returns a list of error strings (empty = pass)."""
    cxx = os.environ.get("CXX", "c++")
    snippet = r"""
#include "common/status.h"
pocs::Status MakeStatus() { return pocs::Status::Internal("x"); }
pocs::Result<int> MakeResult() { return pocs::Status::Internal("x"); }
int main() {
  MakeStatus();   // must trigger -Werror=unused-result
  MakeResult();   // must trigger -Werror=unused-result
  return 0;
}
"""
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "nodiscard_check.cpp")
        with open(src, "w", encoding="utf-8") as f:
            f.write(snippet)
        cmd = [cxx, "-std=c++20", "-I", os.path.join(root, "src"),
               "-Werror=unused-result", "-fsyntax-only", src]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
        except FileNotFoundError:
            return [f"nodiscard-check: compiler '{cxx}' not found"]
        if proc.returncode == 0:
            errors.append(
                "nodiscard-check: discarding Status/Result compiled clean — "
                "[[nodiscard]] annotations are missing or broken")
        else:
            for probe in ("MakeStatus", "MakeResult"):
                if probe not in proc.stderr:
                    errors.append(
                        f"nodiscard-check: no unused-result diagnostic for "
                        f"{probe}()")
    return errors


def find_clang(explicit):
    """Resolve a clang++ binary: --clang flag, then $POCS_CLANGXX, then
    common names on PATH. Returns None when unavailable."""
    candidates = []
    if explicit:
        candidates.append(explicit)
    env = os.environ.get("POCS_CLANGXX")
    if env:
        candidates.append(env)
    candidates += ["clang++"] + [f"clang++-{v}" for v in range(21, 13, -1)]
    for cand in candidates:
        found = shutil.which(cand)
        if found:
            return found
    return None


# Probe 1: a lock-free read of a guarded field. The analysis MUST reject
# this; if it compiles, the annotations are compiling away (wrong compiler,
# broken macro plumbing) and the entire discipline is silently off.
TS_PROBE_BAD_READ = r"""
#include "common/thread_annotations.h"
struct Probe {
  pocs::Mutex mu;
  int guarded POCS_GUARDED_BY(mu) = 0;
  int ReadWithoutLock() { return guarded; }
};
int main() {
  Probe p;
  return p.ReadWithoutLock();
}
"""

# Probe 2: the same read under pocs::MutexLock. MUST compile: proves the
# scoped capability actually satisfies the requirement (a false positive
# here would make the whole build unshippable).
TS_PROBE_GOOD_READ = r"""
#include "common/thread_annotations.h"
struct Probe {
  pocs::Mutex mu;
  int guarded POCS_GUARDED_BY(mu) = 0;
  int ReadWithLock() {
    pocs::MutexLock lock(mu);
    return guarded;
  }
};
int main() {
  Probe p;
  return p.ReadWithLock();
}
"""

# Probe 3: acquiring in violation of a declared ACQUIRED_AFTER ordering.
# MUST be rejected under -Wthread-safety-beta — this is the sub-analysis
# that enforces the repo's documented lock nesting (DESIGN.md SS11).
TS_PROBE_BAD_ORDER = r"""
#include "common/thread_annotations.h"
struct Probe {
  pocs::Mutex a;
  pocs::Mutex b POCS_ACQUIRED_AFTER(a);
  void WrongOrder() {
    b.Lock();
    a.Lock();
    a.Unlock();
    b.Unlock();
  }
};
int main() {
  Probe p;
  p.WrongOrder();
  return 0;
}
"""


def run_thread_safety_check(root, clang):
    """Compile-fail checks for the thread safety annotations. Returns a
    list of error strings (empty = pass)."""
    cxx = find_clang(clang)
    if cxx is None:
        return ["thread-safety-check: no clang++ found (the analysis is "
                "clang-only); pass --clang or set $POCS_CLANGXX"]
    base = [cxx, "-std=c++20", "-I", os.path.join(root, "src"),
            "-Wthread-safety", "-Wthread-safety-beta",
            "-Werror=thread-safety", "-Werror=thread-safety-beta",
            "-fsyntax-only"]
    probes = [
        ("guarded-read-without-lock", TS_PROBE_BAD_READ, False),
        ("guarded-read-with-lock", TS_PROBE_GOOD_READ, True),
        ("out-of-order-acquire", TS_PROBE_BAD_ORDER, False),
    ]
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, snippet, must_compile in probes:
            src = os.path.join(tmp, name.replace("-", "_") + ".cpp")
            with open(src, "w", encoding="utf-8") as f:
                f.write(snippet)
            try:
                proc = subprocess.run(base + [src], capture_output=True,
                                      text=True, timeout=120)
            except (FileNotFoundError, subprocess.TimeoutExpired) as e:
                return [f"thread-safety-check: cannot run {cxx}: {e}"]
            if must_compile and proc.returncode != 0:
                errors.append(
                    f"thread-safety-check: probe '{name}' must compile "
                    f"clean but was rejected:\n{proc.stderr.strip()}")
            elif not must_compile:
                if proc.returncode == 0:
                    errors.append(
                        f"thread-safety-check: probe '{name}' compiled "
                        "clean — the annotations are compiling away or the "
                        "analysis is off")
                elif "thread-safety" not in proc.stderr:
                    errors.append(
                        f"thread-safety-check: probe '{name}' failed for a "
                        f"reason other than the thread safety analysis:\n"
                        f"{proc.stderr.strip()}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repo root")
    parser.add_argument("--nodiscard-check", action="store_true",
                        help="also run the [[nodiscard]] compile-fail check")
    parser.add_argument("--thread-safety-check", action="store_true",
                        help="also run the clang thread-safety compile-fail "
                             "probes")
    parser.add_argument("--clang", default=None,
                        help="clang++ binary for --thread-safety-check")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: repo dirs)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    files = []
    if args.paths:
        files = [os.path.abspath(p) for p in args.paths]
    else:
        for d in LINT_DIRS:
            base = os.path.join(root, d)
            if not os.path.isdir(base):
                continue
            for dirpath, _, filenames in os.walk(base):
                for fn in sorted(filenames):
                    if os.path.splitext(fn)[1] in CPP_EXTENSIONS:
                        files.append(os.path.join(dirpath, fn))

    if not files:
        # A typo'd --root or an empty checkout must not read as a clean
        # pass, especially in CI.
        print(f"pocs_lint: no lintable files under {root}", file=sys.stderr)
        return 2

    findings = []
    for path in files:
        rel = os.path.relpath(path, root)
        try:
            lint_file(path, rel, findings)
        except (OSError, UnicodeDecodeError) as e:
            print(f"pocs_lint: cannot read {rel}: {e}", file=sys.stderr)
            return 2

    for f in findings:
        print(f)

    check_errors = []
    if args.nodiscard_check:
        check_errors += run_nodiscard_check(root)
    if args.thread_safety_check:
        check_errors += run_thread_safety_check(root, args.clang)
    for e in check_errors:
        print(e)

    total = len(findings) + len(check_errors)
    print(f"pocs_lint: {total} finding(s) across {len(files)} file(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
