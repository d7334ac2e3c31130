#!/usr/bin/env python3
"""Self-checks for tools/pocs_lint.py — the repo's C++ invariant linter.

The linter gates every PR, so each rule gets positive (fires), negative
(stays quiet), and suppression coverage here. The thread-safety compile
probes run only where a clang++ is available (the analysis is clang-only);
everything else is pure-Python and runs everywhere. Run directly:

    python3 tools/test_pocs_lint.py
"""

import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
POCS_LINT = os.path.join(TOOLS_DIR, "pocs_lint.py")
REPO_ROOT = os.path.dirname(TOOLS_DIR)

sys.path.insert(0, TOOLS_DIR)
import pocs_lint  # noqa: E402  (needs TOOLS_DIR on sys.path)

HAVE_CLANG = pocs_lint.find_clang(None) is not None


class LintRunner(unittest.TestCase):
    """Base: a throwaway repo root with a src/ dir the linter scans."""

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)
        self.root = self._dir.name
        os.mkdir(os.path.join(self.root, "src"))

    def write(self, rel_path, content):
        path = os.path.join(self.root, rel_path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)
        return path

    def run_lint(self, *extra):
        return subprocess.run(
            [sys.executable, POCS_LINT, "--root", self.root, *extra],
            capture_output=True, text=True)

    def assert_finding(self, result, rule, path_fragment=None):
        self.assertEqual(result.returncode, 1,
                         result.stdout + result.stderr)
        self.assertIn(f"[{rule}]", result.stdout)
        if path_fragment:
            self.assertIn(path_fragment, result.stdout)

    def assert_clean(self, result):
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)


class BasicRulesTest(LintRunner):
    def test_missing_pragma_once_fires(self):
        self.write("src/a.h", "namespace x {}\n")
        self.assert_finding(self.run_lint(), "pragma-once", "a.h")

    def test_pragma_once_present_is_clean(self):
        self.write("src/a.h", "#pragma once\nnamespace x {}\n")
        self.assert_clean(self.run_lint())

    def test_relative_include_fires(self):
        self.write("src/a.cpp", '#include "../common/status.h"\n')
        self.assert_finding(self.run_lint(), "relative-include")

    def test_quoted_system_include_fires(self):
        self.write("src/a.cpp", '#include "gtest/gtest.h"\n')
        self.assert_finding(self.run_lint(), "quoted-system")

    def test_angle_system_include_is_clean(self):
        self.write("src/a.cpp", "#include <gtest/gtest.h>\n")
        self.assert_clean(self.run_lint())

    def test_naked_new_fires(self):
        self.write("src/a.cpp", "int* p = new int(3);\n")
        self.assert_finding(self.run_lint(), "naked-new")

    def test_naked_new_in_comment_is_clean(self):
        self.write("src/a.cpp", "// a new int would be wrong here\n")
        self.assert_clean(self.run_lint())

    def test_std_rand_fires(self):
        self.write("src/a.cpp", "int x() { return std::rand(); }\n")
        self.assert_finding(self.run_lint(), "std-rand")

    def test_suppression_on_same_line(self):
        self.write("src/a.cpp",
                   "int* p = new int(3);  // pocs-lint: allow(naked-new)\n")
        self.assert_clean(self.run_lint())

    def test_suppression_on_previous_line(self):
        self.write("src/a.cpp",
                   "// pocs-lint: allow(naked-new)\nint* p = new int(3);\n")
        self.assert_clean(self.run_lint())

    def test_suppression_is_rule_specific(self):
        self.write("src/a.cpp",
                   "int* p = new int(3);  // pocs-lint: allow(std-rand)\n")
        self.assert_finding(self.run_lint(), "naked-new")

    def test_empty_root_is_hard_error(self):
        self.assertEqual(self.run_lint().returncode, 2)


class ManualLockTest(LintRunner):
    def test_lowercase_manual_lock_fires(self):
        self.write("src/a.cpp", "void f() { mu_.lock(); }\n")
        self.assert_finding(self.run_lint(), "manual-lock")

    def test_capitalized_manual_lock_fires(self):
        self.write("src/a.cpp", "void f() { mu_.Lock(); }\n")
        self.assert_finding(self.run_lint(), "manual-lock")

    def test_manual_unlock_shared_fires(self):
        self.write("src/a.cpp", "void f() { mutex->unlock_shared(); }\n")
        self.assert_finding(self.run_lint(), "manual-lock")

    def test_raii_guard_is_clean(self):
        self.write("src/a.cpp", "void f() { pocs::MutexLock lock(mu_); }\n")
        self.assert_clean(self.run_lint())

    def test_non_mutex_object_is_clean(self):
        self.write("src/a.cpp", "void f() { file_.lock(); }\n")
        self.assert_clean(self.run_lint())


class UnannotatedMutexTest(LintRunner):
    def test_raw_std_mutex_member_fires(self):
        self.write("src/a.h",
                   "#pragma once\n#include <mutex>\n"
                   "class A {\n  std::mutex mu_;\n};\n")
        self.assert_finding(self.run_lint(), "unannotated-mutex")

    def test_raw_shared_mutex_member_fires(self):
        self.write("src/a.h",
                   "#pragma once\n#include <shared_mutex>\n"
                   "class A {\n  mutable std::shared_mutex mu_;\n};\n")
        self.assert_finding(self.run_lint(), "unannotated-mutex")

    def test_raw_mutex_local_fires(self):
        self.write("src/a.cpp",
                   "#include <mutex>\nvoid f() { std::mutex local_mu; }\n")
        self.assert_finding(self.run_lint(), "unannotated-mutex")

    def test_mutex_reference_param_is_clean(self):
        # References/pointers don't own a new lock; only declarations of
        # raw mutex objects are flagged.
        self.write("src/a.cpp",
                   "#include <mutex>\nvoid f(std::mutex& mu);\n")
        self.assert_clean(self.run_lint())

    def test_counting_semaphore_member_fires(self):
        # Semaphores are invisible to Thread Safety Analysis: state they
        # protect looks unguarded, so admission/throttle layers must be
        # built on pocs::Mutex + condition_variable instead.
        self.write("src/a.h",
                   "#pragma once\n#include <semaphore>\n"
                   "class Throttle {\n"
                   "  std::counting_semaphore<8> slots_{8};\n"
                   "};\n")
        result = self.run_lint()
        self.assert_finding(result, "unannotated-mutex")
        self.assertIn("counting_semaphore", result.stdout)

    def test_binary_semaphore_local_fires(self):
        self.write("src/a.cpp",
                   "#include <semaphore>\n"
                   "void f() { std::binary_semaphore ready{0}; }\n")
        self.assert_finding(self.run_lint(), "unannotated-mutex")

    def test_latch_and_barrier_fire(self):
        self.write("src/a.cpp",
                   "#include <latch>\n#include <barrier>\n"
                   "void f() {\n"
                   "  std::latch done(4);\n"
                   "  std::barrier sync_point(4);\n"
                   "}\n")
        result = self.run_lint()
        self.assert_finding(result, "unannotated-mutex")
        self.assertIn("latch", result.stdout)
        self.assertIn("barrier", result.stdout)

    def test_semaphore_suppression_is_honored(self):
        self.write("src/a.cpp",
                   "#include <semaphore>\n"
                   "// Bounded handoff to a C API; no guarded state.\n"
                   "std::binary_semaphore g_io_gate{1};"
                   "  // pocs-lint: allow(unannotated-mutex)\n")
        self.assert_clean(self.run_lint())

    def test_unguarded_member_after_pocs_mutex_fires(self):
        self.write("src/a.h",
                   "#pragma once\n"
                   '#include "common/thread_annotations.h"\n'
                   "class A {\n"
                   "  mutable pocs::Mutex mu_;\n"
                   "  int counter_ = 0;\n"
                   "};\n")
        result = self.run_lint()
        self.assert_finding(result, "unannotated-mutex")
        self.assertIn("counter_", result.stdout)

    def test_guarded_members_are_clean(self):
        self.write("src/a.h",
                   "#pragma once\n"
                   '#include "common/thread_annotations.h"\n'
                   "class A {\n"
                   "  mutable pocs::Mutex mu_;\n"
                   "  int counter_ POCS_GUARDED_BY(mu_) = 0;\n"
                   "  int* data_ POCS_PT_GUARDED_BY(mu_) = nullptr;\n"
                   "};\n")
        self.assert_clean(self.run_lint())

    def test_exempt_member_types_are_clean(self):
        # Atomics synchronize themselves, condition variables are waited
        # on rather than guarded, const/static members cannot be written.
        self.write("src/a.h",
                   "#pragma once\n"
                   "#include <atomic>\n"
                   "#include <condition_variable>\n"
                   '#include "common/thread_annotations.h"\n'
                   "class A {\n"
                   "  pocs::Mutex mu_;\n"
                   "  std::condition_variable cv_;\n"
                   "  std::atomic<int> hits_{0};\n"
                   "  const int limit_ = 8;\n"
                   "  static int shared_default;\n"
                   "};\n")
        self.assert_clean(self.run_lint())

    def test_members_before_the_mutex_are_clean(self):
        # Declaration order is the annotation contract: only members after
        # the mutex are assumed to be in its footprint.
        self.write("src/a.h",
                   "#pragma once\n"
                   '#include "common/thread_annotations.h"\n'
                   "class A {\n"
                   "  int config_value_ = 0;\n"
                   "  pocs::Mutex mu_;\n"
                   "  int state_ POCS_GUARDED_BY(mu_) = 0;\n"
                   "};\n")
        self.assert_clean(self.run_lint())

    def test_suppressed_member_is_clean(self):
        self.write("src/a.h",
                   "#pragma once\n"
                   '#include "common/thread_annotations.h"\n'
                   "class A {\n"
                   "  pocs::Mutex mu_;\n"
                   "  // Joined lock-free in the destructor only.\n"
                   "  int threads_;  // pocs-lint: allow(unannotated-mutex)\n"
                   "};\n")
        self.assert_clean(self.run_lint())

    def test_class_without_mutex_is_clean(self):
        self.write("src/a.h",
                   "#pragma once\n"
                   "class A {\n  int x_ = 0;\n  double y_ = 0;\n};\n")
        self.assert_clean(self.run_lint())

    def test_methods_are_not_flagged_as_members(self):
        self.write("src/a.h",
                   "#pragma once\n"
                   '#include "common/thread_annotations.h"\n'
                   "class A {\n"
                   " public:\n"
                   "  int Get() const {\n"
                   "    pocs::MutexLock lock(mu_);\n"
                   "    return state_;\n"
                   "  }\n"
                   " private:\n"
                   "  mutable pocs::Mutex mu_;\n"
                   "  int state_ POCS_GUARDED_BY(mu_) = 0;\n"
                   "};\n")
        self.assert_clean(self.run_lint())


class RowLoopInHotPathTest(LintRunner):
    """row-loop-in-hot-path: per-row Get*()/AsDouble() loops in src/exec/,
    src/ocs/ and src/format/ TUs and in the evaluator must use the
    vectorized kernels or typed spans instead."""

    def test_get_in_for_body_in_exec_fires(self):
        self.write("src/exec/op.cpp",
                   "void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < c.length(); ++i) {\n"
                   "    Use(c.GetInt64(i));\n"
                   "  }\n"
                   "}\n")
        self.assert_finding(self.run_lint(), "row-loop-in-hot-path",
                            "op.cpp")

    def test_get_in_while_body_in_ocs_fires(self):
        self.write("src/ocs/node.cpp",
                   "void f(const Column& c) {\n"
                   "  size_t i = 0;\n"
                   "  while (i < c.length()) {\n"
                   "    Use(c.GetString(i));\n"
                   "    ++i;\n"
                   "  }\n"
                   "}\n")
        self.assert_finding(self.run_lint(), "row-loop-in-hot-path",
                            "node.cpp")

    def test_single_statement_loop_body_fires(self):
        self.write("src/exec/op.cpp",
                   "void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < c.length(); ++i)\n"
                   "    sum += c.GetFloat64(i);\n"
                   "}\n")
        self.assert_finding(self.run_lint(), "row-loop-in-hot-path")

    def test_get_in_loop_in_evaluator_fires(self):
        self.write("src/substrait/eval.cpp",
                   "void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < c.length(); ++i) {\n"
                   "    Use(c.GetBool(i));\n"
                   "  }\n"
                   "}\n")
        self.assert_finding(self.run_lint(), "row-loop-in-hot-path",
                            "eval.cpp")

    def test_get_in_loop_in_format_fires(self):
        # The Parquet-lite writer's statistics and page encoders run over
        # every row of every ingested object.
        self.write("src/format/stats.cpp",
                   "void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < c.length(); ++i) {\n"
                   "    Use(c.GetDatum(i));\n"
                   "  }\n"
                   "}\n")
        self.assert_finding(self.run_lint(), "row-loop-in-hot-path",
                            "stats.cpp")

    def test_workloads_dir_is_clean(self):
        # Data generators build their columns row by row on purpose; only
        # the writer they feed is on the write path.
        self.write("src/workloads/gen.cpp",
                   "void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < c.length(); ++i) {\n"
                   "    Use(c.GetInt64(i));\n"
                   "  }\n"
                   "}\n")
        self.assert_clean(self.run_lint())

    def test_other_substrait_file_is_clean(self):
        # Only the evaluator is on the hot path; plan validation and the
        # serializer walk trees, not rows.
        self.write("src/substrait/rel.cpp",
                   "void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < c.length(); ++i) {\n"
                   "    Use(c.GetBool(i));\n"
                   "  }\n"
                   "}\n")
        self.assert_clean(self.run_lint())

    def test_as_double_in_loop_fires(self):
        self.write("src/exec/agg.cpp",
                   "void f(const Column& arg) {\n"
                   "  for (size_t row = 0; row < n; ++row)\n"
                   "    sum += arg.AsDouble(row);\n"
                   "}\n")
        self.assert_finding(self.run_lint(), "row-loop-in-hot-path",
                            "AsDouble")

    def test_get_datum_in_loop_fires(self):
        self.write("src/substrait/eval.cpp",
                   "void f(const ColumnPtr& arg) {\n"
                   "  for (size_t i = 0; i < arg->length(); ++i) {\n"
                   "    out->AppendInt64(-arg->GetDatum(i).AsInt64());\n"
                   "  }\n"
                   "}\n")
        self.assert_finding(self.run_lint(), "row-loop-in-hot-path",
                            "GetDatum")

    def test_header_is_not_covered(self):
        # Headers carry declarations and inline accessors; the rule is
        # scoped to translation units where execution loops live.
        self.write("src/exec/op.h",
                   "#pragma once\n"
                   "inline void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < c.length(); ++i) {\n"
                   "    Use(c.GetInt64(i));\n"
                   "  }\n"
                   "}\n")
        self.assert_clean(self.run_lint())

    def test_non_hot_path_dir_is_clean(self):
        self.write("src/columnar/util.cpp",
                   "void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < c.length(); ++i) {\n"
                   "    Use(c.GetInt64(i));\n"
                   "  }\n"
                   "}\n")
        self.assert_clean(self.run_lint())

    def test_get_outside_loop_is_clean(self):
        self.write("src/exec/op.cpp",
                   "void f(const Column& c, size_t row) {\n"
                   "  Use(c.GetInt64(row));\n"
                   "}\n")
        self.assert_clean(self.run_lint())

    def test_suppression_on_same_line(self):
        self.write("src/exec/op.cpp",
                   "void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < c.length(); ++i) {\n"
                   "    Use(c.GetInt64(i));"
                   "  // pocs-lint: allow(row-loop-in-hot-path)\n"
                   "  }\n"
                   "}\n")
        self.assert_clean(self.run_lint())

    def test_suppression_on_previous_line(self):
        self.write("src/ocs/node.cpp",
                   "void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < c.length(); ++i) {\n"
                   "    // pocs-lint: allow(row-loop-in-hot-path)\n"
                   "    Use(c.GetString(i));\n"
                   "  }\n"
                   "}\n")
        self.assert_clean(self.run_lint())

    def test_nested_loops_report_each_line_once(self):
        self.write("src/exec/op.cpp",
                   "void f(const Column& c) {\n"
                   "  for (size_t i = 0; i < 4; ++i) {\n"
                   "    for (size_t j = 0; j < c.length(); ++j) {\n"
                   "      Use(c.GetInt32(j));\n"
                   "    }\n"
                   "  }\n"
                   "}\n")
        result = self.run_lint()
        self.assert_finding(result, "row-loop-in-hot-path")
        self.assertEqual(result.stdout.count("row-loop-in-hot-path"), 1)


class ThrowingConversionTest(LintRunner):
    """throwing-conversion: std::sto*/std::ato* in src/ must become
    std::from_chars with a Status on failure."""

    def test_stoll_in_src_fires(self):
        self.write("src/sql/parser.cpp",
                   "int64_t Limit(const std::string& s) {\n"
                   "  return std::stoll(s);\n"
                   "}\n")
        result = self.run_lint()
        self.assert_finding(result, "throwing-conversion", "parser.cpp:2")

    def test_stod_and_atoi_fire(self):
        self.write("src/a.cpp",
                   "double F(const std::string& s) { return std::stod(s); }\n"
                   "int G(const char* s) { return std::atoi(s); }\n")
        result = self.run_lint()
        self.assert_finding(result, "throwing-conversion")
        self.assertEqual(result.stdout.count("throwing-conversion"), 2)

    def test_from_chars_is_clean(self):
        self.write("src/a.cpp",
                   "bool F(std::string_view s, int64_t* v) {\n"
                   "  auto [p, ec] = std::from_chars(s.data(),\n"
                   "                                 s.data() + s.size(), *v);\n"
                   "  return ec == std::errc();\n"
                   "}\n")
        self.assert_clean(self.run_lint())

    def test_outside_src_and_in_comments_is_clean(self):
        self.write("src/a.cpp", "// std::stoll(s) would throw here\n")
        self.write("bench/report.h",
                   "#pragma once\n"
                   "long Seed(const char* v) { return std::atol(v); }\n")
        self.assert_clean(self.run_lint())

    def test_suppression_is_honored(self):
        self.write("src/a.cpp",
                   "int F(const std::string& s) {\n"
                   "  return std::stoi(s);  "
                   "// pocs-lint: allow(throwing-conversion)\n"
                   "}\n")
        self.assert_clean(self.run_lint())


class RepoIsCleanTest(unittest.TestCase):
    def test_real_repo_has_no_findings(self):
        result = subprocess.run(
            [sys.executable, POCS_LINT, "--root", REPO_ROOT],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)


@unittest.skipUnless(HAVE_CLANG, "thread-safety probes need clang++")
class ThreadSafetyCheckTest(unittest.TestCase):
    def test_probes_pass_against_real_header(self):
        result = subprocess.run(
            [sys.executable, POCS_LINT, "--root", REPO_ROOT,
             "--thread-safety-check"],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)

    def test_probes_fail_when_macros_are_noops(self):
        # A root whose thread_annotations.h defines the macros away must
        # be rejected: the bad-read probe would compile clean.
        with tempfile.TemporaryDirectory() as tmp:
            common = os.path.join(tmp, "src", "common")
            os.makedirs(common)
            real = os.path.join(REPO_ROOT, "src", "common",
                                "thread_annotations.h")
            with open(real) as f:
                gutted = f.read().replace("__attribute__((x))", "")
            with open(os.path.join(common, "thread_annotations.h"),
                      "w") as f:
                f.write(gutted)
            # One lintable file so the directory scan doesn't hard-error
            # before the compile check runs.
            with open(os.path.join(tmp, "src", "ok.cpp"), "w") as f:
                f.write("int main() { return 0; }\n")
            result = subprocess.run(
                [sys.executable, POCS_LINT, "--root", tmp,
                 "--thread-safety-check"],
                capture_output=True, text=True)
            self.assertEqual(result.returncode, 1,
                             result.stdout + result.stderr)
            self.assertIn("compiling away", result.stdout)


class NodiscardCheckTest(unittest.TestCase):
    def test_nodiscard_check_passes_against_real_repo(self):
        result = subprocess.run(
            [sys.executable, POCS_LINT, "--root", REPO_ROOT,
             "--nodiscard-check"],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()
