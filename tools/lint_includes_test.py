#!/usr/bin/env python3
"""Seeded-violation tests for lint_includes.py: each case writes a tiny
source tree under a temporary --root and checks the exit status and the
file:line findings the linter prints for it."""

import contextlib
import importlib.util
import io
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "lint_includes.py"
spec = importlib.util.spec_from_file_location("lint_includes", SCRIPT)
lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint)

GUARDED_HEADER = """#ifndef {guard}
#define {guard}

{body}
#endif  // {guard}
"""


class LintIncludesTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.root = Path(self.tmp.name)

    def write_header(self, relpath, body):
        guard = lint.canonical_guard(Path(relpath))
        self.write(relpath, GUARDED_HEADER.format(guard=guard, body=body))

    def write(self, relpath, text):
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def run_lint(self):
        """Runs main() over the temporary root: (exit_code, findings)."""
        old_argv = sys.argv
        sys.argv = [str(SCRIPT), "--root", str(self.root)]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = lint.main()
        finally:
            sys.argv = old_argv
        return code, out.getvalue().splitlines()

    def test_clean_tree_passes(self):
        self.write_header("src/obs/metrics.h", "int Add();\n")
        self.assertEqual(self.run_lint(), (0, []))

    def test_header_branch_on_config_macro_is_flagged(self):
        self.write_header("src/obs/metrics.h",
                          "#if RFIDCLEAN_SIMD_ENABLED\nint Add();\n#endif\n")
        code, findings = self.run_lint()
        self.assertEqual(code, 1)
        self.assertEqual(len(findings), 1)
        self.assertTrue(findings[0].startswith("src/obs/metrics.h:4: "),
                        findings[0])
        self.assertIn("RFIDCLEAN_SIMD_ENABLED", findings[0])

    def test_every_conditional_form_is_flagged(self):
        self.write_header(
            "src/common/simd.h",
            "#ifdef RFIDCLEAN_SIMD_OFF\n#endif\n"
            "#ifndef RFIDCLEAN_SIMD_OFF\n#endif\n"
            "#if 0\n#elif defined(RFIDCLEAN_SANITIZE)\n#endif\n")
        code, findings = self.run_lint()
        self.assertEqual(code, 1)
        self.assertEqual([f.split(": ")[0] for f in findings],
                         ["src/common/simd.h:4", "src/common/simd.h:6",
                          "src/common/simd.h:9"])

    def test_source_files_and_include_guards_are_exempt(self):
        self.write("src/common/simd.cc",
                   "#if defined(RFIDCLEAN_SIMD_OFF)\n#endif\n")
        self.write_header("src/common/simd.h",
                          "#if defined(__x86_64__)  // not RFIDCLEAN_SIMD\n"
                          "#endif\n")
        self.assertEqual(self.run_lint(), (0, []))

    def test_headers_outside_src_are_not_checked(self):
        self.write_header("tests/oracle.h",
                          "#ifdef RFIDCLEAN_SIMD_OFF\n#endif\n")
        self.assertEqual(self.run_lint(), (0, []))

    def test_pipeline_stage_calls_outside_the_session_are_flagged(self):
        self.write("src/runtime/fork.cc",
                   "void Clean() {\n"
                   "  auto plan = oracle.Analyze(sequence);\n"
                   "  auto again = oracle_->Analyze(sequence);\n"
                   "  internal_core::ForwardEngine engine(n);\n"
                   "  auto graph = internal_core::ConditionAndCompact(w, s);\n"
                   "  RunCtGraphAuditHook(graph.value());\n"
                   "}\n")
        self.write("tools/driver.cc",
                   "std::optional<internal_core::ForwardEngine> engine;\n")
        self.write_header("src/core/fork.h",
                          "class Fork {\n  internal_core::ForwardEngine "
                          "engine_;\n};\n")
        code, findings = self.run_lint()
        self.assertEqual(code, 1)
        self.assertEqual([f.split(": ")[0] for f in findings],
                         ["src/core/fork.h:5", "src/runtime/fork.cc:2",
                          "src/runtime/fork.cc:3", "src/runtime/fork.cc:4",
                          "src/runtime/fork.cc:5", "src/runtime/fork.cc:6",
                          "tools/driver.cc:1"])

    def test_the_session_and_stage_definitions_are_exempt(self):
        calls = ("Status S() {\n  ForwardEngine engine(n);\n"
                 "  oracle->Analyze(seq);\n  ConditionAndCompact(w, s);\n"
                 "  return RunCtGraphAuditHook(g);\n}\n")
        self.write("src/core/clean_session.cc", calls)
        self.write_header("src/core/clean_session.h",
                          "class S {\n  ForwardEngine engine_;\n};\n")
        self.write("src/core/forward.cc",
                   "ForwardEngine::ForwardEngine(std::size_t n) {}\n")
        self.write("src/core/work_graph.cc",
                   "Result<CtGraph> ConditionAndCompact(WorkGraph&& w) {}\n")
        self.write("src/core/self_audit.cc",
                   "Status RunCtGraphAuditHook(const CtGraph& g) {}\n")
        self.write("src/store/graph_codec.cc",
                   "  RFID_RETURN_IF_ERROR(RunCtGraphAuditHook(*graph));\n")
        self.assertEqual(self.run_lint(), (0, []))

    def test_pipeline_references_comments_and_other_dirs_pass(self):
        self.write("src/runtime/ok.cc",
                   "// ConditionAndCompact(work) runs in the session\n"
                   "void F(const ForwardEngine& engine, ForwardEngine* p);\n"
                   "const char* kDoc = \"oracle.Analyze(seq)\";\n")
        self.write("tests/oracle_test.cc",
                   "auto plan = oracle.Analyze(sequence);\n")
        self.write("perfbench/ingest.cc",
                   "auto plan = oracle.Analyze(sequence);\n")
        self.assertEqual(self.run_lint(), (0, []))

    def test_second_graph_type_names_are_flagged(self):
        self.write("tools/cli.cc",
                   "Result<store::CtGraphView> view = reader.LoadView(t);\n"
                   "StayQueryEvaluatorT<store::CtGraphView> evaluator(v);\n")
        self.write("fuzz/blob_fuzz.cc",
                   "using rfidclean::store::CtGraphView;\n")
        self.write("tests/store_test.cc",
                   "auto view = CtGraphView::Map(data, size);\n")
        self.write_header("src/query/fork.h",
                          "template <typename Graph>\n"
                          "class StayQueryEvaluatorT {};\n")
        self.write("bench/roundtrip.cc",
                   "std::optional<CtGraphView> view;\n")
        code, findings = self.run_lint()
        self.assertEqual(code, 1)
        self.assertEqual([f.split(": ")[0] for f in findings],
                         ["src/query/fork.h:5", "tools/cli.cc:1",
                          "tools/cli.cc:2", "tests/store_test.cc:1",
                          "bench/roundtrip.cc:1", "fuzz/blob_fuzz.cc:1"])

    def test_graph_alias_declarations_comments_and_perfbench_pass(self):
        self.write_header("src/store/ctgraph_view.h",
                          "using CtGraphView = CtGraph;\n")
        self.write_header("src/query/stay_query.h",
                          "template <typename Graph>\n"
                          "using StayQueryEvaluatorT = StayQueryEvaluator;\n")
        self.write("src/store/ct_store.cc",
                   "// Formerly a CtGraphView; now one CtGraph.\n"
                   "const char* kDoc = \"StayQueryEvaluatorT\";\n")
        self.write("perfbench/query.cc",
                   "std::optional<StayQueryEvaluatorT<store::CtGraphView>> "
                   "e;\n")
        self.assertEqual(self.run_lint(), (0, []))


if __name__ == "__main__":
    unittest.main()
