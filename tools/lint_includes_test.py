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


if __name__ == "__main__":
    unittest.main()
