#!/usr/bin/env python3
"""Project-specific lint checks that clang-tidy cannot express.

Checks, over library and tool sources (src/, tools/, tests/, bench/,
examples/, and fuzz/ for rule 5):

 1. `assert(` is banned in library code (src/ and tools/): contract checks
    must use RFID_CHECK and friends (common/check.h), which stay armed in
    release builds -- the builds that produce published numbers.
    `static_assert` is fine anywhere.

 2. Include guards must match the canonical name derived from the file
    path: RFIDCLEAN_<PATH>_H_ with the leading `src/` dropped, uppercased,
    and every `/` or `.` turned into `_`  (e.g. src/core/ct_graph.h ->
    RFIDCLEAN_CORE_CT_GRAPH_H_, tests/test_util.h ->
    RFIDCLEAN_TESTS_TEST_UTIL_H_). The trailing #endif must carry the
    guard name as a comment.

 3. No header under src/ may branch (`#if`/`#ifdef`/`#ifndef`/`#elif`) on
    an RFIDCLEAN_* build-configuration macro. Build options reach the
    library through directory-scoped add_compile_definitions, which do not
    reach an out-of-tree consumer that includes the headers (perfbench/
    add_subdirectory()s the repo), so such a branch gives that consumer a
    different class layout or inline body than the library it links -- an
    ODR violation. Configuration branches belong in .cc files. Include
    guards (names ending in _H_) are exempt.

 4. One cleaning pipeline: outside src/core/clean_session.{h,cc}, nothing
    under src/ or tools/ may call ConditionAndCompact(),
    RunCtGraphAuditHook() or FeasibilityOracle::Analyze() (`.Analyze(` /
    `->Analyze(`), or construct a ForwardEngine. CtGraphBuilder,
    StreamingCleaner and the batch runtime all run internal_core::
    CleanSession; a driver that calls these stages itself forks the
    pipeline (preflight fast-fail, plan filtering, explain capture,
    finish/audit) and lets the copies drift. Each function's own
    declaration and definition are exempt, and so is the ct-store decoder
    (src/store/graph_codec.cc), whose self-audit checks a graph loaded from
    disk, not one being cleaned.

 5. One ct-graph type: nothing under src/, tools/, tests/, bench/ or fuzz/
    may name CtGraphView or StayQueryEvaluatorT, except in the alias
    declarations themselves (`using CtGraphView = ...`, `using
    StayQueryEvaluatorT = ...`). A graph mapped from a ct-store is a
    CtGraph, and every query takes a CtGraph; the old names of the second
    graph class and of the evaluator template survive only as aliases for
    out-of-tree code (perfbench/). Code that names them again is the first
    step of forking the representation a second time.

Exit status 0 when clean, 1 with one "file:line: message" per finding
otherwise. Run from anywhere: paths are resolved against the repo root
(the parent of this script's directory), or pass --root.
"""

import argparse
import re
import sys
from pathlib import Path

# Directories scanned for headers (guard check) and sources (assert check).
SCANNED_DIRS = ("src", "tools", "tests", "bench", "examples")
# assert() is banned only in library/tool code; tests and benches may use
# the standard macro if they want to.
ASSERT_BANNED_DIRS = ("src", "tools")

# Rule 4: (pattern, what, files allowed to contain it). The session owns
# every stage; each stage's own declaration/definition files are exempt.
PIPELINE_OWNER = ("src/core/clean_session.h", "src/core/clean_session.cc")
PIPELINE_STAGES = (
    (re.compile(r"\bConditionAndCompact\s*\("), "ConditionAndCompact()",
     ("src/core/work_graph.h", "src/core/work_graph.cc")),
    (re.compile(r"\bRunCtGraphAuditHook\s*\("), "RunCtGraphAuditHook()",
     ("src/core/self_audit.h", "src/core/self_audit.cc",
      "src/store/graph_codec.cc")),
    (re.compile(r"(?:\.|->)\s*Analyze\s*\("), "FeasibilityOracle::Analyze()",
     ("src/analysis/feasibility.h", "src/analysis/feasibility.cc")),
    # A ForwardEngine variable, member, temporary or owning wrapper;
    # references and pointers to one are fine.
    (re.compile(r"\bForwardEngine\b(?!\s*::)\s*(?:\w+\s*)?[({;=]|"
                r"<\s*(?:\w+::)*ForwardEngine\s*>"),
     "a ForwardEngine", ("src/core/forward.h", "src/core/forward.cc")),
)

# Rule 5: the directories it covers, the names it bans, and the alias
# declarations that may still carry them.
ONE_GRAPH_DIRS = ("src", "tools", "tests", "bench", "fuzz")
FORKED_GRAPH_RE = re.compile(r"\b(CtGraphView|StayQueryEvaluatorT)\b")
GRAPH_ALIAS_RE = re.compile(
    r"\busing\s+(?:CtGraphView|StayQueryEvaluatorT)\s*=")

ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")
CONDITIONAL_RE = re.compile(r"^\s*#\s*(?:if|ifdef|ifndef|elif)\b(.*)$")
CONFIG_MACRO_RE = re.compile(r"\bRFIDCLEAN_\w+")
LINE_COMMENT_RE = re.compile(r"//.*$")


def canonical_guard(relpath: Path) -> str:
    parts = relpath.parts
    if parts[0] == "src":
        parts = parts[1:]
    mangled = "_".join(parts).replace(".", "_").replace("-", "_").upper()
    return f"RFIDCLEAN_{mangled}_"


def strip_noncode(line: str) -> str:
    """Removes line comments and string literal contents (approximate but
    sufficient: the codebase has no multi-line raw strings with asserts)."""
    line = LINE_COMMENT_RE.sub("", line)
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)


def check_asserts(path: Path, relpath: Path, lines) -> list:
    findings = []
    for lineno, line in enumerate(lines, start=1):
        code = strip_noncode(line)
        if "static_assert" in code:
            code = code.replace("static_assert", "")
        if ASSERT_RE.search(code):
            findings.append(
                f"{relpath}:{lineno}: assert() is banned in library code; "
                "use RFID_CHECK (common/check.h), which stays armed in "
                "release builds")
    return findings


def check_include_guard(path: Path, relpath: Path, lines) -> list:
    guard = canonical_guard(relpath)
    ifndef_re = re.compile(r"^#ifndef\s+(\S+)\s*$")
    ifndef_line = None
    ifndef_name = None
    for lineno, line in enumerate(lines, start=1):
        match = ifndef_re.match(line)
        if match:
            ifndef_line, ifndef_name = lineno, match.group(1)
            break
        if line.strip() and not line.lstrip().startswith(("//", "/*", "*")):
            break  # First code line reached without a guard.
    if ifndef_name is None:
        return [f"{relpath}:1: missing include guard (expected {guard})"]

    findings = []
    if ifndef_name != guard:
        findings.append(
            f"{relpath}:{ifndef_line}: include guard {ifndef_name} does not "
            f"match the canonical name {guard}")
        guard = ifndef_name  # Check internal consistency against the actual.
    if ifndef_line < len(lines):
        define = lines[ifndef_line].strip()
        if define != f"#define {guard}":
            findings.append(
                f"{relpath}:{ifndef_line + 1}: expected '#define {guard}' "
                "directly after the #ifndef")
    for line in reversed(lines):
        if not line.strip():
            continue
        if line.strip() != f"#endif  // {guard}":
            findings.append(
                f"{relpath}:{len(lines)}: header must end with "
                f"'#endif  // {guard}'")
        break
    return findings


def check_config_branches(path: Path, relpath: Path, lines) -> list:
    findings = []
    for lineno, line in enumerate(lines, start=1):
        match = CONDITIONAL_RE.match(LINE_COMMENT_RE.sub("", line))
        if not match:
            continue
        for macro in CONFIG_MACRO_RE.findall(match.group(1)):
            if macro.endswith("_H_"):
                continue  # include guard
            findings.append(
                f"{relpath}:{lineno}: header branches on build-configuration "
                f"macro {macro}; add_compile_definitions does not reach "
                "out-of-tree consumers, so move the branch into a .cc file")
    return findings


def check_pipeline_stages(path: Path, relpath: Path, lines) -> list:
    rel = relpath.as_posix()
    if rel in PIPELINE_OWNER:
        return []
    findings = []
    for lineno, line in enumerate(lines, start=1):
        code = strip_noncode(line)
        for pattern, what, exempt in PIPELINE_STAGES:
            if rel not in exempt and pattern.search(code):
                findings.append(
                    f"{relpath}:{lineno}: {what} outside the cleaning "
                    "pipeline; drive CtGraphBuilder, StreamingCleaner or "
                    "internal_core::CleanSession instead of forking it")
    return findings


def check_one_graph_type(path: Path, relpath: Path, lines) -> list:
    findings = []
    for lineno, line in enumerate(lines, start=1):
        code = strip_noncode(line)
        if GRAPH_ALIAS_RE.search(code):
            continue
        match = FORKED_GRAPH_RE.search(code)
        if match:
            findings.append(
                f"{relpath}:{lineno}: {match.group(1)} names the merged "
                "second ct-graph type; use CtGraph / StayQueryEvaluator (the "
                "alias exists only for out-of-tree code)")
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: parent of this script's directory)")
    args = parser.parse_args()

    findings = []
    scanned = 0
    all_dirs = SCANNED_DIRS + tuple(
        d for d in ONE_GRAPH_DIRS if d not in SCANNED_DIRS)
    for top in all_dirs:
        top_dir = args.root / top
        if not top_dir.is_dir():
            continue
        for path in sorted(top_dir.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp", ".hpp"):
                continue
            relpath = path.relative_to(args.root)
            lines = path.read_text(encoding="utf-8").splitlines()
            scanned += 1
            if top in ASSERT_BANNED_DIRS:
                findings += check_asserts(path, relpath, lines)
                findings += check_pipeline_stages(path, relpath, lines)
            if top in ONE_GRAPH_DIRS:
                findings += check_one_graph_type(path, relpath, lines)
            if top in SCANNED_DIRS and path.suffix in (".h", ".hpp"):
                findings += check_include_guard(path, relpath, lines)
                if top == "src":
                    findings += check_config_branches(path, relpath, lines)

    for finding in findings:
        print(finding)
    print(f"lint_includes: {scanned} files scanned, "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
