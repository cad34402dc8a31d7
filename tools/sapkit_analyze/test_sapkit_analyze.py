#!/usr/bin/env python3
"""Fixture tests for sapkit_analyze.

Two layers:

  * One exact set-comparison per fixture tree (fixtures/lexical and
    fixtures/semantic) against that tree's expected.txt (path:line:rule
    triples, both directions), so any rule that stops firing, fires on
    the wrong line, or fires where it should not, fails with a readable
    diff.
  * Targeted unit tests for behaviours the trees cannot express as
    findings: exit codes, rule scopes, --rules selection, the allow
    grammar and its exact-arith alias, the comment/string stripper and
    tokenizer (digit separators), call-qualifier extraction, and receiver
    chains on allocations.

Run from anywhere:  python3 -m unittest discover tools/sapkit_analyze
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ANALYZER = os.path.join(HERE, "sapkit_analyze.py")
FIXTURES = os.path.join(HERE, "fixtures")
SEMANTIC_TREE = os.path.join(FIXTURES, "semantic")
LEXICAL_TREE = os.path.join(FIXTURES, "lexical")
LEXICAL_RULES = ("exact-arith", "float-ban", "determinism")

sys.path.insert(0, HERE)
import cppmodel  # noqa: E402
import sapkit_analyze  # noqa: E402


def run_analyzer(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, ANALYZER, *args],
        capture_output=True, text=True, check=False)


def load_expected(tree: str) -> set[tuple[str, int, str]]:
    expected = set()
    with open(os.path.join(tree, "expected.txt"), encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            path, lineno, rule = line.rsplit(":", 2)
            expected.add((path, int(lineno), rule))
    return expected


def parse_snippet(text: str, rel: str = "src/core/snippet.cpp"):
    """Parses one snippet the way Program.build does: a first pass to
    collect class members, a second against the complete table."""
    members: dict[str, dict[str, str]] = {}
    cppmodel.parse_file(rel, rel, text, members)
    return cppmodel.parse_file(rel, rel, text, members)


def write_tree(root: str, files: dict[str, str]) -> None:
    for rel, body in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(body)


def triples(proc: subprocess.CompletedProcess) -> list[tuple[str, int, str]]:
    return [(f["path"], f["line"], f["rule"]) for f in json.loads(proc.stdout)]


class FixtureTreeTest(unittest.TestCase):
    """The exact-findings contract over both fixture trees."""

    def test_findings_match_expected_exactly(self):
        for tree in (LEXICAL_TREE, SEMANTIC_TREE):
            with self.subTest(tree=os.path.basename(tree)):
                proc = run_analyzer("--root", tree, "--json",
                                    os.path.join(tree, "src"))
                self.assertEqual(proc.returncode, 1, proc.stderr)
                got = {(path.replace(os.sep, "/"), line, rule)
                       for path, line, rule in triples(proc)}
                expected = load_expected(tree)
                missing = sorted(expected - got)
                surprise = sorted(got - expected)
                self.assertFalse(
                    missing or surprise,
                    f"\nexpected but not reported: {missing}"
                    f"\nreported but not expected: {surprise}")

    def test_clean_file_exits_zero(self):
        # The whole tree is always parsed for the call graph, but a
        # report restricted to a clean file must be empty.
        proc = run_analyzer(
            "--root", SEMANTIC_TREE,
            os.path.join(SEMANTIC_TREE, "src", "util", "support.hpp"))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.strip(), "")

    def test_path_filter_restricts_report(self):
        proc = run_analyzer(
            "--root", SEMANTIC_TREE, "--json",
            os.path.join(SEMANTIC_TREE, "src", "model", "arith.cpp"))
        self.assertEqual(proc.returncode, 1)
        findings = json.loads(proc.stdout)
        self.assertTrue(findings)
        self.assertEqual({f["path"] for f in findings},
                         {"src/model/arith.cpp"})

    def test_rules_flag_selects_passes(self):
        proc = run_analyzer(
            "--root", SEMANTIC_TREE, "--rules", "checked-arith", "--json",
            os.path.join(SEMANTIC_TREE, "src", "model", "arith.cpp"))
        self.assertEqual(proc.returncode, 1)
        self.assertEqual({f["rule"] for f in json.loads(proc.stdout)},
                         {"checked-arith"})

    def test_rules_flag_judges_only_allows_of_rules_run(self):
        # The exact-arith allows on lines 5 and 8 are used when every rule
        # runs; with only float-ban run they are not reported as stale.
        proc = run_analyzer(
            "--root", LEXICAL_TREE, "--rules", "float-ban", "--json",
            os.path.join(LEXICAL_TREE, "src", "cert", "allows.cpp"))
        self.assertEqual(proc.returncode, 1)
        self.assertEqual([(line, rule) for _, line, rule in triples(proc)],
                         [(17, "allow-syntax"), (20, "allow-syntax"),
                          (23, "unused-allow"), (26, "allow-syntax"),
                          (28, "allow-syntax")])

    def test_unknown_rule_is_a_usage_error(self):
        proc = run_analyzer("--root", SEMANTIC_TREE, "--rules", "no-such-rule")
        self.assertEqual(proc.returncode, 2)

    def test_list_rules(self):
        proc = run_analyzer("--list-rules")
        self.assertEqual(proc.returncode, 0)
        listed = [line.split()[0] for line in proc.stdout.splitlines()]
        self.assertEqual(listed, [
            "exact-arith", "float-ban", "determinism", "deadline-coverage",
            "deadline-forwarding", "arena-discipline", "lock-order",
            "lock-blocking", "checked-arith", "allow-syntax",
            "unused-allow"])


class LexicalRulesTest(unittest.TestCase):
    """The per-line rules on single files of the lexical tree."""

    def test_clean_files_exit_zero(self):
        proc = run_analyzer(
            "--root", LEXICAL_TREE,
            os.path.join(LEXICAL_TREE, "src", "model", "good_arith.cpp"),
            os.path.join(LEXICAL_TREE, "src", "model", "comments_strings.cpp"),
            os.path.join(LEXICAL_TREE, "src", "service", "scope.cpp"))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.strip(), "")

    def test_out_of_scope_file_is_silent(self):
        # scope.cpp uses rand(), system_clock, doubles and raw quantity
        # arithmetic -- all legal in src/service.
        proc = run_analyzer(
            "--root", LEXICAL_TREE,
            os.path.join(LEXICAL_TREE, "src", "service", "scope.cpp"))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_deadline_header_is_exempt_from_the_clock_ban(self):
        # src/util/deadline.hpp is MONOTONIC_CLOCK_HOME: its steady_clock
        # reads are clean without any allow-comment, also when the
        # determinism rule is the only one run.
        path = os.path.join(LEXICAL_TREE, "src", "util", "deadline.hpp")
        for args in ((), ("--rules", "determinism")):
            proc = run_analyzer("--root", LEXICAL_TREE, *args, path)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertEqual(proc.stdout.strip(), "")

    def test_steady_clock_fires_outside_the_deadline_header(self):
        proc = run_analyzer(
            "--root", LEXICAL_TREE, "--json",
            os.path.join(LEXICAL_TREE, "src", "ufpp", "bad_random.cpp"))
        self.assertEqual(proc.returncode, 1)
        hits = [f for f in json.loads(proc.stdout)
                if "monotonic clock" in f["message"]]
        self.assertEqual([(f["line"], f["rule"]) for f in hits],
                         [(41, "determinism")])


class ScopeResolutionTest(unittest.TestCase):
    @staticmethod
    def lexical_rules_for(path: str) -> list[str]:
        return [rule for rule in LEXICAL_RULES if sapkit_analyze.in_dirs(
            path, sapkit_analyze.RULE_SCOPES[rule])]

    def test_exact_dirs(self):
        for path in ("src/model/task.hpp", "src/cert/ladder.cpp",
                     "src/core/params.cpp", "src/exact/brute_force.cpp"):
            self.assertEqual(self.lexical_rules_for(path), list(LEXICAL_RULES))

    def test_lp_gets_determinism_only(self):
        self.assertEqual(self.lexical_rules_for("src/lp/simplex.cpp"),
                         ["determinism"])

    def test_service_out_of_scope(self):
        self.assertEqual(self.lexical_rules_for("src/service/server.cpp"), [])

    def test_prefix_is_path_aware(self):
        # src/model_extra must not inherit src/model's rules.
        self.assertFalse(any(
            sapkit_analyze.in_dirs("src/model_extra/x.cpp", dirs)
            for dirs in sapkit_analyze.RULE_SCOPES.values()))


class AllowGrammarTest(unittest.TestCase):
    def test_line_allow_covers_comment_continuations(self):
        allows, meta = sapkit_analyze.collect_allows(
            ["// sapkit-analyze: allow(lock-blocking) -- justified over",
             "// two comment lines.",
             "send(fd, buf, n, 0);"], "src/service/x.cpp")
        self.assertEqual(meta, [])
        self.assertEqual(len(allows), 1)
        self.assertEqual((allows[0].rule, allows[0].line, allows[0].end),
                         ("lock-blocking", 1, 3))

    def test_region_allow_spans_begin_to_end(self):
        allows, meta = sapkit_analyze.collect_allows(
            ["// sapkit-analyze: begin-allow(arena-discipline) -- setup.",
             "a.push_back(1);",
             "b.push_back(2);",
             "// sapkit-analyze: end-allow(arena-discipline)"],
            "src/lp/x.cpp")
        self.assertEqual(meta, [])
        self.assertEqual(len(allows), 1)
        self.assertEqual((allows[0].line, allows[0].end), (1, 4))

    def test_justification_is_mandatory(self):
        _, meta = sapkit_analyze.collect_allows(
            ["// sapkit-analyze: allow(lock-order)"], "src/util/x.cpp")
        self.assertEqual([(f.line, f.rule) for f in meta],
                         [(1, "allow-syntax")])


class StripperTest(unittest.TestCase):
    def test_line_numbering_preserved(self):
        text = "a\n// demand + demand\nb /* x\ny */ c\nd\n"
        lines = cppmodel.strip_comments_and_strings(text)
        self.assertEqual(len(lines), text.count("\n") + 1)
        self.assertEqual(lines[0].strip(), "a")
        self.assertEqual(lines[1].strip(), "")
        self.assertEqual(lines[3].strip(), "c")

    def test_strings_blanked(self):
        lines = cppmodel.strip_comments_and_strings(
            'x = "demand + demand";\n')
        self.assertNotIn("demand", lines[0])

    def test_escaped_quote_stays_in_string(self):
        lines = cppmodel.strip_comments_and_strings(
            's = "a\\"b + demand"; y = weight + 1;\n')
        self.assertNotIn("demand", lines[0])
        self.assertIn("weight", lines[0])


class TokenizerTest(unittest.TestCase):
    def test_digit_separator_is_not_a_char_literal(self):
        lines = cppmodel.strip_comments_and_strings(
            "opts.max_nodes = 200'000;\nlong demand_sum = a + b;\n")
        self.assertIn("demand_sum", lines[1])

    def test_char_literal_is_still_blanked(self):
        lines = cppmodel.strip_comments_and_strings(
            "char c = 'x'; long demand_sum = a + b;\n")
        self.assertNotIn("x", lines[0].split("=")[1].split(";")[0])
        self.assertIn("demand_sum", lines[0])

    def test_hex_separator(self):
        lines = cppmodel.strip_comments_and_strings(
            "mask = 0xFF'FF;\nlong weight_sum = a;\n")
        self.assertIn("weight_sum", lines[1])


class CallModelTest(unittest.TestCase):
    def test_qualifiers_are_extracted(self):
        model = parse_snippet(
            "void f() {\n"
            "  ::send(1, 0, 0, 0);\n"
            "  std::move(x);\n"
            "  Hub::helper(2);\n"
            "  plain(3);\n"
            "}\n")
        quals = {c.name: c.qualifier for c in model.functions[0].calls}
        self.assertEqual(quals["send"], "")
        self.assertEqual(quals["move"], "std")
        self.assertEqual(quals["helper"], "Hub")
        self.assertIsNone(quals["plain"])

    def test_alloc_records_receiver_base(self):
        model = parse_snippet(
            "struct Ctx { FlatBuf next; };\n"
            "void f(Ctx& ctx, std::vector<long>& out) {\n"
            "  ctx.next.resize(8);\n"
            "  out.push_back(1);\n"
            "}\n")
        allocs = {a.owner: a for a in model.functions[0].allocs}
        self.assertEqual(allocs["next"].base, "ctx")
        self.assertEqual(allocs["out"].base, "")


class TempTreeTest(unittest.TestCase):
    """End-to-end over throwaway trees, proving --root relativity."""

    def test_same_file_flagged_only_under_scoped_dir(self):
        for body, scoped, line, rule in (
                ("long f(long demand_a) { return demand_a + 1; }\n",
                 "src/model/a.cpp", 1, "exact-arith"),
                ("long grow(Arena& arena, std::vector<long>& out) {\n"
                 "  out.push_back(1);\n"
                 "  return 0;\n"
                 "}\n", "src/exact/a.cpp", 2, "arena-discipline")):
            with self.subTest(rule=rule), \
                    tempfile.TemporaryDirectory() as root:
                write_tree(root, {scoped: body, "src/service/a.cpp": body})
                proc = run_analyzer("--root", root, "--json",
                                    os.path.join(root, "src"))
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertEqual(triples(proc), [(scoped, line, rule)])

    def test_exact_arith_allow_covers_checked_arith(self):
        # head/tail are Value-typed but outside the quantity vocabulary:
        # only checked-arith fires, and an allow(exact-arith) suppresses it
        # and counts as used (no unused-allow).
        body = "Value f(Value head, Value tail) { return head + tail; }\n"
        allow = ("// sapkit-analyze: allow(exact-arith) -- fixture: both "
                 "are bounded upstream.\n")
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, {"src/model/bare.cpp": body,
                              "src/model/allowed.cpp": allow + body})
            proc = run_analyzer("--root", root, "--json",
                                os.path.join(root, "src"))
            self.assertEqual(proc.returncode, 1, proc.stderr)
            self.assertEqual(triples(proc),
                             [("src/model/bare.cpp", 1, "checked-arith")])


if __name__ == "__main__":
    unittest.main()
