#!/usr/bin/env python3
"""Docs consistency checker, run as a ctest (`ctest -R check_docs`).

Seven audits, all against the working tree (no build needed):

 1. Relative markdown links in README.md, DESIGN.md and docs/*.md must
    point at files that exist.
 2. Every `tw_*` metric name mentioned in those docs must exist as a
    string literal somewhere under src/ (a `tw_foo_*` mention is a
    prefix and must match at least one real name).
 3. Every metric registered in src/ must be catalogued in
    docs/METRICS.md.
 4. The provenance event-type vocabulary (src/obs/provenance.cc) and the
    catalogue in docs/API.md must list exactly the same wire names.
 5. Every backticked source path (`*.h`, `*.cc`, `*.cpp`, `*.py`, with an
    optional `:line` suffix) in those docs must name a file that exists,
    relative to the repo root or to src/.
 6. Every `XxxOptions::member` or `Parameters::member` mention in those
    docs must name a member that a struct or class of that name declares
    in a src/**/*.h header, so no doc keeps naming a deleted option.
 7. Every `--flag` in a README.md flag table row must be a row of the
    CLI's flag table (kFlags in tools/traceweaver_cli.cc), and every
    row of that table must be mentioned in README.md.

Exit status is the number of problems found; each problem is printed as
`file: message` so editors can jump to it.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = ["README.md", "DESIGN.md"] + sorted(
    os.path.join("docs", f)
    for f in os.listdir(os.path.join(ROOT, "docs"))
    if f.endswith(".md")
)

# `tw_`-prefixed names that are build targets / helpers, not metrics.
NON_METRIC = {"tw_" + d for d in os.listdir(os.path.join(ROOT, "src"))} | {
    "tw_add_test",
    "tw_test_libs",
}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
MENTION_RE = re.compile(r"\btw_[a-z0-9_]+\*?")
LITERAL_RE = re.compile(r'"(tw_[a-z0-9_]+)"')
# Derived series are emitted as literal exposition text ("# HELP name …")
# rather than registered through the registry; count those names too.
EXPOSITION_RE = re.compile(r"# (?:HELP|TYPE) (tw_[a-z0-9_]+)")
SOURCE_PATH_RE = re.compile(r"`([A-Za-z0-9_./-]+\.(?:h|cc|cpp|py))(?::[0-9,-]+)?`")
OPTION_MENTION_RE = re.compile(r"\b(\w*Options|Parameters)::(\w+)")
# A flag table row of README.md starts with a backticked flag: its first
# cell may hold several ("`--window-ms=N` / `--margin-ms=N`").
README_FLAG_CELL_RE = re.compile(r"^\| (`--[^|]*)\|", re.MULTILINE)
FLAG_RE = re.compile(r"`(--[a-z0-9-]+)")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
TYPE_RE = re.compile(r"\b(?:struct|class)\s+(\w+)\s*(?:final\s*)?(?::[^{;]*)?\{")
# A member is the name right before its initializer, its ';', or the '('
# of a member function.
MEMBER_RE = re.compile(r"(\w+)\s*(?:\[[^\]]*\]\s*)?(?:=|;|\{|\()")


def read(relpath):
    with open(os.path.join(ROOT, relpath), encoding="utf-8") as f:
        return f.read()


def check_links(problems):
    for doc in DOC_FILES:
        base = os.path.dirname(os.path.join(ROOT, doc))
        for target in LINK_RE.findall(read(doc)):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if path and not os.path.exists(os.path.join(base, path)):
                problems.append(f"{doc}: dead link -> {target}")


def check_source_paths(problems):
    for doc in DOC_FILES:
        for path in sorted(set(SOURCE_PATH_RE.findall(read(doc)))):
            if not any(
                os.path.isfile(os.path.join(ROOT, base, path))
                for base in ("", "src")
            ):
                problems.append(f"{doc}: source path `{path}` does not exist")


def declared_members():
    """Struct/class name -> the names declared at its top level, over
    every header under src/ (same-named types are merged)."""
    members = {}
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if not f.endswith(".h"):
                continue
            with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                text = COMMENT_RE.sub("", fh.read())
            for m in TYPE_RE.finditer(text):
                depth, top = 0, []
                for ch in text[m.end() - 1:]:
                    if ch == "{":
                        depth += 1
                        if depth == 2:
                            top.append("{")
                    elif ch == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    elif depth == 1:
                        top.append(ch)
                names = members.setdefault(m.group(1), set())
                names.update(MEMBER_RE.findall("".join(top)))
    return members


def check_option_mentions(problems):
    members = declared_members()
    for doc in DOC_FILES:
        for owner, member in sorted(set(OPTION_MENTION_RE.findall(read(doc)))):
            if member not in members.get(owner, set()):
                problems.append(
                    f"{doc}: {owner}::{member} is not declared in src/"
                )


def source_metric_names():
    names = set()
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith((".cc", ".h")):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    text = fh.read()
                names.update(LITERAL_RE.findall(text))
                names.update(EXPOSITION_RE.findall(text))
    return names - NON_METRIC


def check_doc_mentions(problems, source_names):
    for doc in DOC_FILES:
        seen = set()
        for mention in MENTION_RE.findall(read(doc)):
            name = mention.rstrip("*")
            if name in seen:
                continue
            seen.add(name)
            if name in NON_METRIC:
                continue
            if name.endswith("_"):  # written as a family prefix, tw_foo_*
                if not any(s.startswith(name) for s in source_names):
                    problems.append(
                        f"{doc}: metric prefix {mention} matches nothing in src/"
                    )
            elif name not in source_names:
                problems.append(f"{doc}: metric {name} not found in src/")


def check_metrics_catalogue(problems, source_names):
    catalogue = read(os.path.join("docs", "METRICS.md"))
    for name in sorted(source_names):
        if name not in catalogue:
            problems.append(
                f"docs/METRICS.md: source metric {name} is not catalogued"
            )


def provenance_event_names():
    """Wire names from the kEventTypeNames table in obs/provenance.cc."""
    source = read(os.path.join("src", "obs", "provenance.cc"))
    match = re.search(
        r"kEventTypeNames\[kProvEventTypeCount\]\s*=\s*\{(.*?)\};",
        source,
        re.DOTALL,
    )
    if match is None:
        return set()
    return set(re.findall(r'"([a-z0-9_]+)"', match.group(1)))


def check_provenance_vocabulary(problems):
    source_events = provenance_event_names()
    if not source_events:
        problems.append(
            "src/obs/provenance.cc: kEventTypeNames table not found"
        )
        return
    # docs/API.md documents each event as a `"<name>"` wire string inside
    # its provenance-schema section table (rows look like `| `name` | ...`).
    api = read(os.path.join("docs", "API.md"))
    documented = set(re.findall(r"\| `([a-z0-9_]+)` \|", api))
    for name in sorted(source_events - documented):
        problems.append(
            f"docs/API.md: provenance event {name} (src/obs/provenance.cc)"
            " is not documented"
        )
    # Only flag documented-but-absent names that look like event types to
    # avoid tripping on unrelated tables using the same row shape.
    suffixes = (
        "_clamp", "_remap", "_drop", "_quarantine", "_correct", "_shed",
        "_solve", "_graft", "_expire", "settled", "_commit", "finalized",
        "_out",
    )
    for name in sorted(documented - source_events):
        if name.endswith(suffixes):
            problems.append(
                f"docs/API.md: documented provenance event {name}"
                " does not exist in src/obs/provenance.cc"
            )


def cli_flags():
    """The `--name` of every row of kFlags in tools/traceweaver_cli.cc."""
    source = read(os.path.join("tools", "traceweaver_cli.cc"))
    match = re.search(r"kFlags\[\]\s*=\s*\{(.*?)\n\};", source, re.DOTALL)
    if match is None:
        return []
    return re.findall(r'^\s*\{"(--[a-z0-9-]+)', match.group(1), re.MULTILINE)


def check_cli_flags(problems):
    flags = cli_flags()
    if not flags:
        problems.append("tools/traceweaver_cli.cc: kFlags table not found")
        return
    readme = read("README.md")
    documented = set()
    for cell in README_FLAG_CELL_RE.findall(readme):
        documented.update(FLAG_RE.findall(cell))
    for flag in sorted(documented - set(flags)):
        problems.append(
            f"README.md: flag table row {flag} is not a CLI flag"
            " (kFlags in tools/traceweaver_cli.cc)"
        )
    for flag in flags:
        mention = r"(?<![\w-])" + re.escape(flag) + r"(?![\w-])"
        if not re.search(mention, readme):
            problems.append(
                f"README.md: CLI flag {flag} (tools/traceweaver_cli.cc)"
                " is not documented"
            )


def main():
    problems = []
    check_links(problems)
    check_source_paths(problems)
    check_option_mentions(problems)
    names = source_metric_names()
    check_doc_mentions(problems, names)
    check_metrics_catalogue(problems, names)
    check_provenance_vocabulary(problems)
    check_cli_flags(problems)
    for p in problems:
        print(p)
    if not problems:
        print(
            f"check_docs: OK ({len(DOC_FILES)} docs, "
            f"{len(names)} source metric names, "
            f"{len(provenance_event_names())} provenance event types, "
            f"{len(cli_flags())} CLI flags)"
        )
    return min(len(problems), 100)


if __name__ == "__main__":
    sys.exit(main())
