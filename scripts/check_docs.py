#!/usr/bin/env python3
"""Documentation link, cross-reference and CLI-flag checker.

Validates, for every tracked markdown file at the repo root and under
docs/:

  * relative markdown links ``[text](path)`` — the target file must exist;
    a ``#anchor`` fragment must match a heading in the target (GitHub
    slugification);
  * section references ``§N`` (optionally ``§N.M``) — resolved against the
    nearest preceding ``*.md`` filename on the same line, or against the
    current file when the line names no other document. The target must
    contain a numbered heading ``## N.``. Paper sections are written
    "Section N" by convention and are not checked;
  * command-line flags ``--flag`` — every flag a doc mentions must be one
    some binary actually reads (``Get{String,Int,Double}("flag")`` in
    tools/, bench/ or examples/, or ``add_argument("--flag")`` in
    perfbench/run.py and perfbench/compare.py) or a whitelisted external
    tool's flag (cmake/ctest). Flag mentions inside code fences count too
    — usage examples live there — except fences marked as a non-shell
    language (``cpp``/``python``…), whose ``--x`` is usually a decrement,
    not a flag.

Additionally verifies the two directions of tool documentation:

  * every flag ``tools/iolap_cli.cpp`` reads is documented in
    docs/CLI.md (mentioned as ``--flag`` somewhere in that file);
  * every benchmark binary (``bench/bench_*.cpp``) is documented: its
    stem must appear in a ``##`` heading of EXPERIMENTS.md.

Exit status 0 when everything resolves; 1 otherwise, listing every broken
reference as file:line: message.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Retrieved/driver material is not subject to the repo's cross-reference
# conventions.
EXCLUDE = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md", "CHANGES.md"}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SECTION_RE = re.compile(r"§\s?(\d+)(?:\.\d+)*")
MD_NAME_RE = re.compile(r"[\w./-]*\w\.md")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
NUMBERED_HEADING_RE = re.compile(r"^#{1,6}\s+(\d+)\.\s")
CODE_FENCE_RE = re.compile(r"^(```|~~~)\s*([A-Za-z+]*)")

# A flag mention: "--name" preceded by start-of-line or a delimiter (so a
# C-style decrement "(--x" or an em-dash spelled "a--b" doesn't count).
FLAG_USE_RE = re.compile(r"(?:^|[\s`'\"\[(|=<])--([a-z][a-z0-9_-]*)")
# A flag definition in C++: flags.GetString("name", ...) etc.
FLAG_DEF_RE = re.compile(r"Get(?:String|Int|Double)\(\s*\"([a-z][a-z0-9_-]*)\"")
# A flag definition in the Python tools: parser.add_argument("--name", ...).
PY_FLAG_DEF_RE = re.compile(r"add_argument\(\s*\"--([a-z][a-z0-9_-]*)\"")
# Fence languages whose "--" is code, not a command line.
NON_SHELL_FENCE = {"cpp", "c++", "c", "cc", "python", "py"}
# Flags of external tools that build/test instructions legitimately show.
EXTERNAL_TOOL_FLAGS = {
    "build",              # cmake --build
    "test-dir",           # ctest --test-dir
    "output-on-failure",  # ctest --output-on-failure
}
# Directories whose C++ binaries define the repo's own flags.
FLAG_SOURCE_DIRS = ("tools", "bench", "examples")
# Python tools whose argparse flags the docs quote (the end-to-end benchmark).
PY_FLAG_SOURCES = ("perfbench/run.py", "perfbench/compare.py")

CLI_SOURCE = os.path.join(REPO, "tools", "iolap_cli.cpp")
CLI_DOC = os.path.join(REPO, "docs", "CLI.md")


def doc_files():
    files = []
    for directory in (REPO, os.path.join(REPO, "docs")):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".md") and name not in EXCLUDE:
                files.append(os.path.join(directory, name))
    return files


def github_slug(heading):
    """GitHub's anchor slug: lowercase, drop punctuation, spaces→hyphens."""
    text = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def scan(path):
    """Returns (prose lines, flag-scannable lines, anchors, sections).

    Prose lines exclude code fences entirely (links and § refs belong in
    prose); flag-scannable lines additionally include the contents of
    shell/plain fences, where usage examples mention flags.
    """
    lines, flag_lines, anchors, sections = [], [], set(), set()
    fence_lang = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            m = CODE_FENCE_RE.match(line)
            if m:
                fence_lang = None if fence_lang is not None \
                    else m.group(2).lower()
                continue
            if fence_lang is not None:
                if fence_lang not in NON_SHELL_FENCE:
                    flag_lines.append((lineno, line))
                continue
            lines.append((lineno, line))
            flag_lines.append((lineno, line))
            m = HEADING_RE.match(line)
            if m:
                anchors.add(github_slug(m.group(2)))
            m = NUMBERED_HEADING_RE.match(line)
            if m:
                sections.add(int(m.group(1)))
    return lines, flag_lines, anchors, sections


def defined_flags(source_path):
    """Flags a C++ binary reads via Flags::Get{String,Int,Double}."""
    with open(source_path, encoding="utf-8") as f:
        return set(FLAG_DEF_RE.findall(f.read()))


def all_program_flags():
    flags = set()
    for directory in FLAG_SOURCE_DIRS:
        root = os.path.join(REPO, directory)
        for name in sorted(os.listdir(root)):
            if name.endswith((".cpp", ".cc", ".h")):
                flags |= defined_flags(os.path.join(root, name))
    for source in PY_FLAG_SOURCES:
        with open(os.path.join(REPO, source), encoding="utf-8") as f:
            flags |= set(PY_FLAG_DEF_RE.findall(f.read()))
    return flags


def main():
    files = doc_files()
    meta = {path: scan(path) for path in files}
    # Targets of links/§-refs may be excluded files or files outside the two
    # scanned directories; scan targets lazily.
    def target_meta(path):
        if path not in meta:
            meta[path] = scan(path)
        return meta[path]

    known_flags = all_program_flags() | EXTERNAL_TOOL_FLAGS
    cli_flags = defined_flags(CLI_SOURCE)

    errors = []
    for path in files:
        rel = os.path.relpath(path, REPO)
        base = os.path.dirname(path)
        lines, flag_lines, _, own_sections = meta[path]
        for lineno, line in lines:
            for m in LINK_RE.finditer(line):
                target = m.group(1)
                if re.match(r"[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                    continue
                target_path, _, fragment = target.partition("#")
                if target_path:
                    resolved = os.path.normpath(os.path.join(base, target_path))
                    if not os.path.exists(resolved):
                        errors.append(f"{rel}:{lineno}: broken link '{target}'")
                        continue
                else:
                    resolved = path  # pure '#anchor'
                if fragment and resolved.endswith(".md"):
                    _, _, anchors, _ = target_meta(resolved)
                    if fragment not in anchors:
                        errors.append(
                            f"{rel}:{lineno}: anchor '#{fragment}' not found "
                            f"in {os.path.relpath(resolved, REPO)}")
            for m in SECTION_RE.finditer(line):
                section = int(m.group(1))
                named = [f for f in MD_NAME_RE.findall(line[: m.start()])]
                if named:
                    candidates = [
                        os.path.normpath(os.path.join(base, named[-1])),
                        os.path.normpath(os.path.join(REPO, named[-1])),
                    ]
                    resolved = next(
                        (c for c in candidates if os.path.exists(c)), None)
                    if resolved is None:
                        errors.append(
                            f"{rel}:{lineno}: §{section} references missing "
                            f"file '{named[-1]}'")
                        continue
                    _, _, _, sections = target_meta(resolved)
                    where = os.path.relpath(resolved, REPO)
                else:
                    sections, where = own_sections, rel
                if section not in sections:
                    errors.append(
                        f"{rel}:{lineno}: §{section} has no numbered heading "
                        f"'## {section}.' in {where}")
        for lineno, line in flag_lines:
            for flag in FLAG_USE_RE.findall(line):
                if flag not in known_flags:
                    errors.append(
                        f"{rel}:{lineno}: flag '--{flag}' is not read by any "
                        f"binary under {'/'.join(FLAG_SOURCE_DIRS)} (stale "
                        "flag, or add it to EXTERNAL_TOOL_FLAGS in "
                        "scripts/check_docs.py)")

    # Every CLI flag must be documented in docs/CLI.md.
    documented = set()
    for _, line in target_meta(CLI_DOC)[1]:
        documented.update(FLAG_USE_RE.findall(line))
    for flag in sorted(cli_flags - documented):
        errors.append(
            f"tools/iolap_cli.cpp: flag '--{flag}' is not documented in "
            f"docs/CLI.md")

    experiments = os.path.join(REPO, "EXPERIMENTS.md")
    headings = " ".join(
        line for _, line in target_meta(experiments)[0]
        if line.startswith("##"))
    bench_dir = os.path.join(REPO, "bench")
    for name in sorted(os.listdir(bench_dir)):
        if not (name.startswith("bench_") and name.endswith(".cpp")):
            continue
        stem = name[: -len(".cpp")]
        if stem not in headings:
            errors.append(
                f"bench/{name}: no '## ... `{stem}`' heading in "
                f"EXPERIMENTS.md")

    for error in errors:
        print(error)
    if errors:
        print(f"\n{len(errors)} broken documentation reference(s)",
              file=sys.stderr)
        return 1
    print(f"checked {len(files)} files: all links, anchors, § references "
          f"and {len(known_flags)} known flags resolve; "
          f"{len(cli_flags)} CLI flags documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
