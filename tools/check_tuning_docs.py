#!/usr/bin/env python3
"""Fail CI when docs/TUNING.md's quick-reference table drifts from the code.

Three rules, checked against the source (no build, no third-party packages):

  1. Every field of `struct Tuning` in src/dpcluster/api/request.h appears in
     the table's C++ column as `Tuning::<field>`. A cell that starts with
     `Tuning::` may list further fields of the same struct after " / "
     without repeating the prefix (`Tuning::coreset` / `coreset_min_points`).
  2. Every `tuning.<key>` in the table's wire column is a key ParseTuning
     (src/dpcluster/service/protocol.cc) accepts.
  3. Every `--flag` in the table's CLI column is an `arg == "--flag"` branch
     of tools/dpcluster_cli.cc or tools/eval_harness.cc.

Usage (from the repository root, or pass the root as the only argument):

    python3 tools/check_tuning_docs.py [repo-root]

Exit status: 0 when all rules hold, 1 otherwise (each drift is reported).
"""

import os
import re
import sys

FIELD = re.compile(r"^\s*[\w:<>, ]+?\s+(\w+)\s*(?:=[^;]*|\{[^;]*\})?;")
PARSED_KEY = re.compile(r'key == "(\w+)"')
PARSED_FLAG = re.compile(r'arg == "(--[\w-]+)"')
CODE = re.compile(r"`([^`]+)`")
CLI_SOURCES = ("tools/dpcluster_cli.cc", "tools/eval_harness.cc")


def read(root: str, path: str) -> str:
    with open(os.path.join(root, path), encoding="utf-8") as fh:
        return fh.read()


def tuning_fields(header: str) -> list:
    """Field names of `struct Tuning`, in declaration order."""
    body = re.search(r"^struct Tuning \{\n(.*?)^\};", header, re.S | re.M)
    if body is None:
        raise SystemExit("check_tuning_docs: struct Tuning not found")
    fields = []
    for line in body.group(1).splitlines():
        if line.strip().startswith("//"):
            continue
        match = FIELD.match(line)
        if match:
            fields.append(match.group(1))
    return fields


def parse_tuning_keys(protocol: str) -> set:
    """Keys accepted by ParseTuning: its `key == "..."` branches."""
    found = re.search(r"^\w+ ParseTuning\(", protocol, re.M)
    if found is None:
        raise SystemExit("check_tuning_docs: ParseTuning not found")
    start = found.start()
    end = protocol.find("\n}\n", start)
    return set(PARSED_KEY.findall(protocol[start:end]))


def quick_reference_rows(tuning_md: str) -> list:
    """The cells of every body row of the "Quick reference" table."""
    section = tuning_md.split("## Quick reference", 1)
    if len(section) < 2:
        raise SystemExit("check_tuning_docs: no Quick reference section")
    rows = []
    for line in section[1].split("\n## ", 1)[0].splitlines():
        if not line.startswith("|") or set(line) <= set("|-: "):
            continue
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows[1:]  # Drop the header row.


def documented(rows: list) -> tuple:
    """(Tuning fields named in the C++ column, wire keys named as tuning.*,
    flags named in the CLI column)."""
    fields = set()
    keys = set()
    flags = set()
    for cells in rows:
        cpp = cells[1]
        if cpp.startswith("`Tuning::"):
            for name in CODE.findall(cpp):
                fields.add(name.removeprefix("Tuning::"))
        for name in CODE.findall(cells[2]):
            if name.startswith("tuning."):
                keys.add(name.removeprefix("tuning."))
        for name in CODE.findall(cells[3]):
            if name.startswith("--"):
                flags.add(name)
    return fields, keys, flags


def main(argv: list) -> int:
    root = argv[1] if len(argv) > 1 else os.getcwd()
    fields = tuning_fields(read(root, "src/dpcluster/api/request.h"))
    accepted = parse_tuning_keys(read(root, "src/dpcluster/service/protocol.cc"))
    parsed_flags = set()
    for path in CLI_SOURCES:
        parsed_flags |= set(PARSED_FLAG.findall(read(root, path)))
    doc_fields, doc_keys, doc_flags = documented(
        quick_reference_rows(read(root, "docs/TUNING.md")))

    problems = []
    for field in fields:
        if field not in doc_fields:
            problems.append(f"Tuning::{field} is missing from the "
                            "docs/TUNING.md quick reference")
    for key in sorted(doc_keys - accepted):
        problems.append(f"docs/TUNING.md lists tuning.{key}, which "
                        "ParseTuning does not accept")
    for flag in sorted(doc_flags - parsed_flags):
        problems.append(f"docs/TUNING.md lists {flag}, which neither "
                        f"{' nor '.join(CLI_SOURCES)} parses")
    for problem in problems:
        print(problem, file=sys.stderr)
    covered = sum(field in doc_fields for field in fields)
    print(f"check_tuning_docs: {covered}/{len(fields)} Tuning fields "
          f"documented, {len(doc_keys & accepted)}/{len(doc_keys)} wire keys "
          f"accepted, {len(doc_flags & parsed_flags)}/{len(doc_flags)} CLI "
          "flags parsed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
