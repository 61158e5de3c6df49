#!/usr/bin/env python3
"""Fail CI on dead relative links in the repo's markdown.

Scans README.md and docs/**/*.md (plus any extra paths given on the command
line) for markdown links and inline `path` references of the form
[text](target). External links (http://, https://, mailto:) are NOT fetched
— this gate needs no network; it only verifies that every relative target
resolves to a file or directory in the working tree, with optional #anchor
suffixes checked against the target's headings.

Exit status: 0 when every link resolves, 1 otherwise (each dead link is
reported with file:line).
"""

import os
import re
import sys

# [text](target) — target captured up to the closing paren; markdown image
# syntax ![alt](target) matches the same way.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def anchor_of(heading: str) -> str:
    """GitHub's anchor slug: lowercase, punctuation dropped, spaces to -."""
    slug = heading.strip().lower()
    # Formatting markers only — a literal underscore survives in GitHub's
    # slug (heading "shared_index" anchors as #shared_index).
    slug = re.sub(r"[`*~]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def headings_in(path: str) -> set:
    anchors = set()
    in_fence = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            match = HEADING.match(line)
            if match:
                anchors.add(anchor_of(match.group(1)))
    return anchors


def markdown_files(root: str, extra: list) -> list:
    files = []
    readme = os.path.join(root, "README.md")
    if os.path.isfile(readme):
        files.append(readme)
    docs = os.path.join(root, "docs")
    for dirpath, _, names in os.walk(docs):
        files.extend(
            os.path.join(dirpath, n) for n in names if n.endswith(".md"))
    files.extend(extra)
    return files


def check_file(path: str, root: str) -> list:
    """Returns a list of 'file:line: message' strings for dead links."""
    problems = []
    in_fence = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK.findall(line):
                if target.startswith(EXTERNAL):
                    continue
                target, _, anchor = target.partition("#")
                if not target:  # same-file #anchor
                    resolved = path
                else:
                    resolved = os.path.normpath(
                        os.path.join(os.path.dirname(path), target))
                if not os.path.exists(resolved):
                    problems.append(
                        f"{os.path.relpath(path, root)}:{lineno}: "
                        f"dead link: {target}")
                    continue
                if anchor and resolved.endswith(".md"):
                    if anchor.lower() not in headings_in(resolved):
                        problems.append(
                            f"{os.path.relpath(path, root)}:{lineno}: "
                            f"missing anchor: {target}#{anchor}")
    return problems


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = markdown_files(root, sys.argv[1:])
    if not files:
        print("check_doc_links: no markdown files found", file=sys.stderr)
        return 1
    problems = []
    for path in files:
        problems.extend(check_file(path, root))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"check_doc_links: {len(files)} files, "
          f"{len(problems)} dead link(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
