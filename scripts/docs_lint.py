#!/usr/bin/env python3
"""Documentation lint: the docs/ tree must exist, cross-link soundly, and the
public headers must carry doc comments.

Three checks, run from anywhere (the repo root is derived from this file):

  1. docs/ tree: ARCHITECTURE.md, CRASH_GRAMMAR.md, SWEEP.md,
     OBSERVABILITY.md and BACKENDS.md exist, are non-trivial, and README.md
     links into docs/.
  2. Intra-docs links: every relative markdown link in README.md and the
     docs/ tree (the `[text](path)` form, optionally with a `#fragment`)
     must resolve to a file that exists, and its fragment (a bare `#x`
     names the linking file itself) to one of the target's headings under
     GitHub's heading-slug rule — the docs cross-link heavily (README ->
     docs/*, BACKENDS <-> OBSERVABILITY <-> SWEEP), and a renamed file or
     heading must not leave dangling references. External (scheme://) links
     are out of scope.
  3. Public-header docs: every top-level `struct X {` / `class X {`
     definition in the PUBLIC_HEADERS list is immediately preceded by a
     comment line (`///` or `//`), so the API surface cannot silently grow
     undocumented types. Forward declarations (`class X;`) are exempt.

Exit status: 0 clean, 1 lint failure(s).
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

REQUIRED_DOCS = [
    "docs/ARCHITECTURE.md",
    "docs/CRASH_GRAMMAR.md",
    "docs/SWEEP.md",
    "docs/OBSERVABILITY.md",
    "docs/BACKENDS.md",
]

# The files whose relative markdown links must resolve.
LINKED_DOCS = ["README.md", *REQUIRED_DOCS]

# The public API surface held to the struct/class doc-comment rule.
PUBLIC_HEADERS = [
    "src/core/workload.hpp",
    "src/core/adapter.hpp",
    "src/core/sweep.hpp",
    "src/core/scenario.hpp",
    "src/core/fault.hpp",
    "src/core/harness.hpp",
    "src/core/modes.hpp",
    "src/core/shard.hpp",
    "src/core/coordinator.hpp",
    "src/core/telemetry.hpp",
    "src/checkpoint/backend.hpp",
    "src/checkpoint/chunk.hpp",
    "src/checkpoint/checkpoint_set.hpp",
    "src/checkpoint/codec.hpp",
    "src/checkpoint/write_pipeline.hpp",
    "src/kernels/backend.hpp",
    "src/kernels/threads.hpp",
]

DECL = re.compile(r"^(?:struct|class)\s+(\w+)")

# Markdown inline links; images share the form (the leading '!' is irrelevant
# to resolution). Reference-style links are not used in this docs tree.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# ATX headings (`## Title`, optional closing #s) and code-fence delimiters,
# inside which a leading '#' is not a heading.
HEADING = re.compile(r"^ {0,3}#{1,6}\s+(.*?)(?:\s+#+)?\s*$")
FENCE = re.compile(r"^ {0,3}(?:```|~~~)")


def check_docs_tree(failures):
    for rel in REQUIRED_DOCS:
        path = ROOT / rel
        if not path.is_file():
            failures.append(f"{rel}: missing")
        elif len(path.read_text().splitlines()) < 10:
            failures.append(f"{rel}: suspiciously short (< 10 lines)")
    readme = ROOT / "README.md"
    if not readme.is_file():
        failures.append("README.md: missing")
    elif "docs/" not in readme.read_text():
        failures.append("README.md: does not link into docs/")


def heading_slug(text):
    """GitHub's anchor for a heading: the rendered text (a link shows its
    label) lowercased, every character but letters, digits, '_', '-' and
    spaces dropped, and each space turned into a '-'."""
    text = re.sub(r"!?\[([^\]]*)\]\([^)]*\)", r"\1", text)
    return re.sub(r"[^\w\- ]", "", text.lower()).replace(" ", "-")


def heading_anchors(path):
    """The fragments `path`'s headings answer to; GitHub suffixes a repeated
    slug with -1, -2, ... in document order."""
    anchors, seen, in_fence = set(), {}, False
    for line in path.read_text().splitlines():
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        m = None if in_fence else HEADING.match(line)
        if not m:
            continue
        slug = heading_slug(m.group(1))
        repeat = seen.get(slug, 0)
        anchors.add(f"{slug}-{repeat}" if repeat else slug)
        seen[slug] = repeat + 1
    return anchors


def check_links(rel, failures):
    path = ROOT / rel
    if not path.is_file():
        return  # check_docs_tree already reported it.
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for target in MD_LINK.findall(line):
            if "://" in target or target.startswith("mailto:"):
                continue
            file_part, _, fragment = target.partition("#")
            resolved = (path.parent / file_part).resolve() if file_part else path
            if not resolved.exists():
                failures.append(f"{rel}:{lineno}: dangling link '{target}'")
            elif (fragment and resolved.suffix == ".md"
                  and fragment not in heading_anchors(resolved)):
                failures.append(f"{rel}:{lineno}: link '{target}' names no heading "
                                f"of {resolved.relative_to(ROOT)}")


def check_header(rel, failures):
    path = ROOT / rel
    if not path.is_file():
        failures.append(f"{rel}: missing")
        return
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        m = DECL.match(line)
        if not m:
            continue
        # Forward declarations and `};`-style continuations carry no body.
        stripped = line.strip()
        if stripped.endswith(";") and "{" not in stripped:
            continue
        prev = lines[i - 1].strip() if i > 0 else ""
        if not (prev.startswith("///") or prev.startswith("//")):
            failures.append(
                f"{rel}:{i + 1}: public type '{m.group(1)}' has no doc comment "
                f"on the preceding line")


def main():
    failures = []
    check_docs_tree(failures)
    for rel in LINKED_DOCS:
        check_links(rel, failures)
    for rel in PUBLIC_HEADERS:
        check_header(rel, failures)
    if failures:
        print(f"docs_lint: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"docs_lint OK: {len(REQUIRED_DOCS)} docs, "
          f"{len(PUBLIC_HEADERS)} public headers documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
