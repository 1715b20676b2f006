#!/usr/bin/env python3
"""Fails when a doc cites a code name that no longer exists.

Checks every backticked snake_case name with at least three underscores in
ARCHITECTURE.md, README.md and .claude/skills/verify/SKILL.md (test names,
functions, metric families).  A name resolves if it is the prefix of an
`fn` name in the tracked `.rs` tree, or a quoted string literal there once
a Prometheus `_sum` / `_count` / `_bucket` suffix is stripped.

Run from anywhere inside the repository:

    python3 scripts/check_doc_names.py
"""

import pathlib
import re
import subprocess
import sys

DOCS = ["ARCHITECTURE.md", "README.md", ".claude/skills/verify/SKILL.md"]
# A dotted key (`net.tune_exec_ms_p50`, a benchmark row) or a macro
# (`is_x86_feature_detected!`) is not a name of the .rs tree.
NAME = re.compile(r"(?<![A-Za-z0-9_.])[a-z][a-z0-9]*(?:_[a-z0-9]+){3,}(?![A-Za-z0-9_!])")
SPAN = re.compile(r"`([^`]+)`")
FN = re.compile(r"\bfn\s+([a-z_][a-z0-9_]*)")
LITERAL = re.compile(r'"([a-z][a-z0-9_]*)"')
SUFFIX = re.compile(r"_(?:sum|count|bucket)$")


def main() -> int:
    root = pathlib.Path(
        subprocess.check_output(["git", "rev-parse", "--show-toplevel"], text=True).strip()
    )
    sources = subprocess.check_output(["git", "ls-files", "*.rs"], cwd=root, text=True).split()
    fns, literals = set(), set()
    for path in sources:
        text = (root / path).read_text(encoding="utf-8")
        fns.update(FN.findall(text))
        literals.update(LITERAL.findall(text))

    stale = []
    for doc in DOCS:
        text = (root / doc).read_text(encoding="utf-8")
        # Fence lines are not code spans: dropping them keeps the inline
        # backticks paired.
        text = "\n".join(l for l in text.splitlines() if not l.lstrip().startswith("```"))
        names = {n for span in SPAN.findall(text) for n in NAME.findall(span)}
        for name in sorted(names):
            if SUFFIX.sub("", name) in literals or name in literals:
                continue
            if any(f.startswith(name) for f in fns):
                continue
            stale.append(f"{doc}: `{name}`")
    for line in stale:
        print(f"stale name (no fn or metric literal in the .rs tree): {line}", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
