"""Lines-of-code counting for the §4.3 accounting.

"While imperfect, lines of code (LOC) help quantify the maintenance
challenges for developers" — we reproduce the paper's measurement:
non-blank, non-comment source lines, per artifact kind.
"""

from __future__ import annotations

LINE_COMMENT = {
    "dlog": "//",
    "p4": "//",
    "python": "#",
    "json": None,
}


def count_loc(text: str, kind: str = "python") -> int:
    """Count non-blank, non-comment lines of ``text``.

    Handles ``/* ... */`` block comments for dlog/p4 and does not try to
    be clever about comment markers inside string literals (neither did
    the paper).
    """
    marker = LINE_COMMENT.get(kind, "#")
    count = 0
    in_block = False
    for raw in text.splitlines():
        line = raw.strip()
        if in_block:
            if "*/" in line:
                in_block = False
                line = line.split("*/", 1)[1].strip()
            else:
                continue
        if kind in ("dlog", "p4") and line.startswith("/*"):
            if "*/" not in line:
                in_block = True
                continue
            line = line.split("*/", 1)[1].strip()
        if not line:
            continue
        if marker is not None and line.startswith(marker):
            continue
        count += 1
    return count
