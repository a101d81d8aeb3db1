"""The package stays within its line cap (see ROADMAP).

The count is the one CI's workflow prints, ``cat src/geneigopt/*.py | wc -l``:
the newline characters in every module of the package.
"""

from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "geneigopt"
LINE_CAP = 2050


def test_package_line_cap():
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert counts, PACKAGE_DIR
    assert sum(counts.values()) <= LINE_CAP, counts
