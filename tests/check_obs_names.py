#!/usr/bin/env python3
"""Fail when a metric or span name used in src/ is missing from the catalog.

Every string literal passed as the name of obs::counter, obs::gauge,
obs::histogram or obs::Span under src/ must appear, in backticks, in
docs/OBSERVABILITY.md. Names built at run time (a design-name suffix)
are not literals and are documented by pattern instead.

Usage: check_obs_names.py <repo root>
"""
import pathlib
import re
import sys

NAME = re.compile(
    r'\b(?:counter|gauge|histogram)\s*\(\s*"([^"]+)"'  # obs::counter("x")
    r'|\bSpan\s+\w+\s*\(\s*"([^"]+)"'                  # obs::Span span("x")
    r'|\bSpan\s*\(\s*"([^"]+)"')                       # obs::Span("x")


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    used = {}
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        text = path.read_text()
        for m in NAME.finditer(text):
            name = next(g for g in m.groups() if g)
            line = text.count("\n", 0, m.start()) + 1
            used.setdefault(name, f"{path.relative_to(root)}:{line}")
    catalog = (root / "docs" / "OBSERVABILITY.md").read_text()
    missing = sorted(n for n in used if f"`{n}`" not in catalog)
    for name in missing:
        print(f"{used[name]}: '{name}' is not listed in docs/OBSERVABILITY.md")
    if not used:
        print("no metric or span names found under src/ (wrong root?)")
        return 1
    print(f"{len(used)} names checked, {len(missing)} missing")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
