#!/usr/bin/env python3
"""Protocol-aware static analysis for the SDUR repo.

Usage: python3 tools/analyze [--root DIR] [--allowlist FILE] [--json OUT]
                             [--rules r1,r2] [--list-rules] [--selftest]

A token-accurate C++ lint engine (cpplex/cppmodel) with a pluggable rule
set (engine + rules_*): the seven determinism rules migrated from the
legacy regex linter, the src/ layering DAG with include-cycle detection,
encode/decode wire-format symmetry, hot-path hygiene for the
certification fast path, and the technique-config single-source rule.
See DESIGN.md "Static analysis" for the rule catalog and the allowlist
contract.

Exit status: 0 clean, 1 findings or stale allowlist entries, 2 usage
error. Wired into CTest as `analyze_lint` (the tree scan) and
`analyzer_selftest` (the fixture corpus under tests/analyze_fixtures/),
into tools/check.sh stage 1, and into `cmake --build build --target
analyze` (which also writes bench_json/ANALYZE.json).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import engine
import rules_config
import rules_determinism
import rules_hotpath
import rules_layering
import rules_style
import rules_symmetry

ALL_RULES = (rules_determinism.RULES + rules_layering.RULES +
             rules_symmetry.RULES + rules_hotpath.RULES +
             rules_config.RULES + rules_style.RULES)

# The rule set the legacy linter shipped; the selftest pins these against
# the legacy linter's recorded findings on the legacy_pin fixture tree.
LEGACY_RULE_NAMES = {r.name for r in rules_determinism.RULES}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="analyze", description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this package)")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default: tools/analyze_allow.txt)")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write a machine-readable report to this path")
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule subset to run")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    ap.add_argument("--selftest", action="store_true",
                    help="run the fixture-corpus selftest instead of a tree scan")
    args = ap.parse_args(argv)

    root = (Path(args.root) if args.root
            else Path(__file__).resolve().parent.parent.parent)
    if not root.is_dir():
        print(f"analyze: no such root {root}", file=sys.stderr)
        return 2

    if args.list_rules:
        for r in ALL_RULES:
            flags = []
            if r.severity != engine.SEV_ERROR:
                flags.append(r.severity)
            if r.no_allowlist:
                flags.append("no-allowlist")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            print(f"{r.name:26} {r.description}{suffix}")
        return 0

    if args.selftest:
        import selftest
        return selftest.run(root, ALL_RULES)

    rule_filter = None
    if args.rules:
        rule_filter = {s.strip() for s in args.rules.split(",") if s.strip()}
        unknown = rule_filter - {r.name for r in ALL_RULES}
        if unknown:
            print(f"analyze: unknown rule(s): {', '.join(sorted(unknown))} "
                  f"(--list-rules shows the catalog)", file=sys.stderr)
            return 2

    allow_path = (Path(args.allowlist) if args.allowlist
                  else root / "tools/analyze_allow.txt")
    try:
        report = engine.run_analysis(root, ALL_RULES, allow_path, rule_filter)
    except FileNotFoundError as e:
        print(f"analyze: {e}", file=sys.stderr)
        return 2

    engine.render_text(report, sys.stderr)
    engine.render_summary(report, sys.stderr if report.failures else sys.stdout)
    if args.json_out:
        engine.write_json(report, Path(args.json_out))
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
