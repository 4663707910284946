"""Source-layout rules that must hold without the optional formatters.

  line-length   a line of src/ longer than 100 columns (counted in code
                points), the ColumnLimit in .clang-format. tools/check.sh
                runs clang-format only where it is installed; this rule
                keeps the limit enforced by the always-on `analyze_lint`
                test everywhere else. Reflowing is always possible, so the
                rule accepts no allowlist entries; the token is the line's
                length.
"""

from __future__ import annotations

from engine import Context, Finding, Rule

COLUMN_LIMIT = 100  # .clang-format ColumnLimit


def run_line_length(ctx: Context):
    for m in ctx.models:
        for lineno, line in enumerate(m.text.splitlines(), 1):
            if len(line) > COLUMN_LIMIT:
                yield Finding(
                    m.rel, lineno, "line-length", str(len(line)),
                    f"line is {len(line)} columns, over the {COLUMN_LIMIT}-column limit")


RULES = [
    Rule("line-length",
         f"no src/ line longer than {COLUMN_LIMIT} columns (.clang-format ColumnLimit)",
         run_line_length,
         no_allowlist=True,
         suggestion="reflow the line (clang-format does it where installed)"),
]
