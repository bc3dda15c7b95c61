#!/usr/bin/env bash
# Fails when the newest CHANGES.md entry is longer than 10 lines. An entry
# starts at a line beginning "- PR " and runs to the next such line or the
# end of the file; the newest entry is the last one. What a PR measured
# belongs in DESIGN.md and git, not in the file every session reads first.
set -euo pipefail
cd "$(dirname "$0")/.."
max=10
lines=$(awk '/^- PR /{n=0} {n++} END{print n+0}' CHANGES.md)
if [ "$lines" -gt "$max" ]; then
  echo "CHANGES.md: newest entry is $lines lines, limit $max" >&2
  exit 1
fi
echo "CHANGES.md: newest entry is $lines lines (limit $max)"
