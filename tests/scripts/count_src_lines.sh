#!/bin/sh
# Counts the source lines under src/ that carry code, per module (each
# directory under src/) and in total: non-blank lines of *.cpp and *.hpp
# files whose first non-blank characters are not `//`, `/*` or `*` (the
# inside of a /* */ block). The rule is kept this simple so that counts
# stay comparable from change to change; it also skips the rare code line
# that starts with a dereference or an inline /* argument */ comment.
#
# Usage: count_src_lines.sh [repo root]   (default: two levels up)
set -eu

root="${1:-$(dirname "$0")/../..}"

total=0
for dir in "$root"/src/*/; do
  n="$(find "$dir" -type f \( -name '*.cpp' -o -name '*.hpp' \) \
        -exec cat {} + |
      grep -v '^[[:space:]]*$' |
      grep -cv '^[[:space:]]*\(//\|/\*\|\*\)' || true)"
  printf '%-8s %6d\n' "$(basename "$dir")" "$n"
  total=$((total + n))
done
printf '%-8s %6d\n' total "$total"
