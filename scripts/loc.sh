#!/usr/bin/env sh
# Print the non-test lines of Go code per package (wc -l over every .go file
# that is not a _test.go file), largest first, then the module total. The
# ROADMAP tracks these numbers: simplifications are expected to shrink them.
#
# Usage: scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path '*/testdata/*' |
	while read -r f; do
		printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
	done |
	awk '{ loc[$1] += $2; total += $2 }
	END {
		for (d in loc) printf "%7d  %s\n", loc[d], d | "sort -rn"
		close("sort -rn")
		printf "%7d  total\n", total
	}'
