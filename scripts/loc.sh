#!/bin/sh
# loc.sh — non-test Go lines per package directory and in total, outside
# bench/: the size figure every ROADMAP re-anchor and simplicity issue
# quotes (`wc -l` over *.go that is not *_test.go). With a ceiling, a total
# above it fails: `make check` passes the figure the tree is held to.
#
# Usage: scripts/loc.sh [ceiling]
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort |
    xargs wc -l |
    awk -v ceiling="${1:-0}" '$2 == "total" { next }
         { dir = $2; sub("/[^/]*$", "", dir); lines[dir] += $1; total += $1 }
         END {
             for (dir in lines) printf "%6d  %s\n", lines[dir], dir | "sort -k2"
             close("sort -k2")
             printf "%6d  total (non-test Go lines outside bench/)\n", total
             if (ceiling + 0 > 0 && total > ceiling + 0) {
                 printf "loc: %d lines exceed the ceiling of %d\n", total, ceiling
                 exit 1
             }
         }'
