#!/usr/bin/env bash
# Net line delta of the working tree against a base ref, in four groups:
#
#   scripts/line_delta.sh [base]        # base defaults to HEAD~1
#
# library: src/, crates/*/src/ (in-file unit tests included)
# tests: tests/, crates/*/tests/ · benches+examples: benches/, examples/
# at the root or under crates/*/ · docs: every *.md. Other files (scripts,
# manifests, fixtures) and binary files are not counted.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git diff --numstat --no-renames "${1:-HEAD~1}" | awk -F'\t' '
    $1 == "-" { next }
    {
        if ($3 ~ /\.md$/) g = "docs"
        else if ($3 ~ /^(crates\/[^\/]+\/)?src\//) g = "library"
        else if ($3 ~ /^(crates\/[^\/]+\/)?tests\//) g = "tests"
        else if ($3 ~ /^(crates\/[^\/]+\/)?(benches|examples)\//) g = "benches+examples"
        else next
        add[g] += $1; del[g] += $2
    }
    END {
        n = split("library tests benches+examples docs", order, " ")
        for (i = 1; i <= n; i++) {
            g = order[i]
            printf "%-17s +%-6d -%-6d net %+d\n", g, add[g], del[g], add[g] - del[g]
        }
    }'
