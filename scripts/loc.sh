#!/usr/bin/env bash
# Net lines of non-test Rust per crate against a base revision.
#
# Usage: scripts/loc.sh [base]     (base defaults to HEAD~1)
#
# Compares the working tree, untracked files included, with `base` and
# prints added, removed and net lines of the `.rs` files under each
# `crates/<name>/`, then the total. Files under a `tests/` directory are
# left out; inline `#[cfg(test)]` modules are counted, since line
# counts cannot tell them apart from the code around them.
set -euo pipefail

base="${1:-HEAD~1}"
cd "$(git rev-parse --show-toplevel)"

paths=('crates/*.rs' ':(exclude)crates/*/tests/*')
{
    git diff --numstat "$base" -- "${paths[@]}"
    git ls-files --others --exclude-standard -- "${paths[@]}" |
        while read -r f; do printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"; done
} | awk -F'\t' '$1 != "-" { split($3, p, "/"); print p[2], $1, $2 }' | sort | awk '
    { add[$1] += $2; del[$1] += $3; if (!($1 in seen)) { seen[$1] = 1; order[n++] = $1 } }
    END {
        printf "%-12s %8s %8s %8s\n", "crate", "added", "removed", "net"
        for (i = 0; i < n; i++) {
            c = order[i]
            printf "%-12s %8d %8d %+8d\n", c, add[c], del[c], add[c] - del[c]
            tadd += add[c]; tdel += del[c]
        }
        printf "%-12s %8d %8d %+8d\n", "total", tadd, tdel, tadd - tdel
    }'
