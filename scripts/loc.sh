#!/usr/bin/env bash
# Non-blank `.rs` lines per workspace crate: the root package, every
# `crates/*` and every `shims/*` member, by package name. `src` counts
# `src/` (inline unit tests included); `tests` counts `tests/`,
# `benches/` and `examples/`. Informational, not a gate: lines of code
# per crate are tracked like a perf metric, so a change records this
# table for its parent and for itself.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (defaults to this script's repo)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Non-blank lines across every `.rs` file under the given directories.
nonblank() {
    local dir total=0 n
    for dir in "$@"; do
        [ -d "$dir" ] || continue
        n="$(find "$dir" -type f -name '*.rs' -exec awk NF {} + | wc -l)"
        total=$((total + n))
    done
    echo "$total"
}

printf '%-16s %7s %7s %7s\n' crate src tests total
sum_src=0
sum_tests=0
for dir in . crates/*/ shims/*/; do
    dir="${dir%/}"
    [ -f "$dir/Cargo.toml" ] || continue
    name="$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)"
    src="$(nonblank "$dir/src")"
    tests="$(nonblank "$dir/tests" "$dir/benches" "$dir/examples")"
    printf '%-16s %7d %7d %7d\n' "$name" "$src" "$tests" $((src + tests))
    sum_src=$((sum_src + src))
    sum_tests=$((sum_tests + tests))
done
printf '%-16s %7d %7d %7d\n' TOTAL "$sum_src" "$sum_tests" $((sum_src + sum_tests))
