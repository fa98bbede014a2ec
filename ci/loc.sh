#!/usr/bin/env bash
# Non-test lines of Rust per crate under crates/*/src — bodies of
# `#[cfg(test)] mod … { … }` stripped — for the working tree, and the
# delta against a base commit. This is the net-LoC figure ROADMAP asks
# every CHANGES.md line to carry.
#
#   ci/loc.sh [BASE]     BASE defaults to HEAD~1; for a PR of several
#                        commits pass the parent of its first commit (or
#                        the pure-move commit, to leave the move out).
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
base=${1:-HEAD~1}

# Lines of stdin outside `#[cfg(test)] mod` bodies. Braces are counted per
# line; Rust's `{}` format holes are balanced, which is all this relies on.
non_test_lines() {
  awk '
    skip {
      depth += gsub(/\{/, "{") - gsub(/\}/, "}")
      if (depth <= 0) skip = 0
      next
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
    pending {
      pending = 0
      if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/) {
        depth = gsub(/\{/, "{") - gsub(/\}/, "}")
        skip = depth > 0
        next
      }
      n++ # the attribute sat on a non-module item: it counts
    }
    { n++ }
    END { print n + 0 }'
}

crates=$( { ls -d crates/*/src; git ls-tree -r --name-only "$base" crates/ | grep -E '^crates/[^/]+/src/'; } |
  cut -d/ -f2 | sort -u)

printf '%-12s %8s %8s %8s\n' crate "$(git rev-parse --short "$base")" tree delta
total_base=0
total_head=0
for c in $crates; do
  b=$(git ls-tree -r --name-only "$base" "crates/$c/src" | { grep '\.rs$' || true; } |
    while read -r f; do git show "$base:$f"; done | non_test_lines)
  h=$( { [ -d "crates/$c/src" ] && find "crates/$c/src" -name '*.rs' -exec cat {} + || true; } | non_test_lines)
  printf '%-12s %8d %8d %+8d\n' "$c" "$b" "$h" $((h - b))
  total_base=$((total_base + b))
  total_head=$((total_head + h))
done
printf '%-12s %8d %8d %+8d\n' total "$total_base" "$total_head" $((total_head - total_base))
