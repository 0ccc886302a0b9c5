#!/usr/bin/env bash
# Non-test Rust lines per crate, in the working tree and at a revision.
#
#   scripts/loc.sh [REV]        # REV defaults to HEAD
#
# A line counts when it is non-blank, lies in a `.rs` file outside every
# `tests/` and `benches/` directory, and lies outside `#[cfg(test)]`
# modules, inline or in their own files (`#[cfg(test)] mod NAME;`).
# Comments count. Rows are the crates under `crates/`, the root
# package's `src`, and `examples`; the last row is the total, and
# `delta` is the working tree minus REV.
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:-HEAD}
if ! git rev-parse --verify --quiet "$rev^{commit}" > /dev/null; then
  echo "loc.sh: unknown revision '$rev'" >&2
  exit 2
fi

# Non-blank lines of the Rust source on stdin, outside `#[cfg(test)]`
# modules (an inline module ends at its closing brace in column 0; a
# `mod NAME;` declares one in its own file, which `test_mods` finds).
count() {
  awk '
    cfg && /^(pub )?mod [A-Za-z0-9_]+;/ { cfg = 0; next }
    cfg && /^(pub )?mod / { cfg = 0; skip = 1; next }
    cfg { cfg = 0; n++ }
    skip { if ($0 == "}") skip = 0; next }
    $0 == "#[cfg(test)]" { cfg = 1; next }
    NF { n++ }
    END { print n + 0 }'
}

# The files of the modules that each `#[cfg(test)] mod NAME;` in file $1
# (its source on stdin) declares: `DIR/NAME.rs`, and `DIR/NAME/` for
# `NAME/mod.rs` and every submodule. DIR is the file's own directory for
# `lib.rs`, `main.rs` and `mod.rs`, else its path less `.rs`.
test_mods() {
  awk -v f="$1" '
    BEGIN {
      dir = f
      if (f ~ /(^|\/)(lib|main|mod)\.rs$/) sub(/[^\/]*$/, "", dir)
      else sub(/\.rs$/, "/", dir)
    }
    cfg && /^(pub )?mod [A-Za-z0-9_]+;/ {
      name = $0
      sub(/^(pub )?mod /, "", name)
      sub(/;.*/, "", name)
      print dir name ".rs"
      print dir name "/"
    }
    { cfg = $0 == "#[cfg(test)]" }'
}

tree_files() { git ls-files --cached --others --exclude-standard; }
tree_show() { if [ -f "$1" ]; then cat "$1"; fi; }
rev_files() { git ls-tree -r --name-only "$rev"; }
rev_show() { git show "$rev:$1"; }

# "ROW LINES" per row, sorted by row; $1 lists the files, $2 prints one.
tally() {
  local files
  files=$("$1" | grep '\.rs$' | grep -Ev '(^|/)(tests|benches)/' || true)
  awk '
    FILENAME == ARGV[1] { if (/\/$/) dirs[$0] = 1; else mods[$0] = 1; next }
    $0 in mods { next }
    { for (d in dirs) if (index($0, d) == 1) next; print }
  ' <(for f in $files; do "$2" "$f" | test_mods "$f"; done) <(printf '%s\n' "$files") |
  while read -r f; do
    case $f in
      crates/*) row=${f#crates/} ;;
      *) row=$f ;;
    esac
    echo "${row%%/*} $("$2" "$f" | count)"
  done | awk '{ s[$1] += $2 } END { for (r in s) print r, s[r] }' | sort
}

join -a1 -a2 -e0 -o 0,1.2,2.2 <(tally rev_files rev_show) <(tally tree_files tree_show) |
  awk -v rev="$rev" '
    BEGIN { printf "%-12s %9s %9s %8s\n", "crate", substr(rev, 1, 9), "tree", "delta" }
    { printf "%-12s %9d %9d %+8d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-12s %9d %9d %+8d\n", "total", a, b, b - a }'
