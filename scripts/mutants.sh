#!/usr/bin/env bash
# Mutation check of the exactness tests: each patch under tests/mutants/
# breaks the simulator on purpose, and the tests its header names must
# catch it.
#
#   scripts/mutants.sh [NAME...]
#
# For each tests/mutants/NAME.patch (every one, or the NAMEs given) the
# patch is applied to a copy of HEAD, the release build is made offline,
# and the tests its header names are run. A header line
#
#   Kill: <cargo test arguments>
#
# names one set of tests (for instance `Kill: --test reference_models --
# a_fault_inside_the_recorded_iteration_is_not_repeated`); the mutant is
# killed when one of them fails. Every named set must pass on HEAD
# itself first. Properties run with ULP_PROPTEST_CASES=256 unless it is
# set. The script fails if a named set fails on HEAD, a patch does not
# apply or a mutant does not build, and if a mutant survives.
#
# The copy is HEAD as `git archive` writes it, so commit what is to be
# checked first. One copy and one target directory serve every mutant
# (each patch is reverted after its run), so a mutant rebuilds only the
# crates it touches. Not a CI step: a full run takes several minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export ULP_PROPTEST_CASES=${ULP_PROPTEST_CASES:-256}

if [ $# -gt 0 ]; then
  patches=()
  for name in "$@"; do
    patches+=("tests/mutants/$name.patch")
  done
else
  patches=(tests/mutants/*.patch)
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git archive HEAD | tar -x -C "$work/src"
export CARGO_TARGET_DIR="$work/target"

# Each patch's Kill: lines, one per line.
kills_of() { sed -n 's/^Kill: //p' "$1"; }

# shellcheck disable=SC2086 # a Kill: line holds separate arguments
passes() { (cd "$work/src" && cargo test -q --release --offline $1) > "$work/test.log" 2>&1; }

failed=0
while read -r kill; do
  if ! passes "$kill"; then
    echo "HEAD fails $kill"
    failed=1
  fi
done < <(for patch in "${patches[@]}"; do kills_of "$patch"; done | sort -u)
[ $failed = 0 ] || exit 1

for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  patch=$(realpath "$patch")
  mapfile -t kills < <(kills_of "$patch")
  if [ ${#kills[@]} -eq 0 ]; then
    echo "$name: no Kill: line in the header"
    failed=1
    continue
  fi
  if ! (cd "$work/src" && git apply "$patch"); then
    echo "$name: the patch does not apply to HEAD"
    failed=1
    continue
  fi
  if ! (cd "$work/src" && cargo build -q --release --offline --workspace --all-targets) \
    > "$work/build.log" 2>&1; then
    echo "$name: the mutant does not build"
    tail -n 20 "$work/build.log"
    failed=1
  else
    killer=""
    for kill in "${kills[@]}"; do
      if ! passes "$kill"; then
        killer=$kill
        break
      fi
    done
    if [ -n "$killer" ]; then
      echo "$name: killed by $killer"
    else
      echo "$name: SURVIVED ${kills[*]}"
      failed=1
    fi
  fi
  (cd "$work/src" && git apply -R "$patch")
done
exit $failed
