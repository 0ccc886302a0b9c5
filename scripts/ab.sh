#!/usr/bin/env bash
# Paired A/B runs of the end-to-end benchmark, with a code-layout control.
#
#   scripts/ab.sh REV [WORKLOAD...]
#
# Builds three copies of the benchmark (examples/benchmark), offline,
# each from its own source copy into its own target directory:
#
#   base     REV, as `git archive` writes it;
#   change   the working tree: every tracked or untracked file that is
#            not ignored, as it is on disk;
#   control  REV plus one unused function in `ulp-tech`, a layout-only
#            change: whatever it moves is code placement, not code.
#
# It then runs each WORKLOAD (default: mica2_sampling) AB_RUNS times per
# build, alternating the three builds run by run (the starting build
# rotates each round), and prints per workload and end-to-end metric:
# the median of the change/base ratios, the pairs the change won (by
# the metric's direction), and the median control/base ratio beside it.
# A move the control makes too is placement, not the change. Each
# build's output digests must agree; a mismatch is printed and exits 1.
#
# Environment: AB_RUNS (default 5), AB_SECONDS (timed window per run,
# default 8), AB_SEED (default 0), AB_DIR (work directory; default a
# fresh temporary one, removed at exit; a given one is kept, and builds
# already in it are reused).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  echo "usage: scripts/ab.sh REV [WORKLOAD...]" >&2
  exit 2
fi
rev=$1
shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(mica2_sampling)
if ! git rev-parse --verify --quiet "$rev^{commit}" > /dev/null; then
  echo "ab.sh: unknown revision '$rev'" >&2
  exit 2
fi
runs=${AB_RUNS:-5}
seconds=${AB_SECONDS:-8}
seed=${AB_SEED:-0}
export CARGO_NET_OFFLINE=true

if [ -n "${AB_DIR:-}" ]; then
  work=$AB_DIR
  mkdir -p "$work"
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
builds=(base change control)

# Source copies (skipped when a kept AB_DIR already has them).
if [ ! -d "$work/base" ]; then
  mkdir "$work/base" "$work/control" "$work/change"
  git archive "$rev" | tar -x -C "$work/base"
  git archive "$rev" | tar -x -C "$work/control"
  git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
    | tar --null -T - -c | tar -x -C "$work/change"
  cat >> "$work/control/crates/tech/src/lib.rs" << 'EOF'

/// Not called anywhere: it only moves code placement (A/B control).
#[doc(hidden)]
#[inline(never)]
pub fn ab_layout_control(x: u64) -> u64 {
    std::hint::black_box(x).rotate_left(7) ^ 0x5bd1_e995
}
EOF
fi

for b in "${builds[@]}"; do
  echo "== build $b ==" >&2
  CARGO_TARGET_DIR="$work/target-$b" cargo build -q --release --offline \
    --manifest-path "$work/$b/examples/benchmark/Cargo.toml"
  rm -f "$work/$b.jsonl"
done

for ((i = 0; i < runs; i++)); do
  for w in "${workloads[@]}"; do
    for ((k = 0; k < 3; k++)); do
      b=${builds[$(((i + k) % 3))]}
      echo "== run $((i + 1))/$runs $w $b ==" >&2
      "$work/target-$b/release/ulp-benchmark" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --json "$work/$b.jsonl" > /dev/null
    done
  done
done

# One "workload metric value" line per run and metric, in run order.
values() {
  sed -n 's/.*"workload":"\([a-z0-9_]*\)".*"metrics":{\(.*\)},"info".*/\1 \2/p' "$1" \
    | awk '{
        w = $1; rest = substr($0, length(w) + 2)
        while (match(rest, /"[a-z_]+":\{"value":[-0-9.eE+]+/)) {
          m = substr(rest, RSTART + 1, RLENGTH - 1)
          name = substr(m, 1, index(m, "\"") - 1)
          v = substr(m, index(m, "\"value\":") + 8)
          print w, name, v
          rest = substr(rest, RSTART + RLENGTH)
        }
      }'
}
digests() { sed -n 's/.*"workload":"\([a-z0-9_]*\)".*"digest":"\([0-9a-f]*\)".*/\1 \2/p' "$1" | sort -u; }

status=0
if ! cmp -s <(digests "$work/base.jsonl") <(digests "$work/change.jsonl") \
  || ! cmp -s <(digests "$work/base.jsonl") <(digests "$work/control.jsonl"); then
  echo "ab.sh: output digests differ between builds" >&2
  status=1
fi

echo "# scripts/ab.sh $rev: $runs alternated runs per build, ${seconds}-s windows, seed $seed"
echo "# ratio = change/base, median of the $runs pairs; wins = pairs the change read better; control = control/base"
paste -d' ' <(values "$work/base.jsonl") <(values "$work/change.jsonl") <(values "$work/control.jsonl") \
  | awk '
    function median(s,   a, n, i, j, t) {
      n = split(s, a, " ")
      for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] + 0 > a[j] + 0; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
      return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    {
      key = $1 " " $2
      if (!(key in n)) order[++keys] = key
      n[key]++
      higher = ($2 == "jobs_per_s")
      r = $6 / $3; c = $9 / $3
      ratio[key] = ratio[key] " " r; ctl[key] = ctl[key] " " c
      if ((higher && $6 > $3) || (!higher && $6 < $3)) win[key]++
    }
    END {
      printf "%-16s %-12s %12s %6s %14s\n", "workload", "metric", "ratio", "wins", "control"
      for (k = 1; k <= keys; k++) {
        split(order[k], f, " ")
        printf "%-16s %-12s %+11.1f%% %3d/%-2d %+13.1f%%\n", f[1], f[2],
          (median(ratio[order[k]]) - 1) * 100, win[order[k]], n[order[k]],
          (median(ctl[order[k]]) - 1) * 100
      }
    }'
exit $status
