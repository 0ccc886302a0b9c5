#!/usr/bin/env bash
# Full offline verification gate: exactly what CI runs.
#
#   scripts/verify.sh
#
# The workspace has zero external dependencies, so every step must pass
# with the network disabled and an empty Cargo registry. CARGO_NET_OFFLINE
# is exported (rather than relying on --offline alone) so any nested cargo
# invocation inherits it.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo build --release --workspace --all-targets --offline =="
# Everything must build in release mode too — benches, tests, examples —
# so a latent release-only breakage can't hide behind the debug gates.
cargo build --release --workspace --all-targets --offline

echo "== cargo test -q --offline (tier-1) =="
cargo test -q --offline

echo "== cargo test -q --workspace --offline =="
cargo test -q --workspace --offline

echo "== cargo test --doc --workspace --offline =="
cargo test -q --doc --workspace --offline

echo "== chained idle advance: bit-exact against one wake at a time =="
# The system steps silent timer underflows inside its idle advance, with
# its energy sums held in registers. This property drives random nodes
# both ways (chained, and the engine's loop one wake at a time) and
# compares every energy bit; here it runs on the release build the
# benchmarks use, with more cases than the tier-1 default.
ULP_PROPTEST_CASES=256 cargo test -q --release --offline --test reference_models \
  chained_idle_advance_matches_wake_by_wake > /dev/null

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --no-deps --workspace (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

echo "== epcheck: shipped EP ISRs must lint clean =="
cargo run -q -p ulp-bench --bin epcheck --offline > /dev/null
cargo run -q -p ulp-bench --bin epcheck --offline -- --check > /dev/null

echo "== epcheck --mcu8: shipped Mica2 firmware must verify clean =="
# The whole-firmware analyzer: CFG recovery, stack bounds, interrupt-
# safety lints, and per-vector WCET against the one-tick budget. Exit
# status 1 on any error-severity finding in a shipped image.
cargo run -q -p ulp-bench --bin epcheck --offline -- --mcu8 > /dev/null
cargo run -q -p ulp-bench --bin epcheck --offline -- --mcu8 --check > /dev/null

echo "== telemetry trace dumper: deterministic + well-formed JSON =="
# --check runs the workload twice, asserts the Perfetto JSON / CSV /
# summary artifacts are byte-identical, and validates the JSON with the
# in-tree parser (ulp_sim::telemetry::validate_json).
trace_out=$(mktemp -d)
trap 'rm -rf "$trace_out"' EXIT
cargo run -q -p ulp-bench --bin trace --offline -- \
  --app stage4 --cycles 60000 --out "$trace_out/trace.json" --check > /dev/null
test -s "$trace_out/trace.json"
cargo run -q -p ulp-bench --bin trace --offline -- \
  --app mica2 --cycles 120000 --check > /dev/null
cargo run -q -p ulp-bench --bin trace --offline -- \
  --app net --cycles 20000 --check > /dev/null

echo "== trace --perf: profiling must have no observer effect =="
# The profiled --check additionally double-runs with the profiler
# attached, asserts the deterministic counts table is identical, and
# compares CSV/summary byte-for-byte against an unprofiled run.
cargo run -q -p ulp-bench --bin trace --offline -- \
  --app stage4 --cycles 60000 --perf --check > /dev/null

echo "== fleet: parallel sweep must be thread-count invariant =="
# --check double-runs a small co-sim grid (1 worker, then N), asserts
# CSV/JSON byte-identity, and validates the JSON with the in-tree parser.
# --threads 2 forces a genuinely parallel second run even on single-core
# CI runners (the engine spawns the workers regardless); the wall-clock
# speedup is reported, never asserted.
cargo run -q --release -p ulp-bench --bin fleet --offline -- \
  --nodes 16 --seeds 4 --slots 4000 --threads 2 --check > /dev/null

echo "== fleet --progress: heartbeats must not touch stdout =="
# Run the same sweep with and without --progress and require stdout to
# be byte-identical — the NDJSON heartbeats go to stderr only.
cargo run -q --release -p ulp-bench --bin fleet --offline -- \
  --nodes 16 --seeds 4 --slots 4000 --threads 2 --check \
  > "$trace_out/fleet_plain.out" 2> /dev/null
cargo run -q --release -p ulp-bench --bin fleet --offline -- \
  --nodes 16 --seeds 4 --slots 4000 --threads 2 --check --progress \
  > "$trace_out/fleet_progress.out" 2> "$trace_out/fleet_progress.ndjson"
cmp "$trace_out/fleet_plain.out" "$trace_out/fleet_progress.out"
test -s "$trace_out/fleet_progress.ndjson"

echo "== fleet --dense: density sweep must be shard-count invariant =="
# The dense-network path shards 64-node spatial tiles across workers;
# --check double-runs the sweep (1 worker, then N) and asserts the
# merged CSV/JSON byte-identity, which also re-asserts per-tile packet
# conservation inside every tile run. Two densities cover both
# contention regimes (CSMA saturation and hidden terminals).
cargo run -q --release -p ulp-bench --bin fleet --offline -- \
  --dense --nodes 256 --density 25,400 --slots 8000 --threads 2 --check \
  > /dev/null

echo "== chaos: fault-injection campaign must be deterministic =="
# --check runs the campaign twice (1 worker, then 2), asserts CSV/JSON
# byte-identity (the campaign summary is a pure function of those rows),
# validates the JSON, and — per grid point — asserts the graceful-
# degradation invariants inline. Both binaries' --check also runs the
# grid twice more through an ephemeral campaign store (cold fill, then
# a reopened fully-warm serve) asserting the stored passes emit the
# exact same bytes and the warm pass executes zero points — so the
# verify gate above already exercises the store on the fleet grid too.
cargo run -q --release -p ulp-bench --bin chaos --offline -- \
  --seeds 2 --horizon 15000 --threads 2 --check > /dev/null

echo "== campaign store: sharded fill + merge must equal a plain run =="
# Two shard workers fill one store (disjoint segment files, disjoint
# grid points), then --merge serves the full grid from cache; its stdout
# must be byte-identical to a storeless run, and the merge pass must
# execute nothing (misses:0 in the --store-stats NDJSON line).
store_dir="$trace_out/campaign-store"
cargo run -q --release -p ulp-bench --bin fleet --offline -- \
  --nodes 16 --seeds 4 --slots 4000 --threads 2 \
  > "$trace_out/fleet_nostore.out" 2> /dev/null
cargo run -q --release -p ulp-bench --bin fleet --offline -- \
  --nodes 16 --seeds 4 --slots 4000 --threads 2 \
  --store "$store_dir" --shard 0/2 > /dev/null 2>&1
cargo run -q --release -p ulp-bench --bin fleet --offline -- \
  --nodes 16 --seeds 4 --slots 4000 --threads 2 \
  --store "$store_dir" --shard 1/2 > /dev/null 2>&1
cargo run -q --release -p ulp-bench --bin fleet --offline -- \
  --nodes 16 --seeds 4 --slots 4000 --threads 2 \
  --store "$store_dir" --merge --store-stats \
  > "$trace_out/fleet_merge.out" 2> "$trace_out/fleet_merge.err"
cmp "$trace_out/fleet_nostore.out" "$trace_out/fleet_merge.out"
grep -q '"misses":0' "$trace_out/fleet_merge.err"

echo "== bench smoke: one iteration per bench, BENCH JSON schema-checked =="
# Test mode (no --bench flag) runs every benchmark body once and still
# records a single timing; ULP_BENCH_DIR makes each harness emit its
# BENCH_<name>.json, which benchcheck gates for schema and finiteness.
# The checked-in baselines at the repo root get the same gate.
ULP_BENCH_DIR="$trace_out" cargo test -q --benches --workspace --offline > /dev/null
cargo run -q -p ulp-bench --bin benchcheck --offline -- \
  "$trace_out"/BENCH_*.json BENCH_*.json > /dev/null

echo "== benchmark: pinned output digests and goldens must match =="
# One short run of every benchmark workload. It exits 1 when an output
# differs from its seed-0 digest in examples/benchmark/expected.txt or
# from a golden file, so a hot-path change that alters a single output
# byte fails here, not only in a timed benchmark run.
cargo run -q --release --offline --manifest-path examples/benchmark/Cargo.toml -- \
  --seed 0 --seconds 1 > /dev/null

echo "== dependency closure must be in-tree only =="
external=$(cargo tree --workspace --edges normal,build --prefix none --offline \
  | awk '{print $1}' | sort -u | grep -v '^ulp-' || true)
if [ -n "$external" ]; then
  echo "external crates crept into the default build graph:" >&2
  echo "$external" >&2
  exit 1
fi

echo "verify.sh: all checks passed"
