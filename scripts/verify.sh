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

echo "== cargo fmt --all --check =="
# rustfmt's default style over the root package and every crate under
# crates/. examples/benchmark is its own workspace and is not covered.
cargo fmt --all --check

echo "== line count: non-test Rust lines against HEAD (report only) =="
# The counter every change quotes its net line delta with. Its numbers
# are not gated, but a counter that fails fails the gate.
scripts/loc.sh HEAD

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
# The system steps quiet cycles (silent timer underflows and radio
# airtime) inside its idle advance, charged exactly as stepped cycles
# and skips are, and repeats runs of identical quiet iterations in one
# exact jump. These properties drive random nodes both ways (chained, and the
# engine's loop one wake at a time) and compare every energy bit:
# GDI-style nodes whose chains are mostly silent underflows,
# airtime-heavy nodes whose chains mostly run through a frame on air,
# traced GDI-style and airtime nodes with up to three faults over
# millions of cycles, where the quiet jumps happen, and constant-sensor
# nodes whose whole state repeats every 256 frames, where whole periods
# are repeated in one jump, with up to three faults and the trace off,
# on, or on at a capacity the run may fill partway through a jump. The
# last property interleaves run_for and run_until segments on all three
# kinds of node: the chain has no switch, and under a run_until
# predicate the engine's own loop steps one wake at a time.
# Here they run on the release build the benchmarks use, with more cases
# than the tier-1 default.
ULP_PROPTEST_CASES=256 cargo test -q --release --offline --test reference_models -- \
  chained_idle_advance_matches_wake_by_wake \
  airtime_heavy_idle_advance_matches_wake_by_wake \
  long_quiet_chains_match_wake_by_wake \
  repeated_periods_match_wake_by_wake \
  predicate_and_plain_segments_match_wake_by_wake > /dev/null

echo "== event queue: pop order matches a sorted reference model =="
# Every multi-node driver replays byte for byte only because the event
# queue pops in strict (time, insertion order). This property runs random
# interleavings of schedules and pops, duplicate times and scheduling in
# the past against a sorted reference, on the release build with more
# cases than the tier-1 default.
ULP_PROPTEST_CASES=256 cargo test -q --release --offline -p ulp-net --lib -- \
  queue::tests::random_interleavings_match_reference_model > /dev/null

echo "== campaign store: damaged segments decode as the reference does =="
# Seeded byte flips, splices and truncations of the pinned golden records
# and a chaos campaign's segment: the store's record decoder must accept
# exactly what the previous decoder (kept as a test reference) accepts,
# with the same digest, key and cells, and a repaired segment must be
# exactly the accepted frames and reopen clean, on the release build
# with more cases than the tier-1 default.
ULP_PROPTEST_CASES=256 cargo test -q --release --offline -p ulp-bench --lib -- \
  store::tests::damaged_segments_decode_as_the_reference_does > /dev/null

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --no-deps --workspace (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

echo "== lint reports: shipped EP ISRs and Mica2 firmware must verify clean =="
# The EP ISR checker and the whole-firmware mcu8 analyzer (CFG recovery,
# stack bounds, interrupt-safety lints, and per-vector WCET against the
# one-tick budget). repro exits 1 on any error-severity finding in a
# shipped program; tests/golden.rs pins the reports' bytes.
cargo run -q -p ulp-bench --bin repro --offline -- epcheck_shipped mcu8check_shipped > /dev/null

echo "== telemetry trace dumper: deterministic + well-formed JSON =="
# --check runs the workload twice, asserts the Perfetto JSON / CSV /
# summary artifacts are byte-identical, and validates the JSON with the
# strict in-tree reader (ulp_testkit::json::parse).
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
# CSV/JSON byte-identity, and validates the JSON with ulp_testkit::json::parse.
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

echo "== fleet --chaos: fault-injection campaign must be deterministic =="
# --check runs the campaign twice (1 worker, then 2), asserts CSV/JSON
# byte-identity (the campaign summary is a pure function of those rows),
# validates the JSON, and — per grid point — asserts the graceful-
# degradation invariants inline. Every mode's --check also runs the
# grid twice more through an ephemeral campaign store (cold fill, then
# a reopened fully-warm serve) asserting the stored passes emit the
# exact same bytes and the warm pass executes zero points — so the
# verify gate above already exercises the store on the fleet grid too.
cargo run -q --release -p ulp-bench --bin fleet --offline -- \
  --chaos --seeds 2 --horizon 15000 --threads 2 --check > /dev/null

echo "== campaign store: sharded fill then a stored run must equal a plain run =="
# Two shard workers fill one store (disjoint segment files, disjoint
# grid points), then a plain --store run serves the full grid from
# cache; its stdout must be byte-identical to a storeless run, and it
# must execute nothing (misses:0 in the --store-stats NDJSON line).
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
  --store "$store_dir" --store-stats \
  > "$trace_out/fleet_stored.out" 2> "$trace_out/fleet_stored.err"
cmp "$trace_out/fleet_nostore.out" "$trace_out/fleet_stored.out"
grep -q '"misses":0' "$trace_out/fleet_stored.err"

echo "== bench smoke: one iteration per bench, BENCH JSON schema-checked =="
# Test mode (no --bench flag) runs every benchmark body once and still
# records a single timing; ULP_BENCH_DIR makes each harness emit its
# BENCH_<name>.json, which benchcheck parses and checks for its structure
# (top-level keys, one object per result with string id and integer times).
# The checked-in baselines at the repo root get the same gate.
ULP_BENCH_DIR="$trace_out" cargo test -q --benches --workspace --offline > /dev/null
cargo run -q -p ulp-bench --bin benchcheck --offline -- \
  "$trace_out"/BENCH_*.json BENCH_*.json > /dev/null

echo "== repro: every paper artifact regenerates =="
# tests/golden.rs pins each artifact's bytes; this runs the shipped
# binary end to end in release.
cargo run -q --release -p ulp-bench --bin repro --offline -- all > /dev/null

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
