#![warn(missing_docs)]
//! Hermetic deterministic test substrate for the ulp-node workspace.
//!
//! This crate replaces every external testing dependency (`rand`,
//! `proptest`, `criterion`) with ~1k lines of in-tree, dependency-free
//! code, so the tier-1 verify (`cargo build --release && cargo test -q`)
//! runs with `CARGO_NET_OFFLINE=true` and an empty registry cache. Three
//! modules:
//!
//! * [`rng`] — a seedable SplitMix64/xoshiro256\*\* PRNG ([`Rng`]) with
//!   the distribution helpers the simulators use (`gen_range`,
//!   `gen_bool`, byte/word vectors, exponential inter-arrivals). Every
//!   random stimulus in the workspace flows through it, which makes any
//!   simulation bit-reproducible from a printed 64-bit seed.
//! * [`prop`] — a property-testing harness ([`props!`], generators,
//!   greedy shrinking) with a `ULP_PROPTEST_CASES` knob and failing-seed
//!   reporting via `ULP_PROPTEST_SEED`.
//! * [`mod@bench`] — a plain `std::time::Instant` micro-benchmark harness,
//!   the harness of `ulp-bench`'s bench targets.
//! * [`digest`] — a stable byte-serial 64-bit content digest
//!   ([`Digest64`]), the keying and checksum primitive of the on-disk
//!   campaign store (`ulp_bench::store`).
//!
//! See DESIGN.md §"Hermetic test substrate" for the substitution table.

pub mod bench;
pub mod digest;
pub mod prop;
pub mod rng;

pub use digest::{digest64, Digest64};
pub use prop::{
    any_bool, any_u16, any_u32, any_u64, any_u8, from_fn, just, vec_of, Config, Gen, SizeRange,
};
pub use rng::{Rng, SampleRange, SplitMix64};
