//! Content-addressed, resumable campaign store.
//!
//! Every fleet/chaos/dense campaign grid point is a pure function of
//! its scenario description (PR 4/8 determinism contract), so its
//! summary row can be cached: this module keys each point by a digest
//! of the **canonical scenario** (sorted `Coords` axes + the payload
//! config), which already includes the seed, plus a **code-version
//! fingerprint** ([`code_fingerprint`]: the build-time workspace crate
//! version plus the `ULP_STORE_EPOCH` bump knob), and persists the
//! point's metric cells to an on-disk store. A re-run then serves hits
//! from the store and executes only the dirty points — and because the
//! store replays the exact serialized cell bytes, the merged CSV, JSON
//! and report artifacts are **byte-identical to a cold run** for any
//! thread count and any hit/miss mix (`tests/store.rs` holds that as a
//! property).
//!
//! # Record format
//!
//! A store is a directory of append-only segment files
//! (`seg-<writer>.ndjson`). Each record is one length-prefixed,
//! checksummed NDJSON line:
//!
//! ```text
//! <len> <checksum> {"digest":"<16hex>","key":"<canonical key>","cells":[["u","42"],["f","0.5"],["t","..."]]}\n
//! ```
//!
//! where `len` is the byte length of the JSON object, `checksum` is
//! [`digest64`] of those bytes in
//! [`hex16`] form, and the record's `digest` field must equal
//! `digest64(key)` — three independent tripwires. Appends flush one
//! complete record at a time, so a killed campaign leaves at most one
//! torn tail; [`Store::open`] detects torn tails and bit rot by
//! checksum, **drops them without serving**, and commits the repaired
//! segment atomically (tmp file + rename). A dropped record simply
//! recomputes on the next run — corruption can cost work, never
//! correctness.
//!
//! # Sharding and resume
//!
//! [`Shard`] partitions a grid deterministically (`index % of`), so
//! independent OS processes can fill one shared store — each writes
//! its own segment file, no locking — and a final plain stored run
//! serves every point and emits the canonical bytes.
//! Likewise, an interrupted campaign is resumed by just re-running it
//! with the same store: complete points are served, dirty points
//! execute, and the output bytes match the golden cold run.
//!
//! # What a resume costs
//!
//! A resume pays for its misses and for reading the store. Resuming the
//! interrupted chaos campaign of the benchmark's `campaign_resume`
//! workload (one 1,921,871-byte segment: 5,759 records and a torn tail;
//! 6,144 grid points, 385 of them misses) costs, per phase, in medians
//! over 116 resumes on a 2-core Xeon host (release build):
//!
//! | phase | ms |
//! |---|---:|
//! | read the segment | 0.4 |
//! | checksum every frame ([`digest64`], the on-disk format) | 3.3 |
//! | decode and check every record | 9.7 |
//! | repair: write the kept records (one run here) | 0.6 |
//! | `sync_all` of the repaired segment, then rename | 1.8 |
//! | index the records | 0.4 |
//! | build and look up 6,144 keys | 6.8 |
//! | simulate the 385 misses | 56 |
//! | append the 385 misses | 2.1 |
//! | assemble the results | 1.7 |
//!
//! Decoding a record is mostly its key (unescaping it and hashing it
//! for the digest cross-check) and its one `f64` cell, which is
//! re-displayed to check that it is the shortest text for its value.
//! EXPERIMENTS.md has the same table for the decoder this replaced.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::fleet::{self, Cell, Coords, FleetError, Sweep, SweepObserver, SweepResults};
use crate::perf::ProgressMeter;
use ulp_testkit::digest::{digest64, hex16, parse_hex16};
use ulp_testkit::json::{self, Reader};

// ---------------------------------------------------------------------
// Keys and digests
// ---------------------------------------------------------------------

/// The code-version fingerprint mixed into every point digest: the
/// build-time workspace crate version (all `ulp-*` crates share the one
/// workspace version, so this build-time constant pins the whole
/// in-tree dependency closure) plus the `ULP_STORE_EPOCH` environment
/// knob, which bumps the fingerprint — invalidating every cached point
/// — without touching any file.
pub fn code_fingerprint() -> String {
    let epoch = std::env::var("ULP_STORE_EPOCH").unwrap_or_default();
    format!("v{}+e{}", env!("CARGO_PKG_VERSION"), epoch)
}

/// Escape one key component so that the `; = |` separators of
/// [`canonical_key`] can never be forged by a value containing them.
/// Plain runs are copied whole; each separator starts the next run
/// after its backslash.
fn esc_component(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if matches!(b, b';' | b'=' | b'|' | b'\\') {
            out.push_str(&s[run..i]);
            out.push('\\');
            run = i;
        }
    }
    out.push_str(&s[run..]);
}

/// The canonical key string of one grid point: the `Coords` pairs
/// **sorted by axis name** (so semantically-identical reorderings of
/// the axes produce the same key), then the payload config description,
/// then the code fingerprint, all separator-escaped:
///
/// ```text
/// loss=0.1;nodes=64;seed=3;|cosim:nodes=64;...|v0.1.0+e
/// ```
///
/// The point digest is [`digest64`] of
/// this string; the string itself is persisted next to the digest and
/// re-verified on every lookup, so a digest collision degrades to a
/// recompute, never to serving the wrong point.
pub fn canonical_key(coords: &Coords, payload_key: &str, fingerprint: &str) -> String {
    let mut pairs: Vec<(&str, &str)> = coords.axes().zip(coords.values()).collect();
    pairs.sort_unstable();
    // The unescaped length plus room for a few escapes.
    let len = pairs
        .iter()
        .map(|(a, v)| a.len() + v.len() + 2)
        .sum::<usize>()
        + payload_key.len()
        + fingerprint.len()
        + 2;
    let mut out = String::with_capacity(len + 16);
    for (axis, value) in pairs {
        esc_component(&mut out, axis);
        out.push('=');
        esc_component(&mut out, value);
        out.push(';');
    }
    out.push('|');
    esc_component(&mut out, payload_key);
    out.push('|');
    esc_component(&mut out, fingerprint);
    out
}

/// The content address of one grid point: `digest64` of its
/// [`canonical_key`].
pub fn point_digest(coords: &Coords, payload_key: &str, fingerprint: &str) -> u64 {
    digest64(canonical_key(coords, payload_key, fingerprint).as_bytes())
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// Counters a store accumulates over open + one run — the numbers
/// `--store-stats` reports and the crash-recovery tests assert on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Valid records loaded at open (after dropping torn/corrupt ones).
    pub records: u64,
    /// Torn-tail records dropped at open: an incomplete frame at the
    /// end of a segment, the signature of a killed campaign.
    pub torn: u64,
    /// Corrupt records dropped at open: complete frames whose checksum,
    /// strict parse, or key/digest cross-check failed (bit rot), plus
    /// any unrecoverable bytes after a mid-segment framing desync.
    pub corrupt: u64,
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that had to execute (absent, invalidated, or dropped).
    pub misses: u64,
    /// Digest present but stored key or cell arity disagreed — the
    /// collision/invalidation guard fired and the point recomputed.
    pub collisions: u64,
    /// Records appended by this process.
    pub appended: u64,
}

impl StoreStats {
    /// The stats as one NDJSON line (accepted by
    /// [`ulp_testkit::json::parse`]), tagged with the store directory — the
    /// `--store-stats` stderr artifact, same stream idiom as the
    /// `--progress` heartbeats.
    pub fn json(&self, store: &str) -> String {
        let mut out = String::from("{\"store\":");
        json::write_str(&mut out, store);
        out.push_str(&format!(
            ",\"records\":{},\"torn\":{},\"corrupt\":{},\"hits\":{},\"misses\":{},\
             \"collisions\":{},\"appended\":{}}}",
            self.records,
            self.torn,
            self.corrupt,
            self.hits,
            self.misses,
            self.collisions,
            self.appended
        ));
        out
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} record(s), {} hit(s), {} miss(es), {} appended \
             ({} torn, {} corrupt, {} collision(s) invalidated)",
            self.records,
            self.hits,
            self.misses,
            self.appended,
            self.torn,
            self.corrupt,
            self.collisions
        )
    }
}

// ---------------------------------------------------------------------
// Record encode / decode
// ---------------------------------------------------------------------

/// One cached grid point: the full canonical key (the collision guard)
/// and its metric cells.
#[derive(Debug, Clone)]
struct StoredPoint {
    key: String,
    cells: Vec<Cell>,
}

/// Serialize one record in the framed NDJSON format.
fn encode_record(digest: u64, key: &str, cells: &[Cell]) -> Vec<u8> {
    let mut json = String::from("{\"digest\":\"");
    json.push_str(&hex16(digest));
    json.push_str("\",\"key\":");
    json::write_str(&mut json, key);
    json.push_str(",\"cells\":[");
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let (tag, value) = match cell {
            Cell::U64(n) => ('u', n.to_string()),
            // `{}` on f64 is shortest-roundtrip: the string re-parses to
            // the identical bit pattern, so served cells reproduce the
            // cold run's CSV/JSON bytes exactly.
            Cell::F64(x) => ('f', x.to_string()),
            Cell::Text(s) => ('t', s.clone()),
        };
        json.push_str("[\"");
        json.push(tag);
        json.push_str("\",");
        json::write_str(&mut json, &value);
        json.push(']');
    }
    json.push_str("]}");
    let mut out = format!("{} {} ", json.len(), hex16(digest64(json.as_bytes()))).into_bytes();
    out.extend_from_slice(json.as_bytes());
    out.push(b'\n');
    out
}

/// `text` as a `u64` if it is exactly how that `u64` displays: only
/// digits, no leading zero unless it is `0`, and in range. This is the
/// set `n.to_string() == text` accepts, checked without allocating.
fn canonical_u64(text: &str) -> Option<u64> {
    let b = text.as_bytes();
    let canonical = b.iter().all(u8::is_ascii_digit) && (b.first() != Some(&b'0') || b.len() == 1);
    canonical.then(|| text.parse().ok())?
}

/// Buffers a segment scan reuses from record to record, so a record
/// allocates only what it keeps: its key, its cell list and its text
/// cells.
#[derive(Default)]
struct Scratch {
    cells: Vec<Cell>,
    /// An `f64` cell's value as it displays, to compare with its text.
    shown: String,
}

/// Decode one record's JSON into `(digest, key, cells)`. The shape must
/// be exactly what [`encode_record`] writes — the pull primitives skip
/// no whitespace — the digest/key cross-check must hold, and every
/// numeric cell must re-serialize to its exact persisted text (the
/// byte-identity contract). Anything else is a corrupt record: the
/// checksum already vouches for the bytes, this guards the semantic
/// layer. Strings are borrowed; only the key and text cells are copied.
fn parse_record(json: &[u8], scratch: &mut Scratch) -> Option<(u64, StoredPoint)> {
    use std::fmt::Write as _;
    let mut r = Reader::new(std::str::from_utf8(json).ok()?);
    r.expect("{\"digest\":").ok()?;
    let digest = parse_hex16(&r.string().ok()?)?;
    r.expect(",\"key\":").ok()?;
    let key = r.string().ok()?.into_owned();
    r.expect(",\"cells\":[").ok()?;
    let cells = &mut scratch.cells;
    cells.clear();
    while !r.eat(b']') {
        if !cells.is_empty() {
            r.expect(",").ok()?;
        }
        r.expect("[").ok()?;
        let tag = r.string().ok()?;
        r.expect(",").ok()?;
        let value = r.string().ok()?;
        r.expect("]").ok()?;
        cells.push(match &*tag {
            "u" => Cell::U64(canonical_u64(&value)?),
            "f" => {
                let x = value.parse().ok().filter(|x: &f64| x.is_finite())?;
                scratch.shown.clear();
                write!(scratch.shown, "{x}").ok()?;
                (scratch.shown == value).then_some(Cell::F64(x))?
            }
            "t" => Cell::Text(value.into_owned()),
            _ => return None,
        });
    }
    r.expect("}").ok()?;
    r.end().ok()?;
    // One exact-size allocation; the scratch list keeps its capacity.
    let mut kept = Vec::with_capacity(cells.len());
    kept.append(cells);
    (digest == digest64(key.as_bytes())).then_some((digest, StoredPoint { key, cells: kept }))
}

/// Why a frame could not be read at some position.
enum FrameErr {
    /// The remaining bytes are a strict prefix of a frame — the torn
    /// tail of a killed append. Scanning stops here.
    Truncated,
    /// The bytes are complete but not a frame — framing-level bit rot.
    /// Resynchronization is unsafe, so scanning stops here too.
    Malformed,
}

/// Read one `<len> <checksum> <json>\n` frame starting at `pos`.
/// Returns the declared checksum, the JSON span, and the position just
/// past the trailing newline.
fn parse_frame(bytes: &[u8], pos: usize) -> Result<(u64, Range<usize>, usize), FrameErr> {
    const MAX_LEN_DIGITS: usize = 9;
    let rest = &bytes[pos..];
    // Length token.
    let sp = match rest
        .iter()
        .take(MAX_LEN_DIGITS + 1)
        .position(|&b| b == b' ')
    {
        Some(i) => i,
        None if rest.len() <= MAX_LEN_DIGITS => return Err(FrameErr::Truncated),
        None => return Err(FrameErr::Malformed),
    };
    if sp == 0 || !rest[..sp].iter().all(u8::is_ascii_digit) {
        return Err(FrameErr::Malformed);
    }
    let len: usize = std::str::from_utf8(&rest[..sp])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(FrameErr::Malformed)?;
    // Checksum token: 16 hex digits and a space.
    let ck_start = sp + 1;
    if rest.len() < ck_start + 17 {
        return Err(FrameErr::Truncated);
    }
    let ck_str = std::str::from_utf8(&rest[ck_start..ck_start + 16]).ok();
    let checksum = ck_str.and_then(parse_hex16).ok_or(FrameErr::Malformed)?;
    if rest[ck_start + 16] != b' ' {
        return Err(FrameErr::Malformed);
    }
    // JSON body plus trailing newline.
    let json_start = ck_start + 17;
    if rest.len() < json_start + len + 1 {
        return Err(FrameErr::Truncated);
    }
    if rest[json_start + len] != b'\n' {
        return Err(FrameErr::Malformed);
    }
    Ok((
        checksum,
        pos + json_start..pos + json_start + len,
        pos + json_start + len + 1,
    ))
}

/// The result of scanning one segment file.
#[derive(Default)]
struct SegmentScan {
    records: Vec<(u64, StoredPoint)>,
    /// Byte spans of the runs of adjacent valid records, for atomic
    /// repair: one write per run.
    keep: Vec<Range<usize>>,
    torn: u64,
    corrupt: u64,
}

fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan::default();
    let mut scratch = Scratch::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let start = pos;
        match parse_frame(bytes, pos) {
            Ok((checksum, json_span, next)) => {
                let json = &bytes[json_span];
                let record = (digest64(json) == checksum)
                    .then(|| parse_record(json, &mut scratch))
                    .flatten();
                match record {
                    Some(rec) => {
                        scan.records.push(rec);
                        match scan.keep.last_mut() {
                            Some(run) if run.end == start => run.end = next,
                            _ => scan.keep.push(start..next),
                        }
                    }
                    None => scan.corrupt += 1,
                }
                pos = next;
            }
            Err(FrameErr::Truncated) => {
                scan.torn += 1;
                break;
            }
            Err(FrameErr::Malformed) => {
                scan.corrupt += 1;
                break;
            }
        }
    }
    scan
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// A content-addressed on-disk campaign store: a directory of framed
/// NDJSON segment files plus an in-memory digest index. See the module
/// docs for the format and the determinism contract.
pub struct Store {
    dir: PathBuf,
    writer_label: String,
    writer: Option<io::BufWriter<File>>,
    fingerprint: String,
    index: HashMap<u64, StoredPoint>,
    stats: StoreStats,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("records", &self.index.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Store {
    /// Open (creating if needed) the store at `dir`: load every
    /// `seg-*.ndjson` segment in name order, drop torn tails and
    /// corrupt records, and — when anything was dropped — commit the
    /// repaired segment atomically via a tmp file + rename, so the
    /// on-disk state a later open sees is exactly the loaded index.
    ///
    /// Opening a store while another process is appending to it is
    /// unsupported (shard workers write disjoint segments and the merge
    /// pass runs after they exit); leftover `*.tmp` files from a killed
    /// repair are removed here.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut segments: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".tmp") {
                fs::remove_file(&path)?;
            } else if name.starts_with("seg-") && name.ends_with(".ndjson") {
                segments.push(path);
            }
        }
        segments.sort();
        let mut store = Store {
            dir,
            writer_label: "main".to_string(),
            writer: None,
            fingerprint: code_fingerprint(),
            index: HashMap::new(),
            stats: StoreStats::default(),
        };
        for path in segments {
            let bytes = fs::read(&path)?;
            let scan = scan_segment(&bytes);
            store.stats.torn += scan.torn;
            store.stats.corrupt += scan.corrupt;
            store.stats.records += scan.records.len() as u64;
            if scan.torn + scan.corrupt > 0 {
                // Atomic repair: rewrite only the valid spans, one write
                // per run of adjacent records, and commit by rename, so a
                // kill mid-repair leaves either the old segment or the
                // repaired one — never a torn repair.
                let tmp = path.with_extension("ndjson.tmp");
                let mut out = File::create(&tmp)?;
                for run in &scan.keep {
                    out.write_all(&bytes[run.clone()])?;
                }
                out.sync_all()?;
                fs::rename(&tmp, &path)?;
            }
            store.index.reserve(scan.records.len());
            for (digest, point) in scan.records {
                // Later segments/records win: an append that superseded
                // a dropped or stale record is the fresher result.
                store.index.insert(digest, point);
            }
        }
        Ok(store)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The counters accumulated since open.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// The `--store-stats` NDJSON line for this store.
    pub fn stats_line(&self) -> String {
        self.stats.json(&self.dir.display().to_string())
    }

    /// The code fingerprint mixed into this store's point digests
    /// (defaults to [`code_fingerprint`]).
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Override the code fingerprint — the invalidation tests use this
    /// to simulate a version bump / `ULP_STORE_EPOCH` change without
    /// mutating the process environment.
    pub fn set_fingerprint(&mut self, fingerprint: &str) {
        self.fingerprint = fingerprint.to_string();
    }

    /// Name the segment file this process appends to
    /// (`seg-<label>.ndjson`, default `main`). Shard workers use their
    /// shard label so concurrent processes never share an append file.
    pub fn set_writer_label(&mut self, label: &str) {
        assert!(
            !label.is_empty()
                && label
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'),
            "writer label `{label}` must be non-empty [A-Za-z0-9_-]"
        );
        assert!(
            self.writer.is_none(),
            "writer label must be set before the first append"
        );
        self.writer_label = label.to_string();
    }

    /// Number of distinct points currently served by the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Look up one point by digest. Serves only when the stored
    /// canonical key matches `key` exactly **and** the cell arity
    /// matches the sweep's metric columns — any disagreement counts as
    /// a collision/invalidation and the point recomputes.
    pub fn lookup(&mut self, digest: u64, key: &str, expected_cells: usize) -> Option<Vec<Cell>> {
        match self.index.get(&digest) {
            Some(p) if p.key == key && p.cells.len() == expected_cells => {
                self.stats.hits += 1;
                Some(p.cells.clone())
            }
            Some(_) => {
                self.stats.collisions += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Append one computed point. The record is written and flushed as
    /// one complete frame, so a kill can tear at most the final record
    /// — which the next open detects and drops.
    pub fn append(&mut self, key: &str, cells: &[Cell]) -> io::Result<()> {
        let digest = digest64(key.as_bytes());
        let record = encode_record(digest, key, cells);
        if self.writer.is_none() {
            let path = self.dir.join(format!("seg-{}.ndjson", self.writer_label));
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            self.writer = Some(io::BufWriter::new(file));
        }
        let w = self.writer.as_mut().expect("writer just ensured");
        w.write_all(&record)?;
        w.flush()?;
        self.index.insert(
            digest,
            StoredPoint {
                key: key.to_string(),
                cells: cells.to_vec(),
            },
        );
        self.stats.appended += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------

/// A deterministic partition of a grid across `of` independent workers
/// (OS processes, not threads): worker `index` owns every grid point
/// whose index is `index (mod of)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This worker's shard number, `0 <= index < of`.
    pub index: usize,
    /// Total number of shards.
    pub of: usize,
}

impl Shard {
    /// Parse the `--shard k/n` syntax.
    pub fn parse(s: &str) -> Option<Shard> {
        let (k, n) = s.split_once('/')?;
        let shard = Shard {
            index: k.trim().parse().ok()?,
            of: n.trim().parse().ok()?,
        };
        (shard.of >= 1 && shard.index < shard.of).then_some(shard)
    }

    /// Whether grid point `i` belongs to this shard.
    pub fn contains(&self, i: usize) -> bool {
        i % self.of == self.index
    }

    /// The writer label shard workers append under.
    pub fn label(&self) -> String {
        format!("s{}of{}", self.index, self.of)
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

// ---------------------------------------------------------------------
// Cache-aware sweep execution
// ---------------------------------------------------------------------

/// Execute `sweep` against `store`: hits are served, misses execute on
/// `threads` workers (same executor, panic-with-coordinates reporting
/// included) and append to the store, and the merged [`SweepResults`]
/// is **byte-identical to a cold [`Sweep::run`]** whatever the hit/miss
/// mix or thread count. With a [`Shard`], only that shard's points are
/// considered (and returned) — the fill mode multi-process campaigns
/// use.
///
/// `key_of` must return a canonical description of the point's payload
/// config — everything that determines the result but is not already a
/// coordinate (e.g. the horizon). The full point key also includes the
/// sorted coordinates and the store's code fingerprint; see
/// [`canonical_key`].
///
/// # Panics
///
/// Panics if a store write fails (the campaign cannot honour
/// resumability without its store), or on the malformed-sweep cases
/// [`Sweep::run`] panics on.
pub fn run_stored<P: Sync, K, F>(
    sweep: &Sweep<P>,
    store: &mut Store,
    threads: usize,
    shard: Option<Shard>,
    key_of: K,
    eval: F,
    observer: &(impl SweepObserver + ?Sized),
) -> Result<SweepResults, FleetError>
where
    K: Fn(&Coords, &P) -> String,
    F: Fn(&Coords, &P) -> Vec<Cell> + Sync,
{
    let started = Instant::now();
    let metric_count = sweep.metric_columns().len();

    // Serve hits and queue misses serially: the store index is one map
    // probe per point; the simulations are the expensive part.
    let mut done = Vec::new();
    let mut misses = Vec::new();
    let mut miss_keys = Vec::new();
    for (i, (coords, payload)) in sweep.points().enumerate() {
        if shard.is_some_and(|s| !s.contains(i)) {
            continue;
        }
        let key = canonical_key(coords, &key_of(coords, payload), store.fingerprint());
        match store.lookup(digest64(key.as_bytes()), &key, metric_count) {
            Some(cells) => {
                observer.point_done(i, coords);
                done.push((i, cells));
            }
            None => {
                misses.push(i);
                miss_keys.push(key);
            }
        }
    }

    let computed = sweep.execute(&misses, threads, eval, observer)?;
    // Append in grid order, so a single-process campaign writes a
    // deterministic segment layout.
    for ((_, cells), key) in computed.iter().zip(&miss_keys) {
        store
            .append(key, cells)
            .unwrap_or_else(|e| panic!("campaign store append failed: {e}"));
    }
    done.extend(computed);
    Ok(sweep.assemble(done, threads, started))
}

// ---------------------------------------------------------------------
// Campaign driver (behind every mode of the fleet binary)
// ---------------------------------------------------------------------

/// Everything the `fleet` command line configures about one campaign
/// execution ([`crate::campaign::CampaignArgs`] builds it): worker count, the `--check` double/stored runs,
/// `--progress` heartbeats, and the store flags.
#[derive(Debug, Clone, Default)]
pub struct DriveConfig {
    /// Worker thread count.
    pub threads: usize,
    /// `--check`: serial-vs-parallel byte identity plus the stored
    /// third pass (cold into the store, then fully warm; all four
    /// executions must serialize identically).
    pub check: bool,
    /// `--progress`: stream NDJSON heartbeats on stderr.
    pub progress: bool,
    /// `--store DIR`: serve hits from / append misses to this store.
    /// `--check` without a store uses an ephemeral directory.
    pub store_dir: Option<PathBuf>,
    /// `--store-stats`: print the store's NDJSON stats line on stderr
    /// after each stored pass.
    pub store_stats: bool,
    /// `--shard k/n`: fill mode — run only this shard's points.
    pub shard: Option<Shard>,
}

/// Why [`drive`] failed.
#[derive(Debug)]
pub enum DriveError {
    /// Grid points failed.
    Sweep(FleetError),
    /// The campaign store at `dir` could not be opened.
    Store {
        /// The store directory.
        dir: PathBuf,
        /// What opening it reported.
        error: io::Error,
    },
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::Sweep(e) => e.fmt(f),
            DriveError::Store { dir, error } => {
                write!(f, "campaign store {}: cannot open: {error}", dir.display())
            }
        }
    }
}

impl std::error::Error for DriveError {}

impl From<FleetError> for DriveError {
    fn from(e: FleetError) -> Self {
        DriveError::Sweep(e)
    }
}

/// Run one campaign sweep with the shared `--check` / `--progress` /
/// `--store` machinery and return its (thread-count-invariant) results.
/// This is the single execution path behind every mode of the `fleet`
/// binary; all diagnostics go to stderr so stdout artifacts
/// stay byte-identical across every mode.
///
/// Every mode is a sequence of passes over the grid: one plain or one
/// stored pass, or for `--check` the serial and parallel passes of
/// [`fleet::measure_speedup`] followed by a cold and a warm stored
/// pass, each of which must serialize to the parallel pass's bytes.
///
/// # Errors
///
/// Fails if grid points fail, or if the store cannot be opened.
///
/// # Panics
///
/// Panics if `--check` is combined with a shard or a shard comes
/// without a store directory, if a `--check` pass breaks byte identity,
/// if the JSON export fails validation, if a warm stored pass failed to
/// serve every point, or if the store cannot be written.
pub fn drive<P: Sync, K, F>(
    sweep: &Sweep<P>,
    cfg: &DriveConfig,
    key_of: K,
    eval: F,
) -> Result<SweepResults, DriveError>
where
    K: Fn(&Coords, &P) -> String + Sync,
    F: Fn(&Coords, &P) -> Vec<Cell> + Sync,
{
    assert!(
        !(cfg.check && cfg.shard.is_some()),
        "--shard is a fill mode; run --check unsharded"
    );
    assert!(
        cfg.shard.is_none() || cfg.store_dir.is_some(),
        "--shard needs --store"
    );
    // `--check` without `--store` fills an ephemeral store.
    let ephemeral = cfg.check && cfg.store_dir.is_none();
    let dir = match &cfg.store_dir {
        Some(d) => Some(d.clone()),
        None if ephemeral => {
            let d = std::env::temp_dir().join(format!(
                "ulp-store-check-{}-{}",
                std::process::id(),
                sweep.name()
            ));
            let _ = fs::remove_dir_all(&d);
            Some(d)
        }
        None => None,
    };
    // Stored passes, each flagged `warm` when the store must serve
    // every point.
    let stored: &[bool] = match (cfg.check, &dir) {
        (true, _) => &[false, true],
        (false, Some(_)) => &[false],
        (false, None) => &[],
    };
    let plain = if cfg.check {
        2
    } else {
        usize::from(dir.is_none())
    };

    let selected = match cfg.shard {
        Some(s) => (0..sweep.len()).filter(|&i| s.contains(i)).count(),
        None => sweep.len(),
    };
    let meter = cfg
        .progress
        .then(|| ProgressMeter::stderr(sweep.name(), (plain + stored.len()) * selected));
    let observer: &dyn SweepObserver = match &meter {
        Some(m) => m,
        None => &(),
    };

    let (mut first, speedup) = if cfg.check {
        let (parallel, speedup) = fleet::measure_speedup(sweep, cfg.threads, &eval, observer)?;
        (Some(parallel), Some(speedup))
    } else if plain == 1 {
        (
            Some(sweep.run_observed(cfg.threads, &eval, observer)?),
            None,
        )
    } else {
        (None, None)
    };
    for &warm in stored {
        let dir = dir.as_ref().expect("a stored pass has a store directory");
        let mut store = Store::open(dir).map_err(|error| DriveError::Store {
            dir: dir.clone(),
            error,
        })?;
        if let Some(shard) = cfg.shard {
            store.set_writer_label(&shard.label());
        }
        let results = run_stored(
            sweep,
            &mut store,
            cfg.threads,
            cfg.shard,
            &key_of,
            &eval,
            observer,
        )?;
        let stats = store.stats();
        eprintln!(
            "store: {} of {} point(s), {} executed, {} served from {}",
            results.rows().len(),
            sweep.len(),
            stats.misses,
            stats.hits,
            dir.display()
        );
        if cfg.store_stats {
            eprintln!("{}", store.stats_line());
        }
        assert!(
            !warm || stats.misses == 0,
            "sweep `{}`: warm stored pass re-executed points",
            sweep.name()
        );
        match &first {
            Some(first) => assert_eq!(
                (results.to_csv(), results.to_json()),
                (first.to_csv(), first.to_json()),
                "sweep `{}`: {} stored pass changed the output bytes",
                sweep.name(),
                if warm { "warm" } else { "cold" }
            ),
            None => first = Some(results),
        }
    }
    let results = first.expect("every mode runs at least one pass");
    let Some(speedup) = speedup else {
        return Ok(results);
    };

    if let Err(e) = json::parse(&results.to_json()) {
        panic!("sweep JSON failed validation: {e}");
    }
    eprintln!(
        "check ok: serial, {}-worker, stored cold and stored warm passes \
         byte-identical, JSON well-formed",
        cfg.threads
    );
    eprintln!("check: {speedup}");
    if let Some(dir) = dir.filter(|_| ephemeral) {
        let _ = fs::remove_dir_all(dir);
    }
    // The parallel pass's wall-clock is the one worth reporting.
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_testkit::{from_fn, prop_assert, prop_assert_eq, props, Rng};

    fn squares(n: u64) -> Sweep<u64> {
        let mut s = Sweep::new("sq", &["square", "half", "label"]);
        for i in 0..n {
            s.push(Coords::new().with("i", i), i);
        }
        s
    }

    fn eval(_: &Coords, &i: &u64) -> Vec<Cell> {
        vec![
            Cell::U64(i * i),
            Cell::F64(i as f64 / 2.0),
            Cell::Text(format!("p{i}")),
        ]
    }

    fn key_of(_: &Coords, &i: &u64) -> String {
        format!("sq:{i}")
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ulp-store-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_roundtrips_through_encode_and_scan() {
        let cells = vec![
            Cell::U64(42),
            Cell::F64(0.1),
            Cell::F64(-3.25e-7),
            Cell::Text("say \"hi\"\nline2, and \\done".into()),
            Cell::Text(String::new()),
        ];
        let key = "a=1;b=x\\;y;|payload|v0";
        let digest = digest64(key.as_bytes());
        let bytes = encode_record(digest, key, &cells);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.torn + scan.corrupt, 0);
        assert_eq!(scan.records.len(), 1);
        let (d, p) = &scan.records[0];
        assert_eq!(*d, digest);
        assert_eq!(p.key, key);
        assert_eq!(p.cells, cells);
    }

    /// `body` in a sound frame: its byte length, its checksum, a newline.
    /// Only the body's own rules can then reject the record.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = format!("{} {} ", body.len(), hex16(digest64(body))).into_bytes();
        out.extend_from_slice(body);
        out.push(b'\n');
        out
    }

    /// A record body with the digest text, key text and cells text given
    /// as they appear between the quotes and brackets.
    fn body(digest: &str, key: &str, cells: &str) -> Vec<u8> {
        format!("{{\"digest\":\"{digest}\",\"key\":\"{key}\",\"cells\":[{cells}]}}").into_bytes()
    }

    /// What the record reader accepts, pinned rule by rule: each body
    /// below breaks exactly one rule and must count as corrupt and never
    /// be served, while a digest spelled with `\u00XX` escapes is still
    /// a valid JSON string for the same digest and is accepted.
    #[test]
    fn record_reader_rejects_every_broken_rule() {
        const KEY: &str = "a=1;|p|v0";
        let digest = hex16(digest64(KEY.as_bytes()));
        let good = body(&digest, KEY, r#"["u","5"],["f","0.5"],["t","x"]"#);
        let cells = |c: &str| body(&digest, KEY, c);
        let mut invalid_utf8 = cells(r#"["t","@"]"#);
        let at = invalid_utf8.iter().position(|&b| b == b'@').unwrap();
        invalid_utf8[at] = 0xff;
        let broken: Vec<(&str, Vec<u8>)> = vec![
            ("u64 +5", cells(r#"["u","+5"]"#)),
            ("u64 05", cells(r#"["u","05"]"#)),
            ("u64 -1", cells(r#"["u","-1"]"#)),
            ("u64 empty", cells(r#"["u",""]"#)),
            ("u64 2^64", cells(r#"["u","18446744073709551616"]"#)),
            ("f64 1.0", cells(r#"["f","1.0"]"#)),
            ("f64 1e-7", cells(r#"["f","1e-7"]"#)),
            ("f64 NaN", cells(r#"["f","NaN"]"#)),
            ("f64 inf", cells(r#"["f","inf"]"#)),
            ("unknown tag", cells(r#"["x","1"]"#)),
            (
                "digest/key mismatch",
                body(&hex16(digest64(b"other")), KEY, r#"["u","1"]"#),
            ),
            (
                "whitespace after a colon",
                format!("{{\"digest\": \"{digest}\",\"key\":\"{KEY}\",\"cells\":[]}}").into_bytes(),
            ),
            ("whitespace inside a cell", cells(r#"["u", "1"]"#)),
            ("whitespace between cells", cells(r#"["u","1"], ["u","2"]"#)),
            ("trailing bytes", [&good[..], b" "].concat()),
            ("invalid UTF-8", invalid_utf8),
        ];
        for (rule, body) in &broken {
            let scan = scan_segment(&frame(body));
            assert_eq!(
                (scan.records.len(), scan.torn, scan.corrupt),
                (0, 0, 1),
                "{rule}"
            );
        }
        let escaped: String = digest.bytes().map(|b| format!("\\u{b:04x}")).collect();
        assert!(escaped.contains("\\u0030") || !digest.contains('0'));
        let accepted = body(&escaped, KEY, r#"["u","5"]"#);
        let scan = scan_segment(&frame(&accepted));
        assert_eq!((scan.records.len(), scan.corrupt), (1, 0));
        assert_eq!(scan.records[0].0, digest64(KEY.as_bytes()));

        // In a store, the good record is served and no broken one is,
        // whichever order they were written in.
        let dir = tmp_dir("rules");
        fs::create_dir_all(&dir).unwrap();
        let mut seg = frame(&good);
        for (_, body) in &broken {
            seg.extend(frame(body));
        }
        fs::write(dir.join("seg-main.ndjson"), &seg).unwrap();
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.stats().corrupt, broken.len() as u64);
        assert_eq!((store.stats().records, store.len()), (1, 1));
        let served = store.lookup(digest64(KEY.as_bytes()), KEY, 3);
        let expected = [Cell::U64(5), Cell::F64(0.5), Cell::Text("x".into())];
        assert_eq!(served.as_deref(), Some(&expected[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn tail and a corrupt record in mid-file: the repaired
    /// segment is exactly the kept frames, in order, and reopens clean.
    #[test]
    fn repair_writes_exactly_the_kept_frames() {
        let frames: Vec<Vec<u8>> = (0..6u64)
            .map(|i| {
                let key = format!("k{i}");
                encode_record(digest64(key.as_bytes()), &key, &[Cell::U64(i)])
            })
            .collect();
        let mut rotten = frames[2].clone();
        let at = rotten.len() - 5;
        rotten[at] ^= 1;
        let torn = &frames[5][..frames[5].len() / 2];
        let seg = [
            &frames[0][..],
            &frames[1],
            &rotten,
            &frames[3],
            &frames[4],
            torn,
        ]
        .concat();
        let dir = tmp_dir("repair");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-main.ndjson");
        fs::write(&path, &seg).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!((store.stats().corrupt, store.stats().torn), (1, 1));
        let kept = [&frames[0][..], &frames[1], &frames[3], &frames[4]].concat();
        assert!(fs::read(&path).unwrap() == kept, "repair wrote other bytes");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.stats().corrupt + store.stats().torn, 0);
        assert_eq!(store.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The record decoder before it reused buffers: every numeric cell
    /// re-serialized through `to_string`. The fuzz below holds
    /// [`parse_record`] to it.
    fn reference_record(json: &[u8]) -> Option<(u64, StoredPoint)> {
        let mut r = Reader::new(std::str::from_utf8(json).ok()?);
        r.expect("{\"digest\":").ok()?;
        let digest = parse_hex16(&r.string().ok()?)?;
        r.expect(",\"key\":").ok()?;
        let key = r.string().ok()?.into_owned();
        r.expect(",\"cells\":[").ok()?;
        let mut cells = Vec::new();
        while !r.eat(b']') {
            if !cells.is_empty() {
                r.expect(",").ok()?;
            }
            r.expect("[").ok()?;
            let tag = r.string().ok()?;
            r.expect(",").ok()?;
            let value = r.string().ok()?;
            r.expect("]").ok()?;
            cells.push(match &*tag {
                "u" => {
                    let n: u64 = value.parse().ok()?;
                    (n.to_string() == value).then_some(Cell::U64(n))?
                }
                "f" => {
                    let x: f64 = value.parse().ok()?;
                    (x.is_finite() && x.to_string() == value).then_some(Cell::F64(x))?
                }
                "t" => Cell::Text(value.into_owned()),
                _ => return None,
            });
        }
        r.expect("}").ok()?;
        r.end().ok()?;
        (digest == digest64(key.as_bytes())).then_some((digest, StoredPoint { key, cells }))
    }

    /// A decoded record in a comparable form (`Debug` tells -0.0 from 0.0).
    fn shown(record: &Option<(u64, StoredPoint)>) -> Option<String> {
        record
            .as_ref()
            .map(|(d, p)| format!("{d:016x} {:?} {:?}", p.key, p.cells))
    }

    /// The segments the fuzz mutates: the pinned golden records (hostile
    /// text, extreme integers, subnormal floats) and a small chaos
    /// campaign's segment, whose keys and cells have the shape of a real
    /// resumed campaign's.
    fn seed_segments() -> &'static [Vec<u8>; 2] {
        static SEEDS: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
        SEEDS.get_or_init(|| {
            let golden = include_bytes!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../tests/golden/store_record.ndjson"
            ));
            use crate::chaos::{self, ChaosApp};
            let apps = [ChaosApp::Sample, ChaosApp::Filtered, ChaosApp::Forwarding];
            let sweep = chaos::campaign(&apps, &[0.0, 1e-3], 2, 3_000);
            let dir = tmp_dir("fuzz-seed");
            let mut store = Store::open(&dir).unwrap();
            let key_of = |_: &Coords, c: &chaos::ChaosConfig| c.store_key();
            let eval = |_: &Coords, c: &chaos::ChaosConfig| chaos::cells(&chaos::run_chaos(c));
            run_stored(&sweep, &mut store, 1, None, key_of, eval, &()).unwrap();
            let segment = fs::read(dir.join("seg-main.ndjson")).unwrap();
            let _ = fs::remove_dir_all(&dir);
            [golden.to_vec(), segment]
        })
    }

    /// One seeded damage to a segment. Positions and lengths are taken
    /// modulo the bytes at hand.
    #[derive(Debug, Clone)]
    enum Damage {
        /// XOR one byte.
        Flip { at: usize, xor: u8 },
        /// Replace `len` bytes at `at` with `take` bytes of a seed
        /// segment from `from`.
        Splice {
            at: usize,
            len: usize,
            seed: usize,
            from: usize,
            take: usize,
        },
        /// Cut the bytes at `at`.
        Truncate { at: usize },
    }

    fn damage(bytes: &mut Vec<u8>, d: &Damage) {
        let n = bytes.len().max(1);
        match *d {
            Damage::Flip { at, xor } => {
                if let Some(b) = bytes.get_mut(at % n) {
                    *b ^= xor;
                }
            }
            Damage::Splice {
                at,
                len,
                seed,
                from,
                take,
            } => {
                let src = &seed_segments()[seed % 2];
                let from = from % src.len();
                let piece = &src[from..(from + take).min(src.len())];
                let at = at % (bytes.len() + 1);
                let end = (at + len).min(bytes.len());
                bytes.splice(at..end, piece.iter().copied());
            }
            Damage::Truncate { at } => bytes.truncate(at % n),
        }
    }

    #[derive(Debug, Clone)]
    struct Mutant {
        seed: usize,
        /// Which record of the seed segment the body-level check damages.
        record: usize,
        damages: Vec<Damage>,
    }

    fn arb_mutant(rng: &mut Rng) -> Mutant {
        let damages = (0..rng.gen_range(1usize..4))
            .map(|_| match rng.gen_range(0u32..4) {
                0 | 1 => Damage::Flip {
                    at: rng.gen_range(0usize..1 << 20),
                    xor: rng.gen_range(1u8..=255),
                },
                2 => Damage::Splice {
                    at: rng.gen_range(0usize..1 << 20),
                    len: rng.gen_range(0usize..64),
                    seed: rng.gen_range(0usize..2),
                    from: rng.gen_range(0usize..1 << 20),
                    take: rng.gen_range(0usize..400),
                },
                _ => Damage::Truncate {
                    at: rng.gen_range(0usize..1 << 20),
                },
            })
            .collect();
        Mutant {
            seed: rng.gen_range(0usize..2),
            record: rng.gen_range(0usize..64),
            damages,
        }
    }

    /// Every frame `scan_segment` walks: its start, checksum, JSON span
    /// and end.
    fn frames(bytes: &[u8]) -> Vec<(usize, u64, Range<usize>, usize)> {
        let mut out = Vec::new();
        let mut pos = 0;
        while let Ok((checksum, json, next)) = parse_frame(bytes, pos) {
            out.push((pos, checksum, json, next));
            pos = next;
            if pos == bytes.len() {
                break;
            }
        }
        out
    }

    /// The index a store serves, in a comparable form.
    fn served(store: &Store) -> Vec<(u64, String)> {
        let mut index: Vec<(u64, String)> = store
            .index
            .iter()
            .map(|(d, p)| (*d, format!("{:?} {:?}", p.key, p.cells)))
            .collect();
        index.sort();
        index
    }

    props! {
        #![cases(24)]
        /// Seeded byte flips, splices and truncations of real segments:
        /// decoding never panics, accepts exactly the records the
        /// reference decoder accepts (same digest, key and cells), and
        /// the repaired segment is exactly the accepted frames, reopens
        /// clean and serves the same index.
        #[test]
        fn damaged_segments_decode_as_the_reference_does(m in from_fn(arb_mutant)) {
            let seed = &seed_segments()[m.seed];
            let mut scratch = Scratch::default();

            // One record body, damaged on its own, so most damage lands
            // inside the JSON rather than in the frame.
            let seed_frames = frames(seed);
            let (_, _, span, _) = &seed_frames[m.record % seed_frames.len()];
            let mut body = seed[span.clone()].to_vec();
            for d in &m.damages {
                damage(&mut body, d);
            }
            prop_assert_eq!(
                shown(&parse_record(&body, &mut scratch)),
                shown(&reference_record(&body))
            );

            // The whole segment, damaged.
            let mut bytes = seed.clone();
            for d in &m.damages {
                damage(&mut bytes, d);
            }
            let mut kept = Vec::new();
            let mut expected = Vec::new();
            for (start, checksum, json, end) in frames(&bytes) {
                let reference = reference_record(&bytes[json.clone()]);
                prop_assert_eq!(
                    shown(&parse_record(&bytes[json.clone()], &mut scratch)),
                    shown(&reference)
                );
                if digest64(&bytes[json]) == checksum && reference.is_some() {
                    kept.extend_from_slice(&bytes[start..end]);
                    expected.push(shown(&reference));
                }
            }
            let scan = scan_segment(&bytes);
            let decoded: Vec<_> = scan.records.into_iter().map(Some).collect();
            prop_assert_eq!(decoded.iter().map(shown).collect::<Vec<_>>(), expected);

            let dir = tmp_dir(&format!("fuzz-{:016x}", digest64(&bytes)));
            fs::create_dir_all(&dir).unwrap();
            let path = dir.join("seg-main.ndjson");
            fs::write(&path, &bytes).unwrap();
            let first = Store::open(&dir).unwrap();
            prop_assert!(fs::read(&path).unwrap() == kept, "repair wrote other bytes");
            let second = Store::open(&dir).unwrap();
            prop_assert_eq!((second.stats().torn, second.stats().corrupt), (0, 0));
            prop_assert_eq!(served(&first), served(&second));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn empty_cells_record_roundtrips() {
        let bytes = encode_record(digest64(b"k"), "k", &[]);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.records[0].1.cells.is_empty());
    }

    #[test]
    fn torn_tail_is_dropped_and_repaired() {
        let dir = tmp_dir("torn");
        let mut store = Store::open(&dir).unwrap();
        store.append("k1", &[Cell::U64(1)]).unwrap();
        store.append("k2", &[Cell::U64(2)]).unwrap();
        drop(store);
        let seg = dir.join("seg-main.ndjson");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.stats().torn, 1);
        assert_eq!(store.stats().records, 1);
        // The repair is durable: a second open is clean.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.stats().torn, 0);
        assert_eq!(store.stats().records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn canonical_key_sorts_axes_and_escapes_separators() {
        let a = Coords::new().with("nodes", 4).with("seed", 1);
        let b = Coords::new().with("seed", 1).with("nodes", 4);
        assert_eq!(canonical_key(&a, "p", "v"), canonical_key(&b, "p", "v"));
        // Hostile values cannot forge a separator.
        let tricky = Coords::new().with("a", "x;b=1");
        let plain = Coords::new().with("a", "x").with("b", 1);
        assert_ne!(
            canonical_key(&tricky, "p", "v"),
            canonical_key(&plain, "p", "v")
        );
        // Payload/fingerprint confusion is likewise impossible.
        assert_ne!(
            canonical_key(&a, "p|v2", "v"),
            canonical_key(&a, "p", "v2|v")
        );
    }

    #[test]
    fn run_stored_serves_and_computes_identically() {
        let dir = tmp_dir("serve");
        let sweep = squares(9);
        let cold_plain = sweep.run(2, eval).unwrap();
        let mut store = Store::open(&dir).unwrap();
        let cold = run_stored(&sweep, &mut store, 2, None, key_of, eval, &()).unwrap();
        assert_eq!(cold.to_csv(), cold_plain.to_csv());
        assert_eq!(cold.to_json(), cold_plain.to_json());
        assert_eq!(store.stats().misses, 9);
        drop(store);
        let mut store = Store::open(&dir).unwrap();
        let warm = run_stored(&sweep, &mut store, 2, None, key_of, eval, &()).unwrap();
        assert_eq!(warm.to_csv(), cold_plain.to_csv());
        assert_eq!(warm.to_json(), cold_plain.to_json());
        assert_eq!(store.stats().hits, 9);
        assert_eq!(store.stats().misses, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_line_validates_as_json() {
        let dir = tmp_dir("stats");
        let mut store = Store::open(&dir).unwrap();
        store.append("k", &[Cell::U64(1)]).unwrap();
        json::parse(&store.stats_line()).expect("stats line is valid JSON");
        assert!(store.stats_line().contains("\"appended\":1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_parse_accepts_only_valid_partitions() {
        assert_eq!(Shard::parse("0/2"), Some(Shard { index: 0, of: 2 }));
        assert_eq!(Shard::parse("3/4"), Some(Shard { index: 3, of: 4 }));
        assert_eq!(Shard::parse("2/2"), None);
        assert_eq!(Shard::parse("0/0"), None);
        assert_eq!(Shard::parse("x/2"), None);
        assert_eq!(Shard::parse("1"), None);
        let s = Shard::parse("1/3").unwrap();
        assert!(!s.contains(0) && s.contains(1) && !s.contains(2) && s.contains(4));
        assert_eq!(s.label(), "s1of3");
    }

    #[test]
    #[should_panic(expected = "--shard needs --store")]
    fn drive_rejects_a_shard_without_a_store() {
        let cfg = DriveConfig {
            threads: 1,
            shard: Shard::parse("0/2"),
            ..DriveConfig::default()
        };
        let _ = drive(&squares(4), &cfg, |_, _| String::new(), eval);
    }

    #[test]
    fn code_fingerprint_carries_version() {
        assert!(code_fingerprint().starts_with(&format!("v{}", env!("CARGO_PKG_VERSION"))));
    }
}
