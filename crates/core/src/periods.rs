//! Exact repetition of whole sample periods.
//!
//! A deterministic machine in a state it has been in before repeats its
//! future. [`System`](crate::System) writes its whole state, less every
//! running total, as a canonical list of words (its state key) at each
//! period boundary: the cycle before a timer interrupt, with compute idle
//! and nothing on air. [`Periods`] hashes each key (the SRAM's bytes
//! aside) and compares it with the states kept at a few anchor
//! boundaries; a match, confirmed word for word and byte for byte, is a
//! repeat of the stretch since that anchor (an iteration).
//!
//! The system then steps one more iteration while it records a [`Tape`]
//! of every addend its f64 sums take, and the growth of every count. If
//! that iteration ends on the same key, every further one is a replay of
//! it: the system jumps `k` of them in one go, every count growing by
//! `k` times what the recorded iteration added and the sums taking the
//! tape's addends again, `k` times, in the same order — so they keep
//! every bit stepping would have given them, in whatever binade they
//! are.

use ulp_sim::repeat::{RepeatWatch, Totals};
use ulp_sim::{Cycles, Energy, TraceBuffer, TraceEvent};

/// The f64 running sums a system keeps: its eight meter components'
/// energies, then the SRAM's.
pub(crate) const SUMS: usize = 9;

/// Anchors kept at most: boundaries 1, 2, 4, …, 2^15 since the watch
/// started.
const ANCHORS: usize = 16;

/// Runs a tape records at most (1 MiB of them): an iteration with more
/// is not repeated.
const MAX_RUNS: usize = 1 << 16;

/// Append `bytes` to a state key: their length, then eight to a word.
pub(crate) fn push_bytes(key: &mut Vec<u64>, bytes: &[u8]) {
    key.push(bytes.len() as u64);
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    key.extend(chunks.map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))));
    if !tail.is_empty() {
        let mut word = [0; 8];
        word[..tail.len()].copy_from_slice(tail);
        key.push(u64::from_le_bytes(word));
    }
}

/// A word-wise hash of a state key, four independent lanes wide.
fn digest(key: &[u64]) -> u64 {
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    let (mut a, mut b, mut c, mut d) = (key.len() as u64, 1, 2, 3);
    let mut words = key.chunks_exact(4);
    for w in &mut words {
        (a, b, c, d) = (mix(a, w[0]), mix(b, w[1]), mix(c, w[2]), mix(d, w[3]));
    }
    for &w in words.remainder() {
        a = mix(a, w);
    }
    mix(mix(mix(a, b), c), d)
}

/// What one charge of a cycle or a span adds: each meter component's
/// addend in registration order, then the SRAM's leakage and access
/// addends. The memory component is then charged the SRAM's growth.
type Tick = [f64; SUMS + 1];

/// Whether two ticks are the same bits.
fn same(a: &Tick, b: &Tick) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `n` iterations of the ticks `ticks[first..first + len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    first: u32,
    len: u32,
    n: u64,
}

/// Every addend one iteration charged the sums, in order: each distinct
/// tick once, and the runs they came in. Once recorded, only the
/// shortest pattern the runs repeat is kept (a sample period's runs,
/// where every period charges alike), with how many times it repeats.
#[derive(Debug, Default)]
pub(crate) struct Tape {
    ticks: Vec<Tick>,
    runs: Vec<Run>,
    reps: u64,
    /// More than [`MAX_RUNS`] runs came.
    full: bool,
}

impl Tape {
    /// Record one tick: the meter components' `adds`, then the SRAM's
    /// `leak` and `access`.
    pub fn tick<const N: usize>(&mut self, adds: [Energy; N], leak: Energy, access: Energy) {
        if self.full {
            return;
        }
        let mut tick = [0.0; SUMS + 1];
        for (t, a) in tick.iter_mut().zip(adds) {
            *t = a.0;
        }
        tick[SUMS - 1] = leak.0;
        tick[SUMS] = access.0;
        let id = match self.runs.last() {
            Some(run) if run.len == 1 && same(&self.ticks[run.first as usize], &tick) => run.first,
            _ => match self.ticks.iter().position(|t| same(t, &tick)) {
                Some(i) => i as u32,
                None => {
                    self.ticks.push(tick);
                    self.ticks.len() as u32 - 1
                }
            },
        };
        self.push(id, 1, 1);
    }

    /// Record `k` more iterations of the last `group` ticks (a quiet
    /// iteration: one cycle, or a skip and a cycle).
    ///
    /// # Panics
    ///
    /// Panics unless the last `group` ticks were recorded one by one.
    pub fn repeat_last(&mut self, group: usize, k: u64) {
        if self.full {
            return;
        }
        let mut ids = [0; 2];
        for id in ids[..group].iter_mut().rev() {
            let run = self.runs.last_mut().filter(|run| run.len == 1);
            let run = run.expect("a quiet repeat follows its iteration's ticks");
            *id = run.first;
            run.n -= 1;
            if run.n == 0 {
                self.runs.pop();
            }
        }
        if group == 1 {
            self.push(ids[0], 1, k + 1);
            return;
        }
        // The iterations before, one by one, join the run, so the same
        // chain records as the same run wherever its jumps fell.
        let mut n = k + 1;
        while let [.., a, b] = self.runs[..] {
            if [a.first, b.first] != ids || a.len != 1 || b.len != 1 || a.n != 1 || b.n != 1 {
                break;
            }
            self.runs.truncate(self.runs.len() - 2);
            n += 1;
        }
        // A run's ticks lie next to each other.
        let first = match (0..self.ticks.len() as u32).find(|&i| [i, i + 1] == ids) {
            Some(i) => i,
            None => {
                let pair = ids.map(|id| self.ticks[id as usize]);
                self.ticks.extend(pair);
                self.ticks.len() as u32 - 2
            }
        };
        self.push(first, 2, n);
    }

    fn push(&mut self, first: u32, len: u32, n: u64) {
        let full = self.runs.len() == MAX_RUNS;
        match self.runs.last_mut() {
            Some(run) if run.first == first && run.len == len => run.n += n,
            _ if full => self.full = true,
            _ => self.runs.push(Run { first, len, n }),
        }
    }

    /// End the recording: keep the shortest pattern the runs repeat
    /// (found with the prefix function of the run sequence).
    fn finish(&mut self) {
        let runs = &self.runs;
        let mut prefix = vec![0; runs.len()];
        for i in 1..runs.len() {
            let mut j = prefix[i - 1];
            while j > 0 && runs[i] != runs[j] {
                j = prefix[j - 1];
            }
            if runs[i] == runs[j] {
                j += 1;
            }
            prefix[i] = j;
        }
        let shortest = runs.len() - prefix.last().copied().unwrap_or(0);
        let pattern = if shortest > 0 && runs.len().is_multiple_of(shortest) {
            shortest
        } else {
            runs.len()
        };
        self.reps = runs.len().checked_div(pattern).unwrap_or(0) as u64;
        self.runs.truncate(pattern);
        self.runs.shrink_to_fit();
    }

    /// Charge the tape `times` more times to `sums` (the meter
    /// components', then the SRAM's; the component at `memory` is
    /// charged the SRAM's growth after each tick): the same addends in
    /// the same order, so the same bits as the charges it recorded.
    pub fn replay(&self, sums: &mut [f64; SUMS], memory: usize, times: u64) {
        repeat(sums, times * self.reps, |sums| {
            for run in &self.runs {
                let ticks = &self.ticks[run.first as usize..(run.first + run.len) as usize];
                repeat(sums, run.n, |sums| {
                    for tick in ticks {
                        for (sum, add) in sums[..SUMS - 1].iter_mut().zip(tick) {
                            *sum += add;
                        }
                        let before = sums[SUMS - 1];
                        sums[SUMS - 1] += tick[SUMS - 1];
                        sums[SUMS - 1] += tick[SUMS];
                        sums[memory] += sums[SUMS - 1] - before;
                    }
                });
            }
        });
    }
}

/// Apply `iterate`, which adds the same addends to `sums` in the same
/// order each time, `n` times: a run of iterations is taken in one jump
/// once three in a row have kept every sum in its binade
/// (`ulp_sim::repeat`), as the idle advance does.
fn repeat(sums: &mut [f64; SUMS], n: u64, mut iterate: impl FnMut(&mut [f64; SUMS])) {
    if n < 4 {
        for _ in 0..n {
            iterate(sums);
        }
        return;
    }
    let mut watch = RepeatWatch::new(*sums);
    let mut left = n;
    while left > 0 {
        iterate(sums);
        left -= 1;
        if left == 0 {
            break;
        }
        if let Some(rep) = watch.observe(0, *sums) {
            let k = rep.room().min(left);
            *sums = rep.apply(*sums, k);
            left -= k;
            watch.restart(*sums);
        }
    }
}

/// A system's running totals at one boundary, read through [`Totals`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Snapshot {
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl Totals for Snapshot {
    fn sum(&mut self, x: &mut f64) {
        self.sums.push(*x);
    }

    fn count(&mut self, n: &mut u64) {
        self.counts.push(*n);
    }
}

impl Snapshot {
    /// The sums, as the tape charges them.
    pub fn sums(&self) -> [f64; SUMS] {
        self.sums
            .as_slice()
            .try_into()
            .expect("one sum per meter component and the SRAM")
    }
}

/// Takes every total `k` iterations on: each sum to the value the
/// replays gave, each count by `k` times what one iteration added
/// (wrapping, as a 16-bit register does).
pub(crate) struct Advance<'a> {
    sums: std::slice::Iter<'a, f64>,
    deltas: std::slice::Iter<'a, u64>,
    k: u64,
}

impl Totals for Advance<'_> {
    fn sum(&mut self, x: &mut f64) {
        *x = *self.sums.next().expect("a sum per sum read");
    }

    fn count(&mut self, n: &mut u64) {
        let delta = self.deltas.next().expect("a count per count read");
        *n = n.wrapping_add(self.k.wrapping_mul(*delta));
    }
}

/// A boundary kept to compare later ones with: its key's digest, the
/// key, and the SRAM's bytes.
#[derive(Debug)]
struct Anchor {
    digest: u64,
    key: Vec<u64>,
    memory: Vec<u8>,
    at: u64,
    seen: u64,
}

/// One iteration, recorded once the state repeated: its tape, what it
/// added to every count, the frames it sent and the events it traced.
#[derive(Debug)]
pub(crate) struct Iteration {
    /// Cycles per iteration.
    pub len: u64,
    /// Boundaries per iteration.
    pub periods: u64,
    /// Every addend the sums took.
    pub tape: Tape,
    deltas: Vec<u64>,
    /// The frames sent, each with its cycles before the iteration's end.
    pub frames: Vec<(u64, Vec<u8>)>,
    /// The trace events kept, stamped as `frames` are.
    pub trace: Vec<TraceEvent>,
    /// The trace events recorded, kept or dropped.
    pub traced: u64,
}

impl Iteration {
    /// The visitor that takes the totals `k` iterations on, the sums to
    /// `sums`.
    pub fn advance<'a>(&'a self, sums: &'a [f64; SUMS], k: u64) -> Advance<'a> {
        Advance {
            sums: sums.iter(),
            deltas: self.deltas.iter(),
            k,
        }
    }
}

/// How far the recording of a repeat's iteration is.
#[derive(Debug)]
enum Recording {
    /// None yet, or the last was tainted: the next iteration is recorded.
    Due,
    /// Under way since the totals, outbox length and trace marks given.
    From(Snapshot, usize, (usize, u64)),
    /// Done.
    Done(Iteration),
}

/// The repeat found: the state it returns to (key and SRAM bytes), its
/// length in cycles and in boundaries, the boundary it last came back
/// at, and the recording of its iteration.
#[derive(Debug)]
struct Cycle {
    key: Vec<u64>,
    memory: Vec<u8>,
    len: u64,
    periods: u64,
    at: u64,
    recording: Recording,
}

/// The watch over a system's period boundaries.
#[derive(Debug, Default)]
pub(crate) struct Periods {
    /// Boundaries seen since the watch started.
    seen: u64,
    anchors: Vec<Anchor>,
    cycle: Option<Cycle>,
    /// Whether the watch gave up: a repeat's iteration was too long to
    /// record.
    off: bool,
    /// The tape being recorded.
    pub tape: Option<Tape>,
    /// A buffer to write the next boundary's key into.
    pub scratch: Vec<u64>,
}

impl Periods {
    /// Forget every boundary: something outside the machine's own run
    /// touched it, so nothing seen so far predicts what comes.
    pub fn forget(&mut self) {
        self.seen = 0;
        self.anchors.clear();
        self.cycle = None;
        self.off = false;
        self.tape = None;
    }

    /// Whether the boundary at cycle `now` needs no key: the watch is
    /// off, or the boundary falls inside an iteration of the repeat
    /// found (it is counted here).
    pub fn pass(&mut self, now: u64) -> bool {
        let inside = self.cycle.as_ref().is_some_and(|c| now < c.at + c.len);
        self.seen += inside as u64;
        self.off || inside
    }

    /// Count a boundary passed unkeyed (the idle advance stopped on it
    /// at its horizon): a repeat due there is missed, since the next
    /// boundary breaks the match, but an iteration's boundaries are all
    /// counted.
    pub fn miss(&mut self) {
        self.seen += 1;
    }

    /// See the boundary at cycle `now`, one [`pass`](Periods::pass) did
    /// not let by, with state key `key` and SRAM bytes `memory`. Returns
    /// whether the node is at a repeat's state: found at an anchor just
    /// now, or back one iteration on. The digest finds candidates; a
    /// state matches only when its key and bytes are equal word for word
    /// and byte for byte.
    pub fn observe(&mut self, now: u64, key: &[u64], memory: &[u8]) -> bool {
        self.seen += 1;
        if let Some(c) = &self.cycle {
            if now == c.at + c.len && c.key == key && c.memory == memory {
                return true;
            }
            self.forget();
            self.seen = 1;
        }
        let digest = digest(key);
        let matched = self
            .anchors
            .iter()
            .find(|a| a.digest == digest && a.at < now && a.key == key && a.memory == memory);
        if let Some(a) = matched {
            self.cycle = Some(Cycle {
                key: key.to_vec(),
                memory: memory.to_vec(),
                len: now - a.at,
                periods: self.seen - a.seen,
                at: now,
                recording: Recording::Due,
            });
            self.anchors.clear();
            return true;
        }
        if self.seen.is_power_of_two() && self.anchors.len() < ANCHORS {
            self.anchors.push(Anchor {
                digest,
                key: key.to_vec(),
                memory: memory.to_vec(),
                at: now,
                seen: self.seen,
            });
        }
        false
    }

    /// The node is at the repeat's state (see
    /// [`observe`](Periods::observe)), with `outbox` the frames collected
    /// so far, `trace` its trace buffer and `totals` its totals: start
    /// recording the iteration from here, or end the recording. Returns
    /// the iteration to repeat from here, once one is recorded.
    pub fn come_back(
        &mut self,
        now: u64,
        outbox: &[(Cycles, Vec<u8>)],
        trace: &TraceBuffer,
        totals: Snapshot,
    ) -> Option<&Iteration> {
        if self.tape.as_ref().is_some_and(|tape| tape.full) {
            self.forget();
            self.off = true;
            return None;
        }
        let c = self.cycle.as_mut().expect("a repeat found");
        c.at = now;
        let marks = (trace.len(), trace.len() as u64 + trace.dropped());
        c.recording = match std::mem::replace(&mut c.recording, Recording::Due) {
            Recording::Due => {
                self.tape = Some(Tape::default());
                Recording::From(totals, outbox.len(), marks)
            }
            Recording::From(start, sent, (kept, recorded)) => {
                let mut tape = self.tape.take().expect("recorded since the start");
                tape.finish();
                let deltas = totals
                    .counts
                    .iter()
                    .zip(&start.counts)
                    .map(|(end, start)| end.wrapping_sub(*start))
                    .collect();
                let frames = outbox[sent..]
                    .iter()
                    .map(|(at, bytes)| (now - at.0, bytes.clone()))
                    .collect();
                let events = trace.events().skip(kept).map(|e| TraceEvent {
                    at: Cycles(now - e.at.0),
                    ..e.clone()
                });
                Recording::Done(Iteration {
                    len: c.len,
                    periods: c.periods,
                    tape,
                    deltas,
                    frames,
                    trace: events.collect(),
                    traced: marks.1 - recorded,
                })
            }
            done => done,
        };
        match &c.recording {
            Recording::Done(iteration) => Some(iteration),
            _ => None,
        }
    }

    /// Drop the iteration being recorded, if any: its charges were not
    /// those of the node's own run. The next one is recorded instead.
    pub fn taint(&mut self) {
        if let (Some(_), Some(c)) = (self.tape.take(), &mut self.cycle) {
            c.recording = Recording::Due;
        }
    }

    /// Take the boundary the node jumped to, at `now`, as the one it
    /// last came back at.
    pub fn jumped(&mut self, now: u64) {
        self.cycle.as_mut().expect("a repeat found").at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(count: u64) -> Snapshot {
        Snapshot {
            sums: vec![1.0; SUMS],
            counts: vec![count],
        }
    }

    /// The boundary at `at`, as the system shows it to the watch (with
    /// SRAM bytes `[0]`): the length and count delta of the iteration
    /// offered.
    fn see(periods: &mut Periods, at: u64, key: &[u64], count: u64) -> Option<(u64, u64)> {
        see_memory(periods, at, key, &[0], count)
    }

    fn see_memory(
        periods: &mut Periods,
        at: u64,
        key: &[u64],
        memory: &[u8],
        count: u64,
    ) -> Option<(u64, u64)> {
        if periods.pass(at) {
            return None;
        }
        if !periods.observe(at, key, memory) {
            return None;
        }
        let it = periods.come_back(at, &[], &TraceBuffer::default(), totals(count))?;
        Some((it.len, it.deltas[0]))
    }

    /// Boundaries every 10 cycles whose keys repeat every 3 and a count
    /// that adds 2 a boundary: the cycle of the first iteration offered,
    /// its length and its count delta.
    fn first_repeat(
        periods: &mut Periods,
        key: impl Fn(u64) -> Vec<u64>,
    ) -> Option<(u64, u64, u64)> {
        (1..40).find_map(|i| {
            let (len, delta) = see(periods, 10 * i, &key(i), 2 * i)?;
            Some((10 * i, len, delta))
        })
    }

    #[test]
    fn a_repeated_key_is_found_confirmed_and_recorded() {
        let mut periods = Periods::default();
        // Boundary 1 is an anchor; 4 matches it (3 boundaries, 30
        // cycles), and 7 ends the recorded iteration.
        let found = first_repeat(&mut periods, |i| vec![i % 3, 7]);
        assert_eq!(found, Some((70, 30, 6)));
        assert_eq!(periods.cycle.as_ref().unwrap().periods, 3);
        assert!(periods.tape.is_none(), "recording stopped");
        // The next iteration's end offers it again.
        assert_eq!(see(&mut periods, 90, &[0, 7], 0), None);
        assert_eq!(see(&mut periods, 100, &[1, 7], 0), Some((30, 6)));
    }

    #[test]
    fn a_digest_alone_never_matches() {
        // Anchors whose digests equal later keys' but whose words do
        // not, as a hash collision would leave them: nothing may repeat.
        let mut periods = Periods::default();
        for i in 1..40 {
            assert_eq!(see(&mut periods, 10 * i, &[1, 2], i), None);
            assert!(periods.cycle.is_none(), "matched on the digest at {i}");
            for a in &mut periods.anchors {
                a.key = vec![9, 9];
            }
        }
        assert_eq!(periods.anchors.len(), 6, "anchors at 1, 2, 4, …, 32");
    }

    #[test]
    fn a_changed_state_or_a_missed_boundary_starts_over() {
        for (at, key, memory) in [(100, 5, 0), (100, 1, 9), (110, 2, 0)] {
            let mut periods = Periods::default();
            let found = first_repeat(&mut periods, |i| vec![i % 3]);
            assert_eq!(found.map(|f| f.0), Some(70));
            // Another key or other SRAM bytes at the next iteration's end
            // (100), or a boundary past it.
            assert_eq!(see_memory(&mut periods, at, &[key], &[memory], 9), None);
            assert!(periods.cycle.is_none());
            assert_eq!(periods.seen, 1, "a new first boundary");
        }
    }

    #[test]
    fn advance_repeats_counts_by_their_delta() {
        // The second count is 16 bits wide and wrapped in the iteration
        // (65 530 → 4); it goes on wrapping.
        let it = Iteration {
            len: 5,
            periods: 1,
            tape: Tape::default(),
            deltas: vec![3, 4u64.wrapping_sub(65_530), 0],
            frames: Vec::new(),
            trace: Vec::new(),
            traced: 0,
        };
        let sums = [2.5; SUMS];
        let mut advance = it.advance(&sums, 3);
        let (mut x, mut a, mut b, mut c) = (0.0, 13, 4, 4);
        advance.sum(&mut x);
        advance.count(&mut a);
        advance.count(&mut b);
        advance.count(&mut c);
        assert_eq!((x, a, b as u16, c), (2.5, 22, 34, 4));
    }

    /// Replaying a tape gives the bits of charging its ticks literally:
    /// runs of one tick and of a skip-and-cycle pair, sums crossing
    /// binades on the way.
    #[test]
    fn replay_matches_literal_charging() {
        use ulp_testkit::Rng;
        let mut rng = Rng::from_seed(0x7A9E);
        let memory = 5;
        for _ in 0..300 {
            let pool: Vec<Tick> = (0..4)
                .map(|_| {
                    std::array::from_fn(|i| {
                        let scale = 2f64.powi(-30 - rng.gen_range(0u32..8) as i32);
                        if i == memory {
                            0.0
                        } else {
                            rng.f64() * scale
                        }
                    })
                })
                .collect();
            let mut tape = Tape::default();
            let mut literal: Vec<Tick> = Vec::new();
            for _ in 0..rng.gen_range(1u32..60) {
                let group = rng.gen_range(1u32..3) as usize;
                for _ in 0..group {
                    let t = pool[rng.gen_range(0u32..4) as usize];
                    let adds: [Energy; SUMS - 1] = std::array::from_fn(|i| Energy(t[i]));
                    tape.tick(adds, Energy(t[SUMS - 1]), Energy(t[SUMS]));
                    literal.push(t);
                }
                if rng.gen_bool(0.3) {
                    let k = rng.gen_range(1u32..3_000) as u64;
                    let n = literal.len();
                    let last = literal[n - group..].to_vec();
                    tape.repeat_last(group, k);
                    for _ in 0..k {
                        literal.extend(&last);
                    }
                }
            }
            let start: [f64; SUMS] = std::array::from_fn(|_| rng.f64() * 1e-6);
            let mut want = start;
            for t in &literal {
                for i in 0..SUMS - 1 {
                    want[i] += t[i];
                }
                let before = want[SUMS - 1];
                want[SUMS - 1] += t[SUMS - 1];
                want[SUMS - 1] += t[SUMS];
                want[memory] += want[SUMS - 1] - before;
            }
            tape.finish();
            assert!(tape.runs.len() <= 60 * 3 && tape.reps >= 1);
            let mut got = start;
            tape.replay(&mut got, memory, 1);
            for i in 0..SUMS {
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "sum {i}");
            }
        }
    }
}
