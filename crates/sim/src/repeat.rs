//! Exact repetition of f64 running sums.
//!
//! A loop whose every iteration adds the same nonnegative addends, in
//! the same order, to a few f64 running sums repeats itself bit for bit
//! as long as each sum stays in one *binade*, the range
//! `[2^e, 2^(e+1))` of one f64 exponent. There every value is a multiple
//! of one ulp, so an add of a fixed addend `a` rounds `x + a` to
//! `x + m·ulp`, with `m` the same for every `x`, except at an exact tie
//! (`a` an odd multiple of half an ulp), where the result is the even
//! neighbour. A tie therefore depends only on the parity of `x / ulp`,
//! and leaves that parity even: the first iteration in a binade fixes
//! it, and every later iteration adds the same number of ulps.
//!
//! A sum whose addends are derived from another sum (a meter charged
//! `total − mark` after each tick of a running total) sees fixed addends
//! only once its source repeats, from the second iteration; the third
//! then repeats the derived sum too. So once three consecutive
//! iterations of one shape have kept every sum in its binade — the four
//! boundaries around them in one binade per sum — each further iteration
//! adds exactly the ulps the third one added, until a sum leaves its
//! binade. [`RepeatWatch`] applies that rule, and [`Repeat`] applies `k`
//! iterations in integer ulps.
//!
//! A machine that repeats whole iterations of its own state hands every
//! running total it keeps to a [`Totals`] visitor, in one fixed order,
//! once to read them at an iteration boundary and once to advance them.

/// Visits a machine's running totals in one fixed order: read them at an
/// iteration boundary, or take each `k` iterations on at once. A sum
/// takes the value its repeated addends give; a count (an event tally, or
/// a cycle stamp that moves with time) grows by `k` times what one
/// iteration added.
pub trait Totals {
    /// An f64 running sum.
    fn sum(&mut self, x: &mut f64);
    /// An integer count or cycle stamp.
    fn count(&mut self, n: &mut u64);
}

/// The exponent field of a nonnegative finite `x` (its binade; zero and
/// the subnormals share field 0, one ulp apart like field 1), or `None`.
fn binade(bits: u64) -> Option<u64> {
    let field = bits >> 52;
    (field < 0x7FF).then_some(field)
}

/// The last four iteration boundaries of a loop over `N` f64 running
/// sums, and how many iterations of one shape lie between them.
///
/// Call [`observe`](RepeatWatch::observe) after every iteration with its
/// shape (a value that fixes every addend: equal shapes add equal
/// addends) and the sums, and [`restart`](RepeatWatch::restart) whenever
/// the addends change in a way the shape does not capture.
///
/// ```
/// use ulp_sim::repeat::RepeatWatch;
///
/// let mut x = 1.0_f64;
/// let mut watch = RepeatWatch::new([x]);
/// let mut rep = None;
/// while rep.is_none() {
///     x += 0.1;
///     rep = watch.observe(0, [x]);
/// }
/// let rep = rep.unwrap();
/// let jumped = rep.apply([x], 5)[0];
/// for _ in 0..5 {
///     x += 0.1;
/// }
/// assert_eq!(jumped.to_bits(), x.to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct RepeatWatch<const N: usize> {
    /// Bit patterns of the sums at the last four boundaries, oldest first.
    marks: [[u64; N]; 4],
    /// The shape of the iterations in the current run.
    shape: u64,
    /// Iterations of `shape` ending at the newest boundary, capped at 3.
    run: u8,
}

impl<const N: usize> RepeatWatch<N> {
    /// A watch whose first boundary holds `sums`.
    pub fn new(sums: [f64; N]) -> RepeatWatch<N> {
        let mut watch = RepeatWatch {
            marks: [[0; N]; 4],
            shape: 0,
            run: 0,
        };
        watch.restart(sums);
        watch
    }

    /// Forget every iteration: `sums` is a first boundary again.
    pub fn restart(&mut self, sums: [f64; N]) {
        self.marks[3] = sums.map(f64::to_bits);
        self.run = 0;
    }

    /// Record the boundary after an iteration of `shape` that left the
    /// sums at `sums`. Returns the repeat of the last iteration once three
    /// of `shape` in a row kept every sum within one binade.
    #[inline]
    pub fn observe(&mut self, shape: u64, sums: [f64; N]) -> Option<Repeat<N>> {
        self.marks.copy_within(1.., 0);
        self.marks[3] = sums.map(f64::to_bits);
        if self.run > 0 && shape == self.shape {
            self.run = (self.run + 1).min(3);
        } else {
            self.shape = shape;
            self.run = 1;
        }
        if self.run < 3 {
            return None;
        }
        let mut step = [0; N];
        let mut room = u64::MAX;
        for i in 0..N {
            let [b0, b1, b2, b3] = self.marks.map(|m| m[i]);
            let field = binade(b0)?;
            if [b1, b2, b3].iter().any(|&b| binade(b) != Some(field)) || b3 < b2 {
                return None;
            }
            step[i] = b3 - b2;
            // The largest pattern of the binade is `(field + 1) << 52` − 1;
            // a sum that does not move has unbounded room.
            if let Some(r) = (((field + 1) << 52) - 1 - b3).checked_div(step[i]) {
                room = room.min(r);
            }
        }
        Some(Repeat { step, room })
    }
}

/// The repeat of one iteration of a loop over `N` running sums (made by
/// [`RepeatWatch::observe`]): per sum, the ulps every further iteration
/// adds, and how many iterations keep every sum in its binade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeat<const N: usize> {
    step: [u64; N],
    room: u64,
}

impl<const N: usize> Repeat<N> {
    /// How many further iterations keep every sum within its binade.
    pub fn room(&self) -> u64 {
        self.room
    }

    /// The sums `k` further iterations leave, from the sums at the
    /// boundary the repeat was observed at.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds [`room`](Repeat::room).
    pub fn apply(&self, sums: [f64; N], k: u64) -> [f64; N] {
        assert!(k <= self.room, "repeat({k}) leaves a binade");
        std::array::from_fn(|i| f64::from_bits(sums[i].to_bits() + k * self.step[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_testkit::Rng;

    /// A loop over four sums modelled on a quiet cycle: two components
    /// charged fixed addends, a running total `s` ticked twice, and a
    /// meter `m` charged `s − mark` after each tick.
    #[derive(Debug, Clone, Copy)]
    struct Program {
        x: [f64; 2],
        adds: [[f64; 2]; 2],
        ticks: [f64; 2],
    }

    #[derive(Debug, Clone, Copy)]
    struct State {
        sums: [f64; 4],
        mark: f64,
    }

    impl Program {
        fn start(&self, s: f64, m: f64) -> State {
            State {
                sums: [self.x[0], self.x[1], s, m],
                mark: s,
            }
        }

        fn iterate(&self, st: &mut State) {
            for (x, adds) in st.sums[..2].iter_mut().zip(&self.adds) {
                for a in adds {
                    *x += a;
                }
            }
            for t in self.ticks {
                st.sums[2] += t;
                let delta = st.sums[2] - st.mark;
                st.mark = st.sums[2];
                st.sums[3] += delta;
            }
        }
    }

    /// Run `n` iterations literally, and again with every repeat the
    /// watch offers taken (up to `cap` iterations at a time); both must
    /// end on the same bits. Returns the iterations jumped.
    fn jump_matches_literal(p: &Program, start: State, n: u64, cap: u64) -> u64 {
        let mut literal = start;
        for _ in 0..n {
            p.iterate(&mut literal);
        }
        let mut st = start;
        let mut watch = RepeatWatch::new(st.sums);
        let (mut done, mut jumped) = (0, 0);
        while done < n {
            p.iterate(&mut st);
            done += 1;
            if let Some(rep) = watch.observe(7, st.sums) {
                let k = rep.room().min(n - done).min(cap);
                if k > 0 {
                    st.sums = rep.apply(st.sums, k);
                    st.mark = st.sums[2];
                    done += k;
                    jumped += k;
                    watch.restart(st.sums);
                }
            }
        }
        for (i, (a, b)) in st.sums.iter().zip(&literal.sums).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sum {i} of {p:?} from {start:?}");
        }
        jumped
    }

    /// `x` at `off` ulps above the bottom of the binade `[2^e, 2^(e+1))`
    /// (negative: below its top).
    fn at(e: i32, off: i64) -> f64 {
        let base = 2f64.powi(e).to_bits();
        let bits = if off >= 0 {
            base + off as u64
        } else {
            2f64.powi(e + 1).to_bits() - off.unsigned_abs()
        };
        f64::from_bits(bits)
    }

    /// Random addend programs against literal repetition: plain addends,
    /// exact ties (`m.5` ulps of the sum they land on), sums started
    /// just below a binade's top so the runs cross binades, and the
    /// derived meter addend.
    #[test]
    fn random_programs_repeat_exactly() {
        let mut rng = Rng::from_seed(0xB1ADE);
        let mut jumped = 0;
        for _ in 0..1_000 {
            let e = rng.gen_range(0u32..40) as i32 - 50;
            let start_off = |rng: &mut Rng| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(0u32..1 << 20) as i64
                } else {
                    -(rng.gen_range(1u32..50_000) as i64)
                }
            };
            let ulp = |e: i32| 2f64.powi(e - 52);
            let addend = |rng: &mut Rng, e: i32| -> f64 {
                match rng.gen_range(0u32..4) {
                    0 => 0.0,
                    1 => (rng.gen_range(0u32..40) as f64 + 0.5) * ulp(e),
                    2 => rng.gen_range(0u32..40) as f64 * ulp(e) * 0.25,
                    _ => rng.f64() * 30.0 * ulp(e),
                }
            };
            let es = [e, e + 1, e - 2, e + 2];
            let p = Program {
                x: [
                    at(es[0], start_off(&mut rng)),
                    at(es[1], start_off(&mut rng)),
                ],
                adds: [
                    [addend(&mut rng, es[0]), addend(&mut rng, es[0])],
                    [addend(&mut rng, es[1]), addend(&mut rng, es[1])],
                ],
                ticks: [addend(&mut rng, es[2]), addend(&mut rng, es[2])],
            };
            let start = p.start(
                at(es[2], start_off(&mut rng)),
                at(es[3], start_off(&mut rng)),
            );
            let cap = if rng.gen_bool(0.5) {
                u64::MAX
            } else {
                rng.gen_range(1u32..500) as u64
            };
            jumped += jump_matches_literal(&p, start, 3_000, cap);
        }
        assert!(
            jumped > 1_000_000,
            "the programs repeat ({jumped} iterations jumped)"
        );
    }

    /// Why three iterations: here the meter's addend is a tie only once
    /// the running total has fixed its parity (its own first iteration
    /// adds 3 ulps, every later one 2), and the meter's parity is fixed
    /// in the iteration after that. The meter adds 1, 1, 0, 0, … ulps, so
    /// the increment of the first or the second iteration, repeated, is
    /// a different bit; the watch offers the third.
    #[test]
    fn the_third_iteration_is_the_first_that_repeats() {
        let s = f64::from_bits(0x3FD0_0000_0008_1BEF);
        let p = Program {
            x: [0.0, 0.0],
            adds: [[0.0; 2]; 2],
            ticks: [2.5 * 2f64.powi(-54), 0.5 * 2f64.powi(-54)],
        };
        let mut st = p.start(s, f64::from_bits(0x3FF0_0000_000F_43AA));
        let mut bounds = vec![st.sums[3].to_bits()];
        let mut watch = RepeatWatch::new(st.sums);
        let mut offered = Vec::new();
        for _ in 0..6 {
            p.iterate(&mut st);
            bounds.push(st.sums[3].to_bits());
            offered.push(watch.observe(0, st.sums).is_some());
        }
        let inc: Vec<u64> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(inc, [1, 1, 0, 0, 0, 0]);
        assert_eq!(offered, [false, false, true, true, true, true]);
        jump_matches_literal(
            &p,
            p.start(s, f64::from_bits(0x3FF0_0000_000F_43AA)),
            100,
            50,
        );
    }

    #[test]
    fn a_changed_shape_or_a_binade_crossing_restarts_the_count() {
        let mut watch = RepeatWatch::new([1.0]);
        assert!(watch.observe(1, [1.25]).is_none());
        assert!(watch.observe(1, [1.5]).is_none());
        assert!(watch.observe(2, [1.75]).is_none(), "shape changed");
        assert!(watch.observe(2, [1.875]).is_none());
        let rep = watch.observe(2, [1.9375]).expect("three of shape 2");
        assert_eq!(rep.apply([1.9375], 0), [1.9375]);
        // 1.9375 + 2^-4 would reach 2.0, the next binade.
        assert_eq!(rep.room(), 0);
        assert!(watch.observe(2, [2.0]).is_none(), "left the binade");
        let mut watch = RepeatWatch::new([0.0, 3.0]);
        for _ in 0..2 {
            assert!(watch.observe(0, [0.0, 3.0]).is_none());
        }
        let rep = watch.observe(0, [0.0, 3.0]).expect("nothing moves");
        assert_eq!(rep.room(), u64::MAX);
        assert_eq!(rep.apply([0.0, 3.0], u64::MAX), [0.0, 3.0]);
        let mut watch = RepeatWatch::new([f64::INFINITY]);
        for _ in 0..3 {
            assert!(watch.observe(0, [f64::INFINITY]).is_none(), "not finite");
        }
    }
}
