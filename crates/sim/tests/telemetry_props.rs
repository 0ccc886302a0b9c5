//! Property tests for the telemetry layer's histogram and percentile
//! math, driven by the in-tree `ulp-testkit` harness. Every property is
//! checked against an exact reference computed from the raw sample
//! vector, so the log2 bucketing can never silently drift.

use ulp_sim::telemetry::LOG2_BUCKETS;
use ulp_sim::{Log2Histogram, Metrics};
use ulp_testkit::json;
use ulp_testkit::{prop_assert, prop_assert_eq, props, vec_of};

/// Samples spread across many buckets: mix small values with
/// exponentially large ones.
fn arb_sample() -> std::ops::RangeInclusive<u64> {
    0..=u64::MAX
}

fn build(samples: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

props! {
    /// count/sum/min/max are exact (not bucketed) for any sample set.
    #[test]
    fn histogram_moments_are_exact(samples in vec_of(arb_sample(), 1..64)) {
        let h = build(&samples);
        prop_assert_eq!(h.count(), samples.len() as u64);
        let exact_sum = samples.iter().fold(0u64, |a, &v| a.saturating_add(v));
        prop_assert_eq!(h.sum(), exact_sum);
        prop_assert_eq!(h.min(), samples.iter().min().copied());
        prop_assert_eq!(h.max(), samples.iter().max().copied());
    }

    /// Every sample lands in the bucket whose bounds contain it, and the
    /// bucket upper bounds are strictly monotonic.
    #[test]
    fn bucketing_is_consistent(v in arb_sample()) {
        let i = Log2Histogram::bucket_of(v);
        prop_assert!(i < LOG2_BUCKETS);
        prop_assert!(v <= Log2Histogram::bucket_upper(i));
        if i > 0 {
            prop_assert!(v > Log2Histogram::bucket_upper(i - 1));
            prop_assert!(
                Log2Histogram::bucket_upper(i - 1) < Log2Histogram::bucket_upper(i)
            );
        }
    }

    /// The percentile estimate brackets the exact order statistic:
    /// `exact <= estimate <= 2*exact - 1` (exact for 0), and is always
    /// within the recorded [min, max].
    #[test]
    fn percentile_brackets_exact_rank(
        samples in vec_of(0u64..1_000_000, 1..64),
        pct in 0u64..=100,
    ) {
        let h = build(&samples);
        let p = pct as f64 / 100.0;
        let est = h.percentile(p).unwrap();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        prop_assert!(est >= exact, "estimate {est} below exact {exact}");
        if exact > 0 {
            prop_assert!(
                est < 2 * exact,
                "estimate {est} beyond 2x bound of exact {exact}"
            );
        } else {
            // All-zero prefix: the estimate may clamp to min().
            prop_assert!(est >= h.min().unwrap());
        }
        prop_assert!(est >= h.min().unwrap() && est <= h.max().unwrap());
    }

    /// Merging is associative and commutative: any grouping over the
    /// same samples yields the same histogram as recording them all
    /// into one.
    #[test]
    fn merge_is_associative_and_commutative(
        a in vec_of(arb_sample(), 0..32),
        b in vec_of(arb_sample(), 0..32),
        c in vec_of(arb_sample(), 0..32),
    ) {
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        let all = build(&[a.clone(), b.clone(), c.clone()].concat());

        // (a ⊎ b) ⊎ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊎ (b ⊎ c)
        let mut right = hb.clone();
        right.merge(&hc);
        let mut right_full = ha.clone();
        right_full.merge(&right);
        // c ⊎ b ⊎ a
        let mut rev = hc.clone();
        rev.merge(&hb);
        rev.merge(&ha);

        prop_assert_eq!(&left, &all);
        prop_assert_eq!(&right_full, &all);
        prop_assert_eq!(&rev, &all);
    }

    /// Metrics registries merge like their parts: counters add,
    /// histograms merge, and the exports of equal registries are
    /// byte-identical.
    #[test]
    fn metrics_merge_matches_componentwise(
        xs in vec_of(0u64..10_000, 1..16),
        ys in vec_of(0u64..10_000, 1..16),
        n in 0u64..1_000,
        m in 0u64..1_000,
    ) {
        let mut a = Metrics::new();
        a.counter_add("events", n);
        for &v in &xs {
            a.record("latency", v);
        }
        let mut b = Metrics::new();
        b.counter_add("events", m);
        for &v in &ys {
            b.record("latency", v);
        }
        let mut merged = a.clone();
        merged.merge(&b);

        let mut expect = Metrics::new();
        expect.counter_add("events", n + m);
        for &v in xs.iter().chain(ys.iter()) {
            expect.record("latency", v);
        }
        prop_assert_eq!(merged.counter("events"), Some(n + m));
        prop_assert_eq!(
            merged.histogram("latency").unwrap(),
            expect.histogram("latency").unwrap()
        );
        prop_assert_eq!(merged.summary(), expect.summary());
        prop_assert_eq!(merged.to_csv(), expect.to_csv());
    }

    /// The JSON escaper in the Chrome exporter produces parseable
    /// output for arbitrary byte-ish strings (exercised through a
    /// metadata event containing the raw string).
    #[test]
    fn chrome_trace_survives_hostile_names(bytes in vec_of(ulp_testkit::any_u8(), 0..32)) {
        let name: String = bytes.iter().map(|&b| b as char).collect();
        let mut ct = ulp_sim::ChromeTrace::new();
        ct.meta_process(1, &name);
        ct.instant(1, 1, 0.0, &name, &name);
        let json = ct.finish();
        prop_assert!(json::parse(&json).is_ok(), "invalid JSON for {name:?}");
    }
}
