//! Property-based tests of the simulation kernel.

use ntc_check::prelude::*;

use ntc_simcore::event::EventQueue;
use ntc_simcore::metrics::Histogram;
use ntc_simcore::rng::RngStream;
use ntc_simcore::stats::quantile;
use ntc_simcore::units::{Bandwidth, DataSize, Money, SimDuration, SimTime};

proptest! {
    /// Popping always yields non-decreasing times, and equal-time events
    /// keep insertion order.
    #[test]
    fn event_queue_is_ordered_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            popped += 1;
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(i > li, "FIFO violated among equal times");
                }
            }
            last = Some((t, i));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Histogram quantiles never underestimate by more than the bucket
    /// resolution and never exceed the observed max.
    #[test]
    fn histogram_quantiles_bound_exact_quantiles(
        values in prop::collection::vec(1u64..10_000_000, 2..500),
        q in 0.0f64..1.0,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let approx = h.value_at_quantile(q);
        prop_assert!(approx <= *sorted.last().unwrap());
        // The reported value is an upper bound of its bucket: at least
        // 1/32-accurate relative to the exact order statistic.
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        prop_assert!(
            approx as f64 >= exact as f64 * (1.0 - 1.0 / 16.0),
            "q={q} approx={approx} exact={exact}"
        );
    }

    /// Histogram mean is exact regardless of bucketing.
    #[test]
    fn histogram_mean_is_exact(values in prop::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let exact = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - exact).abs() < 1e-6);
    }

    /// quantile() is monotone in q and bounded by min/max.
    #[test]
    fn quantile_is_monotone(values in prop::collection::vec(-1e9f64..1e9, 1..200)) {
        let q25 = quantile(&values, 0.25).unwrap();
        let q50 = quantile(&values, 0.50).unwrap();
        let q75 = quantile(&values, 0.75).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q75);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q25 >= min && q75 <= max);
    }

    /// Transfer time scales (anti)monotonically with size and rate.
    #[test]
    fn transfer_time_monotonicity(
        bytes_a in 1u64..1_000_000_000,
        bytes_b in 1u64..1_000_000_000,
        rate in 1u64..1_000_000_000,
    ) {
        let bw = Bandwidth::from_bytes_per_sec(rate);
        let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        prop_assert!(
            bw.transfer_time(DataSize::from_bytes(lo)) <= bw.transfer_time(DataSize::from_bytes(hi))
        );
        let faster = Bandwidth::from_bytes_per_sec(rate.saturating_mul(2));
        prop_assert!(
            faster.transfer_time(DataSize::from_bytes(hi)) <= bw.transfer_time(DataSize::from_bytes(hi))
        );
    }

    /// Money arithmetic round-trips through float conversion within a
    /// nano-dollar.
    #[test]
    fn money_float_roundtrip(nanos in -1_000_000_000_000i64..1_000_000_000_000) {
        let m = Money::from_nano_usd(nanos);
        let back = Money::from_usd_f64(m.as_usd_f64());
        prop_assert!((back.as_nano_usd() - nanos).abs() <= 1);
    }

    /// Duration scaling by reciprocal factors approximately cancels.
    #[test]
    fn duration_mul_f64_roundtrip(us in 1u64..1_000_000_000_000, factor in 0.01f64..100.0) {
        let d = SimDuration::from_micros(us);
        let back = d.mul_f64(factor).mul_f64(1.0 / factor);
        let rel = (back.as_micros() as f64 - us as f64).abs() / us as f64;
        prop_assert!(rel < 1e-3, "us={us} factor={factor} back={}", back.as_micros());
    }

    /// A tuple key derives the stream its formatted text does, for any
    /// label text (empty and non-ASCII included): the same first draws,
    /// and the same grandchildren.
    #[test]
    fn tuple_keys_match_derive_of_the_formatted_string(
        seed in any::<u64>(),
        a in any::<String>(),
        b in any::<i64>(),
    ) {
        let root = RngStream::root(seed);
        let mut via_key = root.derive((&a, "-", b));
        let (label, grand_label) = (format!("{a}-{b}"), format!("{b}{a}"));
        let mut via_str = root.derive(&label);
        let grand_key = via_key.derive((b, a.as_str())).next_u64();
        let grand_str = via_str.derive(&grand_label).next_u64();
        prop_assert_eq!(grand_key, grand_str);
        for i in 0..16 {
            prop_assert_eq!(via_key.next_u64(), via_str.next_u64(), "draw {}", i);
        }
    }

    /// Every integer key spells its decimal digits, as `Display` does.
    #[test]
    fn integer_keys_match_their_decimal_spelling(
        seed in any::<u64>(),
        wide in any::<u64>(),
        small in 0u64..1_000,
        word in 0u32..=u32::MAX,
        index in 0usize..=usize::MAX,
        signed in any::<i64>(),
    ) {
        let root = RngStream::root(seed);
        let same = |key: u64, label: String| key == root.derive(&label).next_u64();
        prop_assert!(same(root.derive(wide).next_u64(), wide.to_string()), "u64 {}", wide);
        prop_assert!(same(root.derive(small).next_u64(), small.to_string()), "u64 {}", small);
        prop_assert!(same(root.derive(word).next_u64(), word.to_string()), "u32 {}", word);
        prop_assert!(same(root.derive(index).next_u64(), index.to_string()), "usize {}", index);
        prop_assert!(same(root.derive(signed).next_u64(), signed.to_string()), "i64 {}", signed);
    }

    /// Nested tuples of strings and integers spell the concatenation of
    /// their leaves, in order, whatever the nesting.
    #[test]
    fn nested_tuple_keys_match_their_concatenation(
        seed in any::<u64>(),
        a in any::<String>(),
        b in any::<String>(),
        n in any::<u64>(),
        m in 0u32..100,
    ) {
        let root = RngStream::root(seed);
        let label = format!("{a}{n}-{m}{b}x");
        let want = root.derive(&label).next_u64();
        let flat = root.derive((a.as_str(), n, "-", m, &b, "x")).next_u64();
        let nested = root.derive(((&a, (n, "")), ("-", (m, b.clone())), "x")).next_u64();
        prop_assert_eq!(flat, want);
        prop_assert_eq!(nested, want);
    }
}
