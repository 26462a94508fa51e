//! Property-based tests for `vqd-obs`: histogram merges are
//! shard-invariant, counters sum exactly across threads, quantile
//! estimates stay within one sub-bucket of the true order statistic
//! and inside the observed range, and the Chrome trace export
//! round-trips through the JSON module.

use proptest::prelude::*;

use vqd_obs::hist::SUBS;
use vqd_obs::json::Json;
use vqd_obs::trace::{chrome_trace_json, validate_trace, Clock, SpanRecord, SpanSink};
use vqd_obs::{LogHistogram, Registry};

const SPAN_NAMES: [&str; 7] = [
    "generate",
    "construct",
    "select",
    "train",
    "diagnose",
    "session",
    "stall",
];

/// Materialise sampled `(name index, virtual?, start, dur)` tuples
/// into spans (the vendored proptest has no `prop_map`).
fn make_spans(raw: &[(usize, u32, u64, u64)]) -> Vec<SpanRecord> {
    raw.iter()
        .map(|&(name, virt, start_ns, dur_ns)| SpanRecord {
            name: SPAN_NAMES[name],
            cat: if virt == 1 { "sim" } else { "pipeline" },
            clock: if virt == 1 {
                Clock::Virtual
            } else {
                Clock::Wall
            },
            start_ns,
            dur_ns,
        })
        .collect()
}

/// Deterministic Fisher–Yates permutation of `0..n` from a seed.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((u128::from(seed >> 16) * (i as u128 + 1)) >> 48) as usize;
        p.swap(i, j);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any partition of a sample stream across shards, merged in any
    /// order, equals the histogram of the sequential stream: same
    /// count, extrema and quantiles.
    #[test]
    fn hist_merge_is_shard_invariant(
        vals in prop::collection::vec(1e-6f64..1e12, 1..200),
        assign in prop::collection::vec(0usize..4, 1..200),
        perm_seed in any::<u64>(),
    ) {
        let mut all = LogHistogram::new();
        for &v in &vals {
            all.record(v);
        }
        let mut shards = vec![LogHistogram::new(); 4];
        for (i, &v) in vals.iter().enumerate() {
            shards[assign[i % assign.len()]].record(v);
        }
        let mut merged = LogHistogram::new();
        for s in permutation(4, perm_seed) {
            merged.merge(&shards[s]);
        }
        prop_assert_eq!(merged.count(), all.count());
        prop_assert_eq!(merged.min(), all.min());
        prop_assert_eq!(merged.max(), all.max());
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), all.quantile(q));
        }
        prop_assert!((merged.sum() - all.sum()).abs() <= all.sum().abs() * 1e-9);
    }

    /// Counter adds spread across threads sum exactly — no lost
    /// updates, no double counts, whatever the sharding.
    #[test]
    fn counter_shards_sum_exactly(adds in prop::collection::vec(0u64..1_000_000, 1..64)) {
        let r = std::sync::Arc::new(Registry::new());
        let expected: u64 = adds.iter().sum();
        std::thread::scope(|s| {
            for chunk in adds.chunks(8) {
                let r = std::sync::Arc::clone(&r);
                let chunk = chunk.to_vec();
                s.spawn(move || {
                    for n in chunk {
                        r.counter_add("p.c", n);
                    }
                });
            }
        });
        prop_assert_eq!(r.snapshot().counter("p.c"), expected);
    }

    /// A quantile estimate is bounded below by the true order
    /// statistic and above by one sub-bucket width (factor
    /// `1 + 1/SUBS`) over it.
    #[test]
    fn quantile_error_is_bounded(
        vals in prop::collection::vec(1e-6f64..1e12, 1..300),
        q_raw in 0.0f64..1.0,
    ) {
        let mut vals = vals;
        let mut h = LogHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_by(f64::total_cmp);
        for q in [0.0, q_raw, 1.0] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let truth = vals[rank - 1];
            let est = h.quantile(q);
            prop_assert!(est >= truth, "estimate {est} below true order statistic {truth}");
            let bound = truth * (1.0 + 1.0 / SUBS as f64) * (1.0 + 1e-12);
            prop_assert!(est <= bound, "estimate {est} above bucket bound {bound} (truth {truth})");
        }
    }

    /// Quantile estimates stay inside the observed range and keep
    /// their order: min ≤ p50 ≤ p99 ≤ max.
    #[test]
    fn quantiles_are_ordered_within_extrema(
        vals in prop::collection::vec(1e-6f64..1e12, 1..300),
    ) {
        let mut h = LogHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        let (p50, p99) = (h.quantile(0.50), h.quantile(0.99));
        prop_assert!(h.min() <= p50, "p50 {p50} below min {}", h.min());
        prop_assert!(p50 <= p99, "p50 {p50} above p99 {p99}");
        prop_assert!(p99 <= h.max(), "p99 {p99} above max {}", h.max());
    }

    /// The Chrome export parses with the in-crate JSON module, passes
    /// the schema check with one event per span, re-serialises
    /// byte-identically, and preserves every span's fields in
    /// deterministic drain order.
    #[test]
    fn trace_export_roundtrip(
        raw in prop::collection::vec(
            (0usize..7, 0u32..2, 0u64..(1u64 << 50), 0u64..1_000_000_000_000u64),
            0..40,
        ),
    ) {
        let spans = make_spans(&raw);
        let sink = SpanSink::new();
        for s in &spans {
            sink.push(s.clone());
        }
        let sorted = sink.drain_sorted();
        let text = chrome_trace_json(&sorted);
        prop_assert_eq!(validate_trace(&text), Ok(spans.len()));

        let root = match Json::parse(&text) {
            Ok(v) => v,
            Err(e) => return Err(TestCaseError::fail(format!("export did not parse: {e}"))),
        };
        prop_assert_eq!(root.to_string(), text);

        let events = root
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default();
        prop_assert_eq!(events.len(), sorted.len());
        for (ev, sp) in events.iter().zip(&sorted) {
            prop_assert_eq!(ev.get("name").and_then(Json::as_str), Some(sp.name));
            prop_assert_eq!(ev.get("cat").and_then(Json::as_str), Some(sp.cat));
            let ts = ev.get("ts").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let dur = ev.get("dur").and_then(Json::as_f64).unwrap_or(f64::NAN);
            prop_assert_eq!(ts.to_bits(), (sp.start_ns as f64 / 1000.0).to_bits());
            prop_assert_eq!(dur.to_bits(), (sp.dur_ns as f64 / 1000.0).to_bits());
            let pid = ev.get("pid").and_then(Json::as_f64);
            match sp.clock {
                Clock::Wall => prop_assert_eq!(pid, Some(1.0)),
                Clock::Virtual => prop_assert_eq!(pid, Some(2.0)),
            }
        }
    }
}
