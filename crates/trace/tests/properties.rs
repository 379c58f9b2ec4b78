//! Property-based tests for the log2-bucketed histogram and the JSON
//! writer/parser.

// Gated so the workspace still builds/tests with --no-default-features.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use specmpk_trace::histogram::{bucket_bounds, bucket_index, NUM_BUCKETS};
use specmpk_trace::{Histogram, Json};

/// Characters covering every writer and parser path: plain ASCII runs,
/// the two escaped printables, the named and `\u00XX` control escapes,
/// DEL (not escaped), two- and three-byte UTF-8, and four-byte astral
/// characters.
const CHARS: &str = "aZ0 /\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}éπ中\u{ffff}😀\u{10ffff}";

fn random_string(rng: &mut TestRng) -> String {
    let chars: Vec<char> = CHARS.chars().collect();
    (0..rng.below(24))
        .map(|_| {
            // Half plain letters, so unescaped runs of several bytes occur.
            if rng.below(2) == 0 {
                char::from(b'a' + rng.below(26) as u8)
            } else {
                chars[rng.below(chars.len() as u64) as usize]
            }
        })
        .collect()
}

fn random_number(rng: &mut TestRng) -> f64 {
    match rng.below(3) {
        // Exact integers of either sign (the counter path).
        0 => rng.below(1 << 53) as f64 * if rng.below(2) == 0 { 1.0 } else { -1.0 },
        // Short fractions (the ratio path).
        1 => rng.below(1000) as f64 / 8.0 - 50.0,
        // Any finite double, huge and subnormal included.
        _ => loop {
            let n = f64::from_bits(rng.next_u64());
            if n.is_finite() {
                break n;
            }
        },
    }
}

/// Random [`Json`] trees at most `depth` containers deep.
struct JsonTree {
    depth: u32,
}

impl Strategy for JsonTree {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let child = JsonTree { depth: self.depth.saturating_sub(1) };
        match rng.below(if self.depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::Num(random_number(rng)),
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr((0..rng.below(5)).map(|_| child.generate(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(5)).map(|_| (random_string(rng), child.generate(rng))).collect(),
            ),
        }
    }
}

fn build(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Percentiles are ordered and bounded by the observed extremes.
    #[test]
    fn percentiles_are_ordered(values in prop::collection::vec(0u64..1 << 48, 1..200)) {
        let h = build(&values);
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        prop_assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        prop_assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        prop_assert!(p99 <= h.max() as f64, "p99 {p99} > max {}", h.max());
        prop_assert!(h.min() as f64 <= p50, "min {} > p50 {p50}", h.min());
    }

    /// Merging a partition of the samples conserves count, sum, extremes,
    /// and every bucket — i.e. merge is exactly set union.
    #[test]
    fn merge_conserves_count_and_sum(
        values in prop::collection::vec(0u64..1 << 48, 1..200),
        split in 0usize..200,
    ) {
        let cut = split.min(values.len());
        let mut merged = build(&values[..cut]);
        merged.merge(&build(&values[cut..]));
        let whole = build(&values);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.sum(), whole.sum());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        for i in 0..NUM_BUCKETS {
            prop_assert_eq!(merged.bucket_count(i), whole.bucket_count(i), "bucket {}", i);
        }
        // Percentile ordering survives the merge too.
        prop_assert!(merged.p50() <= merged.p90() && merged.p90() <= merged.p99());
    }

    /// Every value lands in the bucket whose bounds contain it.
    #[test]
    fn values_land_inside_their_bucket(v in any::<u64>()) {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        prop_assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
    }

    /// Snapshot diffs recover the interval's samples exactly (count, sum,
    /// buckets), mirroring what per-interval sampling serializes.
    #[test]
    fn diff_is_exact_on_counts(
        first in prop::collection::vec(0u64..1 << 32, 0..100),
        second in prop::collection::vec(0u64..1 << 32, 0..100),
    ) {
        let snap = build(&first);
        let mut total = snap.clone();
        for &v in &second {
            total.record(v);
        }
        let d = total.diff(&snap);
        let expect = build(&second);
        prop_assert_eq!(d.count(), expect.count());
        prop_assert_eq!(d.sum(), expect.sum());
        for i in 0..NUM_BUCKETS {
            prop_assert_eq!(d.bucket_count(i), expect.bucket_count(i), "bucket {}", i);
        }
    }

    /// The JSON summary round-trips through the crate's own parser.
    #[test]
    fn summary_round_trips(values in prop::collection::vec(0u64..1 << 48, 0..50)) {
        let h = build(&values);
        let parsed = specmpk_trace::Json::parse(&h.to_json().dump()).expect("valid JSON");
        prop_assert_eq!(parsed.get("count").unwrap().as_u64(), Some(h.count()));
        prop_assert_eq!(parsed.get("sum").unwrap().as_u64(), Some(h.sum()));
        prop_assert_eq!(parsed.get("p90").unwrap().as_f64(), Some(h.p90()));
    }

    /// Both serializations parse back to the same tree, and the compact
    /// form stays on one line whatever the strings contain.
    #[test]
    fn json_dumps_round_trip(tree in JsonTree { depth: 4 }) {
        prop_assert_eq!(Json::parse(&tree.dump()).expect("dump parses"), tree.clone());
        let compact = tree.dump_compact();
        prop_assert!(!compact.bytes().any(|b| b < 0x20), "raw control byte in {compact:?}");
        prop_assert_eq!(Json::parse(&compact).expect("dump_compact parses"), tree);
    }

    /// Streaming into a non-empty buffer appends exactly the compact form.
    #[test]
    fn write_compact_appends_dump_compact(
        tree in JsonTree { depth: 3 },
        prefix in prop::sample::select(vec!["", "x", "{\"a\":1}\n", "π😀"]),
    ) {
        let mut out = prefix.to_string();
        tree.write_compact(&mut out);
        let compact = tree.dump_compact();
        prop_assert_eq!(out.strip_prefix(prefix), Some(compact.as_str()));
    }
}
