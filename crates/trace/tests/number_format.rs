//! `json::push_number` against the standard library: its bytes must be
//! exactly `format!("{v:?}")` for every finite `f64` (and `null`
//! otherwise), on a table of formatting boundaries and on random bit
//! patterns. In a release build the proptest covers 2^20 patterns.

use harmony_trace::json;
use proptest::prelude::*;

/// What the writer must produce: `{:?}` when finite, else `null`.
fn std_spelling(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn assert_matches_std(v: f64) {
    let expected = std_spelling(v);
    assert_eq!(json::number(v), expected, "bits {:#018x}", v.to_bits());
    let mut out = String::from("[");
    json::push_number(&mut out, v);
    assert_eq!(&out[1..], expected, "bits {:#018x}", v.to_bits());
}

fn next_up(v: f64) -> f64 {
    f64::from_bits(v.to_bits() + 1)
}

fn next_down(v: f64) -> f64 {
    f64::from_bits(v.to_bits() - 1)
}

#[test]
fn push_number_matches_std_debug() {
    let mut table = vec![
        0.0,
        5e-324,
        1e-323,
        // The largest subnormal, and the smallest normal with neighbours.
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        next_up(f64::MIN_POSITIVE),
        next_down(f64::MIN_POSITIVE),
        // Where `{:?}` switches between decimal and exponent form.
        1e-4,
        next_down(1e-4),
        next_up(1e-4),
        1e16,
        next_down(1e16),
        next_up(1e16),
        // Around 2^53, where integers stop being exact.
        9007199254740991.0,
        9007199254740992.0,
        9007199254740994.0,
        f64::MAX,
        next_down(f64::MAX),
        f64::EPSILON,
        1.0,
        next_down(1.0),
        next_up(1.0),
        100.0,
        1.5,
        // 17 significant digits.
        0.1 + 0.2,
        1.7066666666666667e-6,
        123456789012345680.0,
        2.2250738585072014e-308,
        1.7976931348623157e308,
        0.00012345678901234567,
        1234567890123456.8,
        // The double nearest 1e23 lies below it, yet spells `1e23`.
        1e23,
        next_down(1e23),
        // Exactly halfway between two shortest candidates (2^-25, and
        // 2e15 ± 1/4), which `push_number` hands to `{:?}` itself.
        2f64.powi(-25),
        2e15 + 0.25,
        2e15 - 0.25,
        f64::NAN,
        f64::INFINITY,
    ];
    for k in -30..=30 {
        let p: f64 = format!("1e{k}").parse().expect("a power of ten parses");
        table.extend([p, next_down(p), next_up(p)]);
    }
    for v in table.clone() {
        table.push(-v);
    }
    for v in table {
        assert_matches_std(v);
    }
}

/// A value `{:?}` prints in decimal form: any significand, with a binary
/// exponent between 2^-14 and 2^54.
fn decimal_range(bits: u64) -> f64 {
    let exponent = 1023 - 14 + (bits >> 52) % 68;
    f64::from_bits(bits & 0x800f_ffff_ffff_ffff | exponent << 52)
}

/// A short decimal `k / 10^d` or `k × 10^d`: the spellings most likely
/// to end in an exactly representable digit string.
fn short_decimal(bits: u64) -> f64 {
    let k = (bits >> 8) % 1_000_000;
    let d = (bits % 24) as i32 - 12;
    k as f64 * 10f64.powi(d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) {
        1 << 16
    } else {
        1 << 20
    }))]

    #[test]
    fn push_number_matches_std_on_random_bits(bits in any::<u64>()) {
        for v in [f64::from_bits(bits), decimal_range(bits), short_decimal(bits)] {
            prop_assert_eq!(json::number(v), std_spelling(v));
        }
    }
}
