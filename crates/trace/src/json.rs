//! The JSON writer's escaping and number rules.
//!
//! The build environment has no registry access, so traces and run
//! summaries are serialised by hand. This module holds the rules every
//! writer shares: how a string is quoted ([`push_quoted`]), how an `f64`
//! is spelled ([`push_number`]) and how an integer is ([`write_digits`]).
//! Nothing in the workspace reads JSON back; the tests below pin the
//! rules' exact bytes instead.

use std::fmt;

mod shortest;

/// Escapes a string for embedding in a JSON document (adds quotes).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends `s` to `out` escaped and quoted — the one string-escaping
/// rule behind [`quote`] and the trace writer. Each run of bytes that
/// needs no escape is copied whole.
pub fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so each run boundary is
    // a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => '"',
            b'\\' => '\\',
            b'\n' => 'n',
            b'\r' => 'r',
            b'\t' => 't',
            0..=0x1f => 'u',
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        out.push('\\');
        out.push(short);
        if short == 'u' {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Formats an f64 the way the writer emits numbers (round-trippable).
pub fn number(v: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, v);
    out
}

/// Appends `v` to `out` — the one number rule behind [`number`] and the
/// trace writer: exactly the bytes of `{v:?}` (the shortest digits that
/// round-trip) when finite, `null` otherwise. At most
/// [`NUMBER_MAX_LEN`] bytes.
///
/// The digits come from Ryū rather than `core::fmt`, laid out as `{:?}`
/// lays them out: decimal with at least one fractional digit when `v`
/// is 0 or `1e-4 ≤ |v| < 1e16` (`100.0`, `0.00012`), else
/// `<digits>e<exp>` (`1e16`, `1.2345e-5`). The one case Ryū leaves to
/// its caller, a value exactly halfway between two shortest candidates,
/// is formatted by `{:?}` itself, so the bytes are `{:?}`'s by
/// construction.
pub fn push_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    if v == 0.0 {
        out.push_str(if v.is_sign_negative() { "-0.0" } else { "0.0" });
        return;
    }
    let Some((digits, e10)) = shortest::shortest(v.abs()) else {
        // Writing into a `String` cannot fail.
        let _ = fmt::Write::write_fmt(out, format_args!("{v:?}"));
        return;
    };
    let mut buf = [b'0'; LAYOUT_LEN];
    let exponential = v.abs() < 1e-4 || v.abs() >= 1e16;
    let end = lay_out(&mut buf, digits, e10, exponential);
    buf[TEXT - 1] = b'-';
    let start = TEXT - usize::from(v.is_sign_negative());
    out.push_str(std::str::from_utf8(&buf[start..end]).expect("ASCII"));
}

/// Where a number's text starts in [`lay_out`]'s buffer: room before it
/// for the sign and for a digit block's leading zeros.
const TEXT: usize = 24;

/// [`lay_out`]'s buffer: the text, and slack after it for the fixed-size
/// move that opens the decimal point.
const LAYOUT_LEN: usize = TEXT + NUMBER_MAX_LEN + 17;

/// Writes `digits × 10^e10` (at most 17 digits) as `{:?}` spells a
/// positive value into `buf`, a buffer of `'0'`s, from [`TEXT`] on;
/// returns where it ends. Digits go out as fixed 17-digit blocks whose
/// leading zeros fall before the text or on `0.000`, so the common
/// spellings take no digit-count-dependent loop.
fn lay_out(buf: &mut [u8; LAYOUT_LEN], digits: u64, e10: i32, exponential: bool) -> usize {
    let n = decimal_len(digits);
    // The decimal point sits `point` digits into the digits.
    let point = e10 + n as i32;
    if exponential {
        // `d[.ddd]e<exp>`, the exponent of the leading digit.
        write_17(buf, TEXT + 1 + n, digits);
        buf[TEXT] = buf[TEXT + 1];
        let mut end = TEXT + 1;
        if n > 1 {
            buf[TEXT + 1] = b'.';
            end += n;
        }
        buf[end] = b'e';
        end += 1;
        if point < 1 {
            buf[end] = b'-';
            end += 1;
        }
        let mut exp = (point - 1).unsigned_abs();
        let len = 1 + usize::from(exp >= 10) + usize::from(exp >= 100);
        for at in (end..end + len).rev() {
            buf[at] = b'0' + (exp % 10) as u8;
            exp /= 10;
        }
        end + len
    } else if point <= 0 {
        // `0.000ddd`: the block's leading zeros fill the gap.
        let end = TEXT + 2 + point.unsigned_abs() as usize + n;
        write_17(buf, end, digits);
        buf[TEXT + 1] = b'.';
        end
    } else if (point as usize) < n {
        // `dd.ddd`: the fraction moves one place right for the point.
        let point = TEXT + point as usize;
        write_17(buf, TEXT + n, digits);
        buf.copy_within(point..point + 17, point + 1);
        buf[point] = b'.';
        TEXT + n + 1
    } else {
        // `ddd000.0`: the zeros are the buffer's own.
        let point = TEXT + point as usize;
        write_17(buf, TEXT + n, digits);
        buf[point] = b'.';
        point + 2
    }
}

/// Number of decimal digits of `v > 0`.
fn decimal_len(v: u64) -> usize {
    const POW10: [u64; 20] = {
        let mut pow = [1; 20];
        let mut i = 1;
        while i < pow.len() {
            pow[i] = pow[i - 1] * 10;
            i += 1;
        }
        pow
    };
    // ⌊log10(2^bits)⌋ is the digit count or one less.
    let guess = (((64 - v.leading_zeros()) * 1233) >> 12) as usize;
    guess + usize::from(guess < POW10.len() && v >= POW10[guess])
}

/// Writes `v < 10^17` as 17 zero-padded digits ending at `end`.
fn write_17(buf: &mut [u8; LAYOUT_LEN], end: usize, v: u64) {
    let (high, low) = (v / 100_000_000, (v % 100_000_000) as u32);
    buf[end - 17] = b'0' + (high / 100_000_000) as u8;
    write_8(&mut buf[end - 16..end - 8], (high % 100_000_000) as u32);
    write_8(&mut buf[end - 8..end], low);
}

/// Writes `v < 10^8` as 8 zero-padded digits.
fn write_8(out: &mut [u8], v: u32) {
    let (high, low) = (v / 10_000, v % 10_000);
    for (k, pair) in [high / 100, high % 100, low / 100, low % 100]
        .into_iter()
        .enumerate()
    {
        let pair = 2 * pair as usize;
        out[2 * k..2 * k + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
}

/// Upper bound on the bytes [`push_number`] appends: 17 significant
/// digits, sign, point and a three-digit signed exponent
/// (`-2.2250738585072014e-308`).
pub const NUMBER_MAX_LEN: usize = 24;

/// Writes `n` in decimal, as `{n}` formats it, without `core::fmt`'s
/// integer formatting: the trace writer's lane indices and the
/// executor's label numbers. Generic, so it is compiled into each
/// caller's crate, where it can be inlined.
pub fn write_digits<W: fmt::Write>(w: &mut W, mut n: u64) -> fmt::Result {
    if n < 10 {
        // Most lanes and label numbers: one char, nothing to validate.
        return w.write_char(char::from(b'0' + n as u8));
    }
    let mut buf = [0; 20];
    let mut at = buf.len();
    while n >= 10 {
        let pair = 2 * (n % 100) as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        n /= 100;
    }
    if n > 0 {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    w.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

/// Every two-digit pair `00`–`99`, back to back.
const PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_quoted_escapes_exactly_the_specials() {
        for (text, expected) in [
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("\"", r#""\"""#),
            ("\\", r#""\\""#),
            ("\n", r#""\n""#),
            ("\r", r#""\r""#),
            ("\t", r#""\t""#),
            ("\u{1}", r#""\u0001""#),
            ("\u{1f}", r#""\u001f""#),
            // Only C0 controls are escaped: DEL and non-ASCII pass through.
            ("\u{7f}", "\"\u{7f}\""),
            ("é", "\"é\""),
            ("漢", "\"漢\""),
            ("a\"b\\c\nd\te\u{1}", r#""a\"b\\c\nd\te\u0001""#),
        ] {
            let mut out = String::from("x");
            push_quoted(&mut out, text);
            assert_eq!(&out[1..], expected, "push_quoted({text:?})");
            assert_eq!(quote(text), expected, "quote({text:?})");
        }
    }

    #[test]
    fn write_digits_matches_display_at_digit_boundaries() {
        for n in [
            0,
            9,
            10,
            99,
            100,
            12345678,
            99_999_999_999_999_999,
            u64::MAX,
        ] {
            let mut out = String::from("x");
            write_digits(&mut out, n).unwrap();
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn number_format_roundtrips() {
        for (v, expected) in [
            (0.0, "0.0"),
            (1.5, "1.5"),
            (-3.25, "-3.25"),
            (1e-9, "1e-9"),
            (1e300, "1e300"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (123456789.123456, "123456789.123456"),
        ] {
            assert_eq!(number(v), expected, "number({v:e})");
            let back: f64 = expected.parse().expect("a finite spelling parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{expected} round-trips");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(number(v), "null", "number({v})");
            let mut out = String::from("x");
            push_number(&mut out, v);
            assert_eq!(out, "xnull");
        }
    }
}
