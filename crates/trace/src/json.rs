//! The JSON writer's escaping and number rules.
//!
//! The build environment has no registry access, so traces and run
//! summaries are serialised by hand. This module holds the two rules
//! every writer shares: how a string is quoted ([`push_quoted`]) and how
//! an `f64` is spelled ([`push_number`]). Nothing in the workspace reads
//! JSON back; the tests below pin the rules' exact bytes instead.

use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document (adds quotes).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends `s` to `out` escaped and quoted — the one string-escaping
/// rule behind [`quote`] and the trace writer.
pub fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // Writing into a `String` cannot fail.
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an f64 the way the writer emits numbers (round-trippable).
pub fn number(v: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, v);
    out
}

/// Appends `v` to `out` — the one number rule behind [`number`] and the
/// trace writer: `{:?}` (enough digits for exact f64 round-trips) when
/// finite, `null` otherwise. At most [`NUMBER_MAX_LEN`] bytes.
pub fn push_number(out: &mut String, v: f64) {
    if v.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Upper bound on the bytes [`push_number`] appends: 17 significant
/// digits, sign, point and a three-digit signed exponent
/// (`-2.2250738585072014e-308`).
pub const NUMBER_MAX_LEN: usize = 24;

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
