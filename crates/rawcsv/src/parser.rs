//! *Selective parsing*: byte-slice → binary value conversion.
//!
//! PostgresRaw only transforms to binary "the values required for the
//! remaining query plan" (§3). In this reproduction that discipline lives in
//! the scan operator, and it applies down to the row: a file's first
//! filtered scan converts the columns its predicate reads for every row,
//! and the columns only the rest of the plan needs for the rows the
//! predicate keeps. This module provides the per-field converters
//! ([`parse_int`], [`parse_float`], [`parse_bool`], [`unescape_quoted`])
//! with hand-rolled integer/boolean fast paths (field bytes are already in
//! cache after tokenizing, so conversion cost is pure CPU — exactly the cost
//! the paper's *Convert* breakdown slice measures). The scan calls them
//! through `nodb_rawcache::TypedColumn::extend_parsed`, which parses a run
//! of fields straight into a typed column; [`parse_field`] applies the same rules but
//! returns a [`Datum`], and is the reference the row-at-a-time models compare
//! against and the one place a parse error is worded.

use crate::datum::Datum;
use crate::error::RawCsvError;
use crate::schema::ColumnType;

/// Parse one raw field as `ty`. Empty fields are NULL.
///
/// `row` and `attr` are used only for error reporting.
pub fn parse_field(
    raw: &[u8],
    ty: ColumnType,
    row: u64,
    attr: usize,
) -> Result<Datum, RawCsvError> {
    if raw.is_empty() {
        return Ok(Datum::Null);
    }
    match ty {
        ColumnType::Int => parse_int(raw)
            .map(Datum::Int)
            .ok_or_else(|| parse_err(raw, "int", row, attr)),
        ColumnType::Float => parse_float(raw)
            .map(Datum::Float)
            .ok_or_else(|| parse_err(raw, "float", row, attr)),
        ColumnType::Bool => parse_bool(raw)
            .map(Datum::Bool)
            .ok_or_else(|| parse_err(raw, "bool", row, attr)),
        ColumnType::Str => Ok(Datum::Str(String::from_utf8_lossy(raw).into())),
    }
}

fn parse_err(raw: &[u8], ty: &'static str, row: u64, attr: usize) -> RawCsvError {
    let mut text = String::from_utf8_lossy(raw).into_owned();
    text.truncate(64);
    RawCsvError::ParseField {
        row,
        attr,
        ty,
        text,
    }
}

/// Hand-rolled `i64` parser: optional sign, decimal digits, overflow-checked.
///
/// Returns `None` on any deviation (whitespace, empty, overflow, stray
/// bytes) so callers can surface a typed error.
#[inline]
pub fn parse_int(raw: &[u8]) -> Option<i64> {
    let (neg, digits) = match raw.first()? {
        b'-' => (true, &raw[1..]),
        b'+' => (false, &raw[1..]),
        _ => (false, raw),
    };
    // More than 19 digits always overflows i64; 19 digits may overflow, which
    // the checked arithmetic below catches.
    if digits.is_empty() || digits.len() > 19 {
        return None;
    }
    // Accumulate negatively so i64::MIN parses without overflow.
    let mut acc: i64 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_sub(d as i64)?;
    }
    if neg {
        Some(acc)
    } else {
        acc.checked_neg()
    }
}

/// Float parser with a fast path for plain `[-]digits[.digits]` forms (the
/// overwhelmingly common shape in data files) and a std fallback for
/// scientific notation and other valid forms.
#[inline]
pub fn parse_float(raw: &[u8]) -> Option<f64> {
    if let Some(v) = parse_float_simple(raw) {
        return Some(v);
    }
    std::str::from_utf8(raw).ok()?.parse::<f64>().ok()
}

/// Fast path: sign, up to 15 integer digits, optional fraction of up to 15
/// digits. Everything here is exactly representable arithmetic on small
/// integers, so results match `str::parse::<f64>` bit-for-bit in this range.
#[inline]
fn parse_float_simple(raw: &[u8]) -> Option<f64> {
    let (neg, body) = match raw.first()? {
        b'-' => (true, &raw[1..]),
        b'+' => (false, &raw[1..]),
        _ => (false, raw),
    };
    let mut int_part: u64 = 0;
    let mut i = 0;
    while i < body.len() {
        let d = body[i].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        int_part = int_part.checked_mul(10)?.checked_add(d as u64)?;
        i += 1;
    }
    if i == 0 && (body.len() <= 1 || body[0] != b'.') {
        return None;
    }
    if int_part > (1u64 << 52) {
        return None; // beyond exact f64 integers: take the slow path
    }
    let mut value = int_part as f64;
    if i < body.len() {
        if body[i] != b'.' {
            return None; // exponent or junk: slow path decides
        }
        i += 1;
        let frac_start = i;
        let mut frac: u64 = 0;
        while i < body.len() {
            let d = body[i].wrapping_sub(b'0');
            if d > 9 {
                return None;
            }
            frac = frac.checked_mul(10)?.checked_add(d as u64)?;
            i += 1;
        }
        let ndigits = i - frac_start;
        if ndigits == 0 || ndigits > 15 || frac > (1u64 << 52) {
            return None;
        }
        value += frac as f64 / POW10[ndigits];
    }
    Some(if neg { -value } else { value })
}

const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// Boolean parser accepting `true/false`, `t/f`, `1/0`, case-insensitive.
#[inline]
pub fn parse_bool(raw: &[u8]) -> Option<bool> {
    match raw {
        b"1" | b"t" | b"T" => Some(true),
        b"0" | b"f" | b"F" => Some(false),
        _ if raw.eq_ignore_ascii_case(b"true") => Some(true),
        _ if raw.eq_ignore_ascii_case(b"false") => Some(false),
        _ => None,
    }
}

/// Unescape a quoted CSV field in which quotes are doubled; used by the
/// tokenizer's quoted path when materializing strings.
pub fn unescape_quoted(raw: &[u8], quote: u8) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        let b = raw[i];
        if b == quote && i + 1 < raw.len() && raw[i + 1] == quote {
            out.push(quote as char);
            i += 2;
        } else {
            out.push(b as char);
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_parses_signs_and_bounds() {
        assert_eq!(parse_int(b"0"), Some(0));
        assert_eq!(parse_int(b"-42"), Some(-42));
        assert_eq!(parse_int(b"+7"), Some(7));
        assert_eq!(parse_int(b"9223372036854775807"), Some(i64::MAX));
        assert_eq!(parse_int(b"-9223372036854775808"), Some(i64::MIN));
        assert_eq!(parse_int(b"9223372036854775808"), None); // overflow
        assert_eq!(parse_int(b""), None);
        assert_eq!(parse_int(b"-"), None);
        assert_eq!(parse_int(b"12a"), None);
        assert_eq!(parse_int(b" 1"), None);
    }

    #[test]
    fn float_fast_path_matches_std() {
        for s in ["0", "3.5", "-12.25", "100000.0001", "+0.5", "7"] {
            assert_eq!(
                parse_float(s.as_bytes()),
                Some(s.parse::<f64>().unwrap()),
                "{s}"
            );
        }
    }

    #[test]
    fn float_slow_path_handles_exponents() {
        assert_eq!(parse_float(b"1e3"), Some(1000.0));
        assert_eq!(parse_float(b"-2.5E-2"), Some(-0.025));
        assert_eq!(parse_float(b"inf"), Some(f64::INFINITY));
        assert_eq!(parse_float(b"abc"), None);
    }

    #[test]
    fn bool_variants() {
        assert_eq!(parse_bool(b"1"), Some(true));
        assert_eq!(parse_bool(b"F"), Some(false));
        assert_eq!(parse_bool(b"TRUE"), Some(true));
        assert_eq!(parse_bool(b"False"), Some(false));
        assert_eq!(parse_bool(b"yes"), None);
    }

    #[test]
    fn parse_field_empty_is_null() {
        assert_eq!(
            parse_field(b"", ColumnType::Int, 0, 0).unwrap(),
            Datum::Null
        );
    }

    #[test]
    fn parse_field_error_reports_location() {
        let err = parse_field(b"xx", ColumnType::Int, 7, 3).unwrap_err();
        match err {
            RawCsvError::ParseField { row, attr, ty, .. } => {
                assert_eq!((row, attr, ty), (7, 3, "int"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unescape_doubles() {
        assert_eq!(unescape_quoted(br#"a""b"#, b'"'), "a\"b");
        assert_eq!(unescape_quoted(b"plain", b'"'), "plain");
    }
}
