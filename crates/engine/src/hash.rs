//! The value hash of GROUP BY and COUNT DISTINCT.
//!
//! One word-at-a-time hash per value class, each equal to [`hash_datum`] of
//! the boxed value, so a group key read from a typed column and the same
//! value computed row by row hash alike.

use nodb_rawcsv::Datum;

/// Stable hash of a datum for GROUP BY and COUNT DISTINCT. Int and Float
/// hash by value class so `1` and `1.0` land together, mirroring SQL
/// equality.
///
/// Word-at-a-time: a fixed-width value is one `fmix64` (a bijection, so
/// distinct integers never collide), a string folds 8 bytes per step.
pub(crate) fn hash_datum(d: &Datum) -> u64 {
    match d {
        Datum::Null => fmix64(0x6e75_6c6c),
        Datum::Int(v) => hash_int(*v),
        Datum::Float(v) => hash_float(*v),
        Datum::Str(s) => hash_str(s),
        Datum::Bool(b) => hash_bool(*b),
    }
}

/// MurmurHash3's 64-bit finalizer: every input bit flips each output bit
/// with probability ~1/2, and every step is invertible.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Seeds that move the hash classes of [`hash_float`]'s non-integral
/// values, strings and booleans away from the integers' hash of the same
/// word (XOR-ing a constant in keeps each class a bijection of its word).
const FLOAT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const STR_SEED: u64 = 0xc2b2_ae3d_27d4_eb4f;
const BOOL_SEED: u64 = 0x1656_67b1_9e37_79f9;

/// [`hash_datum`] of an integer.
#[inline]
pub(crate) fn hash_int(v: i64) -> u64 {
    fmix64(v as u64)
}

/// [`hash_datum`] of a float: integral values hash like the integer.
/// The integrality test is a round trip through `i64` (no libm call), and
/// the two candidate words are selected without a branch; NaN and values
/// beyond the `i64` range hash by their bits.
#[inline]
pub(crate) fn hash_float(v: f64) -> u64 {
    let i = v as i64; // saturating; the round trip below rejects a clamped value
    let integral = v.abs() < 9e18 && i as f64 == v;
    fmix64(if integral {
        i as u64
    } else {
        v.to_bits() ^ FLOAT_SEED
    })
}

/// [`hash_datum`] of a string, a word at a time: the length seeds the
/// hash, then 8-byte little-endian words are folded in — the last one
/// overlapping its predecessor when the length is not a multiple of 8 — and
/// a string shorter than a word is read as one word by two overlapping
/// 4-byte loads (or, below 4 bytes, its first, middle and last byte). Every
/// byte reaches the hash, with no copy and no per-byte loop.
#[inline]
pub(crate) fn hash_str(s: &str) -> u64 {
    const K: u64 = 0x9fb2_1c65_1e98_df25;
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let b = s.as_bytes();
    let len = b.len();
    let mut h = STR_SEED ^ (len as u64).wrapping_mul(K);
    if let (Some(&lo), Some(&hi)) = (b.first_chunk::<8>(), b.last_chunk::<8>()) {
        h = fold(h, u64::from_le_bytes(lo));
        let (words, _) = b[8..].as_chunks::<8>();
        for &word in words {
            h = fold(h, u64::from_le_bytes(word));
        }
        if !len.is_multiple_of(8) {
            h = fold(h, u64::from_le_bytes(hi));
        }
    } else if let (Some(&lo), Some(&hi)) = (b.first_chunk::<4>(), b.last_chunk::<4>()) {
        h = fold(
            h,
            u64::from(u32::from_le_bytes(lo)) | u64::from(u32::from_le_bytes(hi)) << 32,
        );
    } else if let (Some(&first), Some(&last)) = (b.first(), b.last()) {
        h = fold(
            h,
            u64::from(first) | u64::from(b[len / 2]) << 8 | u64::from(last) << 16,
        );
    }
    fmix64(h)
}

/// [`hash_datum`] of a boolean.
#[inline]
pub(crate) fn hash_bool(b: bool) -> u64 {
    fmix64(u64::from(b) ^ BOOL_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_float_hash_together() {
        assert_eq!(hash_datum(&Datum::Int(42)), hash_datum(&Datum::Float(42.0)));
        assert_ne!(hash_datum(&Datum::Int(42)), hash_datum(&Datum::Float(42.5)));
    }

    /// Each typed hash is [`hash_datum`] of its `Datum`: the engine's
    /// GROUP BY hashes typed columns with them and computed keys with
    /// `hash_datum`, and both must land a value in the same group.
    #[test]
    fn typed_hashes_equal_hash_datum() {
        for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            assert_eq!(hash_int(v), hash_datum(&Datum::Int(v)), "{v}");
        }
        let floats = [
            1.0,
            -1.0,
            0.0,
            -0.0,
            0.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            i64::MIN as f64,
            i64::MAX as f64,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        for v in floats {
            assert_eq!(hash_float(v), hash_datum(&Datum::Float(v)), "{v}");
        }
        // 1.0 is the integer 1 under SQL equality, and hashes like it.
        assert_eq!(hash_float(1.0), hash_datum(&Datum::Int(1)));
        for s in ["", "a", "abc", "abcd", "abcdefgh", "abcdefghi", "ünï"] {
            assert_eq!(hash_str(s), hash_datum(&Datum::from(s)), "{s:?}");
        }
        for b in [false, true] {
            assert_eq!(hash_bool(b), hash_datum(&Datum::Bool(b)), "{b}");
        }
    }

    #[test]
    fn integral_floats_hash_like_their_int() {
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            // Magnitudes up to 2^52, where every integer is a float.
            let i = (x >> 11) as i64 - (1 << 52);
            assert_eq!(hash_float(i as f64), hash_int(i), "{i}");
        }
        for i in [0i64, 1, -1, i64::from(i32::MAX), -(1 << 62)] {
            assert_eq!(hash_float(i as f64), hash_int(i), "{i}");
        }
        // -0.0 equals 0 in SQL; NaN and the infinities hash by bits,
        // consistently.
        assert_eq!(hash_float(-0.0), hash_int(0));
        assert_eq!(hash_float(f64::NAN), hash_float(f64::NAN));
        assert_ne!(hash_float(f64::INFINITY), hash_float(f64::NEG_INFINITY));
        // Beyond the i64 range nothing is an int, even where `as` clamps.
        assert_ne!(hash_float(9.3e18), hash_int(i64::MAX));
        assert_ne!(hash_float(0.5), hash_float(1.5));
    }

    #[test]
    fn hash_int_is_injective_on_a_large_sample() {
        let mut x = 0x1337u64;
        let mut seen = std::collections::HashSet::new();
        let n = if cfg!(miri) { 2_000 } else { 200_000 };
        for i in 0..n {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            // Dense small ints and scattered wide ones.
            assert!(seen.insert(hash_int(i - n / 2)));
            assert!(seen.insert(hash_int(x as i64 | (1 << 40))));
        }
    }

    #[test]
    fn string_hash_sees_every_byte_and_the_length() {
        let base = "abcdefghijklmnopq";
        let mut seen = std::collections::HashSet::new();
        for len in 0..=base.len() {
            assert!(seen.insert(hash_str(&base[..len])), "prefix {len}");
        }
        assert_ne!(hash_str("a"), hash_str("a\0"));
        for i in 0..base.len() {
            let mut b = base.as_bytes().to_vec();
            b[i] ^= 1;
            let flipped = String::from_utf8(b).expect("ascii");
            assert_ne!(hash_str(&flipped), hash_str(base), "byte {i}");
        }
    }
}
