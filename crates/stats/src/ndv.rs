//! Distinct-value estimation by linear counting.
//!
//! A fixed bitmap of `m` bits; each value hashes to one bit. The estimate is
//! `-m * ln(z/m)` where `z` is the number of zero bits — accurate to a few
//! percent while NDV stays below ~`m`, which is plenty for selectivity
//! estimation (the optimizer only needs the right order of magnitude).

use nodb_rawcsv::Datum;

/// Linear-counting NDV estimator.
///
/// The bitmap is the whole state: recording a value is one unconditional
/// OR, and the set-bit count the estimate needs is a popcount taken when
/// it is asked for. That is what makes two counters mergeable bit for bit
/// (`union`) — the scan builds one per slice and the install ORs
/// them together.
#[derive(Debug, Clone)]
pub struct DistinctCounter {
    bits: Vec<u64>,
}

/// Default bitmap size: 16 Ki bits (2 KiB), good to ~10k distinct values.
const DEFAULT_BITS: usize = 16 * 1024;

impl DistinctCounter {
    /// Estimator with `mbits` bits (rounded up to a power of two, at least
    /// 64), so a hash picks its bit with a mask.
    pub fn new(mbits: usize) -> Self {
        DistinctCounter {
            bits: vec![0; mbits.max(64).next_power_of_two() / 64],
        }
    }

    /// Default size: 16 Ki bits (2 KiB), good to ~10k distinct values.
    pub fn default_size() -> Self {
        DistinctCounter::new(DEFAULT_BITS)
    }

    /// Record one value.
    pub fn add(&mut self, d: &Datum) {
        self.add_hash(hash_datum(d));
    }

    /// Record one value by its [`hash_datum`]-compatible hash.
    #[inline]
    pub(crate) fn add_hash(&mut self, h: u64) {
        let bit = (h & (self.bits.len() as u64 * 64 - 1)) as usize; // lint: cast-ok below the bitmap's bit count
        self.bits[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Record every value `other` recorded: the bitwise OR of the two
    /// bitmaps. Idempotent, commutative and associative, so the counter's
    /// state does not depend on how its values were split or ordered.
    /// Counters of different sizes hash to different bits; `other` must
    /// have this counter's size (every counter the statistics build does).
    pub(crate) fn union(&mut self, other: &DistinctCounter) {
        debug_assert_eq!(self.bits.len(), other.bits.len(), "counter sizes differ");
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w |= o;
        }
    }

    /// Estimated number of distinct values recorded.
    pub fn estimate(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| u64::from(w.count_ones())).sum();
        if set == 0 {
            return 0.0;
        }
        let m = (self.bits.len() * 64) as f64;
        let z = m - set as f64;
        if z < 1.0 {
            // Saturated: lower bound.
            return m;
        }
        m * (m / z).ln()
    }

    /// The raw bitmap words (snapshot export; the bits are the whole
    /// state).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuild a counter from exported bitmap words. Returns `None` unless
    /// there are exactly as many words as a default-size counter holds —
    /// the only size the statistics build, and the one every scan's
    /// per-slice counter is merged into.
    pub fn from_words(bits: Vec<u64>) -> Option<Self> {
        (bits.len() == DEFAULT_BITS / 64).then_some(DistinctCounter { bits })
    }
}

/// Stable hash of a datum for NDV purposes, shared with the engine's
/// GROUP BY and COUNT DISTINCT. Int and Float hash by value class so `1`
/// and `1.0` count once, mirroring SQL equality.
///
/// Word-at-a-time: a fixed-width value is one `fmix64` (a bijection, so
/// distinct integers never collide), a string folds 8 bytes per step.
pub fn hash_datum(d: &Datum) -> u64 {
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
pub fn hash_int(v: i64) -> u64 {
    fmix64(v as u64)
}

/// [`hash_datum`] of a float: integral values hash like the integer.
/// The integrality test is a round trip through `i64` (no libm call), and
/// the two candidate words are selected without a branch; NaN and values
/// beyond the `i64` range hash by their bits.
#[inline]
pub fn hash_float(v: f64) -> u64 {
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
pub fn hash_str(s: &str) -> u64 {
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
pub fn hash_bool(b: bool) -> u64 {
    fmix64(u64::from(b) ^ BOOL_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cardinalities_are_near_exact() {
        let mut c = DistinctCounter::default_size();
        for i in 0..100 {
            c.add(&Datum::Int(i));
            c.add(&Datum::Int(i)); // duplicates ignored
        }
        let e = c.estimate();
        assert!((e - 100.0).abs() < 10.0, "estimate = {e}");
    }

    #[test]
    fn medium_cardinalities_within_tolerance() {
        let mut c = DistinctCounter::default_size();
        for i in 0..5_000 {
            c.add(&Datum::Int(i * 7919));
        }
        let e = c.estimate();
        assert!((e - 5_000.0).abs() / 5_000.0 < 0.1, "estimate = {e}");
    }

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

    #[test]
    fn empty_estimates_zero() {
        let c = DistinctCounter::default_size();
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn words_round_trip_preserves_estimate_and_stream() {
        let mut a = DistinctCounter::default_size();
        for i in 0..3_000 {
            a.add(&Datum::Int(i * 31));
        }
        let mut b = DistinctCounter::from_words(a.words().to_vec()).expect("default size");
        assert_eq!(a.estimate(), b.estimate());
        for i in 0..500 {
            a.add(&Datum::Int(i * 7 + 1));
            b.add(&Datum::Int(i * 7 + 1));
        }
        assert_eq!(a.estimate(), b.estimate());
        assert!(DistinctCounter::from_words(Vec::new()).is_none());
        assert!(DistinctCounter::from_words(vec![0; 3]).is_none());
    }
}
