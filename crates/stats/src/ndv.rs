//! Distinct-value estimation by linear counting.
//!
//! A fixed bitmap of `m` bits; each value hashes to one bit. The estimate is
//! `-m * ln(z/m)` where `z` is the number of zero bits — accurate to a few
//! percent while NDV stays below ~`m`, which is plenty for selectivity
//! estimation (the optimizer only needs the right order of magnitude).

use nodb_rawcsv::reader::fnv1a;
use nodb_rawcsv::Datum;

/// Linear-counting NDV estimator.
#[derive(Debug, Clone)]
pub struct DistinctCounter {
    bits: Vec<u64>,
    mbits: usize,
    set: usize,
}

impl DistinctCounter {
    /// Estimator with `mbits` bits (rounded up to a multiple of 64).
    pub fn new(mbits: usize) -> Self {
        let words = mbits.max(64).div_ceil(64);
        DistinctCounter {
            bits: vec![0; words],
            mbits: words * 64,
            set: 0,
        }
    }

    /// Default size: 16 Ki bits (2 KiB), good to ~10k distinct values.
    pub fn default_size() -> Self {
        DistinctCounter::new(16 * 1024)
    }

    /// Record one value.
    pub fn add(&mut self, d: &Datum) {
        self.add_hash(hash_datum(d));
    }

    /// Record one value by its [`hash_datum`]-compatible hash.
    pub(crate) fn add_hash(&mut self, h: u64) {
        let m = self.mbits as u64;
        // Same bit either way; the mask spares the default (power-of-two)
        // size a 64-bit division per value.
        let bit = if m.is_power_of_two() {
            h & (m - 1)
        } else {
            h % m
        } as usize;
        let word = bit / 64;
        let mask = 1u64 << (bit % 64);
        if self.bits[word] & mask == 0 {
            self.bits[word] |= mask;
            self.set += 1;
        }
    }

    /// Estimated number of distinct values recorded.
    pub fn estimate(&self) -> f64 {
        let m = self.mbits as f64;
        let z = (self.mbits - self.set) as f64;
        if self.set == 0 {
            return 0.0;
        }
        if z < 1.0 {
            // Saturated: lower bound.
            return m;
        }
        m * (m / z).ln()
    }

    /// Reset (file replaced).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.set = 0;
    }

    /// The raw bitmap words (snapshot export; `mbits` is implied by the
    /// word count and `set` by the popcount, so the bits are the whole
    /// state).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuild a counter from exported bitmap words. Returns `None` on an
    /// empty word list (a counter always holds at least one word).
    pub fn from_words(bits: Vec<u64>) -> Option<Self> {
        if bits.is_empty() {
            return None;
        }
        let set = bits.iter().map(|w| w.count_ones() as usize).sum();
        let mbits = bits.len() * 64;
        Some(DistinctCounter { bits, mbits, set })
    }
}

/// Stable hash of a datum for NDV purposes. Int and Float hash by value
/// class so `1` and `1.0` count once, mirroring SQL equality.
pub fn hash_datum(d: &Datum) -> u64 {
    match d {
        Datum::Null => 0x6e75_6c6c,
        Datum::Int(v) => hash_int(*v),
        Datum::Float(v) => hash_float(*v),
        Datum::Str(s) => hash_str(s),
        Datum::Bool(b) => hash_bool(*b),
    }
}

/// [`hash_datum`] of an integer.
pub(crate) fn hash_int(v: i64) -> u64 {
    fnv1a(&v.to_le_bytes())
}

/// [`hash_datum`] of a float: integral values hash like the integer.
pub(crate) fn hash_float(v: f64) -> u64 {
    if v.fract() == 0.0 && v.abs() < 9e18 {
        hash_int(v as i64)
    } else {
        fnv1a(&v.to_bits().to_le_bytes())
    }
}

/// [`hash_datum`] of a string.
pub(crate) fn hash_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// [`hash_datum`] of a boolean.
pub(crate) fn hash_bool(b: bool) -> u64 {
    fnv1a(&[b as u8])
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

    #[test]
    fn empty_estimates_zero() {
        let c = DistinctCounter::default_size();
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut c = DistinctCounter::new(64);
        c.add(&Datum::Int(1));
        c.clear();
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn words_round_trip_preserves_estimate_and_stream() {
        let mut a = DistinctCounter::default_size();
        for i in 0..3_000 {
            a.add(&Datum::Int(i * 31));
        }
        let mut b = DistinctCounter::from_words(a.words().to_vec()).expect("non-empty");
        assert_eq!(a.estimate(), b.estimate());
        for i in 0..500 {
            a.add(&Datum::Int(i * 7 + 1));
            b.add(&Datum::Int(i * 7 + 1));
        }
        assert_eq!(a.estimate(), b.estimate());
        assert!(DistinctCounter::from_words(Vec::new()).is_none());
    }
}
