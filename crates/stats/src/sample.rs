//! Reservoir sampling (Li's Algorithm L).
//!
//! Algorithm R draws a random number for every value offered once the
//! reservoir is full. Algorithm L (Li, *Reservoir-Sampling Algorithms of
//! Time Complexity O(n(1 + log(N/n)))*, 1994) instead draws, at each
//! acceptance, how many offers to skip before the next one: the weight `w`
//! shrinks by a factor `U^(1/k)` per acceptance, and the gap is
//! `floor(ln U' / ln(1 - w))`. A stream of `N` offers into a reservoir of
//! `k` then costs `O(k (1 + ln(N/k)))` draws, and an offer that is not
//! accepted is one compare against the precomputed next acceptance — which
//! lets `Reservoir::offer_run` jump over a whole run of offers straight to
//! the accepted ones, naming the slot each takes; the caller materializes
//! only the values that stay.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use nodb_rawcsv::Datum;

/// Fixed-capacity uniform sample over a stream of datums.
///
/// Deterministic: seeded at construction, so the same offer sequence yields
/// the same sample — experiments stay reproducible. The state depends only
/// on the sequence of offered values, not on how it was split into calls.
#[derive(Debug)]
pub struct Reservoir {
    sample: Vec<Datum>,
    capacity: usize,
    /// Values offered so far.
    seen: u64,
    rng: StdRng,
    /// Algorithm L's weight: the largest of `k` uniform keys drawn so far
    /// is `w`; 1 until the reservoir first fills.
    w: f64,
    /// Offer number (1-based, in `seen`'s count) of the next acceptance.
    /// Meaningful once the reservoir is full; always `> seen` then.
    next: u64,
}

impl Reservoir {
    /// Reservoir of `capacity` elements, seeded with `seed`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            sample: Vec::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
            w: 1.0,
            next: 0,
        }
    }

    /// Offer one (non-null) value to the reservoir.
    #[inline]
    pub fn offer(&mut self, d: &Datum) {
        self.offer_with(|| d.clone());
    }

    /// Offer one (non-null) value that is only materialized (`make`) if it
    /// enters the sample.
    #[inline]
    pub(crate) fn offer_with(&mut self, make: impl FnOnce() -> Datum) {
        let mut taken = None;
        self.offer_run(1, |_, slot| taken = Some(slot));
        if let Some(slot) = taken {
            self.set(slot, make());
        }
    }

    /// Offer a run of `n` (non-null) values without reading any of them:
    /// for each one that enters the sample, in order, `accept(i, slot)`
    /// gets its index in the run and the slot it takes. The slot holds a
    /// placeholder until the caller [`Self::set`]s it — which it must do
    /// before the sample is read or exported; a later acceptance into the
    /// same slot supersedes an earlier one, so a caller offering several
    /// runs need only materialize each slot's last acceptance. The same
    /// state as `n` single offers of those values; the cost is one call and
    /// one set of draws per acceptance, nothing per skipped offer.
    #[inline]
    pub(crate) fn offer_run(&mut self, n: u64, mut accept: impl FnMut(u64, usize)) {
        let start = self.seen;
        let end = start.saturating_add(n);
        while self.sample.len() < self.capacity && self.seen < end {
            accept(self.seen - start, self.sample.len());
            self.sample.push(Datum::Null);
            self.seen += 1;
            if self.sample.len() == self.capacity {
                self.schedule();
            }
        }
        if self.sample.len() < self.capacity {
            return;
        }
        while self.next <= end {
            // Multiply-shift maps 64 random bits onto the slots without a
            // division (bias below capacity / 2^64).
            let slot = ((u128::from(self.rng.next_u64()) * self.capacity as u128) >> 64) as usize; // lint: cast-ok below capacity
            accept(self.next - 1 - start, slot);
            self.seen = self.next;
            self.schedule();
        }
        self.seen = end;
    }

    /// Fill `slot` with the value [`Self::offer_run`] accepted into it.
    pub(crate) fn set(&mut self, slot: usize, d: Datum) {
        if let Some(s) = self.sample.get_mut(slot) {
            *s = d;
        }
    }

    /// Draw the weight after an acceptance (or after the fill) and the gap
    /// to the next acceptance.
    fn schedule(&mut self) {
        let k = self.capacity as f64;
        self.w *= (self.unit().ln() / k).exp();
        // `ln_1p` keeps the denominator exact as `w` gets small; `w = 1`
        // gives a gap of 0, and a gap beyond `u64` saturates.
        let gap = (self.unit().ln() / (-self.w).ln_1p()).floor();
        self.next = self.seen.saturating_add(gap as u64).saturating_add(1);
    }

    /// Uniform in `(0, 1]` with 53 bits of precision (never 0, so its
    /// logarithm is finite).
    fn unit(&mut self) -> f64 {
        ((self.rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The current sample (unordered).
    pub fn sample(&self) -> &[Datum] {
        &self.sample
    }

    /// Number of sampled values currently held.
    pub fn len(&self) -> usize {
        self.sample.len()
    }

    /// True when nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.sample.is_empty()
    }

    /// Reset (file replaced).
    pub fn clear(&mut self) {
        self.sample.clear();
        self.seen = 0;
        self.w = 1.0;
        self.next = 0;
    }

    /// Export the full state — sample, capacity, stream position, RNG
    /// state and Algorithm L's weight and next acceptance — so a restored
    /// reservoir continues the exact stream a restart interrupted
    /// (byte-identical samples either way).
    pub fn export_state(&self) -> ReservoirState {
        ReservoirState {
            sample: self.sample.clone(),
            capacity: self.capacity,
            seen: self.seen,
            rng: self.rng.to_state(),
            w: self.w,
            next: self.next,
        }
    }

    /// Rebuild a reservoir from [`Self::export_state`]. Returns `None` when
    /// the state is inconsistent — more samples than capacity, a reservoir
    /// that is not full yet dropped a value it was offered, a weight that is not a finite number in `(0, 1]`, or,
    /// on a full reservoir, a next acceptance not after the values seen —
    /// restored sidecars are untrusted input.
    pub fn from_state(state: ReservoirState) -> Option<Self> {
        let full = state.sample.len() == state.capacity;
        if state.capacity == 0
            || state.sample.len() > state.capacity
            || (!full && state.sample.len() as u64 != state.seen)
            || !(state.w > 0.0 && state.w <= 1.0)
            || (full && state.next <= state.seen)
        {
            return None;
        }
        Some(Reservoir {
            sample: state.sample,
            capacity: state.capacity,
            seen: state.seen,
            rng: StdRng::from_state(state.rng),
            w: state.w,
            next: state.next,
        })
    }
}

/// Serializable snapshot of a [`Reservoir`]'s full state.
#[derive(Debug, Clone)]
pub struct ReservoirState {
    /// The held sample, in slot order.
    pub sample: Vec<Datum>,
    /// Reservoir capacity.
    pub capacity: usize,
    /// Values offered so far.
    pub seen: u64,
    /// Raw xoshiro256++ state mid-stream.
    pub rng: [u64; 4],
    /// Algorithm L's weight, in `(0, 1]`.
    pub w: f64,
    /// Offer number of the next acceptance (`> seen` once full).
    pub next: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_capacity_then_samples() {
        let mut r = Reservoir::new(10, 1);
        for i in 0..100 {
            r.offer(&Datum::Int(i));
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.seen(), 100);
    }

    #[test]
    fn short_streams_keep_everything() {
        let mut r = Reservoir::new(100, 1);
        for i in 0..5 {
            r.offer(&Datum::Int(i));
        }
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut r = Reservoir::new(8, seed);
            for i in 0..1000 {
                r.offer(&Datum::Int(i));
            }
            r.sample().to_vec()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Mean of a uniform sample over 0..10000 should be near 5000.
        let mut r = Reservoir::new(200, 3);
        for i in 0..10_000 {
            r.offer(&Datum::Int(i));
        }
        let mean: f64 = r.sample().iter().filter_map(Datum::as_float).sum::<f64>() / r.len() as f64;
        assert!((mean - 5000.0).abs() < 1500.0, "mean = {mean}");
    }

    #[test]
    fn clear_resets() {
        let mut r = Reservoir::new(4, 1);
        r.offer(&Datum::Int(1));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.seen(), 0);
    }

    #[test]
    fn state_round_trip_continues_stream_identically() {
        let mut a = Reservoir::new(8, 7);
        for i in 0..500 {
            a.offer(&Datum::Int(i));
        }
        let mut b = Reservoir::from_state(a.export_state()).expect("consistent state");
        assert_eq!(a.sample(), b.sample());
        assert_eq!(a.seen(), b.seen());
        // The replacement stream after the checkpoint must match exactly.
        for i in 500..2000 {
            a.offer(&Datum::Int(i));
            b.offer(&Datum::Int(i));
        }
        assert_eq!(a.sample(), b.sample());
    }

    /// Offers split into runs of any length leave exactly the state of one
    /// offer at a time — sample, stream position, RNG, weight and next
    /// acceptance — and a run materializes only each slot's last
    /// acceptance.
    #[test]
    fn runs_equal_single_offers() {
        for cap in [1usize, 8, 64] {
            let mut single = Reservoir::new(cap, 11);
            let mut runs = Reservoir::new(cap, 11);
            let mut made = 0u64;
            let mut at = 0i64;
            for len in [0u64, 1, 3, 5, 100, 7, 1_000, 20_000, 1, 64] {
                for i in 0..len as i64 {
                    single.offer(&Datum::Int(at + i));
                }
                let mut taken = vec![None; cap];
                runs.offer_run(len, |i, slot| taken[slot] = Some(at + i as i64));
                for (slot, v) in taken.into_iter().enumerate() {
                    if let Some(v) = v {
                        made += 1;
                        runs.set(slot, Datum::Int(v));
                    }
                }
                at += len as i64;
            }
            assert_eq!(
                format!("{:?}", single.export_state()),
                format!("{:?}", runs.export_state()),
                "capacity {cap}"
            );
            assert!(
                made < at as u64 / 10,
                "capacity {cap}: {made} of {at} built"
            );
        }
    }

    #[test]
    fn from_state_rejects_bad_skip_state() {
        let mut full = Reservoir::new(4, 1);
        for i in 0..100 {
            full.offer(&Datum::Int(i));
        }
        let ok = full.export_state();
        assert!(ok.next > ok.seen && ok.w > 0.0 && ok.w <= 1.0);
        for w in [f64::NAN, f64::INFINITY, 0.0, -0.5, 1.5] {
            let s = ReservoirState { w, ..ok.clone() };
            assert!(Reservoir::from_state(s).is_none(), "w = {w}");
        }
        for next in [0, ok.seen] {
            let s = ReservoirState { next, ..ok.clone() };
            assert!(Reservoir::from_state(s).is_none(), "next = {next}");
        }
        let mut filling = Reservoir::new(4, 1).export_state();
        filling.sample = vec![Datum::Int(1)];
        filling.seen = 2; // dropped an offer while not full
        assert!(Reservoir::from_state(filling).is_none());
        assert!(Reservoir::from_state(ok).is_some());
    }

    #[test]
    fn from_state_rejects_inconsistent_shapes() {
        let r = Reservoir::new(4, 1);
        let mut s = r.export_state();
        s.sample = vec![Datum::Int(1); 8]; // more than capacity
        assert!(Reservoir::from_state(s).is_none());
        let mut s2 = Reservoir::new(4, 1).export_state();
        s2.sample = vec![Datum::Int(1)];
        s2.seen = 0; // samples without offers
        assert!(Reservoir::from_state(s2).is_none());
        let mut s3 = Reservoir::new(4, 1).export_state();
        s3.capacity = 0;
        assert!(Reservoir::from_state(s3).is_none());
    }
}
