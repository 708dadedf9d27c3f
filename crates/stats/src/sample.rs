//! Reservoir sampling (Vitter's Algorithm R).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use nodb_rawcsv::Datum;

/// Fixed-capacity uniform sample over a stream of datums.
///
/// Deterministic: seeded at construction, so the same scan order yields the
/// same sample — experiments stay reproducible.
#[derive(Debug)]
pub struct Reservoir {
    sample: Vec<Datum>,
    capacity: usize,
    seen: u64,
    rng: StdRng,
}

impl Reservoir {
    /// Reservoir of `capacity` elements, seeded with `seed`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            sample: Vec::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Offer one (non-null) value to the reservoir.
    pub fn offer(&mut self, d: &Datum) {
        self.offer_with(|| d.clone());
    }

    /// Offer one (non-null) value that is only materialized (`make`) if it
    /// actually enters the sample. One RNG draw per offer once the reservoir
    /// is full, taken or not.
    pub(crate) fn offer_with(&mut self, make: impl FnOnce() -> Datum) {
        self.seen += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(make());
            return;
        }
        let j = self.rng.random_range(0..self.seen);
        if (j as usize) < self.capacity {
            self.sample[j as usize] = make();
        }
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
    }

    /// Export the full state — sample, capacity, stream position *and* RNG
    /// state — so a restored reservoir continues the exact replacement
    /// stream a restart interrupted (byte-identical samples either way).
    pub fn export_state(&self) -> ReservoirState {
        ReservoirState {
            sample: self.sample.clone(),
            capacity: self.capacity,
            seen: self.seen,
            rng: self.rng.to_state(),
        }
    }

    /// Rebuild a reservoir from [`Self::export_state`]. Returns `None` when
    /// the state is inconsistent (more samples than capacity, or more
    /// samples than values seen) — restored sidecars are untrusted input.
    pub fn from_state(state: ReservoirState) -> Option<Self> {
        if state.capacity == 0
            || state.sample.len() > state.capacity
            || (state.sample.len() as u64) > state.seen
        {
            return None;
        }
        Some(Reservoir {
            sample: state.sample,
            capacity: state.capacity,
            seen: state.seen,
            rng: StdRng::from_state(state.rng),
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
