//! Seeded, splittable randomness for reproducible experiments.
//!
//! Every workload generator and adversarial schedule in the experiment
//! harness draws from a [`SimRng`] derived from a single master seed, so any
//! run can be replayed exactly. Sub-streams are derived with a SplitMix64
//! finalizer over `(seed, label)` so adding a new consumer never perturbs the
//! draws seen by existing ones.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random source tied to a master seed.
///
/// # Example
///
/// ```
/// use rand::RngCore;
/// use swap_sim::SimRng;
/// let mut a = SimRng::from_seed(42);
/// let mut b = SimRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Sub-streams are independent of draw order on the parent.
/// let s1 = SimRng::from_seed(42).stream("chains").next_u64();
/// let mut parent = SimRng::from_seed(42);
/// parent.next_u64();
/// let s2 = parent.stream("chains").next_u64();
/// assert_eq!(s1, s2);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit master seed.
    pub fn from_seed(seed: u64) -> Self {
        SimRng { seed, inner: StdRng::seed_from_u64(splitmix64(seed)) }
    }

    /// The master seed this generator was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent sub-stream named `label`.
    ///
    /// The sub-stream depends only on `(master seed, label)`, never on how
    /// many values have been drawn from `self`.
    pub fn stream(&self, label: &str) -> SimRng {
        let mut h = self.seed;
        for &b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        SimRng::from_seed(h)
    }

    /// Derives an independent sub-stream indexed by an integer, e.g. one per
    /// simulated party.
    pub fn stream_indexed(&self, label: &str, index: u64) -> SimRng {
        let base = self.stream(label);
        SimRng::from_seed(splitmix64(base.seed ^ index.rotate_left(17)))
    }

    /// Uniform draw in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        self.inner.gen_range(0..bound)
    }

    /// Uniform draw in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "between requires lo <= hi");
        self.inner.gen_range(lo..=hi)
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// Returns 32 random bytes (handy for secrets and seeds).
    pub fn bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.inner.fill_bytes(&mut out);
        out
    }

    /// Fisher–Yates shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// SplitMix64 finalizer: a strong 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "independent streams should almost never collide");
    }

    #[test]
    fn streams_are_order_independent() {
        let direct = SimRng::from_seed(99).stream("x").next_u64();
        let mut parent = SimRng::from_seed(99);
        for _ in 0..10 {
            parent.next_u64();
        }
        assert_eq!(parent.stream("x").next_u64(), direct);
    }

    #[test]
    fn distinct_labels_distinct_streams() {
        let a = SimRng::from_seed(5).stream("alpha").next_u64();
        let b = SimRng::from_seed(5).stream("beta").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_distinct() {
        let a = SimRng::from_seed(5).stream_indexed("party", 0).next_u64();
        let b = SimRng::from_seed(5).stream_indexed("party", 1).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn between_inclusive() {
        let mut rng = SimRng::from_seed(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = rng.between(2, 4);
            assert!((2..=4).contains(&v));
            saw_lo |= v == 2;
            saw_hi |= v == 4;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        SimRng::from_seed(0).below(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::from_seed(21);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let expected: Vec<u32> = (0..50).collect();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn bytes32_deterministic() {
        let a = SimRng::from_seed(77).bytes32();
        let b = SimRng::from_seed(77).bytes32();
        assert_eq!(a, b);
        assert_ne!(a, [0u8; 32]);
    }
}
