//! The seeded random-number subset the workspace uses.
//!
//! It implements exactly the API surface the workspace touches
//! (`SmallRng`, `SeedableRng`, `Rng::{gen, gen_range,
//! gen_bool}`, `seq::SliceRandom::{choose, shuffle}`) over a
//! SplitMix64 generator, with the names and paths of the `rand` crate
//! so call sites read the same. The streams are pinned by the tests at
//! the bottom of this file: every recorded seed and benchmark number
//! depends on them, so a change there is a breaking change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The SplitMix64 finalizer: a bijective 64-bit mixer. [`rngs::SmallRng`]
/// applies it to a Weyl sequence; the workspace's digests, fault
/// decisions and benchmark streams use it directly.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The SplitMix64 Weyl increment (the golden-ratio constant).
pub const SPLITMIX64_GAMMA: u64 = 0x9E3779B97F4A7C15;

/// Core source of randomness.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction (only `seed_from_u64` is provided).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Uniform sampling from a range type.
pub trait SampleRange<T> {
    /// Samples one value.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
int_range!(usize, u64, u32, u16, u8, i64, i32, i16, i8);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// Types producible by `Rng::gen`.
pub trait Standard {
    /// Generates one value.
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// User-facing sampling methods, blanket-implemented for every core.
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli trial with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    /// A value of a `Standard`-distributed type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::generate(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    /// Small fast PRNG: SplitMix64.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        state: u64,
    }

    impl crate::RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(crate::SPLITMIX64_GAMMA);
            crate::splitmix64(self.state)
        }
    }

    impl crate::SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> Self {
            SmallRng { state }
        }
    }
}

/// Slice sampling helpers.
pub mod seq {
    /// Random element choice and shuffling for slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: crate::RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
        /// In-place Fisher–Yates shuffle.
        fn shuffle<R: crate::RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: crate::RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.next_u64() as usize % self.len())
            }
        }

        fn shuffle<R: crate::RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.next_u64() as usize % (i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    /// A seed, its first 8 `next_u64` outputs, its first 8
    /// `gen_range(0..10)` draws, and its shuffle of `0..10`.
    type Pinned = (u64, [u64; 8], [usize; 8], [u32; 10]);

    /// If any of these change, every recorded seed and benchmark number
    /// in the repository stops being comparable.
    #[rustfmt::skip]
    const PINNED: [Pinned; 2] = [
        (0, [16294208416658607535, 7960286522194355700, 487617019471545679, 17909611376780542444,
             1961750202426094747, 6038094601263162090, 3207296026000306913, 14232521865600346940],
         [5, 0, 9, 4, 7, 0, 3, 0], [6, 3, 2, 9, 8, 1, 4, 7, 0, 5]),
        (42, [13679457532755275413, 2949826092126892291, 5139283748462763858, 6349198060258255764,
              701532786141963250, 16015981125662989062, 4028864712777624925, 14769051326987775908],
         [3, 1, 8, 4, 0, 2, 5, 8], [0, 9, 5, 8, 6, 4, 7, 2, 1, 3]),
    ];

    #[test]
    fn streams_are_pinned() {
        for (seed, next, range, shuffled) in PINNED {
            let mut rng = SmallRng::seed_from_u64(seed);
            let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            assert_eq!(got, next, "next_u64, seed {seed}");
            let mut rng = SmallRng::seed_from_u64(seed);
            let got: Vec<usize> = (0..8).map(|_| rng.gen_range(0..10)).collect();
            assert_eq!(got, range, "gen_range, seed {seed}");
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut v: Vec<u32> = (0..10).collect();
            v.shuffle(&mut rng);
            assert_eq!(v, shuffled, "shuffle, seed {seed}");
        }
    }
}
