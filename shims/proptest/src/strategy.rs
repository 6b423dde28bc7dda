//! Value-generation strategies.
//!
//! A [`Strategy`] here is simply "a way to draw one value from the test
//! RNG" — no shrink trees, since the shim runner reproduces failures by
//! determinism instead of shrinking.

use crate::test_runner::TestRng;
use rand::Rng;

/// A source of generated values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Rejects generated values failing `pred` (resampling; panics if the
    /// predicate rejects 1000 draws in a row).
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            pred,
        }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Clone, Debug)]
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 consecutive draws: {}",
            self.whence
        );
    }
}

/// Always generates a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniformly random `bool` (`prop::bool::ANY`).
#[derive(Clone, Copy, Debug)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.gen()
    }
}

// Numeric ranges are strategies, exactly as in proptest.
macro_rules! impl_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($S:ident . $idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Sizes accepted by [`collection_vec`]: an exact length or a length range.
pub trait SizeRange {
    /// Draws a length.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for core::ops::Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl SizeRange for core::ops::RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// `prop::collection::vec(element, size)`.
pub fn collection_vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
    VecStrategy { element, size }
}

/// See [`collection_vec`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S, Z> {
    element: S,
    size: Z,
}

impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::{collection_vec, Strategy};
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_tuples_vecs_compose() {
        let mut rng = TestRng::deterministic("strategy::compose", 0);
        let s = (1usize..4, -1.0f32..1.0)
            .prop_flat_map(|(n, x)| collection_vec(-2.0f32..2.0, n * 2).prop_map(move |v| (v, x)));
        for _ in 0..200 {
            let (v, x) = s.generate(&mut rng);
            assert!(v.len() >= 2 && v.len() <= 6 && v.len() % 2 == 0);
            assert!((-1.0..1.0).contains(&x));
            assert!(v.iter().all(|f| (-2.0..2.0).contains(f)));
        }
    }

    #[test]
    fn inclusive_range_hits_bounds() {
        let mut rng = TestRng::deterministic("strategy::bounds", 0);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[(3usize..=5).generate(&mut rng) - 3] = true;
        }
        assert_eq!(seen, [true; 3]);
    }
}
