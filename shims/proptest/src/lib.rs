//! Offline shim for `proptest`: a deterministic property-test runner with
//! the same macro/strategy surface AlayaDB's test suites use.
//!
//! Differences from the real crate, by design:
//!
//! * **Deterministic.** Every test's input stream is seeded from a hash of
//!   its `module_path!()::name` plus the case number, so tier-1 runs are
//!   exactly reproducible — no persistence files, no environment-dependent
//!   seeding. (This also discharges the repo's "make property tests
//!   deterministic" requirement at the runner level.)
//! * **No shrinking.** A failing case panics with the case number; re-runs
//!   produce the identical input, which substitutes for shrink persistence.
//! * **Subset surface.** `proptest!`, `prop_assert!`, `prop_assert_eq!`,
//!   `#![proptest_config(ProptestConfig::with_cases(n))]`, range and tuple
//!   strategies, `prop::collection::vec`, `prop::bool::ANY`, `Just`,
//!   `prop_map`, `prop_flat_map`, `prop_filter`. String patterns are not
//!   strategies: a test that wants strings maps a vec of drawn chars.

pub mod strategy;
pub mod test_runner;

/// The `proptest::prelude::prop` module tree.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::collection_vec as vec;
    }

    /// Boolean strategies.
    pub mod bool {
        /// Uniformly random `bool`.
        pub const ANY: crate::strategy::AnyBool = crate::strategy::AnyBool;
    }

    pub use crate::strategy::{Just, Strategy};
}

/// Everything a test file needs via `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs `body` over `Config::cases` generated
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let __test_path = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__config.cases {
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(__test_path, __case);
                $(let $p = $crate::strategy::Strategy::generate(&($s), &mut __rng);)+
                if let Err(e) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || $body,
                )) {
                    eprintln!(
                        "proptest case {__case}/{} failed for {__test_path} \
                         (deterministic seed; rerun reproduces it)",
                        __config.cases
                    );
                    ::std::panic::resume_unwind(e);
                }
            }
        }
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
}
