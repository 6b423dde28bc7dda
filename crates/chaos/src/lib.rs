//! `alaya-chaos` — deterministic fault injection for the serving stack.
//!
//! Chaos testing only earns its keep when a failing run can be replayed:
//! like the proptest shim (which seeds every test case from its test path,
//! see `shims/README.md`), every decision here is a pure function of the
//! harness-chosen seed. A [`Chaos`] registry holds named *failpoints*
//! ("sites"); production code probes a site through [`Chaos::fire_panic`]
//! or [`Chaos::fire_delay`], which inject the fault when the site fires. Each
//! site draws from its own splitmix64 stream, seeded from
//! `global seed ⊕ FNV-1a(site name)`, so
//!
//! * the decision sequence at a site depends only on `(seed, site name,
//!   call index)` — never on what other sites did, on thread timing, or on
//!   ambient entropy (none is ever read);
//! * adding a new site does not perturb existing sites' sequences.
//!
//! Sites are *armed* by tests ([`Chaos::arm_limited`],
//! [`Chaos::arm_delay`]); an unarmed site always answers "don't fire" and
//! does not advance its stream, so production code can probe sites
//! unconditionally at zero behavioral cost. Call/fire counters per site
//! let tests assert the fault actually happened.
//!
//! The crate is a leaf on purpose: no alaya dependencies, so device and
//! serve can both hold failpoints without dependency cycles.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// splitmix64: tiny, full-period, and statistically fine for fault
/// scheduling (the same generator rand's `SeedableRng::seed_from_u64`
/// uses for seed expansion).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name: stable across runs and platforms, so a
/// site's stream is pinned by its name alone.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One armed failpoint's state.
struct Site {
    /// Probability each call fires, in `[0, 1]`.
    probability: f64,
    /// Remaining fires before the site exhausts (`None` = unlimited).
    remaining: Option<u64>,
    /// Injected delay handed back on fire (delay sites).
    delay: Option<Duration>,
    /// This site's private PRNG state.
    rng: u64,
    calls: u64,
    fires: u64,
}

/// A seeded registry of named failpoints. Cheap to clone via `Arc`; one
/// registry is typically shared by a test and every component it injects
/// into.
pub struct Chaos {
    seed: u64,
    sites: Mutex<HashMap<String, Site>>,
}

impl Chaos {
    /// A registry whose every decision is determined by `seed`.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(Self {
            seed,
            sites: Mutex::new_named(HashMap::new(), "chaos.sites"),
        })
    }

    /// The seed this registry was built with (for failure-report replay).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn arm_site(
        &self,
        site: &str,
        probability: f64,
        remaining: Option<u64>,
        delay: Option<Duration>,
    ) {
        let rng = self.seed ^ fnv1a(site);
        self.sites.lock().insert(
            site.to_string(),
            Site {
                probability: probability.clamp(0.0, 1.0),
                remaining,
                delay,
                // Never let the stream state start at 0 for the unlucky
                // seed that cancels the hash: 0 is a fine splitmix64 seed,
                // but mixing in a constant keeps streams distinct anyway.
                rng: rng ^ 0x6A09_E667_F3BC_C908,
                calls: 0,
                fires: 0,
            },
        );
    }

    /// Arms `site` to fire with `probability`, at most `max_fires` times
    /// total — the shape most chaos tests want ("inject a few faults, then
    /// let the system prove it recovered").
    pub fn arm_limited(&self, site: &str, probability: f64, max_fires: u64) {
        self.arm_site(site, probability, Some(max_fires), None);
    }

    /// Arms `site` as a delay point: [`Chaos::fire_delay`] returns
    /// `Some(delay)` with `probability` on each call.
    pub fn arm_delay(&self, site: &str, probability: f64, delay: Duration) {
        self.arm_site(site, probability, None, Some(delay));
    }

    /// Disarms `site`; subsequent calls never fire. Counters are kept.
    pub fn disarm(&self, site: &str) {
        if let Some(s) = self.sites.lock().get_mut(site) {
            s.probability = 0.0;
        }
    }

    /// Asks whether the fault at `site` should be injected on this call.
    /// Unarmed sites never fire.
    fn should_fire(&self, site: &str) -> bool {
        let mut sites = self.sites.lock();
        let Some(s) = sites.get_mut(site) else {
            return false;
        };
        s.calls += 1;
        if s.probability <= 0.0 || s.remaining == Some(0) {
            return false;
        }
        // Map the top 53 bits to [0, 1): exact for every representable f64.
        let draw = (splitmix64(&mut s.rng) >> 11) as f64 / (1u64 << 53) as f64;
        let fire = draw < s.probability;
        if fire {
            s.fires += 1;
            if let Some(r) = &mut s.remaining {
                *r -= 1;
            }
        }
        fire
    }

    /// Probes a delay site: `Some(delay)` when the site fires. Unarmed
    /// (or delay-less) sites return `None`.
    pub fn fire_delay(&self, site: &str) -> Option<Duration> {
        let delay = self.sites.lock().get(site).and_then(|s| s.delay)?;
        if self.should_fire(site) {
            Some(delay)
        } else {
            None
        }
    }

    /// Probes a panic site: panics, naming `site`, when the site fires. A
    /// component probes it inside its own containment wrapper, so the
    /// injected panic walks the path a real one there would.
    pub fn fire_panic(&self, site: &str) {
        if self.should_fire(site) {
            panic!("chaos: injected panic at {site}");
        }
    }

    /// Times `site` has been consulted since arming.
    pub fn calls(&self, site: &str) -> u64 {
        self.sites.lock().get(site).map_or(0, |s| s.calls)
    }

    /// Times `site` has fired since arming.
    pub fn fires(&self, site: &str) -> u64 {
        self.sites.lock().get(site).map_or(0, |s| s.fires)
    }
}

impl std::fmt::Debug for Chaos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sites = self.sites.lock();
        let mut d = f.debug_struct("Chaos");
        d.field("seed", &self.seed);
        for (name, s) in sites.iter() {
            d.field(name, &format_args!("{}/{} fired", s.fires, s.calls));
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fire_and_cost_nothing() {
        let chaos = Chaos::new(7);
        for _ in 0..100 {
            assert!(!chaos.should_fire("never.armed"));
        }
        assert_eq!(chaos.fires("never.armed"), 0);
        assert_eq!(chaos.fire_delay("never.armed"), None);
    }

    #[test]
    fn same_seed_same_site_same_decision_sequence() {
        let a = Chaos::new(42);
        let b = Chaos::new(42);
        a.arm_limited("x", 0.5, u64::MAX);
        b.arm_limited("x", 0.5, u64::MAX);
        let seq_a: Vec<bool> = (0..256).map(|_| a.should_fire("x")).collect();
        let seq_b: Vec<bool> = (0..256).map(|_| b.should_fire("x")).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&f| f) && seq_a.iter().any(|&f| !f));
    }

    #[test]
    fn different_seeds_or_sites_give_different_streams() {
        let a = Chaos::new(1);
        let b = Chaos::new(2);
        a.arm_limited("x", 0.5, u64::MAX);
        a.arm_limited("y", 0.5, u64::MAX);
        b.arm_limited("x", 0.5, u64::MAX);
        let xa: Vec<bool> = (0..256).map(|_| a.should_fire("x")).collect();
        let ya: Vec<bool> = (0..256).map(|_| a.should_fire("y")).collect();
        let xb: Vec<bool> = (0..256).map(|_| b.should_fire("x")).collect();
        assert_ne!(xa, ya, "sites draw from independent streams");
        assert_ne!(xa, xb, "seed changes every stream");
    }

    #[test]
    fn fire_rate_tracks_probability() {
        let chaos = Chaos::new(9);
        chaos.arm_limited("p", 0.25, u64::MAX);
        let n = 4096;
        let fired = (0..n).filter(|_| chaos.should_fire("p")).count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
        assert_eq!(chaos.calls("p"), n as u64);
        assert_eq!(chaos.fires("p"), fired as u64);
    }

    #[test]
    fn limited_sites_exhaust_and_certain_sites_always_fire() {
        let chaos = Chaos::new(3);
        chaos.arm_limited("lim", 1.0, 3);
        let fired = (0..100).filter(|_| chaos.should_fire("lim")).count();
        assert_eq!(fired, 3, "exactly max_fires injections");
        chaos.arm_limited("always", 1.0, u64::MAX);
        assert!((0..50).all(|_| chaos.should_fire("always")));
    }

    #[test]
    fn delay_sites_hand_back_their_delay_and_disarm_stops_them() {
        let chaos = Chaos::new(5);
        let d = Duration::from_millis(7);
        chaos.arm_delay("slow", 1.0, d);
        assert_eq!(chaos.fire_delay("slow"), Some(d));
        assert!(!chaos.should_fire("not.a.delay.site"));
        chaos.disarm("slow");
        assert_eq!(chaos.fire_delay("slow"), None);
        assert!(chaos.calls("slow") >= 2, "disarmed calls still counted");
    }

    #[test]
    fn panic_sites_panic_naming_the_site_until_they_exhaust() {
        let chaos = Chaos::new(13);
        chaos.arm_limited("boom", 1.0, 1);
        let payload = std::panic::catch_unwind(|| chaos.fire_panic("boom")).unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert_eq!(msg, "chaos: injected panic at boom");
        chaos.fire_panic("boom");
        assert_eq!((chaos.calls("boom"), chaos.fires("boom")), (2, 1));
    }

    #[test]
    fn rearming_resets_the_stream() {
        let chaos = Chaos::new(11);
        chaos.arm_limited("r", 0.5, u64::MAX);
        let first: Vec<bool> = (0..64).map(|_| chaos.should_fire("r")).collect();
        chaos.arm_limited("r", 0.5, u64::MAX);
        let second: Vec<bool> = (0..64).map(|_| chaos.should_fire("r")).collect();
        assert_eq!(first, second, "arming rewinds the site to call index 0");
    }
}
