//! Deterministic, seed-driven failpoints for the allocator's layer
//! boundaries.
//!
//! Real kernels test their out-of-memory behaviour with fault injection
//! (Linux's `failslab`/`fail_page_alloc`); this module is the in-tree
//! equivalent for the McKenney & Slingwine reproduction. A failpoint is a
//! named *site* — `faults::PHYS_CLAIM`, `faults::PERCPU_REFILL`, … — that a
//! layer consults at the top of a fallible operation:
//!
//! ```text
//! if self.faults.hit(faults::PHYS_CLAIM) { return Err(...); }
//! ```
//!
//! Each site carries an independently configurable [`FailPolicy`]:
//! fail-every-Nth, fail-after-K, probabilistic from a SplitMix64 seed, or a
//! one-shot scripted sequence. Everything is deterministic given the
//! policies and seeds, so a failing torture run reproduces exactly.
//!
//! Plans are *handle-scoped*, not process-global: a [`Faults`] handle wraps
//! an optional [`Arc<FaultPlan>`], and an arena built with `Faults::none()`
//! (the default) pays one branch on an always-`None` option per *slow-path*
//! consultation — the per-CPU cache hit path never reaches a failpoint at
//! all. Tests running in parallel threads therefore never see each other's
//! fault configuration.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::spinlock::SpinLock;

/// Failpoint site: [`crate::faults`] consult in the physical frame pool's
/// `claim`.
pub const PHYS_CLAIM: &str = "phys.claim";
/// Failpoint site: carving a fresh vmblk out of the kernel space.
pub const VM_CARVE: &str = "vm.carve";
/// Failpoint site: the coalesce-to-page layer acquiring / carving a page.
pub const PAGE_GET: &str = "page.get";
/// Failpoint site: the coalesce-to-page layer's claim of a fully free page
/// (a firing consult defers the whole-page release, leaving the page
/// listed for a later possessor to reclaim).
pub const PAGE_COALESCE: &str = "page.coalesce";
/// Failpoint site: the global layer's chain get (injects a miss).
pub const GLOBAL_GET: &str = "global.get";
/// Failpoint site: the global layer's spill boundary (forces an early
/// spill-to-page instead of suppressing one — spills must never be lost).
pub const GLOBAL_SPILL: &str = "global.spill";
/// Failpoint site: the global layer's cross-node steal (a firing consult
/// skips the remote shards, forcing the refill down to the page layer).
pub const GLOBAL_STEAL: &str = "global.steal";
/// Failpoint site: installing a refill chain into a per-CPU cache.
pub const PERCPU_REFILL: &str = "percpu.refill";

/// Every registered failpoint site, in layer order (outermost backend
/// first). Torture drivers iterate this to arm each site in rotation.
pub const ALL_SITES: [&str; 8] = [
    PHYS_CLAIM,
    VM_CARVE,
    PAGE_GET,
    PAGE_COALESCE,
    GLOBAL_GET,
    GLOBAL_SPILL,
    GLOBAL_STEAL,
    PERCPU_REFILL,
];

/// SplitMix64 step (same constants as `kmem-testkit`'s seeder; duplicated
/// here because the substrate crate sits below the testkit in the
/// dependency order).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-site firing policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailPolicy {
    /// Never fire (the initial state of every site).
    Off,
    /// Fire on every `n`th hit (1 = every hit).
    EveryNth(u64),
    /// Fire on every hit after the first `k` (0 = every hit).
    AfterK(u64),
    /// Fire when the next SplitMix64 output's low 16 bits fall below
    /// `threshold` — i.e. with probability `threshold / 65536` — from a
    /// deterministic per-site stream seeded with `seed`.
    Prob {
        /// Firing threshold out of 65536.
        threshold: u16,
        /// Seed of the site's private SplitMix64 stream.
        seed: u64,
    },
    /// Consume one scripted verdict per hit; the site turns itself [`Off`]
    /// once the script is exhausted.
    ///
    /// [`Off`]: FailPolicy::Off
    Script(Vec<bool>),
}

impl FailPolicy {
    /// Whether this policy can ever fire (an empty script cannot).
    fn armed(&self) -> bool {
        match self {
            FailPolicy::Off => false,
            FailPolicy::EveryNth(_) | FailPolicy::AfterK(_) | FailPolicy::Prob { .. } => true,
            FailPolicy::Script(s) => !s.is_empty(),
        }
    }
}

struct SiteState {
    policy: FailPolicy,
    /// Private SplitMix64 state for `Prob`; script cursor storage reuses
    /// the policy itself.
    prob_state: u64,
    script: VecDeque<bool>,
    hits: u64,
    fired: u64,
}

impl SiteState {
    fn new() -> Self {
        SiteState {
            policy: FailPolicy::Off,
            prob_state: 0,
            script: VecDeque::new(),
            hits: 0,
            fired: 0,
        }
    }
}

/// Counters for one failpoint site, as returned by
/// [`FaultPlan::site_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    /// Site name (one of [`ALL_SITES`] unless callers invent their own).
    pub site: String,
    /// Times the site was consulted while the plan was armed.
    pub hits: u64,
    /// Times the site fired (reported failure).
    pub fired: u64,
}

/// A set of failpoint sites with their policies and counters.
///
/// Shared by [`Faults`] handles; all methods are thread-safe. Sites are
/// registered lazily on first [`set`](FaultPlan::set) or first armed hit.
pub struct FaultPlan {
    sites: SpinLock<BTreeMap<String, SiteState>>,
    /// Number of sites whose policy can currently fire. While zero, `hit`
    /// returns immediately without taking the lock (and without counting).
    armed: AtomicUsize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// Creates an empty plan with every site off.
    pub fn new() -> Self {
        FaultPlan {
            sites: SpinLock::new(BTreeMap::new()),
            armed: AtomicUsize::new(0),
        }
    }

    /// Installs `policy` at `site`, replacing the previous policy. Hit and
    /// fire counters for the site are preserved.
    pub fn set(&self, site: &str, policy: FailPolicy) {
        let mut sites = self.sites.lock();
        let st = sites.entry(site.to_string()).or_insert_with(SiteState::new);
        let was = st.policy.armed();
        let now = policy.armed();
        if let FailPolicy::Prob { seed, .. } = policy {
            st.prob_state = seed;
        }
        st.script = match &policy {
            FailPolicy::Script(s) => s.iter().copied().collect(),
            _ => VecDeque::new(),
        };
        st.policy = policy;
        match (was, now) {
            (false, true) => {
                self.armed.fetch_add(1, Ordering::Release);
            }
            (true, false) => {
                self.armed.fetch_sub(1, Ordering::Release);
            }
            _ => {}
        }
    }

    /// Turns every site off (counters are preserved).
    pub fn reset(&self) {
        let mut sites = self.sites.lock();
        for st in sites.values_mut() {
            st.policy = FailPolicy::Off;
            st.script.clear();
        }
        self.armed.store(0, Ordering::Release);
    }

    /// Consults `site`: returns `true` if the injected operation should
    /// fail. While no site is armed this is one atomic load and a branch.
    pub fn hit(&self, site: &str) -> bool {
        if self.armed.load(Ordering::Acquire) == 0 {
            return false;
        }
        let mut sites = self.sites.lock();
        let st = sites.entry(site.to_string()).or_insert_with(SiteState::new);
        st.hits += 1;
        let fire = match &st.policy {
            FailPolicy::Off => false,
            FailPolicy::EveryNth(n) => *n != 0 && st.hits.is_multiple_of(*n),
            FailPolicy::AfterK(k) => st.hits > *k,
            FailPolicy::Prob { threshold, .. } => {
                (splitmix64(&mut st.prob_state) & 0xFFFF) < u64::from(*threshold)
            }
            FailPolicy::Script(_) => {
                let verdict = st.script.pop_front().unwrap_or(false);
                if st.script.is_empty() {
                    st.policy = FailPolicy::Off;
                    self.armed.fetch_sub(1, Ordering::Release);
                }
                verdict
            }
        };
        if fire {
            st.fired += 1;
        }
        fire
    }

    /// Per-site hit/fire counters, sorted by site name.
    pub fn site_stats(&self) -> Vec<SiteStats> {
        self.sites
            .lock()
            .iter()
            .map(|(site, st)| SiteStats {
                site: site.clone(),
                hits: st.hits,
                fired: st.fired,
            })
            .collect()
    }

    /// Total (hits, fired) summed over all sites.
    pub fn totals(&self) -> (u64, u64) {
        self.sites
            .lock()
            .values()
            .fold((0, 0), |(h, f), st| (h + st.hits, f + st.fired))
    }
}

impl core::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (hits, fired) = self.totals();
        f.debug_struct("FaultPlan")
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .field("hits", &hits)
            .field("fired", &fired)
            .finish()
    }
}

/// A cheap, cloneable handle to an optional [`FaultPlan`].
///
/// `Faults::none()` (also the `Default`) is a completely passive handle:
/// every consultation is a `None` check. `Faults::with_plan()` creates a
/// fresh shared plan whose policies are programmed through
/// [`plan`](Faults::plan).
#[derive(Clone, Default)]
pub struct Faults(Option<Arc<FaultPlan>>);

impl Faults {
    /// A handle with no plan: every site is permanently off.
    pub fn none() -> Self {
        Faults(None)
    }

    /// A handle owning a fresh, all-off plan.
    pub fn with_plan() -> Self {
        Faults(Some(Arc::new(FaultPlan::new())))
    }

    /// Whether this handle carries a plan at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The shared plan, if any — use it to [`set`](FaultPlan::set) policies
    /// or read [`site_stats`](FaultPlan::site_stats).
    pub fn plan(&self) -> Option<&Arc<FaultPlan>> {
        self.0.as_ref()
    }

    /// Consults `site` on the underlying plan; `false` without one.
    #[inline]
    pub fn hit(&self, site: &str) -> bool {
        match &self.0 {
            None => false,
            Some(plan) => plan.hit(site),
        }
    }

    /// Total (hits, fired) over all sites; zeros without a plan.
    pub fn totals(&self) -> (u64, u64) {
        self.0.as_ref().map_or((0, 0), |plan| plan.totals())
    }
}

impl core::fmt::Debug for Faults {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.0 {
            None => f.write_str("Faults(off)"),
            Some(plan) => write!(f, "Faults({plan:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_handle_never_fires_and_counts_nothing() {
        let faults = Faults::none();
        for _ in 0..100 {
            assert!(!faults.hit(PHYS_CLAIM));
        }
        assert_eq!(faults.totals(), (0, 0));
        assert!(!faults.is_enabled());
    }

    #[test]
    fn unarmed_plan_skips_counting() {
        let faults = Faults::with_plan();
        assert!(!faults.hit(PHYS_CLAIM));
        // All sites off: the fast path bails before the site map.
        assert_eq!(faults.totals(), (0, 0));
    }

    #[test]
    fn every_nth_fires_on_multiples() {
        let faults = Faults::with_plan();
        let plan = faults.plan().unwrap();
        plan.set(PAGE_GET, FailPolicy::EveryNth(3));
        let fired: Vec<bool> = (0..9).map(|_| faults.hit(PAGE_GET)).collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false, true]
        );
        let stats = plan.site_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].hits, 9);
        assert_eq!(stats[0].fired, 3);
    }

    #[test]
    fn after_k_fires_forever_past_the_threshold() {
        let faults = Faults::with_plan();
        faults
            .plan()
            .unwrap()
            .set(GLOBAL_GET, FailPolicy::AfterK(2));
        let fired: Vec<bool> = (0..5).map(|_| faults.hit(GLOBAL_GET)).collect();
        assert_eq!(fired, [false, false, true, true, true]);
    }

    #[test]
    fn prob_is_deterministic_per_seed_and_roughly_calibrated() {
        let run = |seed: u64| -> Vec<bool> {
            let faults = Faults::with_plan();
            faults.plan().unwrap().set(
                VM_CARVE,
                FailPolicy::Prob {
                    threshold: 0x8000, // 50 %
                    seed,
                },
            );
            (0..1000).map(|_| faults.hit(VM_CARVE)).collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce the same verdicts");
        let fires = a.iter().filter(|&&f| f).count();
        assert!(
            (300..700).contains(&fires),
            "50% policy fired {fires}/1000 times"
        );
        assert_ne!(a, run(43), "different seeds should diverge");
    }

    #[test]
    fn script_consumes_once_then_disarms() {
        let faults = Faults::with_plan();
        let plan = faults.plan().unwrap();
        plan.set(PERCPU_REFILL, FailPolicy::Script(vec![true, false, true]));
        assert!(faults.hit(PERCPU_REFILL));
        assert!(!faults.hit(PERCPU_REFILL));
        assert!(faults.hit(PERCPU_REFILL));
        // Script exhausted: the site turned itself off and disarmed the
        // plan, so further hits are uncounted fast-path exits.
        let (hits, fired) = faults.totals();
        assert!(!faults.hit(PERCPU_REFILL));
        assert_eq!(faults.totals(), (hits, fired));
        assert_eq!((hits, fired), (3, 2));
    }

    #[test]
    fn set_off_disarms_and_reset_clears_everything() {
        let faults = Faults::with_plan();
        let plan = faults.plan().unwrap();
        plan.set(PHYS_CLAIM, FailPolicy::AfterK(0));
        plan.set(PAGE_GET, FailPolicy::EveryNth(1));
        assert!(faults.hit(PHYS_CLAIM));
        plan.set(PHYS_CLAIM, FailPolicy::Off);
        assert!(faults.hit(PAGE_GET), "other sites stay armed");
        assert!(!faults.hit(PHYS_CLAIM));
        plan.reset();
        let (hits, _) = faults.totals();
        assert!(!faults.hit(PAGE_GET));
        assert_eq!(faults.totals().0, hits, "reset disarms the fast path");
    }

    #[test]
    fn policies_are_independent_per_site() {
        let faults = Faults::with_plan();
        let plan = faults.plan().unwrap();
        for (i, site) in ALL_SITES.iter().enumerate() {
            plan.set(site, FailPolicy::EveryNth(i as u64 + 1));
        }
        for (i, site) in ALL_SITES.iter().enumerate() {
            let n = i as u64 + 1;
            let fires = (0..12).filter(|_| faults.hit(site)).count() as u64;
            assert_eq!(fires, 12 / n, "site {site} with EveryNth({n})");
        }
    }
}
