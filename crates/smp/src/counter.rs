//! Cheap always-on event counters.
//!
//! The miss-rate experiment (paper §"Distributed Lock Manager Benchmark")
//! needs per-layer hit/miss counts that are cheap enough to leave enabled in
//! the hot path. Two flavours live here:
//!
//! * [`EventCounter`] — a shared counter incremented with an atomic RMW;
//!   used on slow paths where several CPUs may count the same event
//!   (global-pool gets/puts, page acquisitions).
//! * [`LocalCounter`] — a **single-writer** counter: the increment is a
//!   plain load/store pair, not an RMW, because only the owning CPU ever
//!   writes it. This is what the per-CPU cache statistics use; on a
//!   cache-line the CPU owns it costs the same as bumping a plain `u64`.
//!
//! Both publish with `Release` and are read with `Acquire`. On x86 those
//! compile to the same plain `mov` as `Relaxed`, and they buy a real
//! guarantee for observers: if the owner bumps counter A *before* counter
//! B (e.g. `alloc` before `alloc_miss`), a snapshot thread that reads B
//! first and A second can never see `B > A`. The snapshot layer relies on
//! this to assert `miss <= access` invariants on live, unsynchronized
//! samples.

use core::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter (shared; RMW increments).
#[derive(Default)]
pub struct EventCounter {
    value: AtomicU64,
}

impl EventCounter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        EventCounter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Release);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Reads the current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Resets the counter to zero, returning the previous value.
    pub fn reset(&self) -> u64 {
        self.value.swap(0, Ordering::AcqRel)
    }
}

impl core::fmt::Debug for EventCounter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "EventCounter({})", self.get())
    }
}

/// A single-writer event counter: plain load/store, no RMW.
///
/// Only one thread (the owning CPU) may ever call [`LocalCounter::bump`] /
/// [`LocalCounter::add`]; any thread may [`LocalCounter::get`]. Violating
/// the single-writer rule loses increments but is still memory-safe — this
/// is a statistics primitive, not a synchronization primitive.
#[derive(Default)]
pub struct LocalCounter {
    value: AtomicU64,
}

impl LocalCounter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        LocalCounter {
            value: AtomicU64::new(0),
        }
    }

    /// Single-writer increment; returns the new count (callers use it for
    /// cheap 1-in-N sampling decisions without a second load).
    #[inline]
    pub fn bump(&self) -> u64 {
        let n = self.next();
        self.publish(n);
        n
    }

    /// The count the owner's next [`LocalCounter::bump`] would return:
    /// `bump` in two halves, for an owner that decides on the count before
    /// it commits the event with [`LocalCounter::publish`].
    #[inline]
    pub fn next(&self) -> u64 {
        self.value.load(Ordering::Relaxed) + 1
    }

    /// Single-writer store of a count obtained from [`LocalCounter::next`].
    #[inline]
    pub fn publish(&self, n: u64) {
        self.value.store(n, Ordering::Release);
    }

    /// Single-writer add.
    #[inline]
    pub fn add(&self, n: u64) {
        let v = self.value.load(Ordering::Relaxed) + n;
        self.value.store(v, Ordering::Release);
    }

    /// Reads the current count (any thread).
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

impl core::fmt::Debug for LocalCounter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "LocalCounter({})", self.get())
    }
}

/// Computes a rate `num / den`, returning 0.0 for an empty denominator.
///
/// Used to turn (miss, access) counter pairs into the paper's miss rates.
pub fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let c = EventCounter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn rate_handles_zero_denominator() {
        assert_eq!(rate(3, 0), 0.0);
        assert!((rate(1, 8) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn local_counter_bumps_and_reports_new_value() {
        let c = LocalCounter::new();
        assert_eq!(c.bump(), 1);
        assert_eq!(c.bump(), 2);
        c.add(5);
        assert_eq!(c.get(), 7);
        // `next` commits nothing; `publish` is the other half of `bump`.
        assert_eq!((c.next(), c.get()), (8, 7));
        c.publish(8);
        assert_eq!(c.get(), 8);
    }

    #[test]
    fn local_counter_single_writer_is_visible_to_readers() {
        // One writer bumps `a` then `b`; a reader loading `b` first must
        // never observe `b > a` (the ordering the snapshot layer needs).
        let a = LocalCounter::new();
        let b = LocalCounter::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let done = &done;
            s.spawn(|| {
                for _ in 0..100_000 {
                    a.bump();
                    b.bump();
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                let b_seen = b.get();
                let a_seen = a.get();
                assert!(b_seen <= a_seen, "reader saw b={b_seen} > a={a_seen}");
            }
        });
        assert_eq!(a.get(), 100_000);
        assert_eq!(b.get(), 100_000);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = EventCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
