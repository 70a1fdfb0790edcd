//! Simulated interrupt disabling.
//!
//! The paper's per-CPU caches need no synchronization primitives "other than
//! the disabling of interrupts": the only concurrent entity on the same CPU
//! is an interrupt handler, which is excluded by `splhi()`-style masking.
//!
//! In this userspace reproduction one execution context owns each virtual
//! CPU, so there is nothing to mask — but the *invariant* interrupt masking
//! provides (per-CPU critical sections never nest) is still worth policing.
//! [`ExclusionFlag`] is a zero-cost-in-release stand-in: entering a per-CPU
//! critical section asserts (in debug builds) that the section is not
//! already active on that CPU, which catches exactly the bugs real interrupt
//! masking would prevent (e.g. re-entering the allocator from a signal
//! handler or a recursive call while per-CPU lists are mid-update).

use core::cell::Cell;

/// Per-CPU non-reentrancy flag modelling `splhi()`/`splx()`.
#[derive(Default)]
pub struct ExclusionFlag {
    active: Cell<bool>,
}

impl ExclusionFlag {
    /// Creates a new, inactive flag.
    pub const fn new() -> Self {
        ExclusionFlag {
            active: Cell::new(false),
        }
    }

    /// Enters the simulated interrupts-disabled section.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the section is already active, i.e. if the
    /// per-CPU critical section would have been re-entered — a bug that real
    /// interrupt masking exists to prevent.
    ///
    /// Release builds neither set nor clear the flag: only the assertion
    /// reads it, and maintaining it would cost every per-CPU cache hit two
    /// byte stores.
    #[inline]
    pub fn enter(&self) -> IrqGuard<'_> {
        debug_assert!(
            !self.active.replace(true),
            "per-CPU critical section re-entered (interrupts were 'disabled')"
        );
        IrqGuard { flag: self }
    }

    /// Returns whether the section is currently active (always `false`
    /// without `debug_assertions`, where the flag is not maintained).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.get()
    }
}

/// Guard returned by [`ExclusionFlag::enter`]; re-enables "interrupts" on
/// drop.
pub struct IrqGuard<'a> {
    flag: &'a ExclusionFlag,
}

impl Drop for IrqGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            self.flag.active.set(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(debug_assertions)]
    fn enter_and_drop_toggle_active() {
        let f = ExclusionFlag::new();
        assert!(!f.is_active());
        {
            let _g = f.enter();
            assert!(f.is_active());
        }
        assert!(!f.is_active());
    }

    #[test]
    fn sequential_sections_are_fine() {
        let f = ExclusionFlag::new();
        for _ in 0..3 {
            let _g = f.enter();
        }
    }

    #[test]
    #[should_panic(expected = "re-entered")]
    #[cfg(debug_assertions)]
    fn reentry_is_caught() {
        let f = ExclusionFlag::new();
        let _g1 = f.enter();
        let _g2 = f.enter();
    }
}
