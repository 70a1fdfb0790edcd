//! Shared-memory event probes for the SMP simulator.
//!
//! The paper measured its allocators on a 25-CPU Sequent Symmetry and with a
//! logic analyzer; this reproduction runs where neither exists. Instead,
//! allocator *slow paths* (lock acquisitions, shared-line manipulation in
//! the global and coalescing layers) call [`emit`] at each point where real
//! hardware would issue a shared-memory transaction. When nothing is
//! recording, [`emit`] is a thread-local flag test and costs a nanosecond or
//! two on paths that already cost hundreds; when the discrete-event
//! simulator in `kmem-sim` is recording, the events drive a MESI +
//! lock-contention cost model that reconstructs elapsed time on an N-CPU
//! machine.
//!
//! Per-CPU fast paths do **not** emit probes: by construction they touch
//! only CPU-private lines, so the simulator charges them a calibrated
//! constant instead. This keeps the real, measurable fast path exactly as
//! lean as the paper's.

use core::cell::{Cell, RefCell};

/// One shared-memory transaction reported by an allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// An atomic read-modify-write acquiring `lock` (its address).
    LockAcquire { lock: usize },
    /// A store releasing `lock`.
    LockRelease { lock: usize },
    /// A load from a potentially-shared cache line.
    LineRead { line: usize },
    /// A store to a potentially-shared cache line.
    LineWrite { line: usize },
    /// An atomic read-modify-write (CAS attempt, fetch-add) on a
    /// potentially-shared cache line — a line acquisition plus the
    /// interlocked-cycle stall, distinct from a plain store.
    LineRmw { line: usize },
    /// Plain CPU work of roughly `cycles` cycles touching no shared lines.
    Work { cycles: u64 },
}

/// Bytes per modelled cache line (80486-era systems used 16–32 bytes; we
/// model the 64-byte lines of the machines this code actually runs on).
pub const LINE_SHIFT: u32 = 6;

/// Maps an address to its cache-line index.
#[inline]
pub fn line_of<T>(ptr: *const T) -> usize {
    (ptr as usize) >> LINE_SHIFT
}

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static EVENTS: RefCell<Vec<ProbeEvent>> = const { RefCell::new(Vec::new()) };
}

/// Returns whether the current thread is recording probe events.
#[inline]
pub fn recording() -> bool {
    RECORDING.with(|r| r.get())
}

/// Records `ev` if the current thread is recording; otherwise does nothing.
#[inline]
pub fn emit(ev: ProbeEvent) {
    if recording() {
        EVENTS.with(|e| e.borrow_mut().push(ev));
    }
}

/// Starts recording probe events on the current thread.
///
/// Any events from a previous recording that were never taken are discarded.
pub fn start() {
    EVENTS.with(|e| e.borrow_mut().clear());
    RECORDING.with(|r| r.set(true));
}

/// Stops recording and returns the events recorded since [`start`].
pub fn finish() -> Vec<ProbeEvent> {
    RECORDING.with(|r| r.set(false));
    EVENTS.with(|e| core::mem::take(&mut *e.borrow_mut()))
}

/// Drains events recorded so far without stopping the recording.
pub fn drain() -> Vec<ProbeEvent> {
    EVENTS.with(|e| core::mem::take(&mut *e.borrow_mut()))
}

/// Runs `f` with recording enabled and returns its result plus the events.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Vec<ProbeEvent>) {
    start();
    let r = f();
    let ev = finish();
    (r, ev)
}

/// One letter per event, for tests that pin a path's steps: `L`ock
/// acquire, `u`nlock, `r`ead, `w`rite, interlocked `m`odify, `.` work.
pub fn steps(events: &[ProbeEvent]) -> String {
    events
        .iter()
        .map(|e| match e {
            ProbeEvent::LockAcquire { .. } => 'L',
            ProbeEvent::LockRelease { .. } => 'u',
            ProbeEvent::LineRead { .. } => 'r',
            ProbeEvent::LineWrite { .. } => 'w',
            ProbeEvent::LineRmw { .. } => 'm',
            ProbeEvent::Work { .. } => '.',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_is_inert_when_not_recording() {
        emit(ProbeEvent::Work { cycles: 1 });
        let (_, ev) = record(|| ());
        assert!(ev.is_empty());
    }

    #[test]
    fn record_captures_events_in_order() {
        let ((), ev) = record(|| {
            emit(ProbeEvent::LockAcquire { lock: 1 });
            emit(ProbeEvent::LineWrite { line: 2 });
            emit(ProbeEvent::LockRelease { lock: 1 });
        });
        assert_eq!(
            ev,
            vec![
                ProbeEvent::LockAcquire { lock: 1 },
                ProbeEvent::LineWrite { line: 2 },
                ProbeEvent::LockRelease { lock: 1 },
            ]
        );
        // Recording stopped again.
        emit(ProbeEvent::Work { cycles: 1 });
        let (_, ev) = record(|| ());
        assert!(ev.is_empty());
    }

    #[test]
    fn drain_keeps_recording() {
        start();
        emit(ProbeEvent::Work { cycles: 1 });
        let first = drain();
        emit(ProbeEvent::Work { cycles: 2 });
        let second = finish();
        assert_eq!(first, vec![ProbeEvent::Work { cycles: 1 }]);
        assert_eq!(second, vec![ProbeEvent::Work { cycles: 2 }]);
    }

    #[test]
    fn line_of_groups_by_64_bytes() {
        let base = 0x1000usize as *const u8;
        // SAFETY: pointers are never dereferenced; only address arithmetic.
        let l0 = line_of(base);
        let l1 = line_of(unsafe { base.add(63) });
        let l2 = line_of(unsafe { base.add(64) });
        assert_eq!(l0, l1);
        assert_eq!(l2, l0 + 1);
    }
}
