//! Baseline allocators from the paper's evaluation.
//!
//! Figure 7/8 of the paper compares four allocators:
//!
//! 1. `cookie` — the new allocator's cookie interface,
//! 2. `newkma` — the new allocator's standard functional interface,
//! 3. a **naive parallelization of the McKusick–Karels** 4.3BSD allocator
//!    ([`mk::MkAllocator`]) — one global spinlock around the classic
//!    power-of-two bucket allocator,
//! 4. **`oldkma`** — the previous DYNIX allocator, "which resembles 'Fast
//!    Fits' (algorithm 'S' in Korn's and Vo's survey)": a boundary-tag
//!    heap indexed by a Cartesian tree, also under one global spinlock
//!    ([`oldkma::OldKma`]).
//!
//! This crate implements (3) and (4) from their sources and defines the
//! [`KernelAllocator`] trait that lets benches and tests drive all four
//! through one interface ([`adapters`] wraps the `kmem` arena).

pub mod adapters;
pub mod mk;
pub mod oldkma;

pub use adapters::{KmemCookieAlloc, KmemStdAlloc};
pub use mk::MkAllocator;
pub use oldkma::OldKma;

use core::ptr::NonNull;

/// A uniform interface over the four benchmarked allocators.
///
/// `Ctx` is the per-execution-context state (a `kmem` CPU handle; unit for
/// the lock-based baselines). `Prep` is a pre-resolved request size — the
/// general form of the paper's cookie, letting size resolution happen once
/// outside the measured loop for the interfaces that support it.
pub trait KernelAllocator: Sync {
    /// Per-context (per-CPU) state.
    type Ctx: Send;
    /// Pre-resolved request descriptor.
    type Prep: Copy + Send;

    /// Short name used in benchmark tables ("cookie", "newkma", "mk",
    /// "oldkma").
    fn name(&self) -> &'static str;

    /// Registers an execution context (one per thread / virtual CPU).
    fn register(&self) -> Self::Ctx;

    /// Resolves a request size ahead of the measured loop.
    fn prepare(&self, size: usize) -> Self::Prep;

    /// Allocates one block; `None` under memory exhaustion.
    fn alloc(&self, ctx: &mut Self::Ctx, prep: Self::Prep) -> Option<NonNull<u8>>;

    /// Frees a block from [`KernelAllocator::alloc`].
    ///
    /// # Safety
    ///
    /// `ptr` must come from `alloc` on this allocator with the same
    /// `prep`, be freed exactly once, and have no live references into it.
    unsafe fn free(&self, ctx: &mut Self::Ctx, ptr: NonNull<u8>, prep: Self::Prep);
}
