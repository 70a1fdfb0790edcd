//! The McKenney–Slingwine kernel memory allocator.
//!
//! This crate reproduces the allocator of *Efficient Kernel Memory
//! Allocation on Shared-Memory Multiprocessors* (McKenney & Slingwine,
//! USENIX Winter 1993): a general-purpose `kmem_alloc`/`kmem_free` built
//! from four layers, where the lower layers are optimized for speed and the
//! upper layers for coalescing (paper Figure 1):
//!
//! 1. **Per-CPU caching layer** ([`percpu`]) — per-(CPU, size-class) caches
//!    with a *split freelist* (`main`/`aux`, each bounded by `target`).
//!    No locks; the only "synchronization" is the non-reentrancy that
//!    interrupt disabling provides in a kernel.
//! 2. **Global layer** ([`global`]) — per size class (and node), one
//!    spinlocked pool: an array of ready `target`-sized chains (the
//!    paper's `gblfree` list) plus a bucket list that regroups odd chains,
//!    with an exact block count; a settle trims it to the pool's bound,
//!    which starts at `2 * gbltarget` blocks and adapts to churn.
//! 3. **Coalesce-to-page layer** ([`pagelayer`]) — per-page freelists and
//!    free counts; pages radix-sorted by free count so the fullest pages
//!    are allocated from first; a fully free page returns its physical
//!    frame to the system immediately.
//! 4. **Coalesce-to-vmblk layer** ([`vmblklayer`]) — 4 MB vmblks of virtual
//!    space, page descriptors with boundary tags, span coalescing, and
//!    direct handling of multi-page allocations.
//!
//! The **cookie** interface ([`cookie`]) reproduces the paper's
//! `kmem_alloc_get_cookie` / `KMEM_ALLOC_COOKIE` / `KMEM_FREE_COOKIE`:
//! callers that know a request size ahead of time obtain an opaque cookie
//! and skip the size-to-class mapping on both alloc and free.
//!
//! # Quick start
//!
//! ```
//! use kmem::{KmemArena, KmemConfig};
//!
//! let arena = KmemArena::new(KmemConfig::small()).unwrap();
//! let cpu = arena.register_cpu().unwrap();
//!
//! // Standard System V style interface.
//! let p = cpu.alloc(50).unwrap();
//! // SAFETY: `p` came from `alloc` on this arena and is freed once.
//! unsafe { cpu.free(p) };
//!
//! // Cookie interface for sizes known "at compile time".
//! let cookie = arena.cookie_for(64).unwrap();
//! let q = cpu.alloc_cookie(cookie).unwrap();
//! // SAFETY: `q` came from `alloc_cookie(cookie)` and is freed once.
//! unsafe { cpu.free_cookie(q, cookie) };
//! ```
//!
//! # Concurrency model
//!
//! A [`KmemArena`] is shared; each participating execution context
//! registers as one virtual CPU and receives a [`CpuHandle`]. The handle is
//! `Send` but not `Sync` and is the *only* path to that CPU's caches, which
//! is how this reproduction enforces the paper's rule that "CPUs are
//! prohibited from accessing other CPUs' per-CPU caches".

pub mod arena;
pub mod block;
pub mod chain;
pub mod config;
pub mod cookie;
pub mod counters;
pub mod error;
pub mod global;
pub mod json;
pub mod maint;
pub mod object;
pub mod pagedesc;
pub mod pagelayer;
pub mod percpu;
pub mod pressure;
pub mod sizeclass;
pub mod snapshot;
pub mod stats;
pub mod verify;
pub mod vmblklayer;

pub use arena::{CpuHandle, KmemArena, MaintPump};
pub use config::{ClassConfig, HardenedConfig, KmemConfig, MaintConfig};
pub use cookie::Cookie;
pub use error::{AllocError, CorruptionSite, KmemError};
pub use kmem_smp::{faults, FailPolicy, FaultPlan, Faults};
pub use maint::{MaintKeys, MaintWork};
pub use object::{KBox, Obj, ObjectCache};
pub use pressure::PressureConfig;
pub use snapshot::{
    CacheCounts, ClassSnapshot, GlobalCounts, KmemSnapshot, MaintCounts, NodeCounts, PageCounts,
};
pub use stats::{ClassStats, KmemStats, LayerCounts};

/// Number of size classes in the paper's default configuration
/// (16 … 4096 bytes in powers of two).
pub const DEFAULT_NCLASSES: usize = 9;
