//! Hermetic in-tree testkit for the kmem reproduction.
//!
//! The repo's tier-1 gate (`cargo build --release --offline && cargo test
//! -q --offline`) must pass with **no network and no crates.io
//! dependencies**. This crate supplies, from scratch, the three pieces of
//! test infrastructure the suite previously pulled from crates.io:
//!
//! * [`rng`] — a deterministic PRNG (SplitMix64 seeding, xoshiro256**
//!   stream) replacing `rand`, with forkable per-thread streams;
//! * [`prop`] — a minimal shrinking property-test harness replacing
//!   `proptest`: closure generators, bounded greedy shrinking, and
//!   seed-bearing failure reports replayable via `KMEM_TESTKIT_SEED`;
//! * [`torture`] — a multi-threaded allocator torture driver that runs
//!   randomized alloc/free/exchange programs against a
//!   [`kmem::KmemArena`] through all three interfaces (standard, sized,
//!   cookie), including cross-thread frees and flush pressure, and runs
//!   the cross-layer invariant walkers at every quiescent phase
//!   boundary. Failures report a seed replayable via `KMEM_TORTURE_SEED`.
//!   With `KMEM_TORTURE_FAULTS=1` (or `TortureConfig::faults`) it also
//!   rotates deterministic failpoint policies across every allocator
//!   layer boundary, phase by phase, replayable via
//!   `KMEM_TORTURE_FAULT_SEED` — proving injected failures surface as
//!   typed errors without leaking blocks or wedging drain flags.
//!
//! [`fake`] adds the fake blocks that drive a global pool without an
//! arena.
//!
//! The paper's central claims are concurrency claims — per-CPU caches
//! never touch other CPUs' state, the global layer stays within
//! `2 * gbltarget`, coalescing is complete — and this crate is how the
//! repo exercises them under real multi-threaded load.

pub mod fake;
pub mod prop;
pub mod rng;
pub mod torture;

pub use prop::{check, interleaving, no_shrink, shrink_u64, shrink_usize, shrink_vec, vec_of};
pub use rng::Rng;
pub use torture::{run_torture, TortureConfig, TortureReport};
