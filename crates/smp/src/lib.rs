//! SMP substrate for the kmem allocator reproduction.
//!
//! This crate models the pieces of a shared-memory multiprocessor that the
//! allocator in McKenney & Slingwine (USENIX Winter 1993) assumes from the
//! surrounding kernel:
//!
//! * CPU identities and a registry that grants each execution context
//!   exclusive ownership of one virtual CPU ([`cpu::CpuId`],
//!   [`registry::CpuRegistry`]).
//! * Per-CPU storage with false-sharing avoidance ([`percpu::PerCpu`],
//!   [`pad::CachePadded`]).
//! * A simulated interrupt-disable primitive ([`irq::ExclusionFlag`]) that
//!   asserts the non-reentrancy the paper's per-CPU caches rely on.
//! * A test-and-test-and-set spinlock with exponential backoff and
//!   contention statistics ([`spinlock::SpinLock`]) — used by the global and
//!   coalescing layers of the new allocator and by the naive
//!   parallelizations of the baseline allocators.
//! * Relaxed-atomic event counters for layer hit/miss statistics
//!   ([`counter::EventCounter`]).
//! * A generation-counted tagged-pointer atomic
//!   ([`atomics::TaggedAtomic`]) — the ABA-safe ticket word of the
//!   mailbox below.
//! * A bounded, deduplicated, wait-free MPSC mailbox
//!   ([`mailbox::Mailbox`]) through which hot CPUs hand slow-path chores
//!   to a maintenance core instead of running them inline.
//! * Deterministic, seed-driven failpoints ([`faults::Faults`]) that the
//!   allocator layers consult at every fallible boundary, so out-of-memory
//!   paths can be forced and tested instead of waiting for real exhaustion.
//! * A probe layer ([`probe`]) through which allocator slow paths report
//!   lock and shared-cache-line events to the discrete-event SMP simulator
//!   (`kmem-sim`), standing in for the logic analyzer and 25-CPU Symmetry
//!   hardware used in the paper.

pub mod atomics;
pub mod counter;
pub mod cpu;
pub mod faults;
pub mod irq;
pub mod mailbox;
pub mod pad;
pub mod percpu;
pub mod probe;
pub mod registry;
pub mod spinlock;
pub mod topology;

pub use atomics::{TaggedAtomic, TaggedPtr};
pub use counter::{EventCounter, LocalCounter};
pub use cpu::{CpuId, MAX_CPUS};
pub use faults::{FailPolicy, FaultPlan, Faults, SiteStats};
pub use irq::ExclusionFlag;
pub use mailbox::Mailbox;
pub use pad::CachePadded;
pub use percpu::PerCpu;
pub use registry::{ClaimError, CpuClaim, CpuRegistry};
pub use spinlock::{SpinLock, SpinLockGuard};
pub use topology::{NodeId, NodeMapping, Topology, MAX_NODES};
