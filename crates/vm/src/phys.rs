//! Accounted physical page pool.
//!
//! On the paper's hardware, "returning the physical memory to the system"
//! unmaps frames so that user processes can have them. In this userspace
//! reproduction the host kernel owns the real frames, so the pool tracks
//! them by *accounting*: the allocator must claim a frame before treating a
//! virtual page as mapped and credits it back when the coalesce-to-page
//! layer drains a page. A bounded pool is what makes the worst-case
//! benchmark ("allocate blocks of a given size until memory is exhausted")
//! meaningful, and the `in_use == 0` check after a full drain is the
//! observable form of the paper's claim that every fully freed page leaves
//! the allocator.
//!
//! # Who writes the account
//!
//! Every writer of a pool is serialised by its owner: no two `claim` /
//! `release` calls (nor their node-addressed forms on [`NodePhysPools`])
//! may run at once. The vmblk layer makes all of its claims and releases
//! under its boundary-tag lock, and the baseline allocators under their
//! one lock, so the account is updated with plain loads and stores — no
//! interlocked instruction. The owner's lock orders the writers (its
//! acquire follows the previous holder's release), so the stores are
//! `Relaxed`; the account publishes no other data. Readers ([`in_use`](PhysPool::in_use),
//! [`available`](PhysPool::available), [`peak`](PhysPool::peak),
//! [`total_mapped`](PhysPool::total_mapped)) are lock-free atomic loads
//! from any thread. Debug builds check the contract: a writer that
//! arrives while another is inside panics instead of losing an update.

#[cfg(debug_assertions)]
use core::sync::atomic::AtomicBool;
use core::sync::atomic::{AtomicUsize, Ordering};

use kmem_smp::probe::{self, ProbeEvent};
use kmem_smp::{faults, Faults, NodeId};

use crate::error::VmError;

/// A bounded pool of physical page frames.
///
/// Writers are serialised by the pool's owner (see the module docs), so a
/// claim or a release is loads and stores, reported to the simulator as
/// one [`ProbeEvent::LineWrite`] on the pool's line.
pub struct PhysPool {
    capacity: usize,
    in_use: AtomicUsize,
    /// High-water mark of frames simultaneously in use. Read on every
    /// claim, written only by a claim that raises it.
    peak: AtomicUsize,
    /// Total frames ever claimed. Frames released are not stored: every
    /// frame claimed is either still in use or was released.
    maps: AtomicUsize,
    /// Failpoint handle; `faults::PHYS_CLAIM` can force claim failures.
    faults: Faults,
    /// Set while a writer is inside `claim` or `release`.
    #[cfg(debug_assertions)]
    writing: AtomicBool,
}

impl PhysPool {
    /// Creates a pool of `capacity` frames with failpoints off.
    pub fn new(capacity: usize) -> Self {
        PhysPool::with_faults(capacity, Faults::none())
    }

    /// Creates a pool of `capacity` frames wired to `faults`.
    pub fn with_faults(capacity: usize, faults: Faults) -> Self {
        PhysPool {
            capacity,
            in_use: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            maps: AtomicUsize::new(0),
            faults,
            #[cfg(debug_assertions)]
            writing: AtomicBool::new(false),
        }
    }

    /// Total frames in the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames currently claimed.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Frames currently available.
    pub fn available(&self) -> usize {
        self.capacity - self.in_use()
    }

    /// High-water mark of simultaneously claimed frames.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total successful [`PhysPool::claim`] page-count.
    pub fn total_mapped(&self) -> usize {
        self.maps.load(Ordering::Relaxed)
    }

    /// Total [`PhysPool::release`] page-count: the frames claimed that
    /// are no longer in use. Exact when no claim is in flight; a reader
    /// racing one may undercount by that claim's frames, never underflow.
    pub fn total_unmapped(&self) -> usize {
        self.total_mapped().saturating_sub(self.in_use())
    }

    /// Runs one write of the account. The pool is reported as the one
    /// line it nearly always is (`in_use`'s), so a simulated run does not
    /// depend on where the allocator happened to place it.
    #[inline]
    fn write<R>(&self, f: impl FnOnce() -> R) -> R {
        #[cfg(debug_assertions)]
        assert!(
            !self.writing.swap(true, Ordering::Acquire),
            "physical page pool: two writers overlap (the owner must serialise them)"
        );
        let r = f();
        #[cfg(debug_assertions)]
        self.writing.store(false, Ordering::Release);
        r
    }

    /// Reports the write of a claim or a release.
    #[inline]
    fn emit_write(&self) {
        probe::emit(ProbeEvent::LineWrite {
            line: probe::line_of(&self.in_use),
        });
    }

    /// Claims `n` frames, failing (with no partial claim) if fewer are free.
    pub fn claim(&self, n: usize) -> Result<(), VmError> {
        self.write(|| {
            let cur = self.in_use();
            if self.faults.hit(faults::PHYS_CLAIM) || cur + n > self.capacity {
                return Err(VmError::OutOfPhysical {
                    requested: n,
                    available: self.capacity - cur,
                });
            }
            let new = cur + n;
            self.emit_write();
            self.in_use.store(new, Ordering::Relaxed);
            self.maps.store(self.total_mapped() + n, Ordering::Relaxed);
            if new > self.peak() {
                self.peak.store(new, Ordering::Relaxed);
            }
            Ok(())
        })
    }

    /// Releases `n` previously claimed frames back to the pool.
    ///
    /// # Panics
    ///
    /// Panics if more frames are released than were claimed — that is a
    /// double-unmap bug in the caller.
    pub fn release(&self, n: usize) {
        self.write(|| {
            let cur = self.in_use();
            assert!(cur >= n, "physical page pool: released more than claimed");
            self.emit_write();
            self.in_use.store(cur - n, Ordering::Relaxed);
        })
    }
}

/// Per-node physical frame pools behind one aggregate facade.
///
/// On a NUMA machine every frame lives on some node; the allocator above
/// records each frame's home node in its page descriptor and prefers
/// node-local frames. The facade keeps the whole single-pool API
/// (`claim`/`release`/`in_use`/...) working unchanged — with one node it
/// *is* the old pool — and adds the node-addressed [`claim_on`] /
/// [`release_on`] pair the node-aware layers use.
///
/// Capacity is split evenly across nodes, remainder to the first nodes.
/// Writers of the facade are serialised as a pool's are (module docs).
///
/// [`claim_on`]: NodePhysPools::claim_on
/// [`release_on`]: NodePhysPools::release_on
pub struct NodePhysPools {
    nodes: Box<[PhysPool]>,
    /// High-water mark of frames claimed across all nodes at once, raised
    /// by the claim that sets it. (The per-node marks are reached at
    /// different moments, so their sum is not it.)
    peak: AtomicUsize,
}

impl NodePhysPools {
    /// Creates `nnodes` pools splitting `capacity` frames, failpoints off.
    pub fn new(capacity: usize, nnodes: usize) -> Self {
        NodePhysPools::with_faults(capacity, nnodes, Faults::none())
    }

    /// As [`new`](NodePhysPools::new), wired to `faults`.
    pub fn with_faults(capacity: usize, nnodes: usize, faults: Faults) -> Self {
        assert!(nnodes >= 1, "at least one node");
        let base = capacity / nnodes;
        let rem = capacity % nnodes;
        let nodes = (0..nnodes)
            .map(|i| PhysPool::with_faults(base + usize::from(i < rem), faults.clone()))
            .collect();
        NodePhysPools {
            nodes,
            peak: AtomicUsize::new(0),
        }
    }

    /// Number of node pools.
    #[inline]
    pub fn nnodes(&self) -> usize {
        self.nodes.len()
    }

    /// The pool of one node.
    #[inline]
    pub fn node(&self, node: NodeId) -> &PhysPool {
        &self.nodes[node.index()]
    }

    /// Total frames across all nodes.
    pub fn capacity(&self) -> usize {
        self.nodes.iter().map(|p| p.capacity()).sum()
    }

    /// Frames currently claimed across all nodes.
    pub fn in_use(&self) -> usize {
        self.nodes.iter().map(|p| p.in_use()).sum()
    }

    /// Frames currently available across all nodes.
    pub fn available(&self) -> usize {
        self.nodes.iter().map(|p| p.available()).sum()
    }

    /// High-water mark of frames claimed across all nodes at once.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total successful claim page-count across all nodes.
    pub fn total_mapped(&self) -> usize {
        self.nodes.iter().map(|p| p.total_mapped()).sum()
    }

    /// Total release page-count across all nodes.
    pub fn total_unmapped(&self) -> usize {
        self.nodes.iter().map(|p| p.total_unmapped()).sum()
    }

    /// Claims `n` frames from a single node, preferring `preferred` and
    /// falling back to the other nodes in index order. Returns the node
    /// that actually supplied the frames; a span is never split across
    /// nodes, so the whole claim has one home.
    pub fn claim_on(&self, preferred: NodeId, n: usize) -> Result<NodeId, VmError> {
        let start = preferred.index();
        debug_assert!(start < self.nodes.len(), "preferred node out of range");
        let nn = self.nodes.len();
        let mut last = VmError::OutOfPhysical {
            requested: n,
            available: 0,
        };
        // Wrap-around order without a division per claim.
        for i in (start..nn).chain(0..start) {
            match self.nodes[i].claim(n) {
                Ok(()) => {
                    // Serialised writers: a load and, at a new mark, a
                    // store — reported with the claim's own write.
                    let total = self.in_use();
                    if total > self.peak() {
                        self.peak.store(total, Ordering::Relaxed);
                    }
                    return Ok(NodeId::new(i));
                }
                Err(e) => last = e,
            }
        }
        // Report the aggregate availability, not the last node's.
        if let VmError::OutOfPhysical { requested, .. } = last {
            last = VmError::OutOfPhysical {
                requested,
                available: self.available(),
            };
        }
        Err(last)
    }

    /// Releases `n` frames claimed from `node`.
    pub fn release_on(&self, node: NodeId, n: usize) {
        self.nodes[node.index()].release(n);
    }

    /// Claims `n` frames node-blind (preferring node 0) — the drop-in for
    /// the old single-pool `claim`. No partial claim.
    pub fn claim(&self, n: usize) -> Result<(), VmError> {
        self.claim_on(NodeId::new(0), n).map(|_| ())
    }

    /// Releases `n` frames node-blind, draining nodes in index order.
    ///
    /// Only correct where claims were also node-blind (tests, 1-node
    /// configurations); node-aware callers pair
    /// [`claim_on`](NodePhysPools::claim_on) with
    /// [`release_on`](NodePhysPools::release_on).
    ///
    /// # Panics
    ///
    /// Panics if more frames are released than are claimed in total.
    pub fn release(&self, n: usize) {
        let mut left = n;
        for p in self.nodes.iter() {
            if left == 0 {
                return;
            }
            let take = left.min(p.in_use());
            if take > 0 {
                p.release(take);
                left -= take;
            }
        }
        assert!(left == 0, "physical page pool: released more than claimed");
    }
}

impl core::fmt::Debug for NodePhysPools {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NodePhysPools")
            .field("nnodes", &self.nnodes())
            .field("capacity", &self.capacity())
            .field("in_use", &self.in_use())
            .finish()
    }
}

impl core::fmt::Debug for PhysPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PhysPool")
            .field("capacity", &self.capacity)
            .field("in_use", &self.in_use())
            .field("peak", &self.peak())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_and_release_account_exactly() {
        let p = PhysPool::new(10);
        p.claim(4).unwrap();
        assert_eq!(p.in_use(), 4);
        assert_eq!(p.available(), 6);
        p.claim(6).unwrap();
        assert_eq!(p.available(), 0);
        p.release(10);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.peak(), 10);
        assert_eq!(p.total_mapped(), 10);
        assert_eq!(p.total_unmapped(), 10);
    }

    #[test]
    fn steady_state_pair_is_two_writes_and_no_rmw() {
        let p = PhysPool::new(10);
        let line = probe::line_of(&p.in_use);
        let pair = |n| {
            let ((), ev) = probe::record(|| {
                p.claim(n).unwrap();
                p.release(n);
            });
            ev
        };
        // Whether or not the claim raises the high-water mark: one write
        // of the pool's line each way, nothing interlocked.
        for n in [4, 4, 1, 5] {
            assert_eq!(pair(n), vec![ProbeEvent::LineWrite { line }; 2]);
        }
        assert_eq!(
            (p.peak(), p.total_mapped(), p.total_unmapped()),
            (5, 14, 14)
        );
        // A failed claim writes nothing.
        let ((), ev) = probe::record(|| assert!(p.claim(11).is_err()));
        assert!(ev.is_empty(), "{ev:?}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two writers overlap")]
    fn overlapping_writers_are_caught_in_debug_builds() {
        let p = PhysPool::new(10);
        // As if another writer were inside `claim` right now.
        p.writing.store(true, Ordering::Relaxed);
        let _ = p.claim(1);
    }

    #[test]
    fn exhaustion_reports_availability_and_leaves_state_intact() {
        let p = PhysPool::new(5);
        p.claim(3).unwrap();
        let err = p.claim(4).unwrap_err();
        assert_eq!(
            err,
            VmError::OutOfPhysical {
                requested: 4,
                available: 2
            }
        );
        // The failed claim must not consume frames.
        assert_eq!(p.in_use(), 3);
        p.claim(2).unwrap();
    }

    #[test]
    #[should_panic(expected = "released more than claimed")]
    fn over_release_is_caught() {
        let p = PhysPool::new(2);
        p.claim(1).unwrap();
        p.release(2);
    }

    #[test]
    fn injected_claim_failure_is_typed_and_leaves_accounting_intact() {
        use kmem_smp::FailPolicy;

        let faults = Faults::with_plan();
        let p = PhysPool::with_faults(10, faults.clone());
        p.claim(2).unwrap();
        faults
            .plan()
            .unwrap()
            .set(faults::PHYS_CLAIM, FailPolicy::Script(vec![true]));
        let err = p.claim(1).unwrap_err();
        assert_eq!(
            err,
            VmError::OutOfPhysical {
                requested: 1,
                available: 8
            }
        );
        // The injected failure consumed no frames; the next claim works.
        assert_eq!(p.in_use(), 2);
        p.claim(8).unwrap();
        p.release(10);
    }

    #[test]
    fn node_pools_split_capacity_with_remainder_to_first_nodes() {
        let p = NodePhysPools::new(10, 4);
        assert_eq!(p.nnodes(), 4);
        assert_eq!(p.capacity(), 10);
        let caps: Vec<usize> = (0..4).map(|i| p.node(NodeId::new(i)).capacity()).collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
    }

    #[test]
    fn claim_on_prefers_the_named_node_and_falls_back_in_order() {
        let p = NodePhysPools::new(8, 2); // 4 + 4
        let n1 = NodeId::new(1);
        assert_eq!(p.claim_on(n1, 3).unwrap(), n1);
        assert_eq!(p.node(n1).in_use(), 3);
        // Node 1 can't take 2 more; the claim falls back to node 0.
        assert_eq!(p.claim_on(n1, 2).unwrap(), NodeId::new(0));
        // Release by home node keeps per-node accounting exact.
        p.release_on(n1, 3);
        p.release_on(NodeId::new(0), 2);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn aggregate_claim_reports_total_availability_on_exhaustion() {
        let p = NodePhysPools::new(6, 3); // 2 + 2 + 2
        p.claim(2).unwrap();
        p.claim(2).unwrap();
        p.claim(1).unwrap();
        // 1 frame left in total, spread thin: a 2-frame claim fails with
        // the aggregate availability.
        let err = p.claim(2).unwrap_err();
        assert_eq!(
            err,
            VmError::OutOfPhysical {
                requested: 2,
                available: 1
            }
        );
        p.release(5);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.total_mapped(), p.total_unmapped());
    }

    #[test]
    fn single_node_facade_matches_plain_pool_behaviour() {
        let p = NodePhysPools::new(10, 1);
        p.claim(4).unwrap();
        assert_eq!(p.in_use(), 4);
        assert_eq!(p.available(), 6);
        p.claim(6).unwrap();
        assert!(p.claim(1).is_err());
        p.release(10);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.peak(), 10);
    }

    #[test]
    #[should_panic(expected = "released more than claimed")]
    fn aggregate_over_release_is_caught() {
        let p = NodePhysPools::new(4, 2);
        p.claim(1).unwrap();
        p.release(2);
    }

    #[test]
    fn concurrent_claims_never_oversubscribe() {
        // Writers serialised through one lock, as the vmblk layer's are;
        // the bound is read lock-free meanwhile.
        let p = PhysPool::new(100);
        let owner = kmem_smp::SpinLock::new(());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let claimed = {
                            let _g = owner.lock();
                            p.claim(3).is_ok()
                        };
                        if claimed {
                            assert!(p.in_use() <= 100);
                            let _g = owner.lock();
                            p.release(3);
                        }
                    }
                });
            }
        });
        assert_eq!(p.in_use(), 0);
        assert!(p.peak() <= 100);
    }

    #[test]
    fn aggregate_peak_is_the_most_in_use_at_once() {
        let p = NodePhysPools::new(8, 2); // 4 + 4
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(p.claim_on(n0, 3).unwrap(), n0);
        p.release_on(n0, 3);
        assert_eq!(p.claim_on(n1, 3).unwrap(), n1);
        // Each node reached 3, but never at the same time.
        assert_eq!((p.node(n0).peak(), p.node(n1).peak()), (3, 3));
        assert_eq!(p.peak(), 3);
        assert_eq!(p.claim_on(n0, 2).unwrap(), n0);
        assert_eq!(p.peak(), 5);
        p.release_on(n1, 3);
        p.release_on(n0, 2);
        assert_eq!(p.peak(), 5);
    }
}
