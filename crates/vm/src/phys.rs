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

use core::sync::atomic::{AtomicUsize, Ordering};

use kmem_smp::probe;
use kmem_smp::{faults, Faults, NodeId};

use crate::error::VmError;

/// A bounded pool of physical page frames.
///
/// A claim/release pair costs three interlocked operations in the steady
/// state: the `in_use` exchange and the `maps` add on the claim, the
/// `in_use` subtract on the release. Each is reported to the simulator as
/// a [`ProbeEvent::LineRmw`] on the pool's line.
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

    /// Reports an interlocked update of one of the pool's words. All are
    /// reported on `in_use`'s line: the pool is modelled as the one line
    /// it nearly always is, so a simulated run does not depend on where
    /// the allocator happened to place it.
    #[inline]
    fn emit_rmw(&self) {
        probe::emit_rmw(&self.in_use);
    }

    /// Claims `n` frames, failing (with no partial claim) if fewer are free.
    pub fn claim(&self, n: usize) -> Result<(), VmError> {
        if self.faults.hit(faults::PHYS_CLAIM) {
            return Err(VmError::OutOfPhysical {
                requested: n,
                available: self.available(),
            });
        }
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            let new = cur + n;
            if new > self.capacity {
                return Err(VmError::OutOfPhysical {
                    requested: n,
                    available: self.capacity - cur,
                });
            }
            self.emit_rmw();
            match self
                .in_use
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.emit_rmw();
                    self.maps.fetch_add(n, Ordering::Relaxed);
                    // `fetch_max` keeps racing raisers correct; the load
                    // keeps every claim below the mark from paying for it.
                    if new > self.peak.load(Ordering::Relaxed) {
                        self.emit_rmw();
                        self.peak.fetch_max(new, Ordering::Relaxed);
                    }
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Releases `n` previously claimed frames back to the pool.
    ///
    /// # Panics
    ///
    /// Panics if more frames are released than were claimed — that is a
    /// double-unmap bug in the caller.
    pub fn release(&self, n: usize) {
        self.emit_rmw();
        let prev = self.in_use.fetch_sub(n, Ordering::AcqRel);
        assert!(prev >= n, "physical page pool: released more than claimed");
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
///
/// [`claim_on`]: NodePhysPools::claim_on
/// [`release_on`]: NodePhysPools::release_on
pub struct NodePhysPools {
    nodes: Box<[PhysPool]>,
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
        NodePhysPools { nodes }
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

    /// Sum of per-node high-water marks (an upper bound on the aggregate
    /// peak; exact with one node).
    pub fn peak(&self) -> usize {
        self.nodes.iter().map(|p| p.peak()).sum()
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
        for k in 0..nn {
            let i = (start + k) % nn;
            match self.nodes[i].claim(n) {
                Ok(()) => return Ok(NodeId::new(i)),
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
    fn steady_state_pair_is_three_rmws_and_a_new_peak_one_more() {
        let rmws = |p: &PhysPool, n| {
            let ((), ev) = probe::record(|| {
                p.claim(n).unwrap();
                p.release(n);
            });
            assert!(ev
                .iter()
                .all(|e| matches!(e, probe::ProbeEvent::LineRmw { .. })));
            ev.len()
        };
        let p = PhysPool::new(10);
        // The first claim raises the high-water mark from zero.
        assert_eq!(rmws(&p, 4), 4);
        // At or below the mark: in_use exchange, maps add, in_use subtract.
        assert_eq!(rmws(&p, 4), 3);
        assert_eq!(rmws(&p, 1), 3);
        assert_eq!(rmws(&p, 5), 4);
        assert_eq!(
            (p.peak(), p.total_mapped(), p.total_unmapped()),
            (5, 14, 14)
        );
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
        let p = PhysPool::new(100);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        if p.claim(3).is_ok() {
                            assert!(p.in_use() <= 100);
                            p.release(3);
                        }
                    }
                });
            }
        });
        assert_eq!(p.in_use(), 0);
    }
}
