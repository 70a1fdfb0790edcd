//! The spin-locked baseline of the lock-free global layer.
//!
//! The global layer's chain stack was spin-locked before it went
//! lock-free; this is that design, reproduced op-for-op, kept as the
//! baseline the global layer's contention bench and simulator test compare
//! against. (The coalesce-to-page layer is itself one spinlock per class,
//! so it needs no baseline of its own.)

use kmem::chain::Chain;
use kmem_smp::{EventCounter, SpinLock};

/// Backing store of fake blocks with stable addresses (hence the boxes),
/// for driving a chain pool without an arena.
pub fn backing(n: usize) -> Vec<Box<[u8; 32]>> {
    (0..n).map(|_| Box::new([0u8; 32])).collect()
}

/// Threads the fake blocks `store[range]` into a chain.
pub fn chain(store: &mut [Box<[u8; 32]>], range: core::ops::Range<usize>) -> Chain {
    let mut c = Chain::new();
    for b in &mut store[range] {
        // SAFETY: fake blocks are owned and disjoint.
        unsafe { c.push(b.as_mut_ptr()) };
    }
    c
}

/// Empties a chain of fake blocks (a `Chain` must not drop non-empty).
pub fn discard(mut c: Chain) {
    while c.pop().is_some() {}
}

/// The pre-rework design, reproduced op-for-op: every access takes the
/// pool lock, bumps the same counters the old `GlobalPool` kept, and —
/// as the old put path did — re-sums the pool total under the lock to
/// enforce the `2 * gbltarget` bound.
pub struct SpinPool {
    inner: SpinLock<PoolInner>,
    gbltarget: usize,
    get: EventCounter,
    get_chain_hits: EventCounter,
    get_miss: EventCounter,
    put: EventCounter,
}

struct PoolInner {
    chains: Vec<Chain>,
    bucket: Chain,
}

impl SpinPool {
    /// Creates an empty pool bounded at `2 * gbltarget` blocks.
    pub fn new(gbltarget: usize) -> Self {
        SpinPool {
            inner: SpinLock::new(PoolInner {
                chains: Vec::new(),
                bucket: Chain::new(),
            }),
            gbltarget,
            get: EventCounter::new(),
            get_chain_hits: EventCounter::new(),
            get_miss: EventCounter::new(),
            put: EventCounter::new(),
        }
    }

    /// Pops a ready chain, if any.
    pub fn get(&self) -> Option<Chain> {
        self.get.inc();
        let mut inner = self.inner.lock();
        let chain = inner.chains.pop();
        drop(inner);
        match chain {
            Some(c) => {
                self.get_chain_hits.inc();
                Some(c)
            }
            None => {
                self.get_miss.inc();
                None
            }
        }
    }

    /// Pushes a chain back.
    ///
    /// # Panics
    ///
    /// Panics if the pool would exceed `2 * gbltarget` blocks: callers
    /// size it to never spill.
    pub fn put(&self, c: Chain) {
        self.put.inc();
        let mut inner = self.inner.lock();
        inner.chains.push(c);
        let total = inner.bucket.len() + inner.chains.iter().map(Chain::len).sum::<usize>();
        drop(inner);
        assert!(total <= 2 * self.gbltarget, "pool sized to never spill");
    }

    /// Empties the pool, forgetting the (caller-owned) blocks.
    pub fn drain(&self) {
        let mut inner = self.inner.lock();
        for c in inner.chains.drain(..) {
            discard(c);
        }
        discard(inner.bucket.take());
    }
}
