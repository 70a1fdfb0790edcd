//! Spin-locked baselines, one per lock-free layer.
//!
//! The global and coalesce-to-page layers were spin-locked before they
//! went lock-free; these are those designs, reproduced op-for-op, kept as
//! the one baseline each layer's contention benches and simulator tests
//! compare against.

use std::sync::Arc;

use kmem::block;
use kmem::chain::Chain;
use kmem::pagedesc::{PageDesc, PdKind, PdList};
use kmem::vmblklayer::VmblkLayer;
use kmem_smp::probe::{self, ProbeEvent};
use kmem_smp::{EventCounter, SpinLock};
use kmem_vm::{KernelSpace, VmError, PAGE_SIZE};

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

/// Emits the read a real CPU would issue for a shared line the baseline
/// touches under its lock.
#[inline]
fn rd<T>(p: *const T) {
    probe::emit(ProbeEvent::LineRead {
        line: probe::line_of(p),
    });
}

/// As [`rd`], for a store.
#[inline]
fn wr<T>(p: *const T) {
    probe::emit(ProbeEvent::LineWrite {
        line: probe::line_of(p),
    });
}

/// The pre-rework layer, reproduced op-for-op: one spinlock serializes
/// every radix-list move, page-freelist splice, and counter update, and
/// page acquire/release goes to the (locked) vmblk carve/merge path.
/// Shared-line touches under the
/// lock are probe-emitted so the simulator prices the baseline's cache
/// traffic the same way it prices the lock-free layer's.
pub struct SpinPage {
    vm: VmblkLayer,
    inner: SpinLock<PageInner>,
    class: usize,
    block_size: usize,
    blocks_per_page: usize,
}

struct PageInner {
    /// `buckets[c]` lists pages with exactly `c` free blocks.
    buckets: Box<[PdList]>,
    npages: usize,
    free_blocks: usize,
}

impl SpinPage {
    /// Creates the layer for size class `class` over `space`.
    pub fn new(space: Arc<KernelSpace>, class: usize, block_size: usize) -> Self {
        let blocks_per_page = PAGE_SIZE / block_size;
        SpinPage {
            vm: VmblkLayer::new(space, true),
            inner: SpinLock::new(PageInner {
                buckets: (0..=blocks_per_page).map(|_| PdList::new()).collect(),
                npages: 0,
                free_blocks: 0,
            }),
            class,
            block_size,
            blocks_per_page,
        }
    }

    /// Ascending radix scan; each probed bucket head is a shared line.
    fn fullest_page(&self, inner: &PageInner) -> Option<(*mut PageDesc, usize)> {
        for c in 1..=self.blocks_per_page {
            rd(&inner.buckets[c]);
            if let Some(pd) = inner.buckets[c].front() {
                return Some((pd, c));
            }
        }
        None
    }

    fn acquire_page(&self, inner: &mut PageInner) -> Result<(), VmError> {
        let (page, pd) = self.vm.alloc_span(1)?;
        let base = page.as_ptr();
        pd.set_class(self.class);
        pd.set_kind(PdKind::BlockPage);
        let pd_ptr = pd as *const PageDesc as *mut PageDesc;
        // SAFETY: the page is exclusively ours; lock held.
        let pdi = unsafe { pd.inner() };
        pdi.freelist = core::ptr::null_mut();
        for i in (0..self.blocks_per_page).rev() {
            // SAFETY: offsets stay inside the page we own.
            let blk = unsafe { base.add(i * self.block_size) };
            // SAFETY: `blk` is a fresh free block of this page.
            unsafe {
                block::write_next(blk, pdi.freelist, block::LinkKey::PLAIN);
                block::poison(blk);
            }
            pdi.freelist = blk;
        }
        pdi.free_count = self.blocks_per_page as u32;
        wr(pd_ptr);
        inner.free_blocks += self.blocks_per_page;
        inner.npages += 1;
        wr(&inner.free_blocks);
        // SAFETY: lock held; the fresh page descriptor is unlisted.
        unsafe { inner.buckets[self.blocks_per_page].push_front(pd_ptr) };
        wr(&inner.buckets[self.blocks_per_page]);
        Ok(())
    }

    fn release_page(&self, inner: &mut PageInner, pd: &PageDesc) {
        // SAFETY: lock held; page fully free.
        let pdi = unsafe { pd.inner() };
        pdi.freelist = core::ptr::null_mut();
        pdi.free_count = 0;
        wr(pd as *const PageDesc);
        inner.free_blocks -= self.blocks_per_page;
        inner.npages -= 1;
        wr(&inner.free_blocks);
        pd.set_kind(PdKind::Unused);
        pd.set_class(0);
        let page_addr = {
            let hdr = self
                .vm
                .header_of(pd as *const PageDesc as usize)
                .expect("descriptor outside any vmblk");
            hdr.data_page(hdr.pd_index_of(pd))
        };
        // SAFETY: the span is exactly the fully free page we own.
        unsafe { self.vm.free_span(page_addr, 1) };
    }
}

impl SpinPage {
    /// Collects up to `want` blocks, fullest pages first.
    pub fn alloc(&self, want: usize) -> Result<Chain, VmError> {
        let mut chain = Chain::new();
        let mut inner = self.inner.lock();
        while chain.len() < want {
            let Some((pd, count)) = self.fullest_page(&inner) else {
                match self.acquire_page(&mut inner) {
                    Ok(()) => continue,
                    Err(_) if !chain.is_empty() => break,
                    Err(e) => return Err(e),
                }
            };
            let take = count.min(want - chain.len());
            // SAFETY: lock held; this class owns the page.
            let pdi = unsafe { (*pd).inner() };
            rd(pd);
            for _ in 0..take {
                let blk = pdi.freelist;
                rd(blk);
                // SAFETY: freelist blocks are free blocks of this page.
                pdi.freelist = unsafe { block::read_next(blk, block::LinkKey::PLAIN) };
                // SAFETY: as above; the block enters the outgoing chain.
                unsafe { chain.push(blk) };
            }
            let left = count - take;
            pdi.free_count = left as u32;
            wr(pd);
            inner.free_blocks -= take;
            wr(&inner.free_blocks);
            // SAFETY: lock held; pd was in bucket(count).
            unsafe { inner.buckets[count].remove(pd) };
            wr(&inner.buckets[count]);
            if left > 0 {
                // SAFETY: lock held; pd is unlisted.
                unsafe { inner.buckets[left].push_front(pd) };
                wr(&inner.buckets[left]);
            }
        }
        Ok(chain)
    }

    /// Returns blocks to their pages, releasing pages that drain.
    ///
    /// # Safety
    ///
    /// `chain` holds blocks allocated from this layer, each freed once.
    pub unsafe fn free(&self, mut chain: Chain) {
        let mut inner = self.inner.lock();
        while let Some(blk) = chain.pop() {
            let pd = self
                .vm
                .pd_of(blk as usize)
                .expect("freed block not managed by this allocator");
            let pd_ptr = pd as *const PageDesc as *mut PageDesc;
            // SAFETY: page-layer lock held; this class owns the page.
            let pdi = unsafe { pd.inner() };
            rd(pd_ptr);
            // SAFETY: `blk` is free and ours per the function contract.
            unsafe { block::write_next(blk, pdi.freelist, block::LinkKey::PLAIN) };
            wr(blk);
            pdi.freelist = blk;
            let count = pdi.free_count as usize + 1;
            pdi.free_count = count as u32;
            wr(pd_ptr);
            inner.free_blocks += 1;
            wr(&inner.free_blocks);
            if count == self.blocks_per_page {
                if count > 1 {
                    // SAFETY: lock held; pd was in bucket (count - 1).
                    unsafe { inner.buckets[count - 1].remove(pd_ptr) };
                    wr(&inner.buckets[count - 1]);
                }
                self.release_page(&mut inner, pd);
            } else if count == 1 {
                // SAFETY: lock held; pd is unlisted.
                unsafe { inner.buckets[1].push_front(pd_ptr) };
                wr(&inner.buckets[1]);
            } else {
                // SAFETY: lock held; pd is in bucket (count - 1).
                unsafe {
                    inner.buckets[count - 1].remove(pd_ptr);
                    inner.buckets[count].push_front(pd_ptr);
                }
                wr(&inner.buckets[count - 1]);
                wr(&inner.buckets[count]);
            }
        }
    }
}
