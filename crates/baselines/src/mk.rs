//! The McKusick–Karels allocator (4.3BSD `kmem_alloc`), naively
//! parallelized.
//!
//! "Design of a general purpose memory allocator for the 4.3BSD UNIX
//! kernel" (McKusick & Karels, USENIX 1988): power-of-two buckets with
//! per-bucket freelists, a `kmemsizes[]` array recording each page's block
//! size so that `free` needs no size argument, and whole-page spans for
//! requests above the largest bucket. Small-block pages are **permanently
//! dedicated** to their bucket — the algorithm "fails to meet goal 6"
//! (coalescing), which is exactly what experiment E7 demonstrates: the
//! worst-case sweep fragments all memory at the first size and cannot
//! finish.
//!
//! The "naive parallelization" of the paper's Figure 7 is reproduced as
//! one global spinlock around every operation. The famous fully inlined
//! binary search of the `MALLOC` macro is [`bucket_index`], `#[inline]` so
//! constant sizes fold at compile time.

use core::ptr::{self, NonNull};
use std::sync::Arc;

use kmem_smp::probe::{self, ProbeEvent};
use kmem_smp::{EventCounter, SpinLock};
use kmem_vm::{KernelSpace, SpaceConfig, PAGE_SHIFT, PAGE_SIZE};

use crate::KernelAllocator;

/// Smallest bucket: 16 bytes.
pub const MIN_BUCKET_SHIFT: u32 = 4;
/// Largest bucket: 4096 bytes (one page).
pub const MAX_BUCKET_SHIFT: u32 = 12;
/// Number of power-of-two buckets.
pub const NBUCKETS: usize = (MAX_BUCKET_SHIFT - MIN_BUCKET_SHIFT + 1) as usize;

/// The `MALLOC` macro's fully inlined binary search: size → bucket index.
///
/// With a compile-time-constant `size` the branches fold away, which is
/// the case the MK paper optimizes for; with run-time sizes this is the
/// unpredictable branch tree the kmem paper blames for pipeline stalls.
#[inline(always)]
pub fn bucket_index(size: usize) -> usize {
    if size <= 128 {
        if size <= 32 {
            if size <= 16 {
                0
            } else {
                1
            }
        } else if size <= 64 {
            2
        } else {
            3
        }
    } else if size <= 1024 {
        if size <= 256 {
            4
        } else if size <= 512 {
            5
        } else {
            6
        }
    } else if size <= 2048 {
        7
    } else {
        8
    }
}

/// Block size of bucket `b`.
#[inline]
pub fn bucket_size(b: usize) -> usize {
    1 << (MIN_BUCKET_SHIFT + b as u32)
}

/// Per-page state, the `kmemsizes[]` array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KmemSize {
    /// Not yet carved from the space.
    NotOwned,
    /// Owned and free (from a freed large span, or never used).
    Free,
    /// Split into blocks of `bucket`'s size — forever.
    Small { bucket: u8 },
    /// First page of an allocated `npages` span.
    LargeHead { npages: u32 },
    /// Continuation page of a large span.
    LargeCont,
}

struct MkInner {
    /// Per-bucket freelist heads; links live in the blocks' first words.
    freelist: [*mut u8; NBUCKETS],
    /// Per-bucket free block counts (`kb_total - kb_calls` in BSD).
    nfree: [usize; NBUCKETS],
    /// Page states, indexed by page number within the space.
    kmemsizes: Vec<KmemSize>,
    /// Pages owned so far: `[0, owned)` within the space have been carved
    /// (vmblks are taken in order and never returned, so ownership is a
    /// prefix of the space).
    owned: usize,
    /// Scan hint for the next free-page search.
    scan_hint: usize,
}

// SAFETY: `MkInner` is only reachable through the global spinlock.
unsafe impl Send for MkInner {}

/// Statistics for the MK baseline.
#[derive(Default)]
pub struct MkStats {
    /// Allocations served.
    pub allocs: EventCounter,
    /// Frees served.
    pub frees: EventCounter,
    /// Pages permanently dedicated to small buckets.
    pub pages_dedicated: EventCounter,
}

/// The McKusick–Karels allocator under one global lock.
pub struct MkAllocator {
    space: Arc<KernelSpace>,
    inner: SpinLock<MkInner>,
    stats: MkStats,
}

impl MkAllocator {
    /// Creates an MK allocator over its own kernel space.
    pub fn new(space_bytes: usize, phys_pages: usize) -> Self {
        // Shrink the vmblk grain for small spaces so the space is always a
        // whole number of vmblks.
        let shift = 22.min(space_bytes.trailing_zeros());
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(space_bytes)
                .vmblk_shift(shift)
                .phys_pages(phys_pages),
        ));
        let total_pages = space_bytes >> PAGE_SHIFT;
        MkAllocator {
            space,
            inner: SpinLock::new(MkInner {
                freelist: [ptr::null_mut(); NBUCKETS],
                nfree: [0; NBUCKETS],
                kmemsizes: vec![KmemSize::NotOwned; total_pages],
                owned: 0,
                scan_hint: 0,
            }),
            stats: MkStats::default(),
        }
    }

    /// The backing space (physical-pool accounting).
    pub fn space(&self) -> &KernelSpace {
        &self.space
    }

    /// Statistics.
    pub fn stats(&self) -> &MkStats {
        &self.stats
    }

    /// Allocates `size` bytes (`MALLOC`).
    pub fn malloc(&self, size: usize) -> Option<NonNull<u8>> {
        if size == 0 {
            return None;
        }
        self.stats.allocs.inc();
        if size > PAGE_SIZE {
            return self.malloc_large(size);
        }
        let bucket = bucket_index(size);
        let mut inner = self.inner.lock();
        if inner.freelist[bucket].is_null() {
            self.carve_page(&mut inner, bucket)?;
        }
        let block = inner.freelist[bucket];
        probe::emit(ProbeEvent::LineWrite {
            line: probe::line_of(&inner.freelist[bucket] as *const _),
        });
        probe::emit(ProbeEvent::LineRead {
            line: probe::line_of(block),
        });
        // SAFETY: freelist blocks store their next link in word 0 and are
        // owned by the allocator.
        inner.freelist[bucket] = unsafe { (block as *mut *mut u8).read() };
        inner.nfree[bucket] -= 1;
        probe::emit(ProbeEvent::Work { cycles: 25 });
        // SAFETY: blocks are interior to the reservation: non-null.
        Some(unsafe { NonNull::new_unchecked(block) })
    }

    /// Frees a block (`FREE`): the size comes from `kmemsizes[]`.
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`MkAllocator::malloc`] on this allocator and
    /// be freed exactly once, with no live references into it.
    pub unsafe fn free(&self, ptr: NonNull<u8>) {
        self.stats.frees.inc();
        let addr = ptr.as_ptr() as usize;
        let page = self.page_of(addr);
        let mut inner = self.inner.lock();
        match inner.kmemsizes[page] {
            KmemSize::Small { bucket } => {
                let bucket = usize::from(bucket);
                probe::emit(ProbeEvent::LineWrite {
                    line: probe::line_of(ptr.as_ptr()),
                });
                probe::emit(ProbeEvent::LineWrite {
                    line: probe::line_of(&inner.freelist[bucket] as *const _),
                });
                // SAFETY: the block is free as of this call; word 0 is the
                // link.
                unsafe { (ptr.as_ptr() as *mut *mut u8).write(inner.freelist[bucket]) };
                inner.freelist[bucket] = ptr.as_ptr();
                inner.nfree[bucket] += 1;
                probe::emit(ProbeEvent::Work { cycles: 20 });
            }
            KmemSize::LargeHead { npages } => {
                let npages = npages as usize;
                debug_assert_eq!(addr & (PAGE_SIZE - 1), 0);
                for p in page..page + npages {
                    inner.kmemsizes[p] = KmemSize::Free;
                }
                if page < inner.scan_hint {
                    inner.scan_hint = page;
                }
                // Under the lock: it serialises every write of the frame
                // account, as `PhysPool` requires.
                self.space.phys().release(npages);
                drop(inner);
                probe::emit(ProbeEvent::Work { cycles: 40 });
            }
            other => panic!("MK free of a pointer in a {other:?} page"),
        }
    }

    /// Free blocks currently on bucket freelists (tests).
    pub fn free_blocks(&self, bucket: usize) -> usize {
        self.inner.lock().nfree[bucket]
    }

    fn page_of(&self, addr: usize) -> usize {
        debug_assert!(self.space.contains(addr), "foreign pointer");
        (addr - self.space.base_addr()) >> PAGE_SHIFT
    }

    fn page_addr(&self, page: usize) -> *mut u8 {
        (self.space.base_addr() + (page << PAGE_SHIFT)) as *mut u8
    }

    /// Finds `n` consecutive free pages (first fit), extending ownership
    /// with fresh vmblks when the owned prefix has no such run.
    fn find_free_run(&self, inner: &mut MkInner, n: usize) -> Option<usize> {
        // `scan_hint` is a lower bound on the first free page, so the scan
        // may safely start there.
        let mut run = 0usize;
        let mut start = 0usize;
        let mut i = inner.scan_hint;
        while i < inner.owned {
            if inner.kmemsizes[i] == KmemSize::Free {
                if run == 0 {
                    start = i;
                }
                run += 1;
                if run == n {
                    return Some(start);
                }
            } else {
                run = 0;
            }
            i += 1;
        }
        // The loop left `run` = length of the trailing free run. Fresh
        // vmblks extend it: they are carved in address order, so their
        // pages are contiguous with the owned prefix.
        loop {
            if run >= n {
                return Some(start);
            }
            let region = self.space.alloc_vmblk().ok()?;
            let first = (region.base().as_ptr() as usize - self.space.base_addr()) >> PAGE_SHIFT;
            debug_assert_eq!(first, inner.owned, "vmblks must be carved in order");
            let pages = region.size() >> PAGE_SHIFT;
            for p in first..first + pages {
                inner.kmemsizes[p] = KmemSize::Free;
            }
            if run == 0 {
                start = first;
            }
            inner.owned = first + pages;
            run = inner.owned - start;
        }
    }

    /// Dedicates one page to `bucket` and carves it into blocks.
    fn carve_page(&self, inner: &mut MkInner, bucket: usize) -> Option<()> {
        let page = self.find_free_run(inner, 1)?;
        self.space.phys().claim(1).ok()?;
        inner.kmemsizes[page] = KmemSize::Small {
            bucket: bucket as u8,
        };
        self.stats.pages_dedicated.inc();
        let bsize = bucket_size(bucket);
        let base = self.page_addr(page);
        let mut head = inner.freelist[bucket];
        for i in (0..PAGE_SIZE / bsize).rev() {
            // SAFETY: offsets stay inside the page we own.
            let blk = unsafe { base.add(i * bsize) };
            // SAFETY: fresh free block; word 0 is the link.
            unsafe { (blk as *mut *mut u8).write(head) };
            head = blk;
        }
        inner.freelist[bucket] = head;
        inner.nfree[bucket] += PAGE_SIZE / bsize;
        Some(())
    }

    fn malloc_large(&self, size: usize) -> Option<NonNull<u8>> {
        let npages = size.div_ceil(PAGE_SIZE);
        let mut inner = self.inner.lock();
        let start = self.find_free_run(&mut inner, npages)?;
        self.space.phys().claim(npages).ok()?;
        inner.kmemsizes[start] = KmemSize::LargeHead {
            npages: npages as u32,
        };
        for p in start + 1..start + npages {
            inner.kmemsizes[p] = KmemSize::LargeCont;
        }
        probe::emit(ProbeEvent::Work { cycles: 60 });
        // SAFETY: page addresses are interior to the reservation.
        Some(unsafe { NonNull::new_unchecked(self.page_addr(start)) })
    }
}

impl KernelAllocator for MkAllocator {
    type Ctx = ();
    type Prep = usize;

    fn name(&self) -> &'static str {
        "mk"
    }

    fn register(&self) -> Self::Ctx {}

    fn prepare(&self, size: usize) -> usize {
        size
    }

    fn alloc(&self, _ctx: &mut (), size: usize) -> Option<NonNull<u8>> {
        self.malloc(size)
    }

    unsafe fn free(&self, _ctx: &mut (), ptr: NonNull<u8>, _size: usize) {
        // SAFETY: forwarded caller contract.
        unsafe { MkAllocator::free(self, ptr) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> MkAllocator {
        MkAllocator::new(4 << 20, 512)
    }

    #[test]
    fn bucket_index_matches_reference() {
        for size in 1..=4096usize {
            let want = size.next_power_of_two().max(16).trailing_zeros() - MIN_BUCKET_SHIFT;
            assert_eq!(bucket_index(size), want as usize, "size {size}");
        }
    }

    #[test]
    fn small_round_trip_reuses_block() {
        let a = mk();
        let p = a.malloc(100).unwrap();
        // SAFETY: allocated above.
        unsafe { a.free(p) };
        let q = a.malloc(100).unwrap();
        assert_eq!(p, q);
        // SAFETY: allocated above.
        unsafe { a.free(q) };
    }

    #[test]
    fn blocks_within_a_page_are_disjoint() {
        let a = mk();
        let blocks: Vec<_> = (0..32).map(|_| a.malloc(128).unwrap()).collect();
        let mut addrs: Vec<_> = blocks.iter().map(|p| p.as_ptr() as usize).collect();
        addrs.sort_unstable();
        for w in addrs.windows(2) {
            assert!(w[1] - w[0] >= 128);
        }
        for p in blocks {
            // SAFETY: allocated above.
            unsafe { a.free(p) };
        }
        // All 32 blocks are back on the freelist of bucket 3 (128 B).
        assert_eq!(a.free_blocks(3), 32);
    }

    #[test]
    fn small_pages_are_never_returned() {
        let a = mk();
        let p = a.malloc(64).unwrap();
        // SAFETY: allocated above.
        unsafe { a.free(p) };
        // The page stays dedicated: physical frame still claimed.
        assert_eq!(a.space().phys().in_use(), 1);
        assert_eq!(a.stats().pages_dedicated.get(), 1);
    }

    #[test]
    fn large_round_trip_returns_pages() {
        let a = mk();
        let p = a.malloc(3 * PAGE_SIZE).unwrap();
        assert_eq!(p.as_ptr() as usize % PAGE_SIZE, 0);
        assert_eq!(a.space().phys().in_use(), 3);
        // SAFETY: allocated above.
        unsafe { a.free(p) };
        assert_eq!(a.space().phys().in_use(), 0);
        // Pages are reusable for a different large size.
        let q = a.malloc(2 * PAGE_SIZE).unwrap();
        // SAFETY: allocated above.
        unsafe { a.free(q) };
    }

    #[test]
    fn large_spans_coalesce_with_free_neighbours() {
        let a = mk();
        let p1 = a.malloc(2 * PAGE_SIZE).unwrap();
        let p2 = a.malloc(2 * PAGE_SIZE).unwrap();
        // SAFETY: allocated above.
        unsafe {
            a.free(p1);
            a.free(p2);
        }
        // A 4-page span now fits where the two 2-page spans were.
        let q = a.malloc(4 * PAGE_SIZE).unwrap();
        assert_eq!(q, p1.min(p2));
        // SAFETY: allocated above.
        unsafe { a.free(q) };
    }

    #[test]
    fn fragmentation_blocks_reuse_for_other_sizes() {
        // This is the paper's point about MK: dedicate all memory to one
        // bucket, free it, and other sizes still cannot allocate.
        let a = MkAllocator::new(1 << 20, 8);
        let mut held = Vec::new();
        while let Some(p) = a.malloc(16) {
            held.push(p);
        }
        for p in held {
            // SAFETY: allocated above.
            unsafe { a.free(p) };
        }
        // Everything was freed, yet 64-byte allocations find no memory:
        // all 8 frames stay dedicated to the 16-byte bucket.
        assert_eq!(a.space().phys().in_use(), 8);
        assert!(a.malloc(64).is_none());
    }

    #[test]
    fn exhaustion_is_none_not_panic() {
        let a = MkAllocator::new(1 << 20, 2);
        let p = a.malloc(2 * PAGE_SIZE).unwrap();
        assert!(a.malloc(PAGE_SIZE).is_none());
        assert!(a.malloc(16).is_none());
        // SAFETY: allocated above.
        unsafe { a.free(p) };
        assert!(a.malloc(16).is_some());
    }

    #[test]
    fn concurrent_traffic_is_serialized_correctly() {
        let a = MkAllocator::new(8 << 20, 1024);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut held = Vec::new();
                    for i in 0..3000 {
                        held.push(a.malloc(16 << (i % 4)).unwrap());
                        if held.len() > 16 {
                            // SAFETY: allocated above, freed once.
                            unsafe { a.free(held.swap_remove(i % held.len())) };
                        }
                    }
                    for p in held {
                        // SAFETY: allocated above, freed once.
                        unsafe { a.free(p) };
                    }
                });
            }
        });
        assert_eq!(a.stats().allocs.get(), 12_000);
        assert_eq!(a.stats().frees.get(), 12_000);
    }
}
