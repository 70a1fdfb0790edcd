//! The coalesce-to-page layer (paper Figure 5).
//!
//! One instance per size class. "The coalesce-to-page layer gathers blocks
//! of a given size and coalesces them into pages. This layer maintains a
//! data structure for each page, which contains the per-page freelist and a
//! count of the number of blocks in the page that are currently free. When
//! the count equals the total number of blocks in the page, the entire page
//! may be given back to the system" — no mark-and-sweep, no offline pass.
//!
//! Pages that still have blocks in use sit on a **radix-sorted** freelist
//! (one bucket per free count) "so that pages with the fewest free blocks
//! will be allocated from most frequently", giving nearly-free pages time
//! to gather their last outstanding blocks and drain completely.
//!
//! # One lock per class
//!
//! As in the paper, the whole structure sits under one spinlock per class.
//! The layers above amortise the traffic: a call here moves a chain of
//! `target` blocks, so the lock is taken once per chain, not per block.
//! Each page's freelist and free count live in its descriptor's
//! [`PdInner`](crate::pagedesc::PdInner); the buckets are [`PdList`]s,
//! with a bitmap beside them naming the non-empty ones, so picking a page
//! is a scan of a few words however many buckets the class has.
//!
//! **Cost.** Every refill and drain is O(blocks moved): a refill takes its
//! blocks off the front of the picked pages' freelists, and a drain gathers
//! each run of consecutive chain blocks on one page and moves that page
//! between buckets once per run.
//!
//! **Where page work runs.** A fresh page is taken from the vmblk layer
//! and carved with the class lock released; only listing it needs the
//! lock. A page that drains completely goes back to the vmblk layer from
//! under the class lock, so the lock order is class → vmblk — and the
//! vmblk layer never calls up.

use core::ptr;

use kmem_smp::probe::{self, ProbeEvent};
use kmem_smp::{faults, CachePadded, Faults, LocalCounter, NodeId, SpinLock, SpinLockGuard};
use kmem_vm::{VmError, PAGE_SIZE};

use crate::block::{self, LinkKey, MIN_BLOCK};
use crate::chain::Chain;
use crate::counters::counters;
use crate::pagedesc::{PageDesc, PdKind, PdList};
use crate::vmblklayer::VmblkLayer;

counters! {
    /// Coalesce-to-page counters for one class, as captured by a snapshot.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PageCounts {
        /// Chain requests from the global layer.
        counter refills: u64,
        /// Refills that had to take a fresh page from the vmblk layer.
        counter page_acquires: u64,
        /// Pages fully drained and returned to the vmblk layer.
        counter page_releases: u64,
        /// Individual blocks pushed down from the global layer.
        counter block_frees: u64,
        /// Class-lock acquisitions that found the lock held (contention
        /// indicator; zero when single-threaded). The name is kept from the
        /// lock-free layer this one replaced, for readers of older
        /// snapshots.
        counter cas_retries: u64,
    }
    /// Live statistics of one coalesce-to-page instance. Every row is
    /// written with the class lock held, so a bump is a load and a store.
    live struct PageLayerStats<LocalCounter>;
}

/// Words of [`BucketBits`]: one bit per possible free count,
/// `0..=PAGE_SIZE / MIN_BLOCK`.
const BUCKET_WORDS: usize = (PAGE_SIZE / MIN_BLOCK + 1).div_ceil(64);

/// One bit per radix bucket, set exactly while the bucket holds a page.
#[derive(Default)]
struct BucketBits([u64; BUCKET_WORDS]);

impl BucketBits {
    fn set(&mut self, b: usize) {
        self.0[b / 64] |= 1 << (b % 64);
    }

    fn clear(&mut self, b: usize) {
        self.0[b / 64] &= !(1 << (b % 64));
    }

    fn get(&self, b: usize) -> bool {
        self.0[b / 64] & (1 << (b % 64)) != 0
    }

    /// The lowest set bucket `>= from`.
    fn first_set_from(&self, from: usize) -> Option<usize> {
        let mut mask = !0u64 << (from % 64);
        for w in from / 64..BUCKET_WORDS {
            let bits = self.0[w] & mask;
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            mask = !0;
        }
        None
    }

    /// The highest set bucket `<= upto`.
    fn last_set_upto(&self, upto: usize) -> Option<usize> {
        let mut mask = !0u64 >> (63 - upto % 64);
        for w in (0..=upto / 64).rev() {
            let bits = self.0[w] & mask;
            if bits != 0 {
                return Some(w * 64 + 63 - bits.leading_zeros() as usize);
            }
            mask = !0;
        }
        None
    }
}

/// What the class lock guards.
struct Pages {
    /// `buckets[c]` lists the pages with exactly `c` free blocks. Bucket 0
    /// is unused; bucket `blocks_per_page` holds only the full pages whose
    /// coalesce the `page.coalesce` failpoint deferred.
    buckets: Box<[PdList]>,
    bits: BucketBits,
    /// Pages currently owned by this class.
    npages: usize,
    /// Free blocks across all owned pages.
    free_blocks: usize,
}

impl Pages {
    /// Lists `pd` in bucket `b`.
    ///
    /// # Safety
    ///
    /// `pd` is a page of this class and in no list.
    unsafe fn list(&mut self, b: usize, pd: *mut PageDesc) {
        // SAFETY: the class lock is held (we are behind its guard).
        unsafe { self.buckets[b].push_front(pd) };
        self.bits.set(b);
    }

    /// Takes `pd` out of bucket `b`.
    ///
    /// # Safety
    ///
    /// `pd` is listed in bucket `b`.
    unsafe fn unlist(&mut self, b: usize, pd: *mut PageDesc) {
        // SAFETY: as for `list`.
        unsafe { self.buckets[b].remove(pd) };
        if self.buckets[b].is_empty() {
            self.bits.clear(b);
        }
    }
}

/// The class lock, and the counters only its holder writes: the words a
/// call writes, kept off the lines of the words every call only reads.
struct Locked {
    pages: SpinLock<Pages>,
    stats: PageLayerStats,
}

/// Reports the write of a page descriptor: the one shared line a refill
/// or drain touches besides the class lock's own.
#[inline]
fn touch(pd: *const PageDesc) {
    probe::emit(ProbeEvent::LineWrite {
        line: probe::line_of(pd),
    });
}

/// The coalesce-to-page layer for one size class.
pub struct PageLayer {
    class: usize,
    block_size: usize,
    blocks_per_page: usize,
    radix: bool,
    /// Link-encoding key for the per-page freelists (the arena key under
    /// the hardened profile, identity otherwise).
    key: LinkKey,
    /// `Some(seed)` shuffles each fresh page's carve order (hardened
    /// randomization); `None` carves in ascending address order.
    shuffle_seed: Option<u64>,
    /// Write the full free-poison pattern at carve time, so verify-on-
    /// alloc holds for never-yet-allocated blocks too.
    poison: bool,
    faults: Faults,
    locked: CachePadded<Locked>,
}

impl PageLayer {
    /// Creates the layer for size class `class` with the given block size
    /// (no failpoints, plain links, ascending carve, no carve-time poison
    /// — the default profile).
    pub fn new(class: usize, block_size: usize, radix: bool) -> Self {
        PageLayer::new_hardened(
            class,
            block_size,
            radix,
            Faults::none(),
            LinkKey::PLAIN,
            None,
            false,
        )
    }

    /// The full constructor: wired to a fault-injection plan (consults
    /// `page.get` and `page.coalesce`), with the hardened profile's knobs —
    /// freelist links encoded under `key`, fresh pages carved in an order
    /// shuffled from `shuffle_seed`, and (`poison`) the free-poison
    /// pattern laid down at carve time.
    pub fn new_hardened(
        class: usize,
        block_size: usize,
        radix: bool,
        faults: Faults,
        key: LinkKey,
        shuffle_seed: Option<u64>,
        poison: bool,
    ) -> Self {
        assert!(block_size.is_power_of_two() && (MIN_BLOCK..=PAGE_SIZE).contains(&block_size));
        let blocks_per_page = PAGE_SIZE / block_size;
        PageLayer {
            class,
            block_size,
            blocks_per_page,
            radix,
            key,
            shuffle_seed,
            poison,
            faults,
            locked: CachePadded::new(Locked {
                pages: SpinLock::new(Pages {
                    buckets: (0..=blocks_per_page).map(|_| PdList::new()).collect(),
                    bits: BucketBits::default(),
                    npages: 0,
                    free_blocks: 0,
                }),
                stats: PageLayerStats::default(),
            }),
        }
    }

    /// Blocks that fit in one page at this class's size.
    pub fn blocks_per_page(&self) -> usize {
        self.blocks_per_page
    }

    /// Layer statistics.
    pub fn stats(&self) -> &PageLayerStats {
        &self.locked.stats
    }

    /// Consults `page.get`, which a refill does on entry and again before
    /// taking a fresh page: a firing consult is an injected refill failure.
    fn consult_page_get(&self) -> Result<(), VmError> {
        if self.faults.hit(faults::PAGE_GET) {
            return Err(VmError::OutOfPhysical {
                requested: 1,
                available: 0,
            });
        }
        Ok(())
    }

    /// Takes the class lock, counting an acquisition that finds it held.
    #[inline]
    fn lock(&self) -> SpinLockGuard<'_, Pages> {
        if let Some(pages) = self.locked.pages.try_lock() {
            return pages;
        }
        let pages = self.locked.pages.lock();
        self.locked.stats.cas_retries.bump();
        pages
    }

    /// Collects up to `want` blocks for the global layer.
    ///
    /// Blocks come from the pages with the *fewest* free blocks first; a
    /// fresh page is taken from the vmblk layer only when no owned page
    /// has a free block. Returns a possibly short chain under memory
    /// pressure, or the error when not a single block could be produced.
    pub fn alloc_chain(&self, vm: &VmblkLayer, want: usize) -> Result<Chain, VmError> {
        self.alloc_chain_on(vm, want, NodeId::new(0))
    }

    /// As [`PageLayer::alloc_chain`], preferring node `preferred` when a
    /// fresh page must be taken from the vmblk layer. The radix buckets
    /// themselves are node-blind: a block already carved is served from
    /// wherever it sits (draining pages beats placement), so the
    /// preference only steers *new* frames.
    pub fn alloc_chain_on(
        &self,
        vm: &VmblkLayer,
        want: usize,
        preferred: NodeId,
    ) -> Result<Chain, VmError> {
        self.consult_page_get()?;
        let mut chain = Chain::new_keyed(self.key);
        let mut pages = self.lock();
        self.locked.stats.refills.bump();
        loop {
            while chain.len() < want {
                let Some((b, pd)) = self.pick(&pages) else {
                    break;
                };
                // SAFETY: lock held; `pick` found `pd` listed in bucket `b`.
                unsafe {
                    pages.unlist(b, pd);
                    self.take(&mut pages, pd, want, &mut chain);
                }
            }
            if chain.len() == want {
                return Ok(chain);
            }
            drop(pages);
            let pd = match self.acquire_page(vm, preferred) {
                Ok(pd) => pd,
                Err(_) if !chain.is_empty() => return Ok(chain), // low memory: short chain
                Err(e) => return Err(e),
            };
            pages = self.lock();
            self.locked.stats.page_acquires.bump();
            pages.npages += 1;
            pages.free_blocks += self.blocks_per_page;
            // SAFETY: lock held; the fresh page is ours and in no list.
            unsafe { self.take(&mut pages, pd, want, &mut chain) };
        }
    }

    /// The listed page a refill takes from next. The paper's radix policy
    /// scans the buckets *ascending*, so the page with the fewest free
    /// blocks is taken; the ablation (`radix = false`) scans descending —
    /// the tempting "fewest page visits per refill" optimization that
    /// destroys page drain. A fault-deferred full page sits in the top
    /// bucket and is consumed like any other.
    fn pick(&self, pages: &Pages) -> Option<(usize, *mut PageDesc)> {
        let b = if self.radix {
            pages.bits.first_set_from(1)?
        } else {
            pages.bits.last_set_upto(self.blocks_per_page)?
        };
        Some((b, pages.buckets[b].front()?))
    }

    /// Moves up to `want - chain.len()` blocks off the front of page
    /// `pd`'s freelist into `chain`, then lists the page at what it has
    /// left (a page with nothing left stays unlisted until a free).
    ///
    /// # Safety
    ///
    /// The class lock is held, and `pd` is a page of this class in no list.
    unsafe fn take(&self, pages: &mut Pages, pd: *mut PageDesc, want: usize, chain: &mut Chain) {
        touch(pd);
        // SAFETY: lock held per contract.
        let pdi = unsafe { (*pd).inner() };
        let have = pdi.free_count as usize;
        let k = have.min(want - chain.len());
        for _ in 0..k {
            let blk = pdi.freelist;
            debug_assert!(!blk.is_null(), "page freelist under-supplied");
            // SAFETY: `blk` is a free block on this page's freelist.
            pdi.freelist = unsafe { block::read_next(blk, self.key) };
            // SAFETY: off the freelist, the block is the chain's alone.
            unsafe { chain.push(blk) };
        }
        pdi.free_count = (have - k) as u32;
        pages.free_blocks -= k;
        if have > k {
            // SAFETY: `pd` is in no list per contract.
            unsafe { pages.list(have - k, pd) };
        }
    }

    /// Returns each block in `chain` to its page's freelist; fully drained
    /// pages go back to the vmblk layer.
    ///
    /// "There is no reason to maintain a split freelist at the global
    /// layer, since each block must be individually examined by the
    /// coalesce-to-page layer in order to determine which page's freelist
    /// it belongs on."
    ///
    /// # Safety
    ///
    /// Every block in `chain` must belong to this class (allocated through
    /// it) and be free and unaliased.
    pub unsafe fn free_chain(&self, vm: &VmblkLayer, mut chain: Chain) {
        let bpp = self.blocks_per_page;
        let mut pages = self.lock();
        self.locked.stats.block_frees.add(chain.len() as u64);
        // A hardened chain that meets a clobbered link sinks itself: the
        // blocks behind the link are lost to the count, as the arena
        // accounts them.
        let mut next = chain.pop();
        while let Some(first) = next {
            let pd = vm
                .pd_of(first as usize)
                .expect("freed block not managed by this allocator");
            debug_assert_eq!(pd.kind(), PdKind::BlockPage);
            debug_assert_eq!(pd.class(), self.class);
            let pd_ptr = pd as *const PageDesc as *mut PageDesc;
            touch(pd_ptr);
            // SAFETY: the class lock is held and this class owns the page.
            let pdi = unsafe { pd.inner() };
            let before = pdi.free_count as usize;
            // The run of consecutive chain blocks landing on this page
            // goes onto its freelist with one bucket move, however long.
            let page = first as usize & !(PAGE_SIZE - 1);
            let mut blk = first;
            let mut run = 0;
            loop {
                // SAFETY: `blk` is free and ours per the function contract.
                unsafe { block::write_next(blk, pdi.freelist, self.key) };
                pdi.freelist = blk;
                run += 1;
                next = chain.pop();
                match next {
                    Some(b) if b as usize & !(PAGE_SIZE - 1) == page => blk = b,
                    _ => break,
                }
            }
            let count = before + run;
            debug_assert!(count <= bpp);
            pdi.free_count = count as u32;
            pages.free_blocks += run;
            if before > 0 {
                // SAFETY: a page with free blocks is listed at its count.
                unsafe { pages.unlist(before, pd_ptr) };
            }
            if count == bpp {
                self.coalesce(&mut pages, vm, pd);
            } else {
                // SAFETY: unlisted just above, or never listed at 0.
                unsafe { pages.list(count, pd_ptr) };
            }
        }
    }

    /// Takes one fresh page from the vmblk layer (preferring frames homed
    /// on `preferred`) and carves it into blocks, all on its freelist. Runs
    /// without the class lock: until it is listed, the page is the
    /// caller's alone.
    fn acquire_page(&self, vm: &VmblkLayer, preferred: NodeId) -> Result<*mut PageDesc, VmError> {
        self.consult_page_get()?;
        let (page, pd) = vm.alloc_span_on(1, preferred)?;
        let base = page.as_ptr();
        pd.set_class(self.class);
        pd.set_kind(PdKind::BlockPage);
        // SAFETY: the page is ours alone until it is listed.
        let pdi = unsafe { pd.inner() };
        pdi.freelist = ptr::null_mut();
        pdi.free_count = self.blocks_per_page as u32;
        // Carve the page into blocks, building the page freelist — in
        // ascending address order by default, or in an order shuffled
        // from the hardened seed so allocation order does not expose the
        // page layout.
        let carve = |i: usize| {
            // SAFETY: offsets stay inside the page we own.
            let blk = unsafe { base.add(i * self.block_size) };
            // SAFETY: `blk` is a fresh free block of this page.
            unsafe {
                block::write_next(blk, pdi.freelist, self.key);
                if self.poison {
                    block::poison_free(blk, self.block_size);
                } else {
                    block::poison(blk);
                }
            }
            pdi.freelist = blk;
        };
        match self.shuffle_seed {
            None => (0..self.blocks_per_page).rev().for_each(carve),
            Some(seed) => {
                // Fisher–Yates over the block indices, seeded per page
                // (arena seed ⊕ page address) so two pages of the same
                // class carve in different orders but a fixed seed keeps
                // the whole run reproducible.
                let mut order: Vec<usize> = (0..self.blocks_per_page).collect();
                let mut s = seed ^ base as u64;
                for i in (1..order.len()).rev() {
                    // splitmix64 step — self-contained, no RNG dependency.
                    s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = s;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
                    order.swap(i, (z % (i as u64 + 1)) as usize);
                }
                order.into_iter().for_each(carve);
            }
        }
        Ok(pd as *const PageDesc as *mut PageDesc)
    }

    /// Hands a page whose every block is free back to the vmblk layer ("the
    /// physical memory is returned to the system; the virtual memory is
    /// retained and passed up") — unless the `page.coalesce` failpoint
    /// defers it, parking the page in the top bucket for a later refill or
    /// [`flush_full_pages`](PageLayer::flush_full_pages).
    fn coalesce(&self, pages: &mut Pages, vm: &VmblkLayer, pd: &PageDesc) {
        if self.faults.hit(faults::PAGE_COALESCE) {
            // SAFETY: the caller holds the lock; the page is in no list.
            unsafe { pages.list(self.blocks_per_page, pd as *const PageDesc as *mut PageDesc) };
            return;
        }
        self.locked.stats.page_releases.bump();
        // SAFETY: the caller holds the class lock; the page is unlisted.
        let pdi = unsafe { pd.inner() };
        pdi.freelist = ptr::null_mut();
        pdi.free_count = 0;
        pages.npages -= 1;
        pages.free_blocks -= self.blocks_per_page;
        pd.set_kind(PdKind::Unused);
        pd.set_class(0);
        // SAFETY: the span is exactly the fully free page we own.
        unsafe { vm.free_span_at(vm.page_of(pd), 1) };
    }

    /// Releases every full page a fault-deferred coalesce left listed —
    /// the recovery pass, and the final drain before teardown. Each
    /// release consults `page.coalesce` again.
    pub fn flush_full_pages(&self, vm: &VmblkLayer) {
        let bpp = self.blocks_per_page;
        let mut pages = self.lock();
        let mut full = core::mem::take(&mut pages.buckets[bpp]);
        pages.bits.clear(bpp);
        // SAFETY: lock held; `full` holds the pages taken off the bucket.
        while let Some(pd) = unsafe { full.pop_front() } {
            // SAFETY: listed descriptors are valid block pages of this class.
            self.coalesce(&mut pages, vm, unsafe { &*pd });
        }
    }

    /// (owned pages, free blocks) — verification.
    pub fn usage(&self) -> (usize, usize) {
        let pages = self.lock();
        (pages.npages, pages.free_blocks)
    }

    /// Walks every listed page in ascending bucket order, calling
    /// `f(free_count, freelist_len)`, and asserts that each bucket's bit
    /// says whether it holds a page and that each page is listed at its
    /// count (verification).
    pub fn for_each_page(&self, mut f: impl FnMut(usize, usize)) {
        let pages = self.lock();
        for (b, list) in pages.buckets.iter().enumerate() {
            assert_eq!(
                pages.bits.get(b),
                !list.is_empty(),
                "bucket {b}'s bit disagrees with its list"
            );
            // SAFETY: lock held for the whole walk.
            for pd in unsafe { list.iter() } {
                // SAFETY: listed pages are valid block pages of this class.
                let pdi = unsafe { (*pd).inner() };
                assert_eq!(pdi.free_count as usize, b, "page listed off its count");
                let mut n = 0;
                let mut blk = pdi.freelist;
                while !blk.is_null() {
                    n += 1;
                    // SAFETY: page freelist blocks are free and linked.
                    blk = unsafe { block::read_next(blk, self.key) };
                }
                f(b, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmem_smp::FailPolicy;
    use kmem_vm::{KernelSpace, SpaceConfig};
    use std::sync::Arc;

    fn setup(block_size: usize, radix: bool, phys_pages: usize) -> (VmblkLayer, PageLayer) {
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(1 << 20)
                .vmblk_shift(14)
                .phys_pages(phys_pages),
        ));
        let vm = VmblkLayer::new(space, true);
        let layer = PageLayer::new(3, block_size, radix);
        (vm, layer)
    }

    fn chain_len_and_back(layer: &PageLayer, vm: &VmblkLayer, chain: Chain) -> usize {
        let n = chain.len();
        // SAFETY: blocks came from this layer moments ago.
        unsafe { layer.free_chain(vm, chain) };
        n
    }

    #[test]
    fn locked_words_share_no_line_with_the_read_mostly_ones() {
        use core::mem::{offset_of, size_of};
        // The 64-byte lines a field of `len` bytes at `offset` touches.
        let lines = |offset: usize, len: usize| offset / 64..=(offset + len - 1) / 64;
        let hot = lines(
            offset_of!(PageLayer, locked),
            size_of::<CachePadded<Locked>>(),
        );
        for (name, cold) in [
            (
                "blocks_per_page",
                lines(offset_of!(PageLayer, blocks_per_page), size_of::<usize>()),
            ),
            (
                "key",
                lines(offset_of!(PageLayer, key), size_of::<LinkKey>()),
            ),
            (
                "faults",
                lines(offset_of!(PageLayer, faults), size_of::<Faults>()),
            ),
        ] {
            assert!(
                cold.end() < hot.start() || hot.end() < cold.start(),
                "`{name}` on lines {cold:?} shares one with the locked words on {hot:?}"
            );
        }
    }

    #[test]
    fn bucket_bits_scan_across_word_boundaries() {
        let mut bits = BucketBits::default();
        assert_eq!(bits.first_set_from(0), None);
        assert_eq!(bits.last_set_upto(256), None);
        for b in [3, 64, 256] {
            bits.set(b);
        }
        // Scans cross word boundaries and honour their starting bucket.
        assert_eq!(bits.first_set_from(0), Some(3));
        assert_eq!(bits.first_set_from(4), Some(64));
        assert_eq!(bits.first_set_from(65), Some(256));
        assert_eq!(bits.first_set_from(257), None);
        assert_eq!(bits.last_set_upto(256), Some(256));
        assert_eq!(bits.last_set_upto(255), Some(64));
        assert_eq!(bits.last_set_upto(63), Some(3));
        assert_eq!(bits.last_set_upto(2), None);
        bits.clear(64);
        assert!(!bits.get(64) && bits.get(3) && bits.get(256));
        assert_eq!(bits.first_set_from(4), Some(256));
        assert_eq!(bits.last_set_upto(255), Some(3));
    }

    #[test]
    fn refill_carves_a_page_into_blocks() {
        let (vm, layer) = setup(512, true, 64);
        assert_eq!(layer.blocks_per_page(), 8);
        let chain = layer.alloc_chain(&vm, 3).unwrap();
        assert_eq!(chain.len(), 3);
        let (pages, free) = layer.usage();
        assert_eq!((pages, free), (1, 5));
        assert_eq!(chain_len_and_back(&layer, &vm, chain), 3);
        // Fully drained: page returned, nothing owned.
        assert_eq!(layer.usage(), (0, 0));
        assert_eq!(vm.space().phys().in_use(), 0);
    }

    #[test]
    fn blocks_are_disjoint_and_page_aligned_strides() {
        let (vm, layer) = setup(256, true, 64);
        let mut chain = layer.alloc_chain(&vm, 16).unwrap();
        let mut addrs = Vec::new();
        while let Some(b) = chain.pop() {
            addrs.push(b as usize);
        }
        addrs.sort_unstable();
        for w in addrs.windows(2) {
            assert!(w[1] - w[0] >= 256, "blocks overlap");
        }
        for &a in &addrs {
            assert_eq!(a % 256, 0, "block misaligned");
        }
        // Hand them back one chain at a time.
        let mut back = Chain::new();
        for a in addrs {
            // SAFETY: these are the blocks we just took.
            unsafe { back.push(a as *mut u8) };
        }
        // SAFETY: as above.
        unsafe { layer.free_chain(&vm, back) };
        assert_eq!(layer.usage(), (0, 0));
    }

    #[test]
    fn radix_prefers_fullest_page() {
        let (vm, layer) = setup(1024, true, 64);
        // Two pages of 4 blocks each.
        let mut c1 = layer.alloc_chain(&vm, 4).unwrap();
        let c2 = layer.alloc_chain(&vm, 4).unwrap();
        assert_eq!(layer.usage().0, 2);
        // Free 1 block of page 1 and all 4 of page 2: page 2 drains and is
        // released, page 1 has one free block.
        let one = {
            let mut c = Chain::new();
            // SAFETY: block from c1.
            unsafe { c.push(c1.pop().unwrap()) };
            c
        };
        // SAFETY: blocks from this layer.
        unsafe {
            layer.free_chain(&vm, one);
            layer.free_chain(&vm, c2);
        }
        assert_eq!(layer.usage(), (1, 1));
        // Next refill must come from the page with the fewest free blocks
        // (the 1-free page), not a fresh page.
        let c3 = layer.alloc_chain(&vm, 1).unwrap();
        assert_eq!(layer.usage(), (1, 0));
        assert_eq!(layer.stats().page_acquires.get(), 2); // no new page
                                                          // Cleanup.
        let mut rest = Chain::new();
        let mut c3 = c3;
        // SAFETY: blocks from this layer.
        unsafe {
            while let Some(b) = c1.pop() {
                rest.push(b);
            }
            while let Some(b) = c3.pop() {
                rest.push(b);
            }
            layer.free_chain(&vm, rest);
        }
        assert_eq!(layer.usage(), (0, 0));
    }

    #[test]
    fn partial_chain_under_memory_pressure() {
        // Pool: 1 header + 1 data page only.
        let (vm, layer) = setup(2048, true, 2);
        // A page holds 2 blocks; asking for 5 returns the 2 we can get.
        let chain = layer.alloc_chain(&vm, 5).unwrap();
        assert_eq!(chain.len(), 2);
        // And with nothing at all we get the error.
        let err = layer.alloc_chain(&vm, 1).unwrap_err();
        assert!(matches!(err, VmError::OutOfPhysical { .. }));
        // SAFETY: blocks from this layer.
        unsafe { layer.free_chain(&vm, chain) };
        assert_eq!(vm.space().phys().in_use(), 0);
    }

    #[test]
    fn single_block_pages_release_on_every_free() {
        let (vm, layer) = setup(4096, true, 16);
        assert_eq!(layer.blocks_per_page(), 1);
        let chain = layer.alloc_chain(&vm, 2).unwrap();
        assert_eq!(chain.len(), 2);
        assert_eq!(layer.usage(), (2, 0));
        // SAFETY: blocks from this layer.
        unsafe { layer.free_chain(&vm, chain) };
        assert_eq!(layer.usage(), (0, 0));
        assert_eq!(layer.stats().page_releases.get(), 2);
    }

    #[test]
    fn most_free_first_ablation_prefers_sparse_pages() {
        let (vm, layer) = setup(1024, false, 64);
        // Two pages: drain one fully, the other partially.
        let mut c1 = layer.alloc_chain(&vm, 4).unwrap();
        let c2 = layer.alloc_chain(&vm, 2).unwrap();
        // Free 1 block of page 1: counts are now {page1: 1, page2: 2}.
        let mut one = Chain::new();
        // SAFETY: block from c1.
        unsafe { one.push(c1.pop().unwrap()) };
        // SAFETY: blocks from this layer.
        unsafe { layer.free_chain(&vm, one) };
        // The ablation policy takes from the page with MORE free blocks.
        let c3 = layer.alloc_chain(&vm, 1).unwrap();
        let mut counts = Vec::new();
        layer.for_each_page(|c, _| counts.push(c));
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 1]);
        // Cleanup.
        let mut rest = Chain::new();
        let mut c3 = c3;
        let mut c2 = c2;
        // SAFETY: blocks from this layer.
        unsafe {
            while let Some(b) = c1.pop() {
                rest.push(b);
            }
            while let Some(b) = c2.pop() {
                rest.push(b);
            }
            while let Some(b) = c3.pop() {
                rest.push(b);
            }
            layer.free_chain(&vm, rest);
        }
        assert_eq!(layer.usage(), (0, 0));
    }

    #[test]
    fn page_walker_counts_match() {
        let (vm, layer) = setup(256, true, 64);
        let chain = layer.alloc_chain(&vm, 5).unwrap();
        let mut seen = Vec::new();
        layer.for_each_page(|count, listed| {
            assert_eq!(count, listed);
            seen.push(count);
        });
        assert_eq!(seen, vec![11]); // 16 per page - 5 taken
                                    // SAFETY: blocks from this layer.
        unsafe { layer.free_chain(&vm, chain) };
    }

    /// The paper's amortisation, stated as probe events: a refill served
    /// from listed pages and a drain that releases no page each take the
    /// class lock exactly once, and take no other lock.
    #[test]
    fn refill_and_drain_take_the_class_lock_once() {
        let (vm, layer) = setup(512, true, 64);
        // Warm a page with free blocks so the steady state never touches
        // the vmblk layer.
        let warm = layer.alloc_chain(&vm, 3).unwrap();
        let lock = &layer.locked.pages as *const SpinLock<Pages> as usize;
        for _ in 0..8 {
            let (chain, alloc) = probe::record(|| layer.alloc_chain(&vm, 1).unwrap());
            assert_eq!(chain.len(), 1);
            // SAFETY: block from this layer.
            let ((), free) = probe::record(|| unsafe { layer.free_chain(&vm, chain) });
            for events in [alloc, free] {
                let locks: Vec<_> = events
                    .iter()
                    .filter(|e| {
                        matches!(
                            e,
                            ProbeEvent::LockAcquire { .. } | ProbeEvent::LockRelease { .. }
                        )
                    })
                    .collect();
                assert_eq!(
                    locks,
                    [
                        &ProbeEvent::LockAcquire { lock },
                        &ProbeEvent::LockRelease { lock }
                    ],
                    "{}",
                    probe::steps(&events)
                );
            }
        }
        assert_eq!(layer.stats().cas_retries.get(), 0, "no contention here");
        // SAFETY: blocks from this layer.
        unsafe { layer.free_chain(&vm, warm) };
        assert_eq!(layer.usage(), (0, 0));
    }

    /// The step bound: a refill from a listed page issues the same short
    /// sequence of shared-memory events whether the page it scans for and
    /// takes from holds 8 blocks or 256.
    #[test]
    fn refill_steps_do_not_grow_with_blocks_per_page() {
        let refill = |block_size: usize| {
            let (vm, layer) = setup(block_size, true, 64);
            // Carves a page and lists it three blocks short of full.
            let first = layer.alloc_chain(&vm, 3).unwrap();
            let (second, events) = probe::record(|| layer.alloc_chain(&vm, 3).unwrap());
            assert_eq!(second.len(), 3);
            assert_eq!(layer.stats().page_acquires.get(), 1, "no second page");
            for chain in [first, second] {
                // SAFETY: blocks from this layer.
                unsafe { layer.free_chain(&vm, chain) };
            }
            assert_eq!(layer.usage(), (0, 0));
            probe::steps(&events)
        };
        let (small, large) = (refill(16), refill(512));
        assert_eq!(small, large, "16-B and 512-B refills must step alike");
        assert_eq!(small, "Lwu");
    }

    /// The drain's step bound: the free that fills the bottom page of a
    /// bucket unlinks it in place, whether 2 or 64 pages are listed there.
    #[test]
    fn drain_steps_do_not_grow_with_pages_listed_above() {
        let drain = |npages: usize| {
            let (vm, layer) = setup(2048, true, 256);
            // Take both blocks of each of `npages` fresh pages.
            let mut held: Vec<(*mut u8, *mut u8)> = (0..npages)
                .map(|_| {
                    let mut c = layer.alloc_chain(&vm, 2).unwrap();
                    (c.pop().unwrap(), c.pop().unwrap())
                })
                .collect();
            // One block back per page lists every page in bucket 1, the
            // first freed at the bottom.
            for &(blk, _) in &held {
                let mut c = Chain::new();
                // SAFETY: a block of this layer, freed once.
                unsafe {
                    c.push(blk);
                    layer.free_chain(&vm, c);
                }
            }
            let mut last = Chain::new();
            // SAFETY: the bottom page's other block, freed once.
            unsafe { last.push(held.remove(0).1) };
            // SAFETY: as above.
            let ((), events) = probe::record(|| unsafe { layer.free_chain(&vm, last) });
            assert_eq!(layer.stats().page_releases.get(), 1);
            let mut rest = Chain::new();
            for (_, blk) in held {
                // SAFETY: each page's remaining block, freed once.
                unsafe { rest.push(blk) };
            }
            // SAFETY: as above.
            unsafe { layer.free_chain(&vm, rest) };
            assert_eq!(layer.usage(), (0, 0));
            probe::steps(&events)
        };
        let (two, many) = (drain(2), drain(64));
        assert_eq!(two, many, "a drain must not walk the pages above its own");
        // The class lock around the vmblk layer's release of the page.
        assert_eq!(two, "LwLwuu");
    }

    #[test]
    fn hardened_carve_is_shuffled_encoded_and_poisoned() {
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(1 << 20).vmblk_shift(14).phys_pages(64),
        ));
        let base = space.base_addr();
        let key = LinkKey::hardened(0xc0de_5eed, base, base + (1 << 20));
        let vm = VmblkLayer::new(space, true);
        let layer =
            PageLayer::new_hardened(3, 256, true, Faults::none(), key, Some(0x5eed_f00d), true);
        // One whole page: 16 blocks, all through encoded freelist links.
        let mut chain = layer.alloc_chain(&vm, 16).unwrap();
        assert_eq!(chain.len(), 16);
        let mut order = Vec::new();
        while let Some(b) = chain.pop() {
            // Carve-time poison: word 1 and the body still carry the
            // pattern (only word 0 was used for links).
            // SAFETY: `b` is a free block of the page just carved.
            assert!(unsafe { block::verify_free_poison(b, 256) }.is_ok());
            order.push(b as usize);
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let reversed: Vec<usize> = sorted.iter().rev().copied().collect();
        assert_ne!(order, sorted, "carve order must not be ascending");
        assert_ne!(order, reversed, "carve order must not be descending");
        // Hand everything back; the page drains and is released.
        let mut back = Chain::new_keyed(key);
        for a in order {
            // SAFETY: these are the blocks we just took.
            unsafe { back.push(a as *mut u8) };
        }
        // SAFETY: as above.
        unsafe { layer.free_chain(&vm, back) };
        assert_eq!(layer.usage(), (0, 0));
        assert_eq!(vm.space().phys().in_use(), 0);
    }

    #[test]
    fn page_get_fault_covers_entry_and_acquire_paths() {
        let faults = Faults::with_plan();
        let plan = Arc::clone(faults.plan().unwrap());
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(1 << 20).vmblk_shift(14).phys_pages(64),
        ));
        let vm = VmblkLayer::new(space, true);
        let layer = PageLayer::new_hardened(3, 512, true, faults, LinkKey::PLAIN, None, false);

        // Entry (common-path) consult fires first; then a pass at the
        // entry lets the miss reach acquire_page, whose consult fires.
        plan.set(
            faults::PAGE_GET,
            FailPolicy::Script(vec![true, false, true]),
        );
        assert!(layer.alloc_chain(&vm, 1).is_err()); // entry fire
        assert!(layer.alloc_chain(&vm, 1).is_err()); // acquire fire
        let st = plan
            .site_stats()
            .into_iter()
            .find(|s| s.site == faults::PAGE_GET)
            .unwrap();
        assert_eq!((st.hits, st.fired), (3, 2));
        // Script exhausted: the layer recovers fully.
        let chain = layer.alloc_chain(&vm, 2).unwrap();
        assert_eq!(chain.len(), 2);
        // SAFETY: blocks from this layer.
        unsafe { layer.free_chain(&vm, chain) };
        assert_eq!(layer.usage(), (0, 0));
        assert_eq!(vm.space().phys().in_use(), 0);
    }

    #[test]
    fn deferred_coalesce_recovers_on_flush() {
        let faults = Faults::with_plan();
        let plan = Arc::clone(faults.plan().unwrap());
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(1 << 20).vmblk_shift(14).phys_pages(64),
        ));
        let vm = VmblkLayer::new(space, true);
        let layer = PageLayer::new_hardened(3, 512, true, faults, LinkKey::PLAIN, None, false);

        let chain = layer.alloc_chain(&vm, 8).unwrap();
        assert_eq!(chain.len(), 8);
        // The free that fills the page consults page.coalesce and defers:
        // the full page stays listed instead of returning to the vmblk.
        plan.set(faults::PAGE_COALESCE, FailPolicy::Script(vec![true]));
        // SAFETY: blocks from this layer.
        unsafe { layer.free_chain(&vm, chain) };
        assert_eq!(layer.usage(), (1, 8), "coalesce deferred by the fault");
        assert_eq!(layer.stats().page_releases.get(), 0);
        let st = plan
            .site_stats()
            .into_iter()
            .find(|s| s.site == faults::PAGE_COALESCE)
            .unwrap();
        assert_eq!(st.fired, 1);
        // The recovery pass settles the parked page (script exhausted).
        layer.flush_full_pages(&vm);
        assert_eq!(layer.usage(), (0, 0));
        assert_eq!(layer.stats().page_releases.get(), 1);
        assert_eq!(vm.space().phys().in_use(), 0);
    }
}
