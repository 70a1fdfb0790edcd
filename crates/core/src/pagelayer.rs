//! The coalesce-to-page layer (paper Figure 5), lock-free.
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
//! # Lock-free protocol
//!
//! The spinlock of the original layer is gone. Each page descriptor carries
//! two tagged words: `afree`, the page's block freelist (a Treiber stack
//! through each free block's first word), and `state`, a packed
//! `(count | bucket | LISTED | OWNED)` snapshot of the page's standing. The
//! radix buckets are [`PdStack`]s of whole descriptors.
//!
//! **Possession.** Physically popping a descriptor from a bucket grants
//! *possession*: the popper CASes `state` from `{c, LISTED, b}` to
//! `{c, OWNED}` and is then the only CPU allowed to take blocks, relist the
//! page, or release it. Freeing CPUs never pop; they only push blocks and
//! bump the count with one `fetch_count_add`.
//!
//! **Freelist before count.** A freer pushes the block onto `afree`
//! *before* incrementing the count, and a possessor reserves blocks by
//! CASing the count *down* before popping them, so the freelist length `L`
//! and count `C` obey `L >= C + reserved` at all times. When a count
//! reaches `blocks_per_page` every block is physically on the freelist and
//! the page can be handed back whole.
//!
//! **Coalescing without a lock.** The freer whose increment takes a LISTED
//! page's count to `blocks_per_page` *hunts* the bucket recorded in the
//! state: it pops pages, possesses each, releases any it finds full, and
//! stops once the target is met. An empty-handed hunt is absolved — some
//! other CPU possessed the page and will itself observe the full count.
//! Every possessor that observes `count == blocks_per_page` releases the
//! page, so a full page is never relisted and never double-freed.
//!
//! **Lazy buckets.** A listed page's bucket only records the count at
//! listing time; the true count may have grown since (it is monotone
//! non-decreasing while LISTED). Poppers repair stale positions by
//! relisting the page at its true count, which keeps the radix policy —
//! fewest-free-first under an ascending scan — exact in the absence of
//! concurrent frees and a best-effort approximation under them.
//!
//! **Cost.** Every refill and drain is O(blocks moved). The scan reads the
//! buckets' summary bitmap ([`PdBuckets`]) instead of every bucket head, a
//! possessor takes its blocks by swinging the freelist head past them in
//! one CAS, and a drain pays one freelist splice and one count add per
//! same-page run. What is left over is the hunt, which pops and relists
//! every page stacked above its target.

use core::ptr;
use core::sync::atomic::{AtomicUsize, Ordering};

use kmem_smp::{faults, CachePadded, EventCounter, Faults, NodeId, TaggedPtr};
use kmem_vm::{VmError, PAGE_SIZE};

use crate::block::{self, LinkKey};
use crate::chain::Chain;
use crate::counters::counters;
use crate::pagedesc::{PageDesc, PdBuckets, PdKind};
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
        /// Failed CAS attempts on the lock-free radix lists and per-page
        /// freelists (contention indicator; zero when single-threaded).
        counter cas_retries: u64,
    }
    /// Live statistics of one coalesce-to-page instance. Retries are
    /// declared last, so a sweep reads them first: they precede the
    /// operation counters they belong to, and a live sample never shows an
    /// operation whose retries are still missing.
    live struct PageLayerStats<EventCounter>;
}

/// Decoded view of a page's packed `state` word. Layout inside the 48-bit
/// value half of the [`TaggedAtomic`](kmem_smp::TaggedAtomic):
/// count in bits 0..16, listing bucket in bits 16..32, flags above. The
/// count sits in the low bits so a freer's `fetch_count_add(1)` increments
/// it without disturbing bucket or flags (a page holds at most
/// `PAGE_SIZE / MIN_BLOCK` = 256 blocks, far below the 16-bit field).
#[derive(Clone, Copy)]
struct PageState(u64);

const COUNT_MASK: u64 = 0xFFFF;
const BUCKET_SHIFT: u32 = 16;
const LISTED: u64 = 1 << 32;
const OWNED: u64 = 1 << 33;

impl PageState {
    #[inline]
    fn of(tp: TaggedPtr) -> Self {
        PageState(tp.value())
    }

    #[inline]
    fn count(self) -> usize {
        (self.0 & COUNT_MASK) as usize
    }

    /// Bucket recorded at listing time; meaningful only while LISTED.
    #[inline]
    fn bucket(self) -> usize {
        ((self.0 >> BUCKET_SHIFT) & COUNT_MASK) as usize
    }

    #[inline]
    fn listed(self) -> bool {
        self.0 & LISTED != 0
    }

    #[inline]
    fn owned(self) -> bool {
        self.0 & OWNED != 0
    }

    #[inline]
    fn owned_value(count: usize) -> u64 {
        count as u64 | OWNED
    }

    #[inline]
    fn listed_value(count: usize, bucket: usize) -> u64 {
        count as u64 | ((bucket as u64) << BUCKET_SHIFT) | LISTED
    }
}

/// The words a [`PageLayer`] writes on the calls that reach it, kept off
/// the lines of the words every call only reads: on two CPUs, a write
/// beside `blocks_per_page` or `faults` would send every other call back
/// to fetch that line.
#[derive(Default)]
struct HotWords {
    /// Pages currently owned by this class.
    npages: AtomicUsize,
    /// Free blocks across all owned pages.
    free_blocks: AtomicUsize,
    stats: PageLayerStats,
}

/// The coalesce-to-page layer for one size class.
pub struct PageLayer {
    class: usize,
    block_size: usize,
    blocks_per_page: usize,
    radix: bool,
    /// Bucket `c` lists pages listed with `c` free blocks (lazily: the
    /// true count may since have grown). Bucket 0 is unused; bucket
    /// `blocks_per_page` holds only fault-deferred full pages.
    buckets: PdBuckets,
    hot: CachePadded<HotWords>,
    /// Link-encoding key for the per-page `afree` freelists (the arena
    /// key under the hardened profile, identity otherwise).
    key: LinkKey,
    /// `Some(seed)` shuffles each fresh page's carve order (hardened
    /// randomization); `None` carves in ascending address order.
    shuffle_seed: Option<u64>,
    /// Write the full free-poison pattern at carve time, so verify-on-
    /// alloc holds for never-yet-allocated blocks too.
    poison: bool,
    faults: Faults,
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
        assert!(block_size.is_power_of_two() && block_size <= PAGE_SIZE);
        let blocks_per_page = PAGE_SIZE / block_size;
        PageLayer {
            class,
            block_size,
            blocks_per_page,
            radix,
            buckets: PdBuckets::new(blocks_per_page + 1),
            hot: CachePadded::default(),
            key,
            shuffle_seed,
            poison,
            faults,
        }
    }

    /// Blocks that fit in one page at this class's size.
    pub fn blocks_per_page(&self) -> usize {
        self.blocks_per_page
    }

    /// Layer statistics.
    pub fn stats(&self) -> &PageLayerStats {
        &self.hot.stats
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
        if self.faults.hit(faults::PAGE_GET) {
            // Injected refill failure on the common (lock-free) path.
            return Err(VmError::OutOfPhysical {
                requested: 1,
                available: 0,
            });
        }
        self.hot.stats.refills.inc();
        let mut chain = Chain::new_keyed(self.key);
        while chain.len() < want {
            let pd = match self.pop_page(vm) {
                Some(pd) => pd,
                None => match self.acquire_page(vm, preferred) {
                    Ok(pd) => pd,
                    Err(_) if !chain.is_empty() => break, // low memory: short chain
                    Err(e) => return Err(e),
                },
            };
            // SAFETY: `pd` is possessed by us (popped or freshly acquired).
            unsafe { self.take_from(vm, pd, want, &mut chain) };
        }
        Ok(chain)
    }

    /// Returns each block in `chain` to its page's lock-free freelist;
    /// fully drained pages go back to the vmblk layer.
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
        // Accounted once, and up front: a racing reader of `usage()` sees
        // blocks in flight counted early, never a total that a concurrent
        // reservation has already taken below zero.
        let total = chain.len();
        self.hot.stats.block_frees.add(total as u64);
        self.hot.free_blocks.fetch_add(total, Ordering::Relaxed);
        let mut spliced = 0;
        // The descriptor that ended the previous run starts the next one.
        let mut carried = None;
        while let Some(blk) = chain.pop() {
            let pd = carried
                .take()
                .or_else(|| vm.pd_of(blk as usize))
                .expect("freed block not managed by this allocator");
            debug_assert_eq!(pd.kind(), PdKind::BlockPage);
            debug_assert_eq!(pd.class(), self.class);
            let pd_ptr = pd as *const PageDesc as *mut PageDesc;

            // Gather the run of consecutive chain blocks landing on the
            // same page and pre-link it privately: however long the run,
            // it then costs one freelist splice and one count add. Chains
            // built from one page's blocks (the common refill shape) fold
            // to a single RMW pair.
            let run_tail = blk;
            let mut run_head = blk;
            let mut k = 1u64;
            while let Some(next) = chain.peek() {
                let next_pd = vm.pd_of(next as usize);
                if !next_pd.is_some_and(|p| ptr::eq(p, pd)) {
                    carried = next_pd;
                    break;
                }
                chain.pop();
                // SAFETY: `next` is free and ours per the function
                // contract; the run stays private until the splice below
                // publishes it.
                unsafe { block::write_next_atomic(next, run_head, self.key) };
                run_head = next;
                k += 1;
            }
            spliced += k as usize;

            // Freelist before count: splice the run, then announce it, so
            // any CPU seeing the count can also pop the blocks it promises.
            let mut head = pd.afree().load();
            loop {
                // SAFETY: `run_tail` is free and ours per the contract.
                unsafe { block::write_next_atomic(run_tail, head.ptr(), self.key) };
                match pd.afree().compare_exchange(head, run_head) {
                    Ok(_) => break,
                    Err(seen) => {
                        self.hot.stats.cas_retries.inc();
                        head = seen;
                    }
                }
            }

            let old = PageState::of(pd.state().fetch_count_add(k));
            let count = old.count() + k as usize;
            debug_assert!(count <= self.blocks_per_page);
            if old.owned() {
                // A possessor is working the page; it settles the count.
            } else if old.listed() {
                if count == self.blocks_per_page {
                    // Our increment filled the page: coalesce it.
                    self.hunt(vm, old.bucket(), pd_ptr);
                }
            } else if old.count() == 0 {
                // First free into an unlisted page: we are the unique
                // lister. (Later freers see a nonzero count and rely on
                // us listing at the count we re-read.)
                self.list_unowned(vm, pd_ptr);
            }
        }
        if spliced != total {
            // A hardened chain sank itself on a clobbered link.
            self.hot
                .free_blocks
                .fetch_sub(total - spliced, Ordering::Relaxed);
        }
    }

    /// Pops a page to allocate from, transferring possession to the
    /// caller. The paper's radix policy scans buckets *ascending* so the
    /// page with the fewest free blocks is taken; the ablation
    /// (`radix = false`) scans descending — the tempting "fewest page
    /// visits per refill" optimization that destroys page drain.
    ///
    /// Stale positions (true count above the listed bucket) are repaired
    /// by settling the page at its true count; fault-deferred full pages
    /// are returned directly for consumption. Only buckets whose summary
    /// bit is set are visited.
    fn pop_page(&self, vm: &VmblkLayer) -> Option<*mut PageDesc> {
        let bpp = self.blocks_per_page;
        let mut at = if self.radix { 1 } else { bpp };
        loop {
            let b = if self.radix {
                self.buckets.first_set_from(at)?
            } else {
                self.buckets.last_set_upto(at)?
            };
            let Some(pd) = self.pop_bucket(b) else {
                at = if self.radix { b + 1 } else { b - 1 };
                continue;
            };
            let c = self.possess(pd);
            if c == b || c == bpp {
                return Some(pd);
            }
            // Stale (c > b). Repairs never move a page *down*, so the
            // ascending scan stays exact by carrying on at this bucket;
            // the descending scan has already passed the page's true
            // bucket and starts over from the top.
            self.settle_one(vm, pd);
            at = if self.radix { b } else { bpp };
        }
    }

    /// Pops bucket `b`, counting any CAS retries.
    fn pop_bucket(&self, b: usize) -> Option<*mut PageDesc> {
        let (popped, retries) = self.buckets.pop(b);
        self.retried(retries);
        popped
    }

    /// Counts `n` failed CAS attempts; the usual zero costs no RMW.
    #[inline]
    fn retried(&self, n: u64) {
        if n != 0 {
            self.hot.stats.cas_retries.add(n);
        }
    }

    /// CASes a physically popped page from LISTED to OWNED, returning the
    /// observed free count. Flags are stable while the page is popped
    /// (only freers touch the word, and they only move the count), so the
    /// loop converges.
    fn possess(&self, pd: *mut PageDesc) -> usize {
        // SAFETY: a physical pop grants possession; `pd` is valid
        // (descriptor storage is type-stable).
        let pdr = unsafe { &*pd };
        let mut cur = pdr.state().load();
        loop {
            let st = PageState::of(cur);
            debug_assert!(st.listed() && !st.owned(), "possessing an unlisted page");
            match pdr
                .state()
                .compare_exchange_value(cur, PageState::owned_value(st.count()))
            {
                Ok(_) => return st.count(),
                Err(seen) => {
                    self.hot.stats.cas_retries.inc();
                    cur = seen;
                }
            }
        }
    }

    /// Takes up to `want - chain.len()` blocks from possessed page `pd`,
    /// then settles it (relist / release / unlist).
    ///
    /// # Safety
    ///
    /// The caller possesses `pd`.
    unsafe fn take_from(&self, vm: &VmblkLayer, pd: *mut PageDesc, want: usize, chain: &mut Chain) {
        // SAFETY: possessed per contract.
        let pdr = unsafe { &*pd };
        // Reserve first: CAS the count down, then pop that many blocks.
        // The freelist-before-count discipline guarantees they are there.
        let mut cur = pdr.state().load();
        let take = loop {
            let st = PageState::of(cur);
            debug_assert!(st.owned());
            let k = st.count().min(want - chain.len());
            if k == 0 {
                break 0;
            }
            match pdr
                .state()
                .compare_exchange_value(cur, PageState::owned_value(st.count() - k))
            {
                Ok(_) => break k,
                Err(seen) => {
                    self.hot.stats.cas_retries.inc();
                    cur = seen;
                }
            }
        };
        if take > 0 {
            self.hot.free_blocks.fetch_sub(take, Ordering::Relaxed);
            // Possession makes this CPU the freelist's only consumer:
            // whatever freers push in front, the blocks behind the head
            // stay put. So walk `take` links from the head and swing the
            // head past them in one CAS, starting over from the new head
            // if a freer got in first. The reservation made the blocks
            // ours, and freelist-before-count guarantees they are there.
            let mut head = pdr.afree().load();
            loop {
                let mut rest = head.ptr();
                for _ in 0..take {
                    debug_assert!(!rest.is_null(), "page freelist under-supplied");
                    // SAFETY: `rest` is a free block of this page; its next
                    // field was published by the pushing CPU's Release CAS.
                    rest = unsafe { block::read_next_atomic(rest, self.key) };
                }
                match pdr.afree().compare_exchange(head, rest) {
                    Ok(_) => break,
                    Err(seen) => {
                        self.hot.stats.cas_retries.inc();
                        head = seen;
                    }
                }
            }
            let mut blk = head.ptr();
            for _ in 0..take {
                // SAFETY: detached above, so the link is ours to read.
                let next = unsafe { block::read_next_atomic(blk, self.key) };
                // SAFETY: reserved and detached above.
                unsafe { chain.push(blk) };
                blk = next;
            }
        }
        self.settle_one(vm, pd);
    }

    /// Settles a possessed page: unlists it at count 0, releases it when
    /// full (unless an injected fault defers the coalesce, in which case
    /// it is listed at bucket `blocks_per_page` for a later pass), and
    /// relists it at its true count otherwise.
    fn settle_one(&self, vm: &VmblkLayer, pd: *mut PageDesc) {
        // SAFETY: possessed by the caller.
        let pdr = unsafe { &*pd };
        let mut cur = pdr.state().load();
        loop {
            let st = PageState::of(cur);
            debug_assert!(st.owned() && !st.listed());
            let c = st.count();
            if c == self.blocks_per_page {
                if !self.faults.hit(faults::PAGE_COALESCE) {
                    self.release_owned(vm, pdr);
                    return;
                }
                // Injected deferral: park the full page in the top bucket.
            } else if c == 0 {
                match pdr.state().compare_exchange_value(cur, 0) {
                    Ok(_) => return, // unlisted; the next free relists it
                    Err(seen) => {
                        self.hot.stats.cas_retries.inc();
                        cur = seen;
                        continue;
                    }
                }
            }
            match pdr
                .state()
                .compare_exchange_value(cur, PageState::listed_value(c, c))
            {
                Ok(_) => {
                    self.push_listed(vm, pd, c);
                    return;
                }
                Err(seen) => {
                    self.hot.stats.cas_retries.inc();
                    cur = seen;
                }
            }
        }
    }

    /// Lists a page after its state CAS to LISTED at bucket `c`, then mops
    /// up the window between the CAS and the physical push: a freer that
    /// filled the page in that window hunted an emptier bucket and was
    /// absolved, so the lister re-checks and hunts on its behalf.
    fn push_listed(&self, vm: &VmblkLayer, pd: *mut PageDesc, c: usize) {
        // SAFETY: we possess `pd` until this push publishes it.
        let retries = unsafe { self.buckets.push(c, pd) };
        self.retried(retries);
        if c != self.blocks_per_page {
            // SAFETY: descriptor storage is type-stable.
            let st = PageState::of(unsafe { (*pd).state().load() });
            if st.listed() && st.count() == self.blocks_per_page {
                self.hunt(vm, c, pd);
            }
        }
    }

    /// First free into an unlisted, unowned page: list it at its current
    /// count — or, if the page has already refilled completely, claim and
    /// release it directly.
    fn list_unowned(&self, vm: &VmblkLayer, pd: *mut PageDesc) {
        // SAFETY: descriptor storage is type-stable.
        let pdr = unsafe { &*pd };
        let mut cur = pdr.state().load();
        loop {
            let st = PageState::of(cur);
            debug_assert!(!st.listed() && !st.owned());
            let c = st.count();
            debug_assert!(c >= 1);
            if c == self.blocks_per_page && !self.faults.hit(faults::PAGE_COALESCE) {
                // Claiming is the same CAS a possessor would use; with it
                // we hold the only reference to an all-free page.
                match pdr
                    .state()
                    .compare_exchange_value(cur, PageState::owned_value(c))
                {
                    Ok(_) => {
                        self.release_owned(vm, pdr);
                        return;
                    }
                    Err(seen) => {
                        self.hot.stats.cas_retries.inc();
                        cur = seen;
                        continue;
                    }
                }
            }
            match pdr
                .state()
                .compare_exchange_value(cur, PageState::listed_value(c, c))
            {
                Ok(_) => {
                    self.push_listed(vm, pd, c);
                    return;
                }
                Err(seen) => {
                    self.hot.stats.cas_retries.inc();
                    cur = seen;
                }
            }
        }
    }

    /// Coalesce hunt: our free filled a LISTED page, so *someone* must
    /// release it. Pop pages from the bucket it was listed in, releasing
    /// every full page found, until the target turns up — or the bucket
    /// runs dry, which absolves us: a racing possessor popped the target
    /// and will itself observe the full count.
    fn hunt(&self, vm: &VmblkLayer, bucket: usize, target: *mut PageDesc) {
        if self.faults.hit(faults::PAGE_COALESCE) {
            // Injected deferral: leave the page listed; a later popper,
            // hunt, or flush settles it.
            return;
        }
        let mut aside = Vec::new();
        while let Some(pd) = self.pop_bucket(bucket) {
            let c = self.possess(pd);
            if c == self.blocks_per_page {
                // SAFETY: possessed, full.
                self.release_owned(vm, unsafe { &*pd });
                if pd == target {
                    break;
                }
            } else {
                // Not ours and not full: set it aside — relisting now
                // could push it back on top of the target.
                aside.push(pd);
            }
        }
        for pd in aside {
            self.settle_one(vm, pd);
        }
    }

    /// Takes one fresh page from the vmblk layer (preferring frames homed
    /// on `preferred`), carves it into blocks and returns it possessed
    /// (OWNED, all blocks on `afree`).
    fn acquire_page(&self, vm: &VmblkLayer, preferred: NodeId) -> Result<*mut PageDesc, VmError> {
        if self.faults.hit(faults::PAGE_GET) {
            // Injected refill failure on the slow (vmblk) path.
            return Err(VmError::OutOfPhysical {
                requested: 1,
                available: 0,
            });
        }
        let (page, pd) = vm.alloc_span_on(1, preferred)?;
        self.hot.stats.page_acquires.inc();
        let base = page.as_ptr();
        pd.set_class(self.class);
        pd.set_kind(PdKind::BlockPage);
        // Carve the page into blocks, building the page freelist — in
        // ascending address order by default, or in an order shuffled
        // from the hardened seed so allocation order does not expose the
        // page layout. Plain writes: nothing is published until the
        // freelist-head CAS below releases them.
        let mut freelist = ptr::null_mut();
        let carve = |i: usize, freelist: &mut *mut u8| {
            // SAFETY: offsets stay inside the page we own.
            let blk = unsafe { base.add(i * self.block_size) };
            // SAFETY: `blk` is a fresh free block of this page.
            unsafe {
                block::write_next(blk, *freelist, self.key);
                if self.poison {
                    block::poison_free(blk, self.block_size);
                } else {
                    block::poison(blk);
                }
            }
            *freelist = blk;
        };
        match self.shuffle_seed {
            None => {
                for i in (0..self.blocks_per_page).rev() {
                    carve(i, &mut freelist);
                }
            }
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
                for &i in &order {
                    carve(i, &mut freelist);
                }
            }
        }
        // The page is exclusively ours, so these CASes cannot contend;
        // the loops only track the tag.
        let mut cur = pd.afree().load();
        debug_assert!(cur.is_null());
        while let Err(seen) = pd.afree().compare_exchange(cur, freelist) {
            cur = seen;
        }
        let mut cur = pd.state().load();
        debug_assert_eq!(cur.value(), 0);
        while let Err(seen) = pd
            .state()
            .compare_exchange_value(cur, PageState::owned_value(self.blocks_per_page))
        {
            cur = seen;
        }
        self.hot
            .free_blocks
            .fetch_add(self.blocks_per_page, Ordering::Relaxed);
        self.hot.npages.fetch_add(1, Ordering::Relaxed);
        Ok(pd as *const PageDesc as *mut PageDesc)
    }

    /// Returns a possessed, fully free page to the vmblk layer ("the
    /// physical memory is returned to the system; the virtual memory is
    /// retained and passed up"). With the count at `blocks_per_page` no
    /// freer or popper can reach the page, so the resets are private.
    fn release_owned(&self, vm: &VmblkLayer, pd: &PageDesc) {
        self.hot.stats.page_releases.inc();
        let mut cur = pd.state().load();
        debug_assert_eq!(PageState::of(cur).count(), self.blocks_per_page);
        debug_assert!(PageState::of(cur).owned());
        while let Err(seen) = pd.state().compare_exchange_value(cur, 0) {
            cur = seen;
        }
        let mut cur = pd.afree().load();
        while let Err(seen) = pd.afree().compare_exchange(cur, ptr::null_mut()) {
            cur = seen;
        }
        self.hot
            .free_blocks
            .fetch_sub(self.blocks_per_page, Ordering::Relaxed);
        self.hot.npages.fetch_sub(1, Ordering::Relaxed);
        pd.set_kind(PdKind::Unused);
        pd.set_class(0);
        // SAFETY: the span is exactly the fully free page we own.
        unsafe { vm.free_span_at(vm.page_of(pd), 1) };
    }

    /// Pops every listed page and settles it at its true count, releasing
    /// any that are full — the recovery pass for fault-deferred coalesces
    /// and the final drain before teardown. Safe under concurrency (every
    /// pop possesses), though buckets refilled by racing frees are not
    /// re-scanned.
    pub fn flush_full_pages(&self, vm: &VmblkLayer) {
        let mut possessed = Vec::new();
        let mut at = 0;
        while let Some(b) = self.buckets.first_set_from(at) {
            while let Some(pd) = self.pop_bucket(b) {
                self.possess(pd);
                possessed.push(pd);
            }
            at = b + 1;
        }
        for pd in possessed {
            self.settle_one(vm, pd);
        }
    }

    /// (owned pages, free blocks) — verification. Exact at quiescence.
    pub fn usage(&self) -> (usize, usize) {
        (
            self.hot.npages.load(Ordering::Acquire),
            self.hot.free_blocks.load(Ordering::Acquire),
        )
    }

    /// Walks every listed page in ascending bucket order, calling
    /// `f(free_count, freelist_len)`, and asserts that every non-empty
    /// bucket has its summary bit set.
    ///
    /// Verification only: the layer must be quiescent for the walk (no
    /// concurrent allocs or frees), as the torture checkpoints guarantee.
    pub fn for_each_page(&self, mut f: impl FnMut(usize, usize)) {
        // SAFETY: quiescence per the function contract.
        for pd in unsafe { self.buckets.iter() } {
            // SAFETY: listed pages are valid block pages of this class.
            let pdr = unsafe { &*pd };
            let st = PageState::of(pdr.state().load());
            let mut n = 0;
            let mut blk = pdr.afree().load().ptr();
            while !blk.is_null() {
                n += 1;
                // SAFETY: page freelist blocks are free and linked.
                blk = unsafe { block::read_next_atomic(blk, self.key) };
            }
            f(st.count(), n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmem_smp::probe::{self, ProbeEvent};
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
    fn hot_words_share_no_line_with_the_read_mostly_ones() {
        use core::mem::{offset_of, size_of};
        // The 64-byte lines a field of `len` bytes at `offset` touches.
        let lines = |offset: usize, len: usize| offset / 64..=(offset + len - 1) / 64;
        let hot = lines(
            offset_of!(PageLayer, hot),
            size_of::<CachePadded<HotWords>>(),
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
                "`{name}` on lines {cold:?} shares one with the hot words on {hot:?}"
            );
        }
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

    #[test]
    fn steady_state_alloc_free_takes_no_spinlock() {
        let (vm, layer) = setup(512, true, 64);
        // Warm a page with free blocks so the steady state never touches
        // the vmblk layer.
        let warm = layer.alloc_chain(&vm, 3).unwrap();
        let ((), events) = probe::record(|| {
            for _ in 0..8 {
                let c = layer.alloc_chain(&vm, 1).unwrap();
                assert_eq!(c.len(), 1);
                // SAFETY: block from this layer.
                unsafe { layer.free_chain(&vm, c) };
            }
        });
        assert!(
            !events.iter().any(|e| matches!(
                e,
                ProbeEvent::LockAcquire { .. } | ProbeEvent::LockRelease { .. }
            )),
            "steady-state page refill/free must not take a spinlock: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ProbeEvent::LineRmw { .. })),
            "tagged-CAS traffic should be visible to the probe"
        );
        assert_eq!(layer.stats().cas_retries.get(), 0, "no contention here");
        // SAFETY: blocks from this layer.
        unsafe { layer.free_chain(&vm, warm) };
        assert_eq!(layer.usage(), (0, 0));
    }

    /// The step bound: a refill from a listed page issues the same short
    /// sequence of shared-line accesses whether the page it scans for and
    /// takes from holds 8 blocks or 256.
    #[test]
    fn refill_steps_do_not_grow_with_blocks_per_page() {
        let steps = |block_size: usize| {
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
            events
                .iter()
                .map(|e| match e {
                    ProbeEvent::LineRead { .. } => 'r',
                    ProbeEvent::LineRmw { .. } => 'm',
                    other => panic!("unexpected probe event {other:?}"),
                })
                .collect::<String>()
        };
        let (small, large) = (steps(16), steps(512));
        assert_eq!(small, large, "16-B and 512-B refills must step alike");
        assert!(small.len() <= 20, "{} steps: {small}", small.len());
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
        // One whole page: 16 blocks, all through encoded afree links.
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
