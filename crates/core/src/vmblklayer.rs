//! The coalesce-to-vmblk layer (paper Figure 6).
//!
//! This layer manages large blocks of virtual memory ("vmblks", 4 MB in the
//! paper). Pages of virtual address space are allocated from vmblks as
//! needed; adjacent spans of free pages are coalesced as they are freed
//! using a boundary-tag-like scheme kept in the page descriptors; requests
//! for blocks larger than one page bypass the lower layers and are handled
//! here directly.
//!
//! Each vmblk is laid out as in Figure 6: a header (and the page-descriptor
//! array) occupying the first pages, followed by the data pages the
//! descriptors describe. The kernel space's dope vector maps any address in
//! the vmblk — a data block *or* a descriptor — back to the header, which
//! is the first level of the paper's two-level lookup; the second level is
//! plain offset arithmetic.
//!
//! Physical-frame accounting: every *data* page is claimed from the
//! [`kmem_vm::PhysPool`] when its span is allocated and credited back when
//! its span is freed, so a fully drained allocator provably holds no
//! physical memory beyond the headers of any vmblks it has retained (none,
//! with `release_empty_vmblks`). Header pages are claimed for the life of
//! the vmblk. Every one of those claims and releases is made with the
//! boundary-tag lock held: the lock is the frame account's one
//! serialiser (`kmem_vm::phys`'s contract), so the account is plain
//! loads and stores, and a span pair costs the two lock acquisitions and
//! no other interlocked operation, whatever its length.

use core::ptr::{self, NonNull};
use core::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use kmem_smp::probe::{self, ProbeEvent};
use kmem_smp::{Faults, LocalCounter, NodeId, SpinLock};
use kmem_vm::{KernelSpace, VmError, VmblkRegion, PAGE_SHIFT, PAGE_SIZE};

use crate::pagedesc::{PageDesc, PdKind, PdList, PD_STRIDE};

/// Span lengths with exact-size freelists; longer spans share a first-fit
/// list. 64 pages = 256 KB covers every multi-page request the benchmarks
/// make while keeping the list array small — and lets one `u64` summarize
/// which exact-size lists are non-empty (`VmInner::nonempty`).
const MAX_SEG: usize = 64;
const _: () = assert!(MAX_SEG == u64::BITS as usize);

/// Offset of the descriptor array within a vmblk.
const PD_OFFSET: usize = {
    let hdr = core::mem::size_of::<VmblkHeader>();
    let align = core::mem::align_of::<PageDesc>();
    (hdr + align - 1) & !(align - 1)
};

/// Per-vmblk header, stored at the base of the vmblk itself.
///
/// Fields written after initialization (`free_pages`, `next`) are atomics
/// so that lock-free readers holding `&VmblkHeader` (the standard free
/// path resolving a block address) never race a plain mutation.
pub struct VmblkHeader {
    region: VmblkRegion,
    header_pages: usize,
    ndata: usize,
    /// Home node of the header frames (written once at creation; spans
    /// record their own homes in their head descriptors).
    home: NodeId,
    /// Written only with the boundary-tag lock held, so a plain
    /// load-then-store; read lock-free.
    free_pages: AtomicUsize,
    next: AtomicPtr<VmblkHeader>,
}

impl VmblkHeader {
    /// Number of data pages in this vmblk.
    pub fn ndata(&self) -> usize {
        self.ndata
    }

    /// Home node of this vmblk's header frames.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Currently free data pages.
    pub fn free_pages(&self) -> usize {
        self.free_pages.load(Ordering::Relaxed)
    }

    /// Address of data page `idx`.
    #[inline]
    fn data_addr(&self, idx: usize) -> *mut u8 {
        debug_assert!(idx < self.ndata);
        // SAFETY: the offset stays inside this vmblk's region.
        unsafe {
            self.region
                .base()
                .as_ptr()
                .add((self.header_pages + idx) << PAGE_SHIFT)
        }
    }

    /// Descriptor of data page `idx`.
    #[inline]
    fn pd(&self, idx: usize) -> *mut PageDesc {
        debug_assert!(idx < self.ndata);
        // SAFETY: the descriptor array lies inside this vmblk's header
        // area, sized for `ndata` descriptors.
        unsafe { self.region.base().as_ptr().add(PD_OFFSET + idx * PD_STRIDE) }.cast()
    }

    /// Index of `pd` within this vmblk's descriptor array.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `pd` is not one of this vmblk's
    /// descriptors.
    pub fn pd_index_of(&self, pd: &PageDesc) -> usize {
        let base = self.region.base().as_ptr() as usize + PD_OFFSET;
        let addr = pd as *const PageDesc as usize;
        debug_assert!(addr >= base && (addr - base).is_multiple_of(PD_STRIDE));
        let idx = (addr - base) / PD_STRIDE;
        debug_assert!(idx < self.ndata);
        idx
    }

    /// Address of data page `idx`, as a `NonNull` for span calls.
    pub fn data_page(&self, idx: usize) -> NonNull<u8> {
        // SAFETY: data addresses are interior to the reservation, never
        // null.
        unsafe { NonNull::new_unchecked(self.data_addr(idx)) }
    }

    /// Index of the data page containing `addr`.
    #[inline]
    fn page_index(&self, addr: usize) -> usize {
        let base = self.region.base().as_ptr() as usize;
        debug_assert!(addr >= base && addr < base + self.region.size());
        let page = (addr - base) >> PAGE_SHIFT;
        debug_assert!(page >= self.header_pages, "address inside vmblk header");
        page - self.header_pages
    }
}

/// Computes `(header_pages, data_pages)` for a vmblk of `total_pages`.
fn geometry(total_pages: usize) -> (usize, usize) {
    let mut h = 1;
    while h * PAGE_SIZE < PD_OFFSET + (total_pages - h) * PD_STRIDE {
        h += 1;
        assert!(h < total_pages, "vmblk too small for its own descriptors");
    }
    (h, total_pages - h)
}

/// Statistics for the vmblk layer, as read by [`VmblkLayer::stats`].
#[derive(Debug, Clone, Copy)]
pub struct VmblkStats {
    /// vmblks carved out of the kernel space.
    pub vmblks_created: u64,
    /// vmblks returned to the kernel space.
    pub vmblks_released: u64,
    /// Page spans handed out (block pages and large allocations).
    pub span_allocs: u64,
    /// Page spans returned.
    pub span_frees: u64,
}

/// The layer's counters, bumped only with its lock held: the lock
/// serialises the writers, so a bump is a load and a store, summed into
/// [`VmblkStats`] at read time.
#[derive(Default)]
struct LockedCounters {
    vmblks_created: LocalCounter,
    vmblks_released: LocalCounter,
    allocs: LocalCounter,
    frees: LocalCounter,
}

struct VmInner {
    /// `lists[k]` holds free spans of exactly `k` pages for `1 <= k <=
    /// MAX_SEG`; `lists[0]` holds longer spans, searched first-fit.
    lists: Box<[PdList]>,
    /// Bit `k - 1` is set exactly when `lists[k]` is non-empty
    /// (`1 <= k <= MAX_SEG`), so the smallest adequate exact-size list is
    /// one shift and `trailing_zeros` away.
    nonempty: u64,
    /// All live vmblks (headers), for verification and teardown.
    vmblks: *mut VmblkHeader,
}

/// A managed address resolved once through the dope vector: its vmblk
/// header and the index of its data page. The free path resolves a
/// pointer to one of these and hands it down the layers.
#[derive(Clone, Copy)]
pub struct PageRef<'a> {
    hdr: &'a VmblkHeader,
    idx: usize,
}

impl<'a> PageRef<'a> {
    /// The page's descriptor.
    #[inline]
    pub fn pd(self) -> &'a PageDesc {
        // SAFETY: `idx` is a data-page index of the live vmblk `hdr`, whose
        // descriptor array lies in its header area.
        unsafe { &*self.hdr.pd(self.idx) }
    }
}

// SAFETY: `VmInner` is only reachable through the layer's spinlock.
unsafe impl Send for VmInner {}

/// The coalesce-to-vmblk layer.
pub struct VmblkLayer {
    space: Arc<KernelSpace>,
    /// Data pages of one vmblk: the longest span the layer can serve.
    max_span: usize,
    inner: SpinLock<VmInner>,
    release_empty: bool,
    locked: LockedCounters,
}

/// Records `node` as the home of the span headed by `head` — the one
/// descriptor line an allocation dirties outside the lock, reported so a
/// probe recording shows any write that scales with the span.
#[inline]
fn record_home(head: &PageDesc, node: NodeId) {
    probe::emit(ProbeEvent::LineWrite {
        line: probe::line_of(head),
    });
    head.set_home_node(node);
}

impl VmblkLayer {
    /// Creates an empty layer over `space`.
    pub fn new(space: Arc<KernelSpace>, release_empty: bool) -> Self {
        VmblkLayer {
            max_span: geometry(space.vmblk_size() >> PAGE_SHIFT).1,
            space,
            inner: SpinLock::new(VmInner {
                lists: (0..=MAX_SEG).map(|_| PdList::new()).collect(),
                nonempty: 0,
                vmblks: ptr::null_mut(),
            }),
            release_empty,
            locked: LockedCounters::default(),
        }
    }

    /// [`new`](VmblkLayer::new), under the failpoint-wired constructor's
    /// name and signature because kmembench's per-layer benchmarks
    /// (`benchmark/src/layers.rs`) build their layers with it. The layer
    /// consults no failpoint of its own: `phys.claim` and `vm.carve` are
    /// consulted by `space`, with the plan `space` was built with.
    pub fn new_with_cache(space: Arc<KernelSpace>, release_empty: bool, _faults: Faults) -> Self {
        VmblkLayer::new(space, release_empty)
    }

    /// The kernel space this layer carves from.
    pub fn space(&self) -> &KernelSpace {
        &self.space
    }

    /// Layer statistics, read lock-free. Exact when the layer is
    /// quiescent; on a live layer each field is a monotone counter read
    /// at a slightly different time.
    pub fn stats(&self) -> VmblkStats {
        VmblkStats {
            vmblks_created: self.locked.vmblks_created.get(),
            vmblks_released: self.locked.vmblks_released.get(),
            span_allocs: self.locked.allocs.get(),
            span_frees: self.locked.frees.get(),
        }
    }

    /// The largest span (in pages) a single vmblk can serve.
    pub fn max_span_pages(&self) -> usize {
        self.max_span
    }

    /// Resolves the vmblk header covering `addr` via the dope vector.
    ///
    /// Returns `None` for addresses this allocator does not manage.
    #[inline]
    pub fn header_of(&self, addr: usize) -> Option<&VmblkHeader> {
        let tag = self.space.dope_lookup(addr)?;
        // SAFETY: dope tags are only ever header addresses of *published*
        // vmblks; the header outlives its publication.
        Some(unsafe { &*(tag as *const VmblkHeader) })
    }

    /// Resolves the data page covering `addr`: the paper's two-level
    /// lookup, done once per free.
    #[inline]
    pub fn resolve(&self, addr: usize) -> Option<PageRef<'_>> {
        let hdr = self.header_of(addr)?;
        Some(PageRef {
            hdr,
            idx: hdr.page_index(addr),
        })
    }

    /// Resolves the page descriptor covering `addr`.
    #[inline]
    pub fn pd_of(&self, addr: usize) -> Option<&PageDesc> {
        self.resolve(addr).map(PageRef::pd)
    }

    /// Resolves a descriptor back to its page. Descriptors live inside
    /// their vmblk, so the same dope lookup that resolves blocks resolves
    /// them.
    #[inline]
    pub fn page_of(&self, pd: &PageDesc) -> PageRef<'_> {
        let hdr = self
            .header_of(pd as *const PageDesc as usize)
            .expect("descriptor of an unpublished vmblk");
        PageRef {
            hdr,
            idx: hdr.pd_index_of(pd),
        }
    }

    /// Allocates a span of `npages` data pages (claiming physical frames),
    /// returning its base address and head descriptor.
    pub fn alloc_span(&self, npages: usize) -> Result<(NonNull<u8>, &PageDesc), VmError> {
        self.alloc_span_on(npages, NodeId::new(0))
    }

    /// As [`VmblkLayer::alloc_span`], preferring physical frames homed on
    /// node `preferred`. A claim never splits across nodes: the whole span
    /// is backed by one node (falling back in wrap-around order when the
    /// preferred node is exhausted), and that node is recorded as the
    /// span's home on its *head* descriptor only — the call touches no
    /// interior descriptor, whatever the span's length.
    pub fn alloc_span_on(
        &self,
        npages: usize,
        preferred: NodeId,
    ) -> Result<(NonNull<u8>, &PageDesc), VmError> {
        assert!(npages >= 1);
        if npages > self.max_span {
            // No vmblk can hold it: refuse before claiming frames or
            // carving a vmblk that would only be left behind empty.
            return Err(VmError::OutOfVirtual);
        }
        let mut inner = self.inner.lock();
        // Claim the frames first: a failed claim unlocks having changed
        // nothing, and a span is never visible allocated but unbacked.
        let node = self.space.phys().claim_on(preferred, npages)?;
        // (Matched in place: routing the pick through an intermediate
        // `Result` made `large` ~4 ns/op slower on a 2-vCPU x86-64 VM.)
        let (hdr, idx, len) = match self.find_span(&inner, npages) {
            Some(found) => found,
            None => match self.find_span_slow(&mut inner, npages, preferred) {
                Ok(found) => found,
                Err(e) => {
                    // The frames go back before the lock does.
                    self.space.phys().release_on(node, npages);
                    return Err(e);
                }
            },
        };
        // SAFETY: vm lock held; the span was found in our lists.
        unsafe {
            self.remove_free_span(&mut inner, hdr, idx, len);
            if len > npages {
                self.insert_free_span(&mut inner, hdr, idx + npages, len - npages);
            }
        }
        // SAFETY: `hdr` is a live published header.
        let hdr_ref = unsafe { &*hdr };
        hdr_ref.free_pages.store(
            hdr_ref.free_pages.load(Ordering::Relaxed) - npages,
            Ordering::Relaxed,
        );
        self.locked.allocs.bump();
        // Lists, tags, counts and frames agree again, and the span is in
        // none of the lists: the rest is private to this call.
        drop(inner);
        // SAFETY: `pd` points into the live header area.
        let pd = unsafe { &*hdr_ref.pd(idx) };
        record_home(pd, node);
        Ok((hdr_ref.data_page(idx), pd))
    }

    /// The miss half of a span search, with the vm lock held: carves a new
    /// vmblk, which always serves the request (requests beyond a vmblk's
    /// capacity were refused up front).
    #[cold]
    fn find_span_slow(
        &self,
        inner: &mut VmInner,
        npages: usize,
        preferred: NodeId,
    ) -> Result<(*mut VmblkHeader, usize, usize), VmError> {
        self.create_vmblk(inner, preferred)?;
        Ok(self
            .find_span(inner, npages)
            .expect("a fresh vmblk serves any span up to max_span_pages"))
    }

    /// Frees a span of `npages` starting at `addr`, coalescing with free
    /// neighbours and releasing the physical frames.
    ///
    /// # Safety
    ///
    /// `addr` must be the base of a span previously returned by
    /// [`VmblkLayer::alloc_span`], freed whole and at the length it was
    /// allocated with — the span's home node is recorded on its head
    /// descriptor only, so a sub-span has none — with no remaining
    /// references into it.
    pub unsafe fn free_span(&self, addr: NonNull<u8>, npages: usize) {
        let at = self
            .resolve(addr.as_ptr() as usize)
            .expect("span address not managed by this allocator");
        // SAFETY: forwarded caller contract.
        unsafe { self.free_span_at(at, npages) };
    }

    /// [`free_span`](VmblkLayer::free_span) for a caller that has already
    /// resolved the span's first page.
    ///
    /// # Safety
    ///
    /// As for `free_span`, with `at` the span's first page.
    pub unsafe fn free_span_at(&self, at: PageRef<'_>, npages: usize) {
        let PageRef { hdr, idx } = at;
        debug_assert!(idx + npages <= hdr.ndata);
        let pd = at.pd();
        // The span's frames all live on the node its head descriptor
        // records (claims never split across nodes).
        let home = pd.home_node();
        let hdr_ptr = hdr as *const VmblkHeader as *mut VmblkHeader;
        let mut inner = self.inner.lock();
        self.space.phys().release_on(home, npages);
        self.locked.frees.bump();
        // Merge the span into the boundary-tag structure, coalescing with
        // free neighbours. Every page of it is ours per the contract.
        let (mut idx, mut len) = (idx, npages);
        // Coalesce forward: does a free span start right after ours?
        if idx + len < hdr.ndata {
            // SAFETY: descriptor of a data page of a live vmblk.
            let after = unsafe { &*hdr.pd(idx + len) };
            if after.kind() == PdKind::SpanFreeHead {
                // SAFETY: vm lock held.
                let alen = unsafe { after.inner() }.span_pages as usize;
                // SAFETY: vm lock held; (idx+len, alen) is a listed span.
                unsafe { self.remove_free_span(&mut inner, hdr_ptr, idx + len, alen) };
                len += alen;
            }
        }
        // Coalesce backward: does a free span end right before ours?
        if idx > 0 {
            // SAFETY: descriptor of a data page of a live vmblk.
            let before = unsafe { &*hdr.pd(idx - 1) };
            match before.kind() {
                PdKind::SpanFreeTail => {
                    // SAFETY: vm lock held.
                    let blen = unsafe { before.inner() }.span_pages as usize;
                    let bstart = idx - blen;
                    // SAFETY: vm lock held; (bstart, blen) is a listed span.
                    unsafe { self.remove_free_span(&mut inner, hdr_ptr, bstart, blen) };
                    idx = bstart;
                    len += blen;
                }
                PdKind::SpanFreeHead => {
                    // A head with no tail after it is a one-page span.
                    // SAFETY: vm lock held.
                    debug_assert_eq!(unsafe { before.inner() }.span_pages, 1);
                    // SAFETY: vm lock held; (idx-1, 1) is a listed span.
                    unsafe { self.remove_free_span(&mut inner, hdr_ptr, idx - 1, 1) };
                    idx -= 1;
                    len += 1;
                }
                _ => {}
            }
        }
        // SAFETY: vm lock held; the merged span is wholly ours.
        unsafe { self.insert_free_span(&mut inner, hdr_ptr, idx, len) };
        let now_free = hdr.free_pages.load(Ordering::Relaxed) + npages;
        hdr.free_pages.store(now_free, Ordering::Relaxed);
        if self.release_empty && now_free == hdr.ndata {
            // SAFETY: vm lock held; the vmblk is entirely free.
            unsafe { self.release_vmblk(&mut inner, hdr_ptr) };
        }
    }

    /// Allocates a block larger than the largest size class: a dedicated
    /// span with its head descriptor marked [`PdKind::Large`], as in the
    /// paper ("requests for blocks of memory larger than one page bypass
    /// layers 1 through 3").
    pub fn alloc_large(&self, bytes: usize) -> Result<NonNull<u8>, VmError> {
        self.alloc_large_on(bytes, NodeId::new(0))
    }

    /// As [`VmblkLayer::alloc_large`], preferring frames homed on
    /// `preferred`.
    pub fn alloc_large_on(&self, bytes: usize, preferred: NodeId) -> Result<NonNull<u8>, VmError> {
        let npages = bytes.div_ceil(PAGE_SIZE);
        let (addr, pd) = self.alloc_span_on(npages, preferred)?;
        // SAFETY: we own the span; vm lock not required for a page no
        // other layer can see yet.
        unsafe { pd.inner() }.span_pages = npages as u32;
        pd.set_kind(PdKind::Large);
        Ok(addr)
    }

    /// Frees a block obtained from [`VmblkLayer::alloc_large`], returning
    /// the span size in pages.
    ///
    /// # Safety
    ///
    /// `addr` must come from `alloc_large` on this layer, not yet freed,
    /// with no remaining references into the block.
    pub unsafe fn free_large(&self, addr: NonNull<u8>) -> usize {
        let at = self
            .resolve(addr.as_ptr() as usize)
            .expect("large-block address not managed by this allocator");
        // SAFETY: forwarded caller contract.
        unsafe { self.free_large_at(at) }
    }

    /// [`free_large`](VmblkLayer::free_large) for a caller that has
    /// already resolved the block's first page.
    ///
    /// # Safety
    ///
    /// As for `free_large`, with `at` the block's first page.
    pub unsafe fn free_large_at(&self, at: PageRef<'_>) -> usize {
        let pd = at.pd();
        assert_eq!(
            pd.kind(),
            PdKind::Large,
            "free of a non-large (or corrupted) block"
        );
        // SAFETY: the caller owns the allocated span; its descriptor is
        // not reachable by any layer until we free it below.
        let npages = unsafe { pd.inner() }.span_pages as usize;
        pd.set_kind(PdKind::Unused);
        // SAFETY: forwarded caller contract; span covers `npages`.
        unsafe { self.free_span_at(at, npages) };
        npages
    }

    /// Number of live vmblks. Lock-free: every vmblk created is live or
    /// was released, and reading the releases first keeps a racing
    /// create-then-release from showing as a negative count.
    pub fn nvmblks(&self) -> usize {
        let released = self.locked.vmblks_released.get();
        (self.locked.vmblks_created.get() - released) as usize
    }

    /// Sums free-span pages across all lists (verification).
    pub fn free_span_pages(&self) -> usize {
        let inner = self.inner.lock();
        let mut total = 0;
        for list in inner.lists.iter() {
            // SAFETY: vm lock held for the whole iteration.
            for pd in unsafe { list.iter() } {
                // SAFETY: vm lock held.
                total += unsafe { (*pd).inner() }.span_pages as usize;
            }
        }
        total
    }

    /// Runs `f` on every live vmblk header (verification).
    pub fn for_each_vmblk(&self, mut f: impl FnMut(&VmblkHeader)) {
        let inner = self.inner.lock();
        let mut cur = inner.vmblks;
        while !cur.is_null() {
            // SAFETY: headers on the list are live while the lock is held.
            let hdr = unsafe { &*cur };
            f(hdr);
            cur = hdr.next.load(Ordering::Relaxed);
        }
    }

    /// Exhaustively checks the layer's structural invariants.
    ///
    /// Walks every vmblk page by page and asserts: spans are well formed
    /// (head/tail tags consistent, interiors unmarked), **no two free
    /// spans are adjacent** (i.e. coalescing never missed a merge), the
    /// per-vmblk free-page counts match the walk, the span freelists
    /// account for exactly the free pages, and the physical pool's claimed
    /// frames equal headers plus in-use data pages.
    ///
    /// Callers must be quiesced (no concurrent allocator traffic), since
    /// the physical-pool comparison spans multiple locks.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn verify(&self) {
        let inner = self.inner.lock();
        let mut walked_free = 0usize;
        let mut expected_phys = 0usize;
        let mut cur = inner.vmblks;
        while !cur.is_null() {
            // SAFETY: headers on the list are live while the lock is held.
            let hdr = unsafe { &*cur };
            let mut idx = 0;
            let mut free_here = 0;
            while idx < hdr.ndata {
                // SAFETY: descriptor of a data page of a live vmblk.
                let pd = unsafe { &*hdr.pd(idx) };
                match pd.kind() {
                    PdKind::BlockPage => idx += 1,
                    PdKind::Large => {
                        // SAFETY: vm lock held.
                        let l = unsafe { pd.inner() }.span_pages as usize;
                        assert!(l >= 1 && idx + l <= hdr.ndata, "bad large span");
                        idx += l;
                    }
                    PdKind::SpanFreeHead => {
                        // SAFETY: vm lock held.
                        let l = unsafe { pd.inner() }.span_pages as usize;
                        assert!(l >= 1 && idx + l <= hdr.ndata, "bad free span");
                        for j in idx + 1..idx + l - 1 {
                            // SAFETY: descriptor of a live vmblk.
                            let interior = unsafe { &*hdr.pd(j) };
                            assert_eq!(
                                interior.kind(),
                                PdKind::Unused,
                                "marked descriptor inside a free span"
                            );
                        }
                        if l >= 2 {
                            // SAFETY: descriptor of a live vmblk.
                            let tail = unsafe { &*hdr.pd(idx + l - 1) };
                            assert_eq!(tail.kind(), PdKind::SpanFreeTail, "missing tail tag");
                            // SAFETY: vm lock held.
                            assert_eq!(
                                unsafe { tail.inner() }.span_pages as usize,
                                l,
                                "tail tag length mismatch"
                            );
                        }
                        if idx + l < hdr.ndata {
                            // SAFETY: descriptor of a live vmblk.
                            let after = unsafe { &*hdr.pd(idx + l) };
                            assert_ne!(
                                after.kind(),
                                PdKind::SpanFreeHead,
                                "adjacent free spans were not coalesced"
                            );
                        }
                        free_here += l;
                        idx += l;
                    }
                    other => panic!("unexpected descriptor kind {other:?} at page {idx}"),
                }
            }
            assert_eq!(free_here, hdr.free_pages(), "free-page count drifted");
            walked_free += free_here;
            expected_phys += hdr.header_pages + hdr.ndata - free_here;
            cur = hdr.next.load(Ordering::Relaxed);
        }
        // Span lists account for exactly the walked free pages.
        let mut listed_free = 0usize;
        for list in inner.lists.iter() {
            // SAFETY: vm lock held for the whole iteration.
            for pd in unsafe { list.iter() } {
                // SAFETY: vm lock held.
                listed_free += unsafe { (*pd).inner() }.span_pages as usize;
            }
        }
        assert_eq!(listed_free, walked_free, "span freelists out of sync");
        for k in 1..=MAX_SEG {
            assert_eq!(
                inner.nonempty & Self::summary_bit(k) != 0,
                !inner.lists[k].is_empty(),
                "non-empty summary out of sync for the {k}-page list"
            );
        }
        assert_eq!(
            self.space.phys().in_use(),
            expected_phys,
            "physical-frame accounting drifted"
        );
    }

    fn bucket(len: usize) -> usize {
        if len <= MAX_SEG {
            len
        } else {
            0
        }
    }

    /// The summary bit of exact-size list `k` (`1 <= k <= MAX_SEG`).
    fn summary_bit(k: usize) -> u64 {
        1 << (k - 1)
    }

    /// Finds (without detaching) a free span of at least `npages`.
    /// Returns `(header, start index, span length)`.
    fn find_span(
        &self,
        inner: &VmInner,
        npages: usize,
    ) -> Option<(*mut VmblkHeader, usize, usize)> {
        // The front of the smallest non-empty exact-size list that is long
        // enough. Bit `k - 1` speaks for `lists[k]`: shift out the lists
        // too short.
        let adequate = match npages {
            1..=MAX_SEG => inner.nonempty >> (npages - 1),
            _ => 0,
        };
        let exact = (adequate != 0).then(|| {
            let k = npages + adequate.trailing_zeros() as usize;
            (inner.lists[k].front().expect("summary bit set"), k)
        });
        // The walk over every list head that the summary replaced, kept
        // as the reference debug builds hold its answer against.
        #[cfg(debug_assertions)]
        assert_eq!(
            exact,
            (npages..=MAX_SEG).find_map(|k| inner.lists[k].front().map(|pd| (pd, k))),
            "summary-driven pick differs from the list walk"
        );
        let pick = exact.or_else(|| {
            // First fit among the long spans.
            // SAFETY: vm lock held (we have the locked `VmInner`).
            unsafe { inner.lists[0].iter() }
                // SAFETY: vm lock held.
                .map(|pd| (pd, unsafe { (*pd).inner() }.span_pages as usize))
                .find(|&(_, len)| len >= npages)
        });
        pick.map(|(pd, len)| {
            // SAFETY: a listed descriptor of a live vmblk, in type-stable
            // header storage.
            let at = self.page_of(unsafe { &*pd });
            (
                at.hdr as *const VmblkHeader as *mut VmblkHeader,
                at.idx,
                len,
            )
        })
    }

    /// Links a free span into the lists and writes its boundary tags.
    ///
    /// # Safety
    ///
    /// vm lock held; the pages `[idx, idx + len)` of `hdr` are free and in
    /// no list.
    unsafe fn insert_free_span(
        &self,
        inner: &mut VmInner,
        hdr: *mut VmblkHeader,
        idx: usize,
        len: usize,
    ) {
        debug_assert!(len >= 1);
        // SAFETY: `hdr` is live; `idx` in range per contract.
        let hdr_ref = unsafe { &*hdr };
        let head = hdr_ref.pd(idx);
        // SAFETY: vm lock held per contract.
        unsafe {
            (*head).inner().span_pages = len as u32;
            inner.lists[Self::bucket(len)].push_front(head);
        }
        if len <= MAX_SEG {
            inner.nonempty |= Self::summary_bit(len);
        }
        // SAFETY: as above.
        unsafe { &*head }.set_kind(PdKind::SpanFreeHead);
        if len >= 2 {
            let tail = hdr_ref.pd(idx + len - 1);
            // SAFETY: vm lock held per contract.
            unsafe { (*tail).inner().span_pages = len as u32 };
            // SAFETY: as above.
            unsafe { &*tail }.set_kind(PdKind::SpanFreeTail);
        }
    }

    /// Detaches a free span from the lists and clears its boundary tags.
    ///
    /// # Safety
    ///
    /// vm lock held; `(hdr, idx, len)` is a listed free span.
    unsafe fn remove_free_span(
        &self,
        inner: &mut VmInner,
        hdr: *mut VmblkHeader,
        idx: usize,
        len: usize,
    ) {
        // SAFETY: `hdr` is live; `idx` in range per contract.
        let hdr_ref = unsafe { &*hdr };
        let head = hdr_ref.pd(idx);
        debug_assert_eq!(unsafe { &*head }.kind(), PdKind::SpanFreeHead);
        // SAFETY: vm lock held; `head` is listed per contract.
        unsafe { inner.lists[Self::bucket(len)].remove(head) };
        if len <= MAX_SEG && inner.lists[len].is_empty() {
            inner.nonempty &= !Self::summary_bit(len);
        }
        // SAFETY: as above.
        unsafe { &*head }.set_kind(PdKind::Unused);
        if len >= 2 {
            let tail = hdr_ref.pd(idx + len - 1);
            debug_assert_eq!(unsafe { &*tail }.kind(), PdKind::SpanFreeTail);
            // SAFETY: as above.
            unsafe { &*tail }.set_kind(PdKind::Unused);
        }
    }

    /// Carves, initializes, and publishes a new vmblk (header frames
    /// preferring node `preferred`); its whole data area becomes one free
    /// span.
    fn create_vmblk(&self, inner: &mut VmInner, preferred: NodeId) -> Result<(), VmError> {
        let region = self.space.alloc_vmblk()?;
        let total_pages = region.size() >> PAGE_SHIFT;
        let (header_pages, ndata) = geometry(total_pages);
        let home = match self.space.phys().claim_on(preferred, header_pages) {
            Ok(node) => node,
            Err(e) => {
                self.space.free_vmblk(region);
                return Err(e);
            }
        };
        let base = region.base().as_ptr();
        // SAFETY: the region is ours; the header fits in the header pages.
        unsafe {
            base.cast::<VmblkHeader>().write(VmblkHeader {
                region,
                header_pages,
                ndata,
                home,
                free_pages: AtomicUsize::new(ndata),
                next: AtomicPtr::new(inner.vmblks),
            });
        }
        let hdr = base.cast::<VmblkHeader>();
        for i in 0..ndata {
            // SAFETY: descriptor slots are inside the header area we own.
            unsafe { PageDesc::init((*hdr).pd(i)) };
        }
        inner.vmblks = hdr;
        // Publish *before* inserting the span: `find_span` resolves
        // descriptors through the dope vector.
        self.space.set_dope(region.index(), hdr as usize);
        // SAFETY: vm lock held; the whole data area is free and unlisted.
        unsafe { self.insert_free_span(inner, hdr, 0, ndata) };
        self.locked.vmblks_created.bump();
        Ok(())
    }

    /// Returns a fully free vmblk to the kernel space.
    ///
    /// # Safety
    ///
    /// vm lock held; every data page of `hdr` is free (one listed span).
    unsafe fn release_vmblk(&self, inner: &mut VmInner, hdr: *mut VmblkHeader) {
        // SAFETY: `hdr` is live until `free_vmblk` below.
        let hdr_ref = unsafe { &*hdr };
        let region = hdr_ref.region;
        let header_pages = hdr_ref.header_pages;
        let home = hdr_ref.home;
        let ndata = hdr_ref.ndata;
        // SAFETY: vm lock held; the vmblk-wide span is listed per contract.
        unsafe { self.remove_free_span(inner, hdr, 0, ndata) };
        // Unlink from the vmblk list.
        let mut cur = &mut inner.vmblks;
        loop {
            debug_assert!(!cur.is_null(), "vmblk missing from its own list");
            if *cur == hdr {
                // SAFETY: `*cur` is live while on the list.
                *cur = unsafe { (**cur).next.load(Ordering::Relaxed) };
                break;
            }
            // SAFETY: list members are live.
            cur = unsafe { &mut *(**cur).next.as_ptr() };
        }
        self.locked.vmblks_released.bump();
        self.space.phys().release_on(home, header_pages);
        self.space.free_vmblk(region);
    }
}

impl Drop for VmblkLayer {
    fn drop(&mut self) {
        // Nothing to do: the reservation and the accounting pool belong to
        // the kernel space, which outlives this layer via the `Arc`.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmem_vm::SpaceConfig;

    fn layer() -> VmblkLayer {
        // 16 KB vmblks (4 pages) inside a 1 MB space.
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(1 << 20).vmblk_shift(14).phys_pages(256),
        ));
        VmblkLayer::new(space, true)
    }

    #[test]
    fn geometry_single_header_page_for_tiny_vmblks() {
        // 4 pages: header 1, data 3.
        assert_eq!(geometry(4), (1, 3));
        // The paper's 4 MB vmblk: 1024 pages, 64-byte descriptors fit in
        // 16 pages alongside the header.
        let (h, d) = geometry(1024);
        assert_eq!(h + d, 1024);
        assert!(h * PAGE_SIZE >= PD_OFFSET + d * PD_STRIDE);
        assert!((h - 1) * PAGE_SIZE < PD_OFFSET + (d + 1) * PD_STRIDE);
    }

    #[test]
    fn alloc_free_single_page_round_trip() {
        let l = layer();
        let before = l.space().phys().in_use();
        assert_eq!(before, 0);
        let (addr, pd) = l.alloc_span(1).unwrap();
        assert_eq!(pd.kind(), PdKind::Unused);
        // One data frame plus one header frame.
        assert_eq!(l.space().phys().in_use(), 2);
        assert_eq!(l.nvmblks(), 1);
        // SAFETY: span just allocated, unreferenced.
        unsafe { l.free_span(addr, 1) };
        // Fully free vmblk is released: all frames returned.
        assert_eq!(l.space().phys().in_use(), 0);
        assert_eq!(l.nvmblks(), 0);
    }

    #[test]
    fn spans_coalesce_in_any_free_order() {
        let l = layer();
        // Three single pages from one 3-page data area.
        let (a, _) = l.alloc_span(1).unwrap();
        let (b, _) = l.alloc_span(1).unwrap();
        let (c, _) = l.alloc_span(1).unwrap();
        assert_eq!(l.nvmblks(), 1);
        // Free in middle-last-first order: must coalesce back to one span
        // and release the vmblk.
        // SAFETY: spans just allocated, unreferenced.
        unsafe {
            l.free_span(b, 1);
            l.free_span(c, 1);
            assert_eq!(l.nvmblks(), 1);
            l.free_span(a, 1);
        }
        assert_eq!(l.nvmblks(), 0);
        assert_eq!(l.space().phys().in_use(), 0);
    }

    #[test]
    fn multi_page_span_and_split() {
        let l = layer();
        let (a, _) = l.alloc_span(2).unwrap();
        let (b, _) = l.alloc_span(1).unwrap();
        // Same vmblk: 3 data pages split 2 + 1.
        assert_eq!(l.nvmblks(), 1);
        // SAFETY: spans just allocated, unreferenced.
        unsafe {
            l.free_span(a, 2);
            l.free_span(b, 1);
        }
        assert_eq!(l.nvmblks(), 0);
    }

    #[test]
    fn spills_into_second_vmblk() {
        let l = layer();
        let mut spans = Vec::new();
        for _ in 0..4 {
            spans.push(l.alloc_span(1).unwrap().0);
        }
        assert_eq!(l.nvmblks(), 2);
        for s in spans {
            // SAFETY: spans just allocated, unreferenced.
            unsafe { l.free_span(s, 1) };
        }
        assert_eq!(l.nvmblks(), 0);
        assert_eq!(l.space().phys().in_use(), 0);
    }

    #[test]
    fn large_alloc_round_trip_and_pd_marking() {
        let l = layer();
        let addr = l.alloc_large(2 * PAGE_SIZE + 1).unwrap();
        let pd = l.pd_of(addr.as_ptr() as usize).unwrap();
        assert_eq!(pd.kind(), PdKind::Large);
        // 3 data frames + 1 header frame.
        assert_eq!(l.space().phys().in_use(), 4);
        // SAFETY: block just allocated, unreferenced.
        let pages = unsafe { l.free_large(addr) };
        assert_eq!(pages, 3);
        assert_eq!(l.space().phys().in_use(), 0);
    }

    #[test]
    fn request_beyond_vmblk_capacity_fails_cleanly() {
        let l = layer();
        // Data capacity is 3 pages.
        assert_eq!(l.max_span_pages(), 3);
        let err = l.alloc_span(4).unwrap_err();
        assert_eq!(err, VmError::OutOfVirtual);
        // Refused up front: no frame claimed, no vmblk carved and left
        // behind for nothing to collect.
        assert_eq!(l.nvmblks(), 0);
        assert_eq!(l.space().phys().in_use(), 0);
        assert_eq!(l.space().phys().total_mapped(), 0);
        // Likewise on a layer that already holds a vmblk.
        let a = l.alloc_large(PAGE_SIZE).unwrap();
        assert_eq!(l.alloc_span(4).unwrap_err(), VmError::OutOfVirtual);
        assert_eq!(l.nvmblks(), 1);
        l.verify();
        // SAFETY: block just allocated, unreferenced.
        unsafe { l.free_large(a) };
        assert_eq!(l.nvmblks(), 0);
    }

    #[test]
    fn phys_exhaustion_fails_before_touching_spans() {
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(1 << 20).vmblk_shift(14).phys_pages(3),
        ));
        let l = VmblkLayer::new(space, true);
        // Header takes 1 frame; 2 data frames remain.
        let (a, _) = l.alloc_span(1).unwrap();
        let (_b, _) = l.alloc_span(1).unwrap();
        assert!(matches!(
            l.alloc_span(1),
            Err(VmError::OutOfPhysical { .. })
        ));
        // Freeing lets allocation succeed again.
        // SAFETY: span just allocated, unreferenced.
        unsafe { l.free_span(a, 1) };
        let (_c, _) = l.alloc_span(1).unwrap();
    }

    #[test]
    fn header_and_pd_lookup_resolve_interior_addresses() {
        let l = layer();
        let (addr, _) = l.alloc_span(2).unwrap();
        let mid = addr.as_ptr() as usize + PAGE_SIZE + 17;
        let hdr = l.header_of(mid).unwrap();
        assert_eq!(hdr.ndata(), 3);
        assert!(l.pd_of(mid).is_some());
        // Unmanaged addresses resolve to None.
        let foreign = Box::new(0u8);
        assert!(l.header_of(&*foreign as *const u8 as usize).is_none());
        // SAFETY: span just allocated, unreferenced.
        unsafe { l.free_span(addr, 2) };
    }

    #[test]
    fn keep_empty_vmblks_when_configured() {
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(1 << 20).vmblk_shift(14).phys_pages(256),
        ));
        let l = VmblkLayer::new(space, false);
        let (a, _) = l.alloc_span(1).unwrap();
        // SAFETY: span just allocated, unreferenced.
        unsafe { l.free_span(a, 1) };
        assert_eq!(l.nvmblks(), 1);
        // Data frames returned; header frame retained.
        assert_eq!(l.space().phys().in_use(), 1);
        // And the retained vmblk is reused, not leaked.
        let (_b, _) = l.alloc_span(2).unwrap();
        assert_eq!(l.nvmblks(), 1);
    }

    /// What a failed allocation must leave as it found it: the span
    /// lists, their summary, every vmblk's free-page count, the frames in
    /// use and the vmblks live.
    fn untouched_state(l: &VmblkLayer) -> (usize, u64, Vec<usize>, usize, usize) {
        let mut free_pages = Vec::new();
        l.for_each_vmblk(|h| free_pages.push(h.free_pages()));
        let nonempty = l.inner.lock().nonempty;
        (
            l.free_span_pages(),
            nonempty,
            free_pages,
            l.space().phys().in_use(),
            l.nvmblks(),
        )
    }

    fn faulted_layer() -> (VmblkLayer, Arc<kmem_smp::FaultPlan>) {
        let faults = Faults::with_plan();
        let plan = Arc::clone(faults.plan().unwrap());
        let space = Arc::new(KernelSpace::new_with_faults(
            SpaceConfig::new(1 << 20).vmblk_shift(14).phys_pages(256),
            faults,
        ));
        (VmblkLayer::new(space, true), plan)
    }

    #[test]
    fn injected_claim_failure_changes_nothing_and_unlocks() {
        use kmem_smp::{faults, FailPolicy};

        let (l, plan) = faulted_layer();
        let a = l.alloc_large(2 * PAGE_SIZE).unwrap();
        let before = untouched_state(&l);
        // The span's own claim fails: nothing was found or carved yet.
        plan.set(faults::PHYS_CLAIM, FailPolicy::Script(vec![true]));
        assert!(matches!(
            l.alloc_span(1),
            Err(VmError::OutOfPhysical { .. })
        ));
        assert!(!l.inner.is_locked(), "failed claim kept the lock");
        assert_eq!(untouched_state(&l), before);
        // The span's claim succeeds but the new vmblk's header claim
        // fails: the span's frames go back, the carve is undone.
        plan.set(faults::PHYS_CLAIM, FailPolicy::Script(vec![false, true]));
        assert!(matches!(
            l.alloc_span(2),
            Err(VmError::OutOfPhysical { .. })
        ));
        assert!(!l.inner.is_locked(), "failed header claim kept the lock");
        assert_eq!(untouched_state(&l), before);
        l.verify();
        // Script exhausted: the next allocation works.
        let b = l.alloc_large(PAGE_SIZE).unwrap();
        l.verify();
        // SAFETY: blocks allocated above, unreferenced.
        unsafe {
            l.free_large(a);
            l.free_large(b);
        }
        assert_eq!((l.nvmblks(), l.space().phys().in_use()), (0, 0));
    }

    #[test]
    fn injected_carve_failure_returns_the_frames_and_unlocks() {
        use kmem_smp::{faults, FailPolicy};

        let (l, plan) = faulted_layer();
        // Two of the vmblk's three data pages: a second 2-page span needs
        // a new vmblk.
        let a = l.alloc_large(2 * PAGE_SIZE).unwrap();
        let before = untouched_state(&l);
        plan.set(faults::VM_CARVE, FailPolicy::Script(vec![true]));
        assert_eq!(l.alloc_span(2).unwrap_err(), VmError::OutOfVirtual);
        assert!(!l.inner.is_locked(), "failed carve kept the lock");
        assert_eq!(untouched_state(&l), before);
        l.verify();
        let b = l.alloc_large(2 * PAGE_SIZE).unwrap();
        assert_eq!(l.nvmblks(), 2);
        l.verify();
        // SAFETY: blocks allocated above, unreferenced.
        unsafe {
            l.free_large(a);
            l.free_large(b);
        }
        assert_eq!((l.nvmblks(), l.space().phys().in_use()), (0, 0));
    }

    #[test]
    fn node_preference_places_and_returns_frames_on_the_home_node() {
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(1 << 20)
                .vmblk_shift(14)
                .phys_pages(256)
                .nodes(2),
        ));
        let l = VmblkLayer::new(space, true);
        let one = NodeId::new(1);
        let (a, pd) = l.alloc_span_on(1, one).unwrap();
        assert_eq!(pd.home_node(), one);
        // Header and data frames both landed on the preferred node.
        assert_eq!(l.space().phys().node(one).in_use(), 2);
        assert_eq!(l.space().phys().node(NodeId::new(0)).in_use(), 0);
        // SAFETY: span just allocated, unreferenced.
        unsafe { l.free_span(a, 1) };
        // Release went back to the same node: both shards read zero.
        assert_eq!(l.space().phys().in_use(), 0);
        assert_eq!(l.space().phys().node(one).in_use(), 0);
    }

    #[test]
    fn span_home_lives_on_the_head_descriptor_only() {
        // 64 KB vmblks: one header page, 15 data pages.
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(1 << 20)
                .vmblk_shift(16)
                .phys_pages(256)
                .nodes(2),
        ));
        let l = VmblkLayer::new(space, true);
        let (zero, one) = (NodeId::new(0), NodeId::new(1));
        let (a, pd) = l.alloc_span_on(8, one).unwrap();
        assert_eq!(pd.home_node(), one);
        assert_eq!(l.space().phys().node(one).in_use(), 8 + 1);
        // No per-page walk: the interior descriptors still read as
        // `PageDesc::init` left them.
        for i in 1..8 {
            let interior = l.pd_of(a.as_ptr() as usize + i * PAGE_SIZE).unwrap();
            assert_eq!(interior.home_node(), zero, "interior page {i}");
        }
        // SAFETY: span just allocated, unreferenced, freed whole.
        unsafe { l.free_span(a, 8) };
        // The head alone sent all eight frames back to node 1.
        assert_eq!(l.space().phys().node(one).in_use(), 0);
        assert_eq!(l.space().phys().in_use(), 0);
    }

    /// Interlocked operations in an event string: each lock acquisition
    /// and each read-modify-write is one.
    fn interlocked(events: &str) -> usize {
        events.chars().filter(|c| matches!(c, 'L' | 'm')).count()
    }

    #[test]
    fn span_pair_steps_do_not_grow_with_span_length() {
        // 1 MB vmblks (251 data pages) so a 64-page span fits.
        let space = Arc::new(KernelSpace::new(
            SpaceConfig::new(1 << 22).vmblk_shift(20).phys_pages(512),
        ));
        let l = VmblkLayer::new(space, true);
        // Warm: a pinned block keeps the vmblk, and one big pair puts the
        // pool's high-water mark above anything measured below.
        let pin = l.alloc_large(2 * PAGE_SIZE).unwrap();
        let big = l.alloc_large(64 * PAGE_SIZE).unwrap();
        // SAFETY: block just allocated, unreferenced.
        unsafe { l.free_large(big) };
        let large_pair = |pages: usize| {
            let ((), events) = probe::record(|| {
                let p = l.alloc_large(pages * PAGE_SIZE).unwrap();
                // SAFETY: block just allocated, unreferenced.
                unsafe { l.free_large(p) };
            });
            probe::steps(&events)
        };
        let ((), events) = probe::record(|| {
            let (p, _) = l.alloc_span(1).unwrap();
            // SAFETY: span just allocated, unreferenced.
            unsafe { l.free_span(p, 1) };
        });
        let page = probe::steps(&events);

        let two = large_pair(2);
        assert_eq!(two, large_pair(64), "steps depend on span length");
        assert_eq!(page, two, "a single page takes another path");
        // The lock twice; the frame account (under it) and the home node
        // (after it) are plain writes.
        assert_eq!(two, "LwuwLwu");
        assert_eq!(interlocked(&two), 2);
        // SAFETY: block allocated above, unreferenced.
        unsafe { l.free_large(pin) };
        assert_eq!(l.nvmblks(), 0);
    }

    #[test]
    fn free_span_accounting_matches_walker() {
        let l = layer();
        let (a, _) = l.alloc_span(1).unwrap();
        assert_eq!(l.free_span_pages(), 2);
        let (b, _) = l.alloc_span(2).unwrap();
        assert_eq!(l.free_span_pages(), 0);
        // SAFETY: spans just allocated, unreferenced.
        unsafe {
            l.free_span(a, 1);
            l.free_span(b, 2);
        }
        assert_eq!(l.free_span_pages(), 0); // vmblk released entirely
    }
}
