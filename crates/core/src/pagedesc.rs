//! Page descriptors and intrusive descriptor lists (paper Figure 6).
//!
//! Every data page of a vmblk has one [`PageDesc`], stored in the header
//! area at the front of the vmblk. "Page descriptors corresponding to pages
//! that have been split into blocks contain the block size, a freelist
//! pointer, and the number of free blocks. Page descriptors corresponding
//! to spans contain the boundary-tag information and free-list pointers
//! needed to allocate and coalesce large blocks."
//!
//! # Who may touch what
//!
//! The `kind`/`class` discriminants are atomics because the *standard* free
//! path reads them with no lock held: while a caller still owns a block of
//! a page, that page cannot change role, so the read is stable.
//!
//! `home` is valid on the first page of an allocated span — which every
//! block page is, being a span of one — and nowhere else: the vmblk layer
//! writes it once per allocation, on the head, and reads it back from the
//! head when the span is freed whole. An interior page's `home` is
//! whatever an earlier use of that page left there.
//!
//! A block page's live state is lock-free. Its free count and listing
//! flags (`state`), its block freelist (`afree`) and its bucket linkage
//! (`anext`) are tagged or plain atomics driven by the class's page layer
//! under the possession protocol described in `pagelayer`; no lock guards
//! them, and the page layer never looks inside [`PdInner`].
//!
//! [`PdInner`] holds the boundary-tag state of spans and is only touched
//! under the vmblk layer's lock. Its `freelist`/`free_count` fields serve
//! the spinlocked page-layer baseline the benches compare against.

use core::cell::UnsafeCell;
use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};

use kmem_smp::probe::{self, ProbeEvent};
use kmem_smp::{NodeId, TaggedAtomic};
use kmem_vm::PAGE_SIZE;

use crate::block::MIN_BLOCK;

/// Role of a page, stored in its descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PdKind {
    /// Interior page of a span (free or large-allocated), or not yet used.
    Unused = 0,
    /// First page of a *free* span; in a span freelist; `span_pages` valid.
    SpanFreeHead = 1,
    /// Last page of a free span of length ≥ 2; `span_pages` valid
    /// (the boundary tag that lets the next span coalesce backwards).
    SpanFreeTail = 2,
    /// Page split into blocks of size class `class`; owned by that class's
    /// coalesce-to-page layer.
    BlockPage = 3,
    /// First page of an *allocated* multi-page block; `span_pages` valid.
    Large = 4,
}

impl PdKind {
    fn from_u8(v: u8) -> PdKind {
        match v {
            0 => PdKind::Unused,
            1 => PdKind::SpanFreeHead,
            2 => PdKind::SpanFreeTail,
            3 => PdKind::BlockPage,
            4 => PdKind::Large,
            _ => unreachable!("corrupt page descriptor kind {v}"),
        }
    }
}

/// Lock-guarded page-descriptor state. See the module docs for who may
/// touch it.
pub struct PdInner {
    /// Block pages: head of the page's internal freelist.
    pub freelist: *mut u8,
    /// Block pages: free blocks in this page. Spans: unused.
    pub free_count: u32,
    /// Spans (head & tail) and large heads: span length in pages.
    pub span_pages: u32,
    /// Intrusive list linkage (radix lists for block pages, span freelists
    /// for span heads).
    pub prev: *mut PageDesc,
    pub next: *mut PageDesc,
}

impl PdInner {
    const fn new() -> Self {
        PdInner {
            freelist: ptr::null_mut(),
            free_count: 0,
            span_pages: 0,
            prev: ptr::null_mut(),
            next: ptr::null_mut(),
        }
    }
}

/// One page descriptor. Aligned so descriptor arrays stride whole cache
/// lines — descriptor traffic is already confined to the (locked) upper
/// layers; the alignment keeps two CPUs working on *different* pages from
/// false-sharing descriptor lines.
#[repr(C, align(64))]
pub struct PageDesc {
    kind: AtomicU8,
    class: AtomicU8,
    /// Home NUMA node of the frames backing the span this page heads —
    /// written by the vmblk layer when the span's frames are claimed, read
    /// lock-free wherever node-local placement matters. Valid on span
    /// heads only (see the module docs). Fits the descriptor's existing
    /// padding, so `PD_STRIDE` is unchanged.
    home: AtomicU8,
    /// Block pages, lock-free layer state: a packed
    /// `(free count | bucket | LISTED | OWNED)` word with a generation
    /// tag (see `pagelayer`'s `PageState`). Written with
    /// [`TaggedAtomic::fetch_count_add`] by freeing CPUs and CAS'd by
    /// possessors; the tag serializes the two against each other.
    state: TaggedAtomic,
    /// Block pages: tagged head of the page's lock-free block freelist
    /// (links through each block's first word, as `global.rs` does).
    afree: TaggedAtomic,
    /// Lock-free intrusive linkage for [`PdStack`] (the radix buckets).
    /// Only the stack holding the page may follow it.
    anext: AtomicPtr<PageDesc>,
    inner: UnsafeCell<PdInner>,
}

impl core::fmt::Debug for PageDesc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PageDesc")
            .field("kind", &self.kind())
            .field("class", &self.class())
            .finish_non_exhaustive()
    }
}

/// Distance in bytes between consecutive descriptors in a vmblk header.
pub const PD_STRIDE: usize = core::mem::size_of::<PageDesc>();

impl PageDesc {
    /// Initializes a descriptor in place as `Unused`.
    ///
    /// # Safety
    ///
    /// `slot` must be valid for writes of `PageDesc` and properly aligned.
    pub unsafe fn init(slot: *mut PageDesc) {
        // SAFETY: forwarded caller contract.
        unsafe {
            slot.write(PageDesc {
                kind: AtomicU8::new(PdKind::Unused as u8),
                class: AtomicU8::new(0),
                home: AtomicU8::new(0),
                state: TaggedAtomic::null(),
                afree: TaggedAtomic::null(),
                anext: AtomicPtr::new(ptr::null_mut()),
                inner: UnsafeCell::new(PdInner::new()),
            });
        }
    }

    /// The page's packed lock-free state word (block pages only).
    #[inline]
    pub fn state(&self) -> &TaggedAtomic {
        &self.state
    }

    /// The page's lock-free block-freelist head (block pages only).
    #[inline]
    pub fn afree(&self) -> &TaggedAtomic {
        &self.afree
    }

    /// Reads the page's role (lock-free; see module docs).
    #[inline]
    pub fn kind(&self) -> PdKind {
        PdKind::from_u8(self.kind.load(Ordering::Acquire))
    }

    /// Publishes a new role.
    #[inline]
    pub fn set_kind(&self, kind: PdKind) {
        self.kind.store(kind as u8, Ordering::Release);
    }

    /// Reads the size class of a block page (lock-free; see module docs).
    #[inline]
    pub fn class(&self) -> usize {
        usize::from(self.class.load(Ordering::Acquire))
    }

    /// Records the size class of a block page.
    #[inline]
    pub fn set_class(&self, class: usize) {
        debug_assert!(class <= usize::from(u8::MAX));
        self.class.store(class as u8, Ordering::Release);
    }

    /// Home node of the frames backing the span this page heads
    /// (lock-free; meaningless on an interior page).
    #[inline]
    pub fn home_node(&self) -> NodeId {
        NodeId::new(usize::from(self.home.load(Ordering::Acquire)))
    }

    /// Records the home node of the frames backing the span this page
    /// heads.
    #[inline]
    pub fn set_home_node(&self, node: NodeId) {
        debug_assert!(node.index() <= usize::from(u8::MAX));
        self.home.store(node.index() as u8, Ordering::Release);
    }

    /// Grants access to the layer-owned state.
    ///
    /// # Safety
    ///
    /// The caller must hold the lock of the layer that currently owns this
    /// page (see module docs), and must not let two returned references
    /// alias mutably.
    #[expect(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn inner(&self) -> &mut PdInner {
        // SAFETY: exclusivity is provided by the owning layer's lock, per
        // the function contract.
        unsafe { &mut *self.inner.get() }
    }
}

/// An intrusive doubly linked list of page descriptors.
///
/// Used both for the radix-sorted per-class page lists (Figure 5) and the
/// vmblk layer's span freelists. All operations require the owning layer's
/// lock, mirrored by the `unsafe fn` contracts.
pub struct PdList {
    head: *mut PageDesc,
    len: usize,
}

// SAFETY: a `PdList` owns membership of the descriptors it links; the
// owning layer's lock serializes all access.
unsafe impl Send for PdList {}

impl PdList {
    /// Creates an empty list.
    pub const fn new() -> Self {
        PdList {
            head: ptr::null_mut(),
            len: 0,
        }
    }

    /// Number of descriptors in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Head of the list, if any.
    #[inline]
    pub fn front(&self) -> Option<*mut PageDesc> {
        if self.head.is_null() {
            None
        } else {
            Some(self.head)
        }
    }

    /// Pushes `pd` at the front.
    ///
    /// # Safety
    ///
    /// The caller holds the owning layer's lock; `pd` is valid and in no
    /// list.
    pub unsafe fn push_front(&mut self, pd: *mut PageDesc) {
        // SAFETY: lock held per contract; `pd` is valid.
        let inner = unsafe { (*pd).inner() };
        debug_assert!(inner.prev.is_null() && inner.next.is_null());
        inner.prev = ptr::null_mut();
        inner.next = self.head;
        if !self.head.is_null() {
            // SAFETY: `head` is a member of this list, hence valid; lock
            // held.
            unsafe { (*self.head).inner() }.prev = pd;
        }
        self.head = pd;
        self.len += 1;
    }

    /// Removes `pd` from the list.
    ///
    /// # Safety
    ///
    /// The caller holds the owning layer's lock; `pd` is a member of this
    /// list.
    pub unsafe fn remove(&mut self, pd: *mut PageDesc) {
        // SAFETY: lock held per contract; `pd` is a member, hence valid.
        let inner = unsafe { (*pd).inner() };
        let (prev, next) = (inner.prev, inner.next);
        inner.prev = ptr::null_mut();
        inner.next = ptr::null_mut();
        if prev.is_null() {
            debug_assert_eq!(self.head, pd, "pd not a member of this list");
            self.head = next;
        } else {
            // SAFETY: members of the list are valid; lock held.
            unsafe { (*prev).inner() }.next = next;
        }
        if !next.is_null() {
            // SAFETY: members of the list are valid; lock held.
            unsafe { (*next).inner() }.prev = prev;
        }
        self.len -= 1;
    }

    /// Pops the front descriptor.
    ///
    /// # Safety
    ///
    /// The caller holds the owning layer's lock.
    pub unsafe fn pop_front(&mut self) -> Option<*mut PageDesc> {
        let pd = self.front()?;
        // SAFETY: `pd` is the head of this list; lock held per contract.
        unsafe { self.remove(pd) };
        Some(pd)
    }

    /// Iterates raw descriptor pointers (verification only).
    ///
    /// # Safety
    ///
    /// The caller holds the owning layer's lock for the whole iteration.
    pub unsafe fn iter(&self) -> PdListIter {
        PdListIter { next: self.head }
    }
}

impl Default for PdList {
    fn default() -> Self {
        PdList::new()
    }
}

/// Iterator over a [`PdList`]; see [`PdList::iter`] for the contract.
pub struct PdListIter {
    next: *mut PageDesc,
}

impl Iterator for PdListIter {
    type Item = *mut PageDesc;

    fn next(&mut self) -> Option<*mut PageDesc> {
        if self.next.is_null() {
            return None;
        }
        let pd = self.next;
        // SAFETY: `pd` is a list member; the iteration contract says the
        // owning lock is held.
        self.next = unsafe { (*pd).inner() }.next;
        Some(pd)
    }
}

/// A lock-free Treiber stack of page descriptors, linked through
/// [`PageDesc::anext`] under a generation-tagged head — the page-descriptor
/// analogue of the global layer's chain stack.
///
/// Used for the per-class radix buckets (lazy positions: a listed page's
/// true free count may exceed its bucket; poppers repair by relisting). A
/// descriptor is in **at most one** stack at a time; a successful
/// [`pop`](PdStack::pop) transfers possession of the descriptor to the
/// caller.
pub struct PdStack {
    head: TaggedAtomic,
}

// SAFETY: all mutation is through tagged CAS; possession of popped
// descriptors transfers with the successful exchange.
unsafe impl Send for PdStack {}
unsafe impl Sync for PdStack {}

impl PdStack {
    /// Creates an empty stack.
    pub const fn new() -> Self {
        PdStack {
            head: TaggedAtomic::null(),
        }
    }

    /// Whether the stack looked empty at the load — a hint only; racing
    /// pushes and pops may change it immediately.
    #[inline]
    pub fn is_empty_hint(&self) -> bool {
        self.head.load().is_null()
    }

    /// Pushes `pd`, returning the number of failed CAS attempts (for the
    /// caller's `cas_retries` counter).
    ///
    /// # Safety
    ///
    /// The caller possesses `pd` (it is in no stack) and `pd` stays valid
    /// for the stack's lifetime (vmblk descriptor storage is type-stable).
    pub unsafe fn push(&self, pd: *mut PageDesc) -> u64 {
        let mut retries = 0;
        let mut cur = self.head.load();
        loop {
            // SAFETY: we possess `pd` until the CAS publishes it.
            unsafe {
                (*pd)
                    .anext
                    .store(cur.ptr() as *mut PageDesc, Ordering::Release)
            };
            match self.head.compare_exchange(cur, pd as *mut u8) {
                Ok(_) => return retries,
                Err(seen) => {
                    retries += 1;
                    cur = seen;
                }
            }
        }
    }

    /// Iterates raw descriptor pointers without popping (verification).
    ///
    /// # Safety
    ///
    /// The stack must be quiescent for the whole iteration: no concurrent
    /// push or pop may run, or the `anext` chain may be rewired mid-walk.
    pub unsafe fn iter(&self) -> PdStackIter {
        PdStackIter {
            next: self.head.load().ptr() as *mut PageDesc,
        }
    }

    /// Pops the top descriptor, transferring possession to the caller.
    /// Also returns the number of failed CAS attempts.
    pub fn pop(&self) -> (Option<*mut PageDesc>, u64) {
        let mut retries = 0;
        let mut cur = self.head.load();
        loop {
            if cur.is_null() {
                return (None, retries);
            }
            let pd = cur.ptr() as *mut PageDesc;
            // SAFETY: descriptor storage is type-stable, so this load
            // cannot fault even if `pd` was popped by a racing CPU; a
            // stale next is discarded when the tag CAS fails.
            let next = unsafe { (*pd).anext.load(Ordering::Acquire) };
            match self.head.compare_exchange(cur, next as *mut u8) {
                Ok(_) => return (Some(pd), retries),
                Err(seen) => {
                    retries += 1;
                    cur = seen;
                }
            }
        }
    }
}

impl Default for PdStack {
    fn default() -> Self {
        PdStack::new()
    }
}

/// Iterator over a quiescent [`PdStack`]; see [`PdStack::iter`].
pub struct PdStackIter {
    next: *mut PageDesc,
}

impl Iterator for PdStackIter {
    type Item = *mut PageDesc;

    fn next(&mut self) -> Option<*mut PageDesc> {
        if self.next.is_null() {
            return None;
        }
        let pd = self.next;
        // SAFETY: the iteration contract guarantees quiescence, so the
        // chain through `anext` is stable and every member valid.
        self.next = unsafe { (*pd).anext.load(Ordering::Acquire) };
        Some(pd)
    }
}

/// Summary words covering one bucket per possible free count,
/// `0..=PAGE_SIZE / MIN_BLOCK`.
const SUMMARY_WORDS: usize = (PAGE_SIZE / MIN_BLOCK + 1).div_ceil(64);

/// The radix buckets of one page layer: a [`PdStack`] per free count, and
/// a summary bitmap of the buckets that may hold a page, so that picking
/// a page costs a few word scans however many buckets the class has.
///
/// A pusher pushes the page and then sets bit `b` unless it reads it set.
/// A popper that finds bucket `b` empty clears the bit, looks at the bucket
/// again, and restores the bit if a page has arrived. Each side stores to
/// one word and then loads the other — the store-buffering shape — so all
/// four accesses (push, bit load; bit clear, second look) are `SeqCst`:
/// in their single total order either the second look follows the push
/// and finds the page, or the pusher's bit load follows the clear and
/// finds the bit clear. Hence, whenever no push or pop is in flight, a
/// non-empty bucket has its bit set. A set bit over an empty bucket costs
/// the next scan one empty pop. A scan that runs ahead of a pusher's set
/// sends its refill to a fresh page; the page it missed is listed all the
/// same and its bit follows.
///
/// The words share one cache line, so a scan is one line read, and pushes
/// to a bucket whose bit is already set leave that line shared.
pub struct PdBuckets {
    stacks: Box<[PdStack]>,
    summary: Summary,
}

#[repr(align(64))]
struct Summary([AtomicU64; SUMMARY_WORDS]);

impl PdBuckets {
    /// Creates `n` empty buckets, indexed `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(n <= SUMMARY_WORDS * 64, "more buckets than summary bits");
        PdBuckets {
            stacks: (0..n).map(|_| PdStack::new()).collect(),
            summary: Summary([const { AtomicU64::new(0) }; SUMMARY_WORDS]),
        }
    }

    #[inline]
    fn word(&self, b: usize) -> (&AtomicU64, u64) {
        (&self.summary.0[b / 64], 1 << (b % 64))
    }

    #[inline]
    fn emit(&self, ev: fn(usize) -> ProbeEvent) {
        probe::emit(ev(probe::line_of(&self.summary)));
    }

    /// Pushes `pd` on bucket `b`, returning the failed CAS attempts.
    ///
    /// # Safety
    ///
    /// As [`PdStack::push`].
    pub unsafe fn push(&self, b: usize, pd: *mut PageDesc) -> u64 {
        // SAFETY: forwarded caller contract.
        let retries = unsafe { self.stacks[b].push(pd) };
        let (word, bit) = self.word(b);
        self.emit(|line| ProbeEvent::LineRead { line });
        if word.load(Ordering::SeqCst) & bit == 0 {
            self.emit(|line| ProbeEvent::LineRmw { line });
            word.fetch_or(bit, Ordering::SeqCst);
        }
        retries
    }

    /// Pops the top of bucket `b` as [`PdStack::pop`] does, clearing the
    /// summary bit of a bucket found empty.
    pub fn pop(&self, b: usize) -> (Option<*mut PageDesc>, u64) {
        let popped = self.stacks[b].pop();
        if popped.0.is_some() {
            return popped;
        }
        let (word, bit) = self.word(b);
        self.emit(|line| ProbeEvent::LineRead { line });
        if word.load(Ordering::SeqCst) & bit != 0 {
            self.emit(|line| ProbeEvent::LineRmw { line });
            word.fetch_and(!bit, Ordering::SeqCst);
            if !self.stacks[b].is_empty_hint() {
                self.emit(|line| ProbeEvent::LineRmw { line });
                word.fetch_or(bit, Ordering::SeqCst);
            }
        }
        popped
    }

    /// The lowest bucket `>= from` whose summary bit is set.
    pub fn first_set_from(&self, from: usize) -> Option<usize> {
        self.emit(|line| ProbeEvent::LineRead { line });
        let mut mask = !0u64 << (from % 64);
        for w in from / 64..SUMMARY_WORDS {
            let bits = self.summary.0[w].load(Ordering::SeqCst) & mask;
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            mask = !0;
        }
        None
    }

    /// The highest bucket `<= upto` whose summary bit is set.
    pub fn last_set_upto(&self, upto: usize) -> Option<usize> {
        self.emit(|line| ProbeEvent::LineRead { line });
        let mut mask = !0u64 >> (63 - upto % 64);
        for w in (0..=upto / 64).rev() {
            let bits = self.summary.0[w].load(Ordering::SeqCst) & mask;
            if bits != 0 {
                return Some(w * 64 + 63 - bits.leading_zeros() as usize);
            }
            mask = !0;
        }
        None
    }

    /// Iterates every listed descriptor, bucket by bucket (verification),
    /// asserting on the way that each non-empty bucket has its bit set.
    ///
    /// # Safety
    ///
    /// As [`PdStack::iter`], for every bucket.
    pub unsafe fn iter(&self) -> impl Iterator<Item = *mut PageDesc> + '_ {
        self.stacks.iter().enumerate().flat_map(move |(b, stack)| {
            let (word, bit) = self.word(b);
            assert!(
                stack.is_empty_hint() || word.load(Ordering::SeqCst) & bit != 0,
                "bucket {b} holds pages but its summary bit is clear"
            );
            // SAFETY: forwarded caller contract.
            unsafe { stack.iter() }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Boxed so each descriptor keeps a stable address while the Vec grows.
    #[expect(clippy::vec_box)]
    fn make_pds(n: usize) -> Vec<Box<PageDesc>> {
        (0..n)
            .map(|_| {
                let mut boxed = Box::new_uninit();
                // SAFETY: the box provides valid, aligned storage.
                unsafe {
                    PageDesc::init(boxed.as_mut_ptr());
                    boxed.assume_init()
                }
            })
            .collect()
    }

    #[test]
    fn kind_and_class_round_trip() {
        let pds = make_pds(1);
        let pd = &*pds[0];
        assert_eq!(pd.kind(), PdKind::Unused);
        pd.set_kind(PdKind::BlockPage);
        pd.set_class(7);
        assert_eq!(pd.kind(), PdKind::BlockPage);
        assert_eq!(pd.class(), 7);
    }

    #[test]
    fn descriptor_is_cache_line_sized() {
        // Compile-time facts, stated as consts so the assertions are not
        // flagged as constant-value checks.
        const _: () = assert!(PD_STRIDE.is_multiple_of(64));
        const _: () = assert!(PD_STRIDE <= 128, "descriptors should stay compact");
    }

    #[test]
    fn list_push_pop_front() {
        let mut pds = make_pds(3);
        let ptrs: Vec<*mut PageDesc> = pds.iter_mut().map(|b| &mut **b as *mut _).collect();
        let mut list = PdList::new();
        // SAFETY: single-threaded test owns all descriptors.
        unsafe {
            for &p in &ptrs {
                list.push_front(p);
            }
            assert_eq!(list.len(), 3);
            assert_eq!(list.pop_front(), Some(ptrs[2]));
            assert_eq!(list.pop_front(), Some(ptrs[1]));
            assert_eq!(list.pop_front(), Some(ptrs[0]));
            assert_eq!(list.pop_front(), None);
        }
    }

    #[test]
    fn list_remove_middle_and_ends() {
        let mut pds = make_pds(4);
        let ptrs: Vec<*mut PageDesc> = pds.iter_mut().map(|b| &mut **b as *mut _).collect();
        let mut list = PdList::new();
        // SAFETY: single-threaded test owns all descriptors.
        unsafe {
            for &p in &ptrs {
                list.push_front(p);
            }
            // List order is [3, 2, 1, 0].
            list.remove(ptrs[2]); // middle
            assert_eq!(
                list.iter().collect::<Vec<_>>(),
                vec![ptrs[3], ptrs[1], ptrs[0]]
            );
            list.remove(ptrs[3]); // head
            assert_eq!(list.iter().collect::<Vec<_>>(), vec![ptrs[1], ptrs[0]]);
            list.remove(ptrs[0]); // tail
            assert_eq!(list.iter().collect::<Vec<_>>(), vec![ptrs[1]]);
            list.remove(ptrs[1]);
            assert!(list.is_empty());
        }
    }

    #[test]
    fn init_zeroes_the_lock_free_words() {
        let pds = make_pds(1);
        let pd = &*pds[0];
        assert!(pd.state().load().is_null());
        assert_eq!(pd.state().load().value(), 0);
        assert!(pd.afree().load().is_null());
    }

    #[test]
    fn pd_stack_push_pop_lifo() {
        let mut pds = make_pds(3);
        let ptrs: Vec<*mut PageDesc> = pds.iter_mut().map(|b| &mut **b as *mut _).collect();
        let stack = PdStack::new();
        assert!(stack.is_empty_hint());
        // SAFETY: single-threaded test owns all descriptors.
        unsafe {
            for &p in &ptrs {
                stack.push(p);
            }
        }
        assert!(!stack.is_empty_hint());
        assert_eq!(stack.pop().0, Some(ptrs[2]));
        assert_eq!(stack.pop().0, Some(ptrs[1]));
        assert_eq!(stack.pop().0, Some(ptrs[0]));
        assert_eq!(stack.pop().0, None);
    }

    #[test]
    fn pd_stack_concurrent_cycling_conserves_descriptors() {
        const N: usize = 6;
        let mut pds = make_pds(N);
        let ptrs: Vec<usize> = pds
            .iter_mut()
            .map(|b| &mut **b as *mut PageDesc as usize)
            .collect();
        let stack = PdStack::new();
        for &p in &ptrs {
            // SAFETY: descriptors are owned and in no stack.
            unsafe { stack.push(p as *mut PageDesc) };
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        if let (Some(pd), _) = stack.pop() {
                            // SAFETY: pop transferred possession.
                            unsafe { stack.push(pd) };
                        }
                    }
                });
            }
        });
        let mut seen = Vec::new();
        while let (Some(pd), _) = stack.pop() {
            seen.push(pd as usize);
        }
        seen.sort_unstable();
        let mut want = ptrs.clone();
        want.sort_unstable();
        assert_eq!(seen, want, "every descriptor back exactly once");
    }

    #[test]
    fn buckets_summary_tracks_pushes_and_empty_pops() {
        let mut pds = make_pds(3);
        let ptrs: Vec<*mut PageDesc> = pds.iter_mut().map(|b| &mut **b as *mut _).collect();
        let buckets = PdBuckets::new(257);
        assert_eq!(buckets.first_set_from(0), None);
        assert_eq!(buckets.last_set_upto(256), None);
        // SAFETY: single-threaded test owns all descriptors.
        unsafe {
            buckets.push(3, ptrs[0]);
            buckets.push(64, ptrs[1]);
            buckets.push(256, ptrs[2]);
            assert_eq!(buckets.iter().collect::<Vec<_>>(), ptrs);
        }
        // Scans cross word boundaries and honour their starting bucket.
        assert_eq!(buckets.first_set_from(0), Some(3));
        assert_eq!(buckets.first_set_from(4), Some(64));
        assert_eq!(buckets.first_set_from(65), Some(256));
        assert_eq!(buckets.first_set_from(257), None);
        assert_eq!(buckets.last_set_upto(256), Some(256));
        assert_eq!(buckets.last_set_upto(255), Some(64));
        assert_eq!(buckets.last_set_upto(63), Some(3));
        assert_eq!(buckets.last_set_upto(2), None);
        // Taking the last page leaves the bit; the pop that finds the
        // bucket empty clears it.
        assert_eq!(buckets.pop(64).0, Some(ptrs[1]));
        assert_eq!(buckets.first_set_from(4), Some(64));
        assert_eq!(buckets.pop(64).0, None);
        assert_eq!(buckets.first_set_from(4), Some(256));
        assert_eq!(buckets.pop(3).0, Some(ptrs[0]));
        assert_eq!(buckets.pop(256).0, Some(ptrs[2]));
    }

    #[test]
    fn removed_descriptor_can_rejoin() {
        let mut pds = make_pds(2);
        let a: *mut PageDesc = &mut *pds[0];
        let b: *mut PageDesc = &mut *pds[1];
        let mut l1 = PdList::new();
        let mut l2 = PdList::new();
        // SAFETY: single-threaded test owns all descriptors.
        unsafe {
            l1.push_front(a);
            l1.push_front(b);
            l1.remove(a);
            l2.push_front(a);
            assert_eq!(l1.iter().collect::<Vec<_>>(), vec![b]);
            assert_eq!(l2.iter().collect::<Vec<_>>(), vec![a]);
        }
    }
}
