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
//! [`PdInner`] holds the state the owning layer keeps under its lock. While
//! a page is split into blocks, its class's page layer owns it: the page's
//! block freelist, free count and radix-bucket linkage are touched only
//! under that class's lock. Otherwise the vmblk layer owns it, and its
//! span length and span-freelist linkage are touched only under the
//! boundary-tag lock. A page changes hands with both locks held (a release
//! runs the vmblk layer's free under the class lock), or while no other
//! CPU can reach it (a fresh page is carved before it is listed).

use core::cell::UnsafeCell;
use core::ptr;
use core::sync::atomic::{AtomicU8, Ordering};

use kmem_smp::NodeId;

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
                inner: UnsafeCell::new(PdInner::new()),
            });
        }
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
}

// SAFETY: a `PdList` owns membership of the descriptors it links; the
// owning layer's lock serializes all access.
unsafe impl Send for PdList {}

impl PdList {
    /// Creates an empty list.
    pub const fn new() -> Self {
        PdList {
            head: ptr::null_mut(),
        }
    }

    /// Returns whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.is_null()
    }

    /// Head of the list, if any.
    #[inline]
    pub fn front(&self) -> Option<*mut PageDesc> {
        (!self.head.is_null()).then_some(self.head)
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
            assert_eq!(list.iter().count(), 3);
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
