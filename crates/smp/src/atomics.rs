//! Lock-free tagged-pointer atomics.
//!
//! A Treiber stack makes push and pop a single compare-and-swap on one
//! word — but a bare pointer CAS is unsound for pop: between loading the
//! head `A` and the CAS, `A` can be popped, recycled, and pushed again
//! with a different successor (the ABA problem), and the CAS would splice
//! a stale next pointer into the stack. The maintenance mailbox
//! ([`crate::mailbox`]) takes its tickets from the same word with
//! [`TaggedAtomic::fetch_count_add`].
//!
//! [`TaggedAtomic`] defeats ABA the classic way (IBM System/370 free-list
//! technique): the head word packs a 48-bit pointer with a 16-bit
//! generation tag, and every successful exchange increments the tag. A
//! pop that raced a full push-pop cycle of the same address then fails
//! its CAS on the tag alone and retries with fresh state. Sixteen bits
//! of generation would need to wrap *exactly* between one thread's load
//! and its CAS — 65 536 complete stack operations inside one
//! load-to-CAS window — for a false match.
//!
//! The primitive emits [`probe`] events ([`ProbeEvent::LineRead`] on
//! load, [`ProbeEvent::LineRmw`] on each CAS or fetch-add attempt) so the
//! discrete-event simulator in `kmem-sim` can price the cache-line
//! traffic of lock-free contention exactly as it prices spinlock
//! hand-offs.

use core::sync::atomic::{AtomicU64, Ordering};

use crate::probe::{self, ProbeEvent};

/// Bits of generation tag packed above the pointer.
pub const TAG_BITS: u32 = 16;
/// Bits of pointer kept; covers the canonical user-space range of every
/// 64-bit target this workspace builds on.
pub const PTR_BITS: u32 = 48;
const PTR_MASK: u64 = (1 << PTR_BITS) - 1;

/// A `(pointer, generation)` pair as read from a [`TaggedAtomic`].
///
/// Values are snapshots: the only way to act on one is to pass it back
/// to [`TaggedAtomic::compare_exchange`], which fails if either half
/// changed since the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedPtr {
    raw: u64,
}

impl TaggedPtr {
    /// The null pointer with generation 0 (a [`TaggedAtomic`]'s initial
    /// value).
    pub const NULL: TaggedPtr = TaggedPtr { raw: 0 };

    /// Packs the low [`PTR_BITS`] of `value` under `tag`. Width is not
    /// judged here: [`TaggedAtomic::compare_exchange`] does, once it knows
    /// whether the value was computed from a stale read.
    fn pack(value: u64, tag: u16) -> TaggedPtr {
        TaggedPtr {
            raw: (u64::from(tag) << PTR_BITS) | (value & PTR_MASK),
        }
    }

    /// The pointer half.
    #[inline]
    pub fn ptr(self) -> *mut u8 {
        (self.raw & PTR_MASK) as usize as *mut u8
    }

    /// The low 48 bits as a plain value, for [`TaggedAtomic`] words that
    /// carry a packed bitfield (counts, flags) instead of a pointer.
    #[inline]
    pub fn value(self) -> u64 {
        self.raw & PTR_MASK
    }

    /// The generation tag half.
    #[inline]
    pub fn tag(self) -> u16 {
        (self.raw >> PTR_BITS) as u16
    }

    /// Whether the pointer half is null.
    #[inline]
    pub fn is_null(self) -> bool {
        self.raw & PTR_MASK == 0
    }
}

/// A generation-counted atomic pointer: the head word of a lock-free
/// Treiber stack.
pub struct TaggedAtomic {
    word: AtomicU64,
}

impl TaggedAtomic {
    /// Creates the atomic holding null with generation 0.
    pub const fn null() -> Self {
        TaggedAtomic {
            word: AtomicU64::new(0),
        }
    }

    /// Loads the current `(pointer, tag)` pair.
    ///
    /// `SeqCst`, as a successful exchange is. On x86-64 and ARMv8 the
    /// instructions are those acquire and acquire-release already take;
    /// whether any caller needs more than acquire is a question for a
    /// model checker, not for this comment.
    #[inline]
    pub fn load(&self) -> TaggedPtr {
        probe::emit(ProbeEvent::LineRead {
            line: probe::line_of(self),
        });
        TaggedPtr {
            raw: self.word.load(Ordering::SeqCst),
        }
    }

    /// Attempts to replace `current` with `new`, incrementing the
    /// generation tag.
    ///
    /// On success returns the installed pair; on failure returns the
    /// observed pair for the caller's retry. Success publishes the
    /// stores the caller made to `new`'s pointee before the call (a
    /// Treiber push's next-link write) to whoever then reads the word
    /// with [`load`](TaggedAtomic::load); like that load, it is `SeqCst`.
    ///
    /// A pop computes `new` from a link word it read *before* this call
    /// confirms it still owns the head. If a racing CPU took the block
    /// meanwhile, that word is user data and may be wider than
    /// [`PTR_BITS`]: the exchange then fails on the tag like any other
    /// stale attempt. Only an over-wide `new` that would actually be
    /// installed is a bug, and debug builds assert exactly that.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: TaggedPtr,
        new: *mut u8,
    ) -> Result<TaggedPtr, TaggedPtr> {
        let value = new as usize as u64;
        probe::emit(ProbeEvent::LineRmw {
            line: probe::line_of(self),
        });
        let next = TaggedPtr::pack(value, current.tag().wrapping_add(1));
        let outcome =
            self.word
                .compare_exchange(current.raw, next.raw, Ordering::SeqCst, Ordering::Acquire);
        debug_assert!(
            value & !PTR_MASK == 0 || outcome.is_err(),
            "installed a value exceeding {PTR_BITS} bits: {value:#x}"
        );
        outcome.map(|_| next).map_err(|raw| TaggedPtr { raw })
    }

    /// Adds `delta` to the 48-bit value half and increments the generation
    /// tag in **one** atomic read-modify-write, returning the *previous*
    /// `(value, tag)` pair.
    ///
    /// A counter word with no CAS loop: the mailbox's ticket head takes
    /// its tickets this way. The caller must guarantee the value half
    /// cannot overflow into the tag bits.
    ///
    /// AcqRel: the returned snapshot observes the writes published by
    /// earlier adds, and the add publishes the caller's earlier stores.
    #[inline]
    pub fn fetch_count_add(&self, delta: u64) -> TaggedPtr {
        probe::emit(ProbeEvent::LineRmw {
            line: probe::line_of(self),
        });
        debug_assert_eq!(delta & !PTR_MASK, 0, "delta exceeds {PTR_BITS} bits");
        let add = (delta & PTR_MASK) | (1 << PTR_BITS);
        TaggedPtr {
            raw: self.word.fetch_add(add, Ordering::AcqRel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::AtomicUsize;

    #[test]
    fn pack_round_trips_pointer_and_tag() {
        let mut byte = 7u8;
        let p: *mut u8 = &mut byte;
        let t = TaggedPtr::pack(p as u64, 0xBEEF);
        assert_eq!(t.ptr(), p);
        assert_eq!(t.tag(), 0xBEEF);
        assert!(!t.is_null());
        assert!(TaggedPtr::NULL.is_null());
        assert_eq!(TaggedPtr::NULL.tag(), 0);
    }

    #[test]
    fn successful_exchange_increments_the_tag() {
        let mut byte = 0u8;
        let head = TaggedAtomic::null();
        let seen = head.load();
        assert!(seen.is_null());
        let installed = head.compare_exchange(seen, &mut byte).unwrap();
        assert_eq!(installed.tag(), seen.tag().wrapping_add(1));
        assert_eq!(head.load(), installed);
    }

    #[test]
    fn stale_tag_fails_even_with_matching_pointer() {
        // The ABA scenario: same pointer, different generation.
        let mut byte = 0u8;
        let p: *mut u8 = &mut byte;
        let head = TaggedAtomic::null();
        let stale = head.load();
        head.compare_exchange(stale, p).unwrap(); // tag 1
        let mid = head.load();
        head.compare_exchange(mid, core::ptr::null_mut()).unwrap(); // tag 2
        let back = head.load();
        head.compare_exchange(back, p).unwrap(); // tag 3: same ptr as tag 1
                                                 // A CAS armed with the tag-1 view must fail despite the pointer
                                                 // matching the current head.
        let err = head
            .compare_exchange(TaggedPtr::pack(p as u64, 1), core::ptr::null_mut())
            .unwrap_err();
        assert_eq!(err.ptr(), p);
        assert_eq!(err.tag(), 3);
    }

    /// A pop that lost its head to a racing CPU computes `new` from a
    /// word the new owner may have filled with 64 bits of user data. The
    /// tag has moved, so the exchange must simply fail — not trip the
    /// width assertion first.
    #[test]
    fn stale_exchange_with_overwide_new_fails_instead_of_asserting() {
        let mut byte = 0u8;
        let head = TaggedAtomic::null();
        let stale = head.load();
        let now = head.compare_exchange(stale, &mut byte).unwrap();
        let user_word = 0xdead_beef_dead_beef_u64;
        let seen = head
            .compare_exchange(stale, user_word as usize as *mut u8)
            .unwrap_err();
        assert_eq!(seen, now);
        assert_eq!(head.load(), now, "a failed exchange installs nothing");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeding 48 bits")]
    fn installing_an_overwide_value_still_asserts() {
        let head = TaggedAtomic::null();
        let cur = head.load();
        let _ = head.compare_exchange(cur, (1u64 << PTR_BITS) as usize as *mut u8);
    }

    #[test]
    fn probe_events_price_load_and_cas() {
        let head = TaggedAtomic::null();
        let ((), ev) = probe::record(|| {
            let cur = head.load();
            let _ = head.compare_exchange(cur, core::ptr::null_mut());
        });
        let line = probe::line_of(&head);
        assert_eq!(
            ev,
            vec![ProbeEvent::LineRead { line }, ProbeEvent::LineRmw { line },]
        );
    }

    #[test]
    fn fetch_count_add_returns_previous_and_bumps_tag() {
        let word = TaggedAtomic::null();
        let before = word.fetch_count_add(3);
        assert_eq!(before.value(), 0);
        assert_eq!(before.tag(), 0);
        let after = word.load();
        assert_eq!(after.value(), 3);
        assert_eq!(after.tag(), 1);
        word.fetch_count_add(1 << 16); // a packed upper bitfield
        let after = word.load();
        assert_eq!(after.value(), 3 | (1 << 16));
        assert_eq!(after.tag(), 2);
    }

    #[test]
    fn fetch_count_add_is_one_priced_rmw() {
        let word = TaggedAtomic::null();
        let ((), ev) = probe::record(|| {
            word.fetch_count_add(1);
        });
        let line = probe::line_of(&word);
        assert_eq!(ev, vec![ProbeEvent::LineRmw { line }]);
    }

    #[test]
    fn concurrent_count_adds_never_lose_increments() {
        let word = TaggedAtomic::null();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        word.fetch_count_add(1);
                    }
                });
            }
        });
        let end = word.load();
        assert_eq!(end.value(), 40_000);
        assert_eq!(end.tag(), (40_000u64 % (1 << TAG_BITS)) as u16);
    }

    /// A full Treiber stack of type-stable nodes under real threads:
    /// every pushed node is popped exactly once, across enough cycles
    /// that unprotected (untagged) CAS would hit ABA splices.
    #[test]
    fn treiber_stack_torture_conserves_nodes() {
        struct Node {
            next: AtomicUsize,
            popped: AtomicUsize,
        }
        const NODES: usize = 8;
        const OPS: usize = 20_000;
        let nodes: Vec<Node> = (0..NODES)
            .map(|_| Node {
                next: AtomicUsize::new(0),
                popped: AtomicUsize::new(0),
            })
            .collect();
        let head = TaggedAtomic::null();
        let push = |node: &Node| {
            let p = node as *const Node as *mut u8;
            loop {
                let cur = head.load();
                node.next.store(cur.ptr() as usize, Ordering::Relaxed);
                if head.compare_exchange(cur, p).is_ok() {
                    break;
                }
            }
        };
        let pop = || -> Option<*const Node> {
            loop {
                let cur = head.load();
                if cur.is_null() {
                    return None;
                }
                // SAFETY: nodes are type-stable for the whole test; a
                // stale read yields a bogus next that the tag CAS
                // rejects.
                let node = unsafe { &*(cur.ptr() as *const Node) };
                let next = node.next.load(Ordering::Relaxed) as *mut u8;
                if head.compare_exchange(cur, next).is_ok() {
                    return Some(node);
                }
            }
        };
        for n in &nodes {
            push(n);
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..OPS {
                        if let Some(n) = pop() {
                            // SAFETY: popped exactly by us; counted then
                            // pushed back.
                            let n = unsafe { &*n };
                            n.popped.fetch_add(1, Ordering::Relaxed);
                            push(n);
                        }
                    }
                });
            }
        });
        // Every node is back on the stack exactly once.
        let mut seen = 0;
        while pop().is_some() {
            seen += 1;
        }
        assert_eq!(seen, NODES);
        let total: usize = nodes.iter().map(|n| n.popped.load(Ordering::Relaxed)).sum();
        assert!(total > 0, "no pops ever succeeded");
    }
}
