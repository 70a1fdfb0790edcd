//! Counted chains of free blocks — the unit of transfer between layers.
//!
//! The paper's key amortization is that "blocks are moved in target-sized
//! groups, preventing unnecessary linked-list operations": a whole chain of
//! `target` blocks moves between the per-CPU and global layers with O(1)
//! pointer surgery. A [`Chain`] is such a group: an intrusive singly linked
//! list with head, tail, and count, so push/pop are O(1) at the head and
//! concatenation is O(1) via the tail.
//!
//! Every chain carries the [`LinkKey`] its links are encoded under. With
//! the plain key (the default profile) link accesses compile to the bare
//! loads and stores they always were; with a hardened key every decoded
//! link is checked for *plausibility* before the chain walks into it, and
//! a clobbered link surfaces as a latched [`ChainFault`] (alloc path) or
//! a typed [`Chain::try_split_first`] error (regroup paths) instead of a
//! wild dereference. All walks were already bounded by the chain's
//! counted length, so a corrupt link can truncate a walk but never turn
//! it into an unbounded loop.

use core::ptr;

use crate::block::{self, LinkKey};

/// A clobbered-link detection latched by a chain operation.
///
/// `addr` is the block whose link word decoded to an implausible value;
/// `lost` is how many blocks (including that one) the chain sank — they
/// are unreachable through the corrupt link, so the chain drops them from
/// its accounting rather than dereference garbage. The arena adds `lost`
/// to its per-class sunk-block count so conservation stays exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainFault {
    /// Address of the block with the corrupt link word.
    pub addr: usize,
    /// Blocks sunk (made unreachable) by the detection.
    pub lost: usize,
}

/// A counted, intrusive, singly linked chain of free blocks.
///
/// Owns the blocks it links (they are free memory belonging to the
/// allocator); all blocks in one chain belong to the same size class and
/// are linked under the same [`LinkKey`].
pub struct Chain {
    head: *mut u8,
    tail: *mut u8,
    len: usize,
    key: LinkKey,
    fault: Option<ChainFault>,
}

// SAFETY: a `Chain` owns its free blocks outright; sending it to another
// thread transfers that ownership wholesale, the same way the global layer
// hands chains between CPUs.
unsafe impl Send for Chain {}

impl Chain {
    /// Creates an empty chain with the plain (identity) link encoding.
    pub const fn new() -> Self {
        Chain::new_keyed(LinkKey::PLAIN)
    }

    /// Creates an empty chain whose links are encoded under `key`.
    pub const fn new_keyed(key: LinkKey) -> Self {
        Chain {
            head: ptr::null_mut(),
            tail: ptr::null_mut(),
            len: 0,
            key,
            fault: None,
        }
    }

    /// The link encoding key of this chain.
    #[inline]
    pub fn key(&self) -> LinkKey {
        self.key
    }

    /// Number of blocks in the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns whether the chain is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Takes the fault latched by a failed [`Chain::pop`] link check, if
    /// any. The arena consults this after a miss on the hardened alloc
    /// path to turn the sunk blocks into a typed corruption report.
    #[inline]
    pub fn take_fault(&mut self) -> Option<ChainFault> {
        self.fault.take()
    }

    /// Sinks the whole chain: the blocks are unreachable (a link among
    /// them is corrupt), so drop them from the accounting and latch the
    /// fault for the owner to report.
    fn sink(&mut self, addr: usize) -> ChainFault {
        let fault = ChainFault {
            addr,
            lost: self.len,
        };
        self.fault = Some(fault);
        self.head = ptr::null_mut();
        self.tail = ptr::null_mut();
        self.len = 0;
        fault
    }

    /// Pushes a free block onto the head.
    ///
    /// # Safety
    ///
    /// `block` must be a free block of this chain's size class, owned by
    /// the caller, and in no other list.
    #[inline]
    pub unsafe fn push(&mut self, block: *mut u8) {
        // SAFETY: forwarded caller contract.
        unsafe { self.push_as::<false>(block) }
    }

    /// The body of [`Chain::push`]. `PLAIN` is a caller's static knowledge
    /// that the chain's key is [`LinkKey::PLAIN`]: the link mask folds away.
    ///
    /// # Safety
    ///
    /// As for [`Chain::push`]; `PLAIN` only on a chain with the plain key.
    #[inline(always)]
    pub(crate) unsafe fn push_as<const PLAIN: bool>(&mut self, block: *mut u8) {
        debug_assert!(!block.is_null() && (!PLAIN || self.key.is_plain()));
        let key = if PLAIN { LinkKey::PLAIN } else { self.key };
        // SAFETY: `block` is a free block per the contract.
        unsafe { block::write_next(block, self.head, key) };
        if self.head.is_null() {
            self.tail = block;
        }
        self.head = block;
        self.len += 1;
    }

    /// Returns the head block without removing it.
    #[inline]
    pub fn peek(&self) -> Option<*mut u8> {
        (!self.head.is_null()).then_some(self.head)
    }

    /// Pops a block from the head.
    ///
    /// Under a hardened key the head's decoded link is checked before it
    /// becomes the new head: an implausible link means the freed head was
    /// scribbled on, so the chain sinks itself (head included — its link
    /// word is gone, and the rest are unreachable through it), latches a
    /// [`ChainFault`], and returns `None`.
    #[inline]
    pub fn pop(&mut self) -> Option<*mut u8> {
        // SAFETY: `false` claims nothing about the key.
        unsafe { self.pop_as::<false>() }
    }

    /// The body of [`Chain::pop`]; under `PLAIN` (see [`Chain::push_as`])
    /// the link check and the sink behind it compile away.
    ///
    /// # Safety
    ///
    /// `PLAIN` only on a chain with the plain key: the link is read bare.
    #[inline(always)]
    pub(crate) unsafe fn pop_as<const PLAIN: bool>(&mut self) -> Option<*mut u8> {
        debug_assert!(!PLAIN || self.key.is_plain());
        if self.head.is_null() {
            return None;
        }
        let block = self.head;
        let key = if PLAIN { LinkKey::PLAIN } else { self.key };
        // SAFETY: `block` is the head of this chain, so it is a free block
        // whose link word we wrote.
        let next = unsafe { block::read_next(block, key) };
        if !PLAIN && !self.key.is_plain() && !self.key.plausible(next) {
            self.sink(block as usize);
            return None;
        }
        self.head = next;
        if self.head.is_null() {
            self.tail = ptr::null_mut();
        }
        self.len -= 1;
        Some(block)
    }

    /// Appends `other` in O(1); `other` becomes empty (its key is kept).
    ///
    /// # Panics
    ///
    /// Under a hardened key, panics if `self`'s tail link was clobbered
    /// (it must decode to null): splicing through it would silently lose
    /// the appended blocks.
    pub fn append(&mut self, other: &mut Chain) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            // Adopt `other` wholesale (blocks, key, any latched fault),
            // but leave `other` its key for reuse.
            let other_key = other.key;
            *self = core::mem::take(other);
            other.key = other_key;
            return;
        }
        if !self.key.is_plain() {
            // SAFETY: `self.tail` is the last block of a chain we own.
            let tail_next = unsafe { block::read_next(self.tail, self.key) };
            assert!(
                tail_next.is_null(),
                "corrupted freelist link: tail {:p} of a {}-block chain no \
                 longer ends the list",
                self.tail,
                self.len
            );
        }
        // SAFETY: `self.tail` is the last block of a non-empty chain we
        // own, and `other.head` is a free block we are taking ownership of.
        unsafe { block::write_next(self.tail, other.head, self.key) };
        self.tail = other.tail;
        self.len += other.len;
        // The blocks now belong to `self`; clear `other` without dropping
        // (assignment would trip the leak detector on the stale length).
        other.forget();
    }

    /// Takes the whole chain, leaving `self` empty but keeping its key.
    #[inline]
    pub fn take(&mut self) -> Chain {
        let key = self.key;
        let taken = core::mem::take(self);
        self.key = key;
        taken
    }

    /// Splits off and returns the first `n` blocks (walks `n` links).
    ///
    /// This is the O(`target`) operation the global layer's *bucket list*
    /// performs to regroup odd blocks into target-sized chains.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()` or `n == 0`, or — under a hardened
    /// key — if the walk meets a corrupted link (callers that can turn
    /// that into a typed error use [`Chain::try_split_first`]).
    pub fn split_first(&mut self, n: usize) -> Chain {
        match self.try_split_first(n) {
            Ok(chain) => chain,
            Err(fault) => panic!(
                "corrupted freelist link at {:#x} ({} blocks sunk)",
                fault.addr, fault.lost
            ),
        }
    }

    /// Splits off the first `n` blocks, validating every link the walk
    /// reads when the key is hardened. On a corrupt link the whole chain
    /// is sunk (nothing past the clobbered word is reachable, and blocks
    /// before it may alias the corruption) and the fault is returned; the
    /// caller reports it and accounts the lost blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()` or `n == 0`.
    pub fn try_split_first(&mut self, n: usize) -> Result<Chain, ChainFault> {
        assert!(n > 0 && n <= self.len, "split_first out of range");
        let validate = !self.key.is_plain();
        if n == self.len && !validate {
            return Ok(self.take());
        }
        let head = self.head;
        let mut tail = head;
        // The walk is bounded by the chain's counted length (`n` links),
        // never by trusting the links themselves.
        for _ in 1..n {
            // SAFETY: we stay within the first `n` blocks of a chain we
            // own, all of which have valid link words.
            let next = unsafe { block::read_next(tail, self.key) };
            if validate && (!self.key.plausible(next) || next.is_null()) {
                return Err(self.sink(tail as usize));
            }
            tail = next;
        }
        // SAFETY: `tail` is a block we own; cutting the link here detaches
        // the prefix.
        let rest_head = unsafe { block::read_next(tail, self.key) };
        if n == self.len {
            // Whole-chain split under a hardened key: the walk above
            // validated every interior link, and the tail must still end
            // the list.
            if !rest_head.is_null() {
                return Err(self.sink(tail as usize));
            }
            return Ok(self.take());
        }
        if validate && (!self.key.plausible(rest_head) || rest_head.is_null()) {
            return Err(self.sink(tail as usize));
        }
        // SAFETY: as above.
        unsafe { block::write_next(tail, ptr::null_mut(), self.key) };
        self.head = rest_head;
        self.len -= n;
        Ok(Chain {
            head,
            tail,
            len: n,
            key: self.key,
            fault: None,
        })
    }

    /// Decomposes the chain into `(head, tail, len)` raw parts without
    /// running the leak detector — the global layer keeps a ready chain as
    /// its `(head, tail)` pair and rebuilds it with [`Chain::from_raw`]
    /// when a get takes it.
    pub(crate) fn into_raw(mut self) -> (*mut u8, *mut u8, usize) {
        let parts = (self.head, self.tail, self.len);
        self.forget();
        parts
    }

    /// Reassembles a chain from raw parts.
    ///
    /// # Safety
    ///
    /// `(head, tail, len)` must describe a well-formed chain the caller
    /// owns: `len` blocks linked head-to-tail under `key` with a null
    /// final link — e.g. parts from [`Chain::into_raw`].
    pub(crate) unsafe fn from_raw(head: *mut u8, tail: *mut u8, len: usize, key: LinkKey) -> Chain {
        debug_assert!(!head.is_null() && !tail.is_null() && len > 0);
        Chain {
            head,
            tail,
            len,
            key,
            fault: None,
        }
    }

    /// Abandons the chain's blocks without returning them to any layer.
    ///
    /// Only for arena teardown, where the whole reservation is released at
    /// once and per-block bookkeeping no longer matters.
    pub fn forget(&mut self) {
        self.head = ptr::null_mut();
        self.tail = ptr::null_mut();
        self.len = 0;
    }

    /// Iterates over the block pointers without consuming the chain
    /// (verification and tests only).
    pub fn iter(&self) -> ChainIter<'_> {
        ChainIter {
            next: self.head,
            remaining: self.len,
            key: self.key,
            _chain: core::marker::PhantomData,
        }
    }
}

impl core::fmt::Debug for Chain {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Chain(len={})", self.len)
    }
}

impl Default for Chain {
    fn default() -> Self {
        Chain::new()
    }
}

impl Drop for Chain {
    fn drop(&mut self) {
        // Chains of real blocks must be given back to a layer, never
        // dropped: dropping would leak the blocks out of the arena's
        // accounting. (Empty chains are dropped constantly.)
        debug_assert!(
            self.is_empty(),
            "dropped a chain still holding {} blocks",
            self.len
        );
    }
}

/// Iterator over the blocks of a [`Chain`].
pub struct ChainIter<'a> {
    next: *mut u8,
    remaining: usize,
    key: LinkKey,
    _chain: core::marker::PhantomData<&'a Chain>,
}

impl Iterator for ChainIter<'_> {
    type Item = *mut u8;

    fn next(&mut self) -> Option<*mut u8> {
        if self.remaining == 0 {
            return None;
        }
        let block = self.next;
        debug_assert!(!block.is_null());
        // SAFETY: the borrowed chain owns `block`; its link word is valid.
        self.next = unsafe { block::read_next(block, self.key) };
        self.remaining -= 1;
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake block, 16-aligned like real carved blocks: hardened keys
    /// reject links that are not `MIN_BLOCK`-aligned.
    #[derive(Clone)]
    #[repr(align(16))]
    struct Block([u8; 32]);

    // Boxed so each block keeps a stable address while the Vec grows.
    #[expect(clippy::vec_box)]
    /// Backing store for fake blocks.
    fn arena(n: usize) -> Vec<Box<Block>> {
        (0..n).map(|_| Box::new(Block([0u8; 32]))).collect()
    }

    fn chain_of(blocks: &mut [Box<Block>]) -> Chain {
        let mut c = Chain::new();
        for b in blocks {
            // SAFETY: each boxed block is owned and disjoint.
            unsafe { c.push(b.0.as_mut_ptr()) };
        }
        c
    }

    /// A hardened key whose reservation bounds cover the fake blocks.
    fn key_over(blocks: &[Box<Block>]) -> LinkKey {
        let lo = blocks
            .iter()
            .map(|b| b.0.as_ptr() as usize)
            .min()
            .unwrap_or(0);
        let hi = blocks
            .iter()
            .map(|b| b.0.as_ptr() as usize)
            .max()
            .unwrap_or(0);
        LinkKey::hardened(0x0dd5_eed5_0fa2_0a55_u64 as usize, lo, hi + 32)
    }

    fn keyed_chain_of(key: LinkKey, blocks: &mut [Box<Block>]) -> Chain {
        let mut c = Chain::new_keyed(key);
        for b in blocks {
            // SAFETY: each boxed block is owned and disjoint.
            unsafe { c.push(b.0.as_mut_ptr()) };
        }
        c
    }

    fn drain(mut c: Chain) -> Vec<*mut u8> {
        let mut v = Vec::new();
        while let Some(b) = c.pop() {
            v.push(b);
        }
        v
    }

    #[test]
    fn push_pop_is_lifo() {
        let mut store = arena(3);
        let ptrs: Vec<_> = store.iter_mut().map(|b| b.0.as_mut_ptr()).collect();
        let mut c = chain_of(&mut store);
        assert_eq!(c.len(), 3);
        assert_eq!(c.pop(), Some(ptrs[2]));
        assert_eq!(c.pop(), Some(ptrs[1]));
        assert_eq!(c.pop(), Some(ptrs[0]));
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn keyed_chain_round_trips_like_plain() {
        let mut store = arena(5);
        let key = key_over(&store);
        let ptrs: Vec<_> = store.iter_mut().map(|b| b.0.as_mut_ptr()).collect();
        let mut c = keyed_chain_of(key, &mut store);
        assert_eq!(c.iter().collect::<Vec<_>>().len(), 5);
        let first = c.split_first(2);
        assert_eq!(first.len(), 2);
        assert_eq!(first.key(), key);
        assert_eq!(drain(first), vec![ptrs[4], ptrs[3]]);
        assert_eq!(drain(c), vec![ptrs[2], ptrs[1], ptrs[0]]);
    }

    #[test]
    fn keyed_pop_sinks_on_clobbered_link() {
        let mut store = arena(4);
        let key = key_over(&store);
        let mut c = keyed_chain_of(key, &mut store);
        let head = c.peek().unwrap();
        // A use-after-free scribble over the head's (encoded) link word.
        // SAFETY: the fake block is owned by the test.
        unsafe { (head as *mut usize).write(0x4141_4141_4141_4141) };
        assert_eq!(c.pop(), None, "a clobbered link must not be walked");
        assert!(c.is_empty(), "the unreachable remainder is sunk");
        let fault = c.take_fault().expect("fault must be latched");
        assert_eq!(fault.addr, head as usize);
        assert_eq!(fault.lost, 4);
        assert!(c.take_fault().is_none(), "take_fault drains the latch");
    }

    #[test]
    fn keyed_split_returns_typed_fault_on_clobbered_link() {
        let mut store = arena(5);
        let key = key_over(&store);
        let mut c = keyed_chain_of(key, &mut store);
        let second = c.iter().nth(1).unwrap();
        // SAFETY: the fake block is owned by the test.
        unsafe { (second as *mut usize).write(!0) };
        let fault = c.try_split_first(4).unwrap_err();
        assert_eq!(fault.addr, second as usize);
        assert_eq!(fault.lost, 5);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "corrupted freelist link")]
    fn keyed_split_first_panics_on_clobbered_link() {
        let mut store = arena(3);
        let key = key_over(&store);
        let mut c = keyed_chain_of(key, &mut store);
        let head = c.peek().unwrap();
        // SAFETY: the fake block is owned by the test.
        unsafe { (head as *mut usize).write(0xbad0_beef) };
        let _ = c.split_first(2);
    }

    #[test]
    #[should_panic(expected = "corrupted freelist link")]
    fn keyed_append_panics_on_clobbered_tail() {
        let mut s1 = arena(2);
        let mut s2 = arena(2);
        let all: Vec<_> = s1.iter().chain(s2.iter()).cloned().collect();
        let key = key_over(&all);
        // The panic unwinds past chains still holding blocks; ManuallyDrop
        // keeps their leak-detecting Drop from turning that into an abort
        // (the blocks themselves are owned by the test arenas).
        let mut a = core::mem::ManuallyDrop::new(keyed_chain_of(key, &mut s1));
        let mut b = core::mem::ManuallyDrop::new(keyed_chain_of(key, &mut s2));
        let tail = a.iter().last().unwrap();
        // SAFETY: the fake block is owned by the test.
        unsafe { (tail as *mut usize).write(0x1337) };
        a.append(&mut b);
    }

    #[test]
    fn take_preserves_the_key() {
        let mut store = arena(2);
        let key = key_over(&store);
        let mut c = keyed_chain_of(key, &mut store);
        let taken = c.take();
        assert_eq!(taken.key(), key);
        assert_eq!(c.key(), key, "the emptied chain keeps its key");
        // Refill the original through push: links must use the same key.
        let mut more = arena(1);
        // SAFETY: owned fake block.
        unsafe { c.push(more[0].0.as_mut_ptr()) };
        assert_eq!(c.len(), 1);
        drain(taken);
        drain(c);
    }

    #[test]
    fn append_is_order_preserving_and_emptying() {
        let mut s1 = arena(2);
        let mut s2 = arena(2);
        let mut a = chain_of(&mut s1);
        let mut b = chain_of(&mut s2);
        let expect: Vec<_> = s1
            .iter_mut()
            .rev()
            .chain(s2.iter_mut().rev())
            .map(|x| x.0.as_mut_ptr())
            .collect();
        a.append(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.len(), 4);
        assert_eq!(drain(a), expect);
    }

    #[test]
    fn append_into_empty_moves() {
        let mut s = arena(2);
        let key = key_over(&s);
        let mut a = Chain::new_keyed(key);
        let mut b = keyed_chain_of(key, &mut s);
        a.append(&mut b);
        assert_eq!(a.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.key(), key, "append leaves the emptied chain its key");
        // Tail is usable after the move: push then pop everything.
        let mut extra = arena(1);
        let mut c = Chain::new_keyed(key);
        // SAFETY: owned fake block.
        unsafe { c.push(extra[0].0.as_mut_ptr()) };
        c.append(&mut a);
        assert_eq!(c.len(), 3);
        assert_eq!(drain(c).len(), 3);
    }

    #[test]
    fn split_first_takes_prefix() {
        let mut s = arena(5);
        let mut c = chain_of(&mut s);
        let all: Vec<_> = c.iter().collect();
        let first = c.split_first(2);
        assert_eq!(first.len(), 2);
        assert_eq!(c.len(), 3);
        assert_eq!(drain(first), all[..2].to_vec());
        assert_eq!(drain(c), all[2..].to_vec());
    }

    #[test]
    fn split_first_whole_chain() {
        let mut s = arena(3);
        let mut c = chain_of(&mut s);
        let first = c.split_first(3);
        assert_eq!(first.len(), 3);
        assert!(c.is_empty());
        drain(first);
    }

    #[test]
    fn tail_is_valid_after_split() {
        let mut s = arena(4);
        let mut c = chain_of(&mut s);
        let pre = c.split_first(2);
        // Appending to the remainder exercises its tail pointer.
        let mut more = arena(1);
        let mut m = chain_of(&mut more);
        c.append(&mut m);
        assert_eq!(c.len(), 3);
        drain(pre);
        drain(c);
    }

    #[test]
    fn iter_matches_pop_order() {
        let mut s = arena(4);
        let mut c = chain_of(&mut s);
        let via_iter: Vec<_> = c.iter().collect();
        let via_pop: Vec<_> = {
            let mut v = Vec::new();
            while let Some(b) = c.pop() {
                v.push(b);
            }
            v
        };
        assert_eq!(via_iter, via_pop);
    }

    #[test]
    #[should_panic(expected = "still holding")]
    #[cfg(debug_assertions)]
    fn dropping_nonempty_chain_is_caught() {
        let mut s = arena(1);
        let c = chain_of(&mut s);
        drop(c);
    }
}
