//! Fake blocks for driving a chain pool without an arena: the global
//! layer's contention bench and simulator test seed their pools from
//! these. (The global layer is itself the paper's one lock per class, so
//! it needs no baseline of its own.)

use kmem::chain::Chain;

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
