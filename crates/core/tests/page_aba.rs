//! ABA regression test for the generation-tagged page lists.
//!
//! The page layer's radix buckets are Treiber stacks of `PageDesc`
//! linked through `anext` under a [`TaggedAtomic`]
//! head. A plain pointer CAS would be unsound there: between a popper's
//! head load and its CAS, the same descriptor can be popped, recycled and
//! pushed back (the ABA problem), and the CAS would splice a stale —
//! possibly absent — successor into the list, losing or double-owning
//! pages.
//!
//! The first test stages that exact interleaving with two real threads and
//! barrier rendezvous, replicating `PdStack::push`/`pop` op-for-op so the
//! popper can be held *between* its head load and its CAS (the real `pop`
//! is a single call and cannot be paused there). The stale CAS must fail
//! on the generation tag alone — the pointer halves match, so removing the
//! tags makes the CAS succeed and the assertions below fail. The second
//! test churns a real [`PdStack`] from two seeded threads as a
//! conservation backstop.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Barrier;

use kmem::pagedesc::{PageDesc, PdStack};
use kmem_smp::TaggedAtomic;
use kmem_testkit::Rng;

/// A list node shaped like a page descriptor's lock-free linkage: the
/// stack head is the tagged word, nodes link through an atomic next.
struct Node {
    next: AtomicPtr<Node>,
}

/// `PdStack::push`, op-for-op.
fn push(head: &TaggedAtomic, node: *mut Node) {
    let mut cur = head.load();
    loop {
        // SAFETY: the caller possesses `node` until the CAS publishes it.
        unsafe {
            (*node)
                .next
                .store(cur.ptr() as *mut Node, Ordering::Release)
        };
        match head.compare_exchange(cur, node as *mut u8) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// `PdStack::pop`, op-for-op.
fn pop(head: &TaggedAtomic) -> Option<*mut Node> {
    let mut cur = head.load();
    loop {
        if cur.is_null() {
            return None;
        }
        let node = cur.ptr() as *mut Node;
        // SAFETY: node storage is type-stable for the whole test; a stale
        // next is discarded when the tag CAS fails.
        let next = unsafe { (*node).next.load(Ordering::Acquire) };
        match head.compare_exchange(cur, next as *mut u8) {
            Ok(_) => return Some(node),
            Err(seen) => cur = seen,
        }
    }
}

/// The classic two-thread pop/push/push-back interleaving, staged
/// deterministically. Seed varies the stack depth and how much extra
/// churn the interfering thread adds before handing control back.
#[test]
fn stale_pop_cas_fails_on_generation_tag() {
    let mut rng = Rng::new(0xABA0_5EED);
    for round in 0..16 {
        let depth = rng.range_usize(3..9);
        let churn = rng.range_usize(0..4);
        let nodes: Vec<Node> = (0..depth)
            .map(|_| Node {
                next: AtomicPtr::new(std::ptr::null_mut()),
            })
            .collect();
        let head = TaggedAtomic::null();
        for n in &nodes {
            push(&head, n as *const Node as *mut Node);
        }
        // Stack is now [A, B, ...] top-down with A the last-pushed node.
        // Addresses cross the thread boundary as plain integers.
        let a_addr = &nodes[depth - 1] as *const Node as usize;
        let b_addr = &nodes[depth - 2] as *const Node as usize;

        let staged = Barrier::new(2);
        let churned = Barrier::new(2);
        std::thread::scope(|s| {
            // The stalled popper: loads head and A's successor, then stalls
            // exactly where a preempted CPU would.
            s.spawn(|| {
                let (a, b) = (a_addr as *mut Node, b_addr as *mut Node);
                let cur = head.load();
                assert_eq!(cur.ptr() as *mut Node, a);
                // SAFETY: A is live and on the stack at this point.
                let next = unsafe { (*a).next.load(Ordering::Acquire) };
                assert_eq!(next, b);
                staged.wait();
                churned.wait();
                // Resume: head points at A again, but B is *gone* — the
                // CAS must fail on the tag, though the pointers match.
                let err = match head.compare_exchange(cur, next as *mut u8) {
                    Err(e) => e,
                    Ok(_) => panic!("round {round}: stale pop CAS succeeded — ABA splice"),
                };
                assert_eq!(
                    err.ptr() as *mut Node,
                    a,
                    "pointer halves match — only the tag can reject this CAS"
                );
                assert_ne!(err.tag(), cur.tag(), "tag must have moved");
                // A proper retry from fresh state pops A, not B.
                assert_eq!(pop(&head), Some(a));
            });
            // The interfering thread: pop A, pop B (and keep it), push A
            // back — optionally cycling A a few more times first.
            s.spawn(|| {
                let (a, b) = (a_addr as *mut Node, b_addr as *mut Node);
                staged.wait();
                assert_eq!(pop(&head), Some(a));
                assert_eq!(pop(&head), Some(b));
                for _ in 0..churn {
                    push(&head, a);
                    assert_eq!(pop(&head), Some(a));
                }
                push(&head, a);
                churned.wait();
            });
        });

        // Conservation: A and B are held (popper took A, interferer holds
        // B); exactly the remaining depth-2 nodes drain out, each once.
        let mut drained = Vec::new();
        while let Some(n) = pop(&head) {
            drained.push(n as usize);
        }
        drained.sort_unstable();
        let mut want: Vec<usize> = nodes[..depth - 2]
            .iter()
            .map(|n| n as *const Node as usize)
            .collect();
        want.sort_unstable();
        assert_eq!(drained, want, "round {round}: lost or duplicated nodes");
    }
}

/// Backstop on the real descriptor stack: two seeded threads cycling
/// descriptors through a [`PdStack`] long enough that an untagged head
/// would splice stale successors; every descriptor must come back exactly
/// once.
#[test]
fn pd_stack_two_thread_churn_conserves_descriptors() {
    const N: usize = 4;
    let mut slots: Vec<Box<std::mem::MaybeUninit<PageDesc>>> =
        (0..N).map(|_| Box::new_uninit()).collect();
    let ptrs: Vec<usize> = slots
        .iter_mut()
        .map(|b| {
            let p = b.as_mut_ptr();
            // SAFETY: the box provides valid, aligned storage.
            unsafe { PageDesc::init(p) };
            p as usize
        })
        .collect();
    let stack = PdStack::new();
    for &p in &ptrs {
        // SAFETY: descriptors are owned and in no stack.
        unsafe { stack.push(p as *mut PageDesc) };
    }
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let stack = &stack;
            s.spawn(move || {
                let mut rng = Rng::new(0xABA1_0000 + t);
                for _ in 0..30_000 {
                    if let (Some(pd), _) = stack.pop() {
                        // A seeded pause widens the load-to-CAS windows on
                        // the other thread.
                        for _ in 0..rng.range_usize(0..8) {
                            std::hint::spin_loop();
                        }
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
