//! Benchmark-owned bounded single-producer/single-consumer ring.
//!
//! `handoff` and `mix` pass blocks between threads through this ring, so
//! the hand-off cost is the benchmark's and stays the same on every
//! commit; only the allocator calls on either side are the allocator's.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use kmem_smp::CachePadded;

struct Shared<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to pop; written by the consumer only.
    head: CachePadded<AtomicUsize>,
    /// Next slot to push; written by the producer only.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: a slot is written only by the single `Producer` before it
// publishes `tail` (Release) and read only by the single `Consumer` after
// it observes that `tail` (Acquire); the consumer hands the slot back by
// publishing `head` (Release), which the producer observes (Acquire)
// before reusing it. Items cross threads, hence `T: Send`.
unsafe impl<T: Send> Sync for Shared<T> {}

/// The pushing end; exactly one exists per ring.
pub struct Producer<T> {
    ring: Arc<Shared<T>>,
}

/// The popping end; exactly one exists per ring.
pub struct Consumer<T> {
    ring: Arc<Shared<T>>,
}

/// Creates a ring holding at most `capacity` items.
pub fn channel<T: Copy + Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity >= 1, "ring needs at least one slot");
    let ring = Arc::new(Shared {
        slots: (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

impl<T: Copy + Send> Producer<T> {
    /// Pushes all of `items` or none; `false` when they do not fit now.
    pub fn push_batch(&mut self, items: &[T]) -> bool {
        let ring = &*self.ring;
        let cap = ring.slots.len();
        let tail = ring.tail.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        if cap - (tail - head) < items.len() {
            return false;
        }
        for (i, item) in items.iter().enumerate() {
            // SAFETY: slots `tail..tail + len` are free (checked against
            // the acquired `head`) and only this producer writes slots.
            unsafe { (*ring.slots[(tail + i) % cap].get()).write(*item) };
        }
        ring.tail.store(tail + items.len(), Ordering::Release);
        true
    }

    pub fn push(&mut self, item: T) -> bool {
        self.push_batch(&[item])
    }
}

impl<T: Copy + Send> Consumer<T> {
    /// Moves up to `max` items into `out`; returns how many.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let ring = &*self.ring;
        let cap = ring.slots.len();
        let head = ring.head.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Acquire);
        let n = (tail - head).min(max);
        for i in 0..n {
            // SAFETY: slots `head..tail` were initialised by the producer
            // before the `tail` we acquired; only this consumer reads them.
            out.push(unsafe { (*ring.slots[(head + i) % cap].get()).assume_init() });
        }
        if n > 0 {
            ring.head.store(head + n, Ordering::Release);
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.ring.head.load(Ordering::Relaxed) == self.ring.tail.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_all_or_nothing_and_fifo() {
        let (mut tx, mut rx) = channel::<u32>(4);
        assert!(tx.push_batch(&[1, 2, 3]));
        assert!(!tx.push_batch(&[4, 5]), "only one slot left");
        assert!(tx.push(4));
        assert!(!tx.push(5), "full");
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 3), 3);
        assert_eq!(out, [1, 2, 3]);
        assert!(tx.push_batch(&[5, 6, 7]), "wraps around");
        assert_eq!(rx.pop_batch(&mut out, 10), 4);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7]);
        assert!(rx.is_empty());
        assert_eq!(rx.pop_batch(&mut out, 10), 0);
    }

    #[test]
    fn hand_off_between_threads_delivers_everything_in_order() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = channel::<u64>(64);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut next = 0u64;
                while next < N {
                    let batch: Vec<u64> = (next..(next + 32).min(N)).collect();
                    while !tx.push_batch(&batch) {
                        std::thread::yield_now();
                    }
                    next += batch.len() as u64;
                }
            });
            let mut out = Vec::with_capacity(64);
            let mut expect = 0u64;
            while expect < N {
                out.clear();
                if rx.pop_batch(&mut out, 32) == 0 {
                    std::thread::yield_now();
                }
                for &v in &out {
                    assert_eq!(v, expect);
                    expect += 1;
                }
            }
        });
    }
}
