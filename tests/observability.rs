//! Snapshot/observability soundness: live sampling under concurrency and
//! exact delta accounting at quiescence.
//!
//! The snapshot layer promises two different strengths of consistency
//! (see `kmem::snapshot`): bounds that hold on *live* samples taken while
//! every CPU is mid-churn, and exact equalities once the arena is
//! quiescent. Both are exercised here — the live half with a dedicated
//! sampler thread racing real allocator traffic, the exact half against
//! ground truth an observer keeps by hand.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};

use kmem::{KmemArena, KmemConfig};
use kmem_vm::SpaceConfig;

fn arena(ncpus: usize) -> KmemArena {
    KmemArena::new(KmemConfig::new(ncpus, SpaceConfig::new(32 << 20))).unwrap()
}

/// A sampler thread polls `snapshot()` continuously while worker threads
/// churn allocations, frees, cross-thread frees, and flushes. Every live
/// sample must satisfy the cross-counter bounds (`miss <= access` per
/// (CPU, class), refill accounting, global-pool outcome bounds) and be
/// monotone over the previous sample; the final post-join snapshot must
/// satisfy the stricter quiescent equalities.
#[test]
fn live_snapshots_under_churn_hold_their_invariants() {
    let a = arena(4);
    let stop = AtomicBool::new(false);
    let mut prev = a.snapshot();
    std::thread::scope(|s| {
        for t in 0..3 {
            let a = a.clone();
            let stop = &stop;
            s.spawn(move || {
                let cpu = a.register_cpu().unwrap();
                let mut held: Vec<(NonNull<u8>, usize)> = Vec::new();
                let mut x = 0x9E37_79B9u64.wrapping_add(t);
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let size = 16usize << (x % 6);
                    if held.len() > 256 {
                        let (p, sz) = held.swap_remove((x as usize) % held.len());
                        // SAFETY: allocated below, freed exactly once.
                        unsafe { cpu.free_sized(p, sz) };
                    } else if let Ok(p) = cpu.alloc(size) {
                        held.push((p, size));
                    }
                    if x % 4096 == 0 {
                        cpu.flush();
                    }
                }
                for (p, sz) in held {
                    // SAFETY: allocated above, freed exactly once.
                    unsafe { cpu.free_sized(p, sz) };
                }
            });
        }

        // The sampler is *not* a registered CPU: snapshots must work from
        // any thread, without a claim, while the writers keep writing.
        let prev = &mut prev;
        for i in 0..300 {
            let snap = a.snapshot();
            snap.check_live()
                .unwrap_or_else(|e| panic!("live sample {i}: {e}"));
            snap.check_monotone_since(prev)
                .unwrap_or_else(|e| panic!("live sample {i}: {e}"));
            *prev = snap;
            if i % 50 == 0 {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let end = a.snapshot();
    end.check_quiescent().unwrap();
    end.check_monotone_since(&prev).unwrap();
    // Everything was freed and every worker's handle-drop flushed: the
    // counters must balance exactly.
    assert_eq!(end.total_allocs() - failed(&end), end.total_frees());
    // The node's refill row is the sum of what its CPUs each counted for
    // themselves: every chain the global layer handed out, none stolen.
    let served: u64 = end
        .classes
        .iter()
        .map(|c| c.global.get - c.global.get_miss)
        .sum();
    assert!(served > 0);
    assert_eq!(end.nodes[0].local_refills, served);
    assert_eq!(end.nodes[0].stolen_refills, 0);
}

fn failed(s: &kmem::KmemSnapshot) -> u64 {
    s.classes
        .iter()
        .map(|c| c.per_cpu.iter().map(|p| p.alloc_fail).sum::<u64>())
        .sum()
}

/// Quiescent deltas are exact: an observer that counts its own operations
/// by hand must see precisely those counts — no more, no fewer — in the
/// delta between two snapshots, attributed to the right CPU and class.
#[test]
fn quiescent_deltas_match_hand_counted_ground_truth() {
    let a = arena(2);
    let cpu = a.register_cpu().unwrap();
    // Warm up with arbitrary traffic so the baseline is non-zero.
    let warm: Vec<_> = (0..100).map(|_| cpu.alloc(64).unwrap()).collect();
    for p in warm {
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu.free(p) };
    }

    let before = a.snapshot();
    let class64 = (0..before.nclasses())
        .find(|&i| before.classes[i].size == 64)
        .unwrap();
    let mut held = Vec::new();
    for _ in 0..777 {
        held.push(cpu.alloc(64).unwrap());
    }
    for _ in 0..333 {
        let p = held.pop().unwrap();
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu.free(p) };
    }
    let after = a.snapshot();

    let delta = after.delta(&before);
    let mine = delta.cpu_class(cpu.cpu().index(), class64);
    assert_eq!(mine.alloc, 777);
    assert_eq!(mine.free, 333);
    assert_eq!(mine.alloc_fail, 0);
    assert_eq!(mine.allocs_served() - mine.free, 444);
    // Refill accounting is exact at quiescence, and every refill chain
    // landed in this class's per-CPU cache.
    assert_eq!(mine.refill + mine.alloc_fail, mine.alloc_miss);
    let global = &delta.classes[class64].global;
    assert_eq!(delta.nodes[0].local_refills, global.get - global.get_miss);
    // Nothing ran on the other CPU or in other classes.
    let other_cpu = 1 - cpu.cpu().index();
    assert_eq!(delta.cpu_class(other_cpu, class64).alloc, 0);
    for (idx, cs) in delta.classes.iter().enumerate() {
        if idx != class64 {
            assert_eq!(cs.cache_total().alloc, 0, "class {idx} saw traffic");
        }
    }
    delta.check_live().unwrap();
    after.check_quiescent().unwrap();

    for p in held {
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu.free(p) };
    }
}

/// The aggregated view (`stats()`) and the snapshot view are the same
/// numbers — `stats()` is defined as `snapshot().aggregate()`, and the
/// per-CPU rows must sum to the per-class rollup.
#[test]
fn aggregate_is_the_sum_of_the_per_cpu_rows() {
    let a = arena(2);
    let cpu = a.register_cpu().unwrap();
    for i in 0..500usize {
        let size = 16 << (i % 5);
        let p = cpu.alloc(size).unwrap();
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu.free_sized(p, size) };
    }
    let snap = a.snapshot();
    let stats = snap.aggregate();
    for (idx, c) in stats.classes.iter().enumerate() {
        let total = snap.classes[idx].cache_total();
        assert_eq!(c.cpu_alloc.accesses, total.alloc);
        assert_eq!(c.cpu_alloc.misses, total.alloc_miss);
        assert_eq!(c.cpu_free.accesses, total.free);
        assert_eq!(c.cpu_free.misses, total.free_miss);
        assert_eq!(c.gbl_alloc.accesses, snap.classes[idx].global.get);
    }
    assert_eq!(stats.total_allocs(), snap.total_allocs());
}

/// What the twin-arena seam test expects of one (CPU, class) cache,
/// counted by hand: the split-freelist rules of `percpu` replayed on two
/// lengths, plus every counter the arena bumps around them.
#[derive(Default)]
struct CacheModel {
    split: bool,
    target: usize,
    main: usize,
    aux: usize,
    counts: kmem::snapshot::CacheCounts,
    samples: u64,
    /// Seams crossed, so the stream can be shown to have reached each.
    aux_swaps: u64,
    demotions: u64,
}

impl CacheModel {
    fn would_hit_alloc(&self) -> bool {
        self.main > 0
    }

    /// `shape` is the cache's `(main, aux)` after the call: a refill's
    /// length is the one thing the model takes from the arena.
    fn alloc(&mut self, shape: (usize, usize)) {
        self.counts.alloc += 1;
        if self.main == 0 && self.aux == 0 {
            self.counts.alloc_miss += 1;
            self.counts.refill += 1;
            let got = shape.0 + 1;
            assert!((1..=self.target).contains(&got), "refill of {got}");
            self.counts.refill_short += u64::from(got < self.target);
            self.counts.refill_blocks += got as u64;
            self.main = shape.0;
            self.samples += 1;
            return;
        }
        if self.main == 0 {
            self.aux_swaps += 1;
            self.main = core::mem::take(&mut self.aux);
        }
        self.main -= 1;
        self.samples += u64::from(self.counts.alloc.is_multiple_of(64));
    }

    fn free(&mut self) {
        self.counts.free += 1;
        let mut overflowed = false;
        if self.split {
            if self.main == self.target {
                overflowed = self.aux > 0;
                self.demotions += 1;
                self.aux = core::mem::take(&mut self.main);
            }
        } else if self.main == 2 * self.target {
            overflowed = true;
            self.main -= self.target;
        }
        self.main += 1;
        if overflowed {
            self.counts.free_miss += 1;
        } else {
            self.samples += u64::from(self.counts.free.is_multiple_of(64));
        }
    }

    /// Every flush samples; only one that evicts is counted.
    fn flush(&mut self, counter: fn(&mut kmem::snapshot::CacheCounts) -> &mut u64) {
        self.samples += 1;
        let evicted = (self.main + self.aux) as u64;
        if evicted > 0 {
            *counter(&mut self.counts) += 1;
            self.counts.flush_blocks += evicted;
        }
        (self.main, self.aux) = (0, 0);
    }
}

/// Drives one seeded op stream through the cookie interface or the
/// standard one and returns the addresses handed out (as offsets into the
/// arena's reservation) with the (CPU 0, 256-B) counters, after checking
/// both against [`CacheModel`] call by call.
fn drive_seams(split: bool, cookies: bool) -> (Vec<usize>, kmem::snapshot::CacheCounts) {
    const SIZE: usize = 256;
    let mut cfg = KmemConfig::new(2, SpaceConfig::new(32 << 20));
    cfg.split_freelist = split;
    let a = KmemArena::new(cfg).unwrap();
    let cpu = a.register_cpu().unwrap();
    let other = a.register_cpu().unwrap();
    let cookie = a.cookie_for(SIZE).unwrap();
    let class = cookie.class_index();
    let base = a.space().base_addr();
    let mut model = CacheModel {
        split,
        target: a.snapshot().classes[class].target,
        ..CacheModel::default()
    };

    let mut held: Vec<NonNull<u8>> = Vec::new();
    let mut addrs = Vec::new();
    let mut drains = 0;
    let mut x = 0x5EA4_0B5E_u64;
    let mut growing = true;
    for op in 0..6000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Waves between 0 and ~70 held blocks: long enough runs either way
        // to empty both halves and to overflow them.
        growing = match held.len() {
            0 => true,
            70.. => false,
            _ => growing,
        };
        let alloc = held.is_empty() || x.is_multiple_of(4) != growing;
        // A drain request posted while the next call would be a plain hit
        // must be honoured by that very call.
        if op % 500 == 250 && alloc && model.would_hit_alloc() {
            other.request_drain();
            assert_eq!(a.pending_drains(), 1);
            model.flush(|c| &mut c.flush_drain);
            drains += 1;
        }
        if alloc {
            let p = if cookies {
                cpu.alloc_cookie(cookie)
            } else {
                cpu.alloc(SIZE)
            }
            .unwrap();
            model.alloc(cpu.cache_shape(class));
            addrs.push(p.as_ptr() as usize - base);
            held.push(p);
        } else {
            let p = held.swap_remove((x >> 32) as usize % held.len());
            // SAFETY: allocated above with this cookie / size, freed once.
            unsafe {
                if cookies {
                    cpu.free_cookie(p, cookie);
                } else {
                    cpu.free_sized(p, SIZE);
                }
            }
            model.free();
        }
        assert_eq!(a.pending_drains(), 0, "op {op}: drain not honoured");
        assert_eq!(
            cpu.cache_shape(class),
            (model.main, model.aux),
            "op {op}: cache shape left the model"
        );
        if op == 3000 {
            cpu.flush();
            model.flush(|c| &mut c.flush_explicit);
        }
    }
    // The stream reached every seam it was sized for.
    assert!(drains >= 5, "{drains} drains");
    assert!(model.counts.refill > 20 && model.counts.free_miss > 20);
    if split {
        assert!(model.aux_swaps > 20 && model.demotions > 20);
    }

    let snap = a.snapshot();
    let got = *snap.cpu_class(cpu.cpu().index(), class);
    assert_eq!(got.occupancy_samples(), model.samples);
    let expected = kmem::snapshot::CacheCounts {
        occupancy: got.occupancy,
        ..model.counts
    };
    assert_eq!(got, expected);
    for p in held {
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu.free(p) };
    }
    (addrs, got)
}

/// The cookie interface and the standard one are one state machine: the
/// same op stream hands out the same blocks and leaves the same counters,
/// across refill, aux→main swap, main→aux demotion, overflow to the global
/// layer, drain requests and flushes — with the split freelist and with
/// the single-list ablation.
#[test]
fn cookie_and_standard_interfaces_are_one_state_machine() {
    for split in [true, false] {
        let (cookie_addrs, cookie_counts) = drive_seams(split, true);
        let (std_addrs, std_counts) = drive_seams(split, false);
        assert_eq!(cookie_addrs, std_addrs, "split={split}");
        assert_eq!(cookie_counts, std_counts, "split={split}");
    }
}
