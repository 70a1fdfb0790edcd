//! The five workloads, each a per-thread state machine over [`Mem`].
//!
//! A worker's `step` performs a small fixed unit of work and never blocks
//! (it returns `None` when it must wait for a ring), so the same code runs
//! on real threads (the runner spins on `None`) and on the single-threaded
//! discrete-event simulator (which charges idle cycles instead).

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kmem::{AllocError, Cookie, KmemArena, KmemConfig};
use kmem_testkit::Rng;
use kmem_vm::{SpaceConfig, PAGE_SIZE};

use crate::mem::{Mem, Op, NOPS};
use crate::ring::{self, Consumer, Producer};

/// What one worker did and saw during a rep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Allocator calls issued, by entry point (indexed by [`Op`]).
    pub calls: [u64; NOPS],
    /// Allocations that returned a block.
    pub alloc_ok: u64,
    /// Blocks freed.
    pub freed: u64,
    /// Allocations that failed when the workload did not expect it, plus
    /// workload-level shortfalls (`sweep` blocks below 90 % of ideal).
    pub failed: u64,
    /// Blocks whose tag word did not read back.
    pub tag_bad: u64,
}

impl Tally {
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn add(&mut self, other: &Tally) {
        for (a, b) in self.calls.iter_mut().zip(other.calls) {
            *a += b;
        }
        self.alloc_ok += other.alloc_ok;
        self.freed += other.freed;
        self.failed += other.failed;
        self.tag_bad += other.tag_bad;
    }

    #[inline]
    fn call(&mut self, op: Op) {
        self.calls[op as usize] += 1;
    }
}

/// Seed-derived tag for the block at `addr`; odd, so never the zero a
/// fresh page reads as.
///
/// Kept to 48 bits: the global layer's lock-free pop reads the first word
/// of a block it may no longer own and discards it when its tag-CAS fails,
/// but `kmem-smp` debug-asserts the word is pointer-sized *before* the CAS.
/// A full 64-bit tag in a block another CPU just took trips that assertion
/// in debug builds (release builds compile it out).
#[inline]
fn tag_of(seed: u64, addr: usize) -> u64 {
    ((addr as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) | 1
}

/// Writes the block's tag into its first word.
///
/// Volatile, so the write-then-verify of `pair` stays two memory accesses
/// on every commit however the surrounding code is optimised.
#[inline]
fn stamp(seed: u64, p: NonNull<u8>) {
    // SAFETY: every block is at least 16 bytes, 8-aligned, and owned by
    // the caller between its alloc and its free.
    unsafe { (p.as_ptr() as *mut u64).write_volatile(tag_of(seed, p.as_ptr() as usize)) };
}

/// Reads the tag back; `false` means the block was overwritten while the
/// workload owned it.
#[inline]
fn verify(seed: u64, p: NonNull<u8>) -> bool {
    // SAFETY: as for `stamp`.
    let word = unsafe { (p.as_ptr() as *const u64).read_volatile() };
    word == tag_of(seed, p.as_ptr() as usize)
}

#[inline]
fn ptr_of(addr: usize) -> NonNull<u8> {
    NonNull::new(addr as *mut u8).expect("block addresses are never null")
}

/// One thread's share of a workload.
pub trait Worker: Send {
    /// Arms the worker for a rep of `quota` units (pairs, blocks, sweeps,
    /// replacements or events — see each workload).
    fn begin_rep(&mut self, quota: u64);
    /// Whether the rep's work is finished and every block is freed.
    fn done(&self) -> bool;
    /// One unit of work; returns the allocator calls made, or `None` when
    /// the worker can only wait for another thread (a full or empty ring).
    fn step<M: Mem>(&mut self, mem: &mut M) -> Option<u32>;
    /// Counts accumulated since the last call.
    fn take_tally(&mut self) -> Tally;
}

/// How much work a rep holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured runs: a rep is 30 to 60 ms on the recording host, so
    /// a 25-s run holds two to three hundred of each kind. Short reps, many
    /// of them: every slice of a one-thread rep is then seen often enough
    /// to have been seen undisturbed (see [`crate::quiet`]).
    Full,
    /// `--smoke`: a rep is a few tens of milliseconds.
    Smoke,
    /// On the simulator: a few thousand steps per vCPU, one call per step.
    Sim,
}

/// Static description of a workload plus its worker factory.
pub trait Workload {
    type W: Worker;
    const NAME: &'static str;
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    const WHY: &'static str;
    /// `sweep` ends every rep with an untimed `flush`+`reclaim`+
    /// `verify_empty`; the others keep their caches warm between reps.
    const DRAIN_EACH_REP: bool = false;
    /// Whether the traced run fails when its ledger leaves more than a
    /// quarter of `ns_per_op` unexplained: true where one thread-private
    /// path does the work (`pair`, `sweep`); elsewhere waiting for other
    /// CPUs is most of the time and the residual is only reported.
    const LEDGER_ASSERTED: bool = false;
    /// Whether the traced run repeats the workload under the hardened,
    /// maintenance-core and two-node configurations (`arena.hardened_*`,
    /// `arena.maint_*`, `arena.numa2_*`): where the global layer and the
    /// cross-thread frees those subsystems change carry the load.
    const PROFILE_COLUMNS: bool = false;
    /// Whether the traced run steps the workload on the simulator
    /// (`sim.*`): the two shapes the paper's scaling figures use.
    const SIMULATED: bool = false;
    /// Calls between two clock stamps of a rep (see [`crate::quiet`]): 20
    /// to 50 µs of a rep without per-call timing, up to 150 µs of one with.
    const SLICE_CALLS: u32;

    /// Threads the workload uses on a host that offers `host_threads`.
    fn threads(host_threads: usize) -> usize;
    /// Address space and physical pool; profiles are applied on top.
    fn space(scale: Scale) -> SpaceConfig;
    /// Units per rep and per thread.
    fn quota(scale: Scale) -> u64;
    /// Units of a rep that times every call (shorter: the timer pair
    /// costs several times the call it brackets).
    fn latency_quota(scale: Scale) -> u64;
    /// Units of the warm-up rep that ends set-up.
    fn warmup_quota(scale: Scale) -> u64 {
        Self::quota(scale)
    }
    fn workers(arena: &KmemArena, threads: usize, seed: u64, scale: Scale) -> Vec<Self::W>;

    fn config(threads: usize, scale: Scale) -> KmemConfig {
        KmemConfig::new(threads, Self::space(scale))
    }
}

fn grain(scale: Scale, full: u32) -> u32 {
    if scale == Scale::Sim {
        1
    } else {
        full
    }
}

// ---------------------------------------------------------------- pair

/// `pair`: alloc_cookie(256) → tag → free_cookie, nothing shared.
///
/// One thread. On all threads the loop measured where the host had put the
/// VM's two vCPUs, not the allocator: 6.5 ns a call while they sat on two
/// cores and 13 while they shared one (the loop is cache-resident and
/// keeps a core's execution ports full), for seconds to minutes at a time,
/// so a run read anything between the two. That figure is the per-layer
/// `arena.all_cpus_pair_ns`.
pub struct Pair;

pub struct PairWorker {
    cookie: Cookie,
    seed: u64,
    left: u64,
    grain: u32,
    tally: Tally,
}

impl Workload for Pair {
    type W = PairWorker;
    const NAME: &'static str = "pair";
    const SLICE_CALLS: u32 = 4096;
    const LEDGER_ASSERTED: bool = true;
    const SIMULATED: bool = true;
    const WHY: &'static str = "the paper's best-case loop on one thread: cookie alloc+free of one 256-B block, nothing shared; cookie, percpu and arena glue do all the work, the layers below none";

    fn threads(_host_threads: usize) -> usize {
        1
    }

    fn space(_scale: Scale) -> SpaceConfig {
        SpaceConfig::new(16 << 20)
    }

    fn quota(scale: Scale) -> u64 {
        match scale {
            Scale::Full => 3_000_000,
            Scale::Smoke => 1_000_000,
            Scale::Sim => 4_000,
        }
    }

    fn latency_quota(scale: Scale) -> u64 {
        match scale {
            Scale::Full => 250_000,
            _ => 50_000,
        }
    }

    fn workers(arena: &KmemArena, threads: usize, seed: u64, scale: Scale) -> Vec<PairWorker> {
        let cookie = arena.cookie_for(256).expect("256-B class");
        (0..threads)
            .map(|_| PairWorker {
                cookie,
                seed,
                left: 0,
                grain: grain(scale, 64),
                tally: Tally::default(),
            })
            .collect()
    }
}

impl Worker for PairWorker {
    fn begin_rep(&mut self, quota: u64) {
        self.left = quota;
    }

    fn done(&self) -> bool {
        self.left == 0
    }

    #[inline]
    fn step<M: Mem>(&mut self, mem: &mut M) -> Option<u32> {
        let n = (self.grain as u64).min(self.left);
        let mut ok = 0u64;
        for _ in 0..n {
            match mem.alloc_cookie(self.cookie) {
                Ok(p) => {
                    stamp(self.seed, p);
                    if !verify(self.seed, p) {
                        self.tally.tag_bad += 1;
                    }
                    // SAFETY: allocated just above with this cookie.
                    unsafe { mem.free_cookie(p, self.cookie) };
                    ok += 1;
                }
                Err(_) => self.tally.failed += 1,
            }
        }
        self.left -= n;
        self.tally.calls[Op::AllocCookie as usize] += n;
        self.tally.calls[Op::FreeCookie as usize] += ok;
        self.tally.alloc_ok += ok;
        self.tally.freed += ok;
        Some((n + ok) as u32)
    }

    fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

// ------------------------------------------------------------- handoff

/// Blocks per ring batch: one DLM transaction burst.
const BATCH: usize = 32;
/// Ring slots: two batches, so at most ~`2·gbltarget` blocks of each class
/// are in flight and the page layer stays out of the steady state.
const RING_SLOTS: usize = 2 * BATCH;

/// `handoff`: producers allocate 256/512-B blocks, consumers free them.
pub struct Handoff;

pub struct HandoffWorker {
    /// Present on producers (and on the single thread that plays both ends).
    tx: Option<Producer<usize>>,
    /// Present on consumers (and on the single thread that plays both ends).
    rx: Option<Consumer<usize>>,
    cookies: [Cookie; 2],
    seed: u64,
    /// Blocks still to allocate / to free this rep.
    to_alloc: u64,
    to_free: u64,
    /// Allocated, not yet pushed. The low address bit carries the class
    /// (0: 256 B, 1: 512 B).
    outgoing: Vec<usize>,
    /// Popped, not yet freed.
    incoming: Vec<usize>,
    grain: u32,
    tally: Tally,
}

impl Workload for Handoff {
    type W = HandoffWorker;
    const NAME: &'static str = "handoff";
    const SLICE_CALLS: u32 = 2048;
    const PROFILE_COLUMNS: bool = true;
    const SIMULATED: bool = true;
    const WHY: &'static str = "half the threads allocate 256/512-B blocks, the other half free them after a ring hand-off: caches under/overflow every target calls and the global layer carries the slow path";

    fn threads(host_threads: usize) -> usize {
        // Whole producer/consumer pairs; a single thread plays both ends.
        (host_threads & !1).max(1)
    }

    fn space(_scale: Scale) -> SpaceConfig {
        SpaceConfig::new(16 << 20)
    }

    fn quota(scale: Scale) -> u64 {
        // Blocks per producer, a multiple of `BATCH`.
        match scale {
            Scale::Full => 480_000,
            Scale::Smoke => 160_000,
            Scale::Sim => 3_200,
        }
    }

    fn latency_quota(scale: Scale) -> u64 {
        match scale {
            Scale::Full => 160_000,
            _ => 32_000,
        }
    }

    fn workers(arena: &KmemArena, threads: usize, seed: u64, scale: Scale) -> Vec<HandoffWorker> {
        let cookies = [
            arena.cookie_for(256).expect("256-B class"),
            arena.cookie_for(512).expect("512-B class"),
        ];
        let make = |tx, rx| HandoffWorker {
            tx,
            rx,
            cookies,
            seed,
            to_alloc: 0,
            to_free: 0,
            outgoing: Vec::with_capacity(BATCH),
            incoming: Vec::with_capacity(BATCH),
            grain: grain(scale, BATCH as u32),
            tally: Tally::default(),
        };
        if threads == 1 {
            let (tx, rx) = ring::channel(RING_SLOTS);
            return vec![make(Some(tx), Some(rx))];
        }
        // Producers first (CPUs 0..n/2), consumers after: with two NUMA
        // nodes under block mapping every hand-off crosses the node line.
        let (producers, consumers): (Vec<_>, Vec<_>) = (0..threads / 2)
            .map(|_| {
                let (tx, rx) = ring::channel(RING_SLOTS);
                (make(Some(tx), None), make(None, Some(rx)))
            })
            .unzip();
        producers.into_iter().chain(consumers).collect()
    }
}

impl HandoffWorker {
    /// Allocates `n` blocks into `outgoing`, alternating the two sizes.
    fn produce<M: Mem>(&mut self, mem: &mut M, n: u64) -> u32 {
        for _ in 0..n {
            let which = (self.to_alloc & 1) as usize;
            self.tally.call(Op::AllocCookie);
            match mem.alloc_cookie(self.cookies[which]) {
                Ok(p) => {
                    stamp(self.seed, p);
                    self.tally.alloc_ok += 1;
                    self.outgoing.push(p.as_ptr() as usize | which);
                }
                Err(_) => {
                    // Hand over an empty slot so the consumer's count
                    // still runs out; `failed > 0` fails the run.
                    self.tally.failed += 1;
                    self.outgoing.push(which);
                }
            }
            self.to_alloc -= 1;
        }
        n as u32
    }

    /// Frees up to `n` popped blocks.
    fn consume<M: Mem>(&mut self, mem: &mut M, n: usize) -> u32 {
        let mut calls = 0;
        for _ in 0..n {
            let Some(item) = self.incoming.pop() else {
                break;
            };
            self.to_free -= 1;
            if item & !1 == 0 {
                continue;
            }
            let p = ptr_of(item & !1);
            if !verify(self.seed, p) {
                self.tally.tag_bad += 1;
            }
            self.tally.call(Op::FreeCookie);
            // SAFETY: the producer allocated `p` with this cookie and
            // handed it over exactly once.
            unsafe { mem.free_cookie(p, self.cookies[item & 1]) };
            self.tally.freed += 1;
            calls += 1;
        }
        calls
    }
}

impl Worker for HandoffWorker {
    fn begin_rep(&mut self, quota: u64) {
        debug_assert_eq!(quota % BATCH as u64, 0);
        if self.tx.is_some() {
            self.to_alloc = quota;
        }
        if self.rx.is_some() {
            self.to_free = quota;
        }
    }

    fn done(&self) -> bool {
        self.to_alloc == 0 && self.to_free == 0 && self.outgoing.is_empty()
    }

    fn step<M: Mem>(&mut self, mem: &mut M) -> Option<u32> {
        let grain = self.grain as usize;
        let mut calls = 0;
        let mut waiting = false;
        if self.tx.is_some() {
            if self.outgoing.len() < BATCH && self.to_alloc > 0 {
                let n = (BATCH - self.outgoing.len()).min(grain) as u64;
                calls += self.produce(mem, n.min(self.to_alloc));
            }
            let last = self.to_alloc == 0 && !self.outgoing.is_empty();
            if self.outgoing.len() == BATCH || last {
                let tx = self.tx.as_mut().expect("checked above");
                if tx.push_batch(&self.outgoing) {
                    self.outgoing.clear();
                } else {
                    waiting = true;
                }
            }
        }
        if let Some(rx) = self.rx.as_mut() {
            if self.incoming.is_empty() && self.to_free > 0 {
                waiting |= rx.pop_batch(&mut self.incoming, BATCH) == 0;
            }
            calls += self.consume(mem, grain);
        }
        if calls == 0 && waiting {
            None
        } else {
            Some(calls)
        }
    }

    fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

// --------------------------------------------------------------- sweep

/// `sweep`: Figure 9, every class to exhaustion and back, no flush between.
pub struct Sweep;

const SWEEP_SIZES: [usize; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Frames that may be left unclaimed when an allocation reports
/// exhaustion: a fresh vmblk costs its header frames before its first data
/// page, so the last few frames of a pool can be legitimately unusable.
const EXHAUSTION_SLACK_FRAMES: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepPhase {
    Alloc,
    Free,
}

pub struct SweepWorker {
    arena: KmemArena,
    seed: u64,
    pool_frames: usize,
    /// One free order per size: a seeded permutation of `0..ideal blocks`
    /// (indices past the blocks actually obtained are skipped).
    orders: Vec<Vec<u32>>,
    /// Addresses of the blocks this pass holds.
    held: Vec<usize>,
    passes_left: u64,
    size_idx: usize,
    phase: SweepPhase,
    free_pos: usize,
    grain: u32,
    tally: Tally,
}

impl Workload for Sweep {
    type W = SweepWorker;
    const NAME: &'static str = "sweep";
    const SLICE_CALLS: u32 = 128;
    const WHY: &'static str = "Fig. 9 worst case, one thread, 1-MB pool: each class to exhaustion, freed in shuffled order, no flush between sizes; pagelayer, vmblklayer and vm dominate";
    const DRAIN_EACH_REP: bool = true;
    const LEDGER_ASSERTED: bool = true;

    fn threads(_host_threads: usize) -> usize {
        1
    }

    fn space(_scale: Scale) -> SpaceConfig {
        // 1 MB, not Fig. 9's 16: the passes and the layers they load are
        // the same, and a rep takes 40 ms instead of 1.6 s, so a run sees
        // every slice of it some 250 times, often enough to have seen each
        // undisturbed (at 4 MB and forty reps a run read 160 to
        // 172 ns, lower the more reps it held). The pool then also fits
        // the CPU's second-level cache, so the shuffled frees cost what
        // their path is long and not what the host's other tenants leave
        // of the shared third level.
        SpaceConfig::new(32 << 20).phys_pages((1 << 20) / PAGE_SIZE)
    }

    fn quota(_scale: Scale) -> u64 {
        // Passes per rep: one per size class, 16 B to 4096 B.
        SWEEP_SIZES.len() as u64
    }

    fn latency_quota(scale: Scale) -> u64 {
        Self::quota(scale)
    }

    fn warmup_quota(_scale: Scale) -> u64 {
        // The three largest sizes: few calls, and the 4096-B pass alone
        // touches every frame of the pool.
        3
    }

    fn workers(arena: &KmemArena, threads: usize, seed: u64, scale: Scale) -> Vec<SweepWorker> {
        let pool_frames = arena.space().phys().capacity();
        (0..threads)
            .map(|t| {
                let mut rng = Rng::new(seed).fork(t as u64);
                let orders = SWEEP_SIZES
                    .iter()
                    .map(|&size| {
                        let ideal = pool_frames * (PAGE_SIZE / size);
                        let mut order: Vec<u32> = (0..ideal as u32).collect();
                        rng.shuffle(&mut order);
                        order
                    })
                    .collect();
                SweepWorker {
                    arena: arena.clone(),
                    seed,
                    pool_frames,
                    orders,
                    held: Vec::with_capacity(pool_frames * (PAGE_SIZE / SWEEP_SIZES[0])),
                    passes_left: 0,
                    size_idx: 0,
                    phase: SweepPhase::Alloc,
                    free_pos: 0,
                    grain: grain(scale, 64),
                    tally: Tally::default(),
                }
            })
            .collect()
    }
}

impl SweepWorker {
    /// Judges the end of an allocation pass.
    fn pass_exhausted(&mut self, size: usize) {
        let ideal = self.pool_frames * (PAGE_SIZE / size);
        // Short of 90 % of the ideal count: earlier sizes' memory did not
        // coalesce back.
        if self.held.len() * 10 < ideal * 9 {
            self.tally.failed += 1;
        }
        // Exhaustion reported with frames to spare.
        if self.arena.space().phys().available() > EXHAUSTION_SLACK_FRAMES {
            self.tally.failed += 1;
        }
    }
}

impl Worker for SweepWorker {
    /// `quota` passes, ending with the 4096-B one (a full rep is all nine
    /// sizes ascending; the warm-up runs only the last few).
    fn begin_rep(&mut self, quota: u64) {
        let passes = quota.min(SWEEP_SIZES.len() as u64);
        self.passes_left = passes;
        self.size_idx = SWEEP_SIZES.len() - passes as usize;
        self.phase = SweepPhase::Alloc;
    }

    fn done(&self) -> bool {
        self.passes_left == 0
    }

    fn step<M: Mem>(&mut self, mem: &mut M) -> Option<u32> {
        let size = SWEEP_SIZES[self.size_idx];
        let mut calls = 0;
        match self.phase {
            SweepPhase::Alloc => {
                for _ in 0..self.grain {
                    self.tally.call(Op::Alloc);
                    calls += 1;
                    match mem.alloc(size) {
                        Ok(p) => {
                            stamp(self.seed, p);
                            self.tally.alloc_ok += 1;
                            self.held.push(p.as_ptr() as usize);
                        }
                        Err(AllocError::OutOfMemory { .. }) => {
                            // The expected end of the pass, not a failure.
                            self.pass_exhausted(size);
                            self.phase = SweepPhase::Free;
                            self.free_pos = 0;
                            break;
                        }
                        Err(_) => {
                            self.tally.failed += 1;
                            self.phase = SweepPhase::Free;
                            self.free_pos = 0;
                            break;
                        }
                    }
                }
            }
            SweepPhase::Free => {
                let order = &self.orders[self.size_idx];
                let mut freed = 0;
                while freed < self.grain && self.free_pos < order.len() {
                    let idx = order[self.free_pos] as usize;
                    self.free_pos += 1;
                    let Some(&addr) = self.held.get(idx) else {
                        continue;
                    };
                    let p = ptr_of(addr);
                    if !verify(self.seed, p) {
                        self.tally.tag_bad += 1;
                    }
                    self.tally.call(Op::FreeSized);
                    // SAFETY: `p` was allocated with `size` in this pass
                    // and each index occurs once in the permutation.
                    unsafe { mem.free_sized(p, size) };
                    self.tally.freed += 1;
                    freed += 1;
                }
                calls = freed;
                if self.free_pos == order.len() {
                    self.held.clear();
                    self.phase = SweepPhase::Alloc;
                    self.size_idx = (self.size_idx + 1) % SWEEP_SIZES.len();
                    self.passes_left -= 1;
                }
            }
        }
        Some(calls)
    }

    fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

// --------------------------------------------------------------- large

/// `large`: multi-page span churn straight on the vmblk layer.
pub struct Large;

/// Live spans per thread.
const LARGE_LIVE: usize = 64;
/// Span sizes in pages and how many of each a 64-card deck holds: a
/// heavy tail realised exactly, so every seed draws the same multiset and
/// only the order differs.
const LARGE_DECK: [(u32, usize); 8] = [
    (2, 20),
    (3, 14),
    (4, 10),
    (6, 7),
    (8, 6),
    (16, 4),
    (32, 2),
    (64, 1),
];

pub struct LargeWorker {
    seed: u64,
    rng: Rng,
    /// `(address, pages)`; address 0 marks an empty slot.
    live: [(usize, u32); LARGE_LIVE],
    nlive: usize,
    deck: Vec<u32>,
    deck_pos: usize,
    churn_left: u64,
    draining: bool,
    grain: u32,
    tally: Tally,
}

impl Workload for Large {
    type W = LargeWorker;
    const NAME: &'static str = "large";
    const SLICE_CALLS: u32 = 512;
    const WHY: &'static str = "one thread churns 64 live spans of 2..64 pages (heavy-tailed) with alloc(size)/free(ptr), bypassing layers 1-3: vmblklayer boundary-tag coalescing plus vm, as no smaller size uses them";

    fn threads(_host_threads: usize) -> usize {
        // One thread. With every thread on the one boundary-tag lock, a
        // call spends most of its time in the lock's back-off and yield
        // path, and on the two-vCPU recording host that cost moved by
        // 20 % between two sets of the same commit. The contended figure
        // is the per-layer `vmblklayer.contended_pair_ns`.
        1
    }

    fn space(_scale: Scale) -> SpaceConfig {
        // 16-MB vmblks: the live sets of all the threads of the contended
        // driver fit in one vmblk with room to spare. With the default
        // 4 MB, two threads' ~800 live pages sit right at a vmblk boundary,
        // and whether a seed's fragmentation pattern tips a second vmblk in
        // and out of existence (a carve or release per tip) doubled the
        // call tail between seeds.
        SpaceConfig::new(64 << 20).vmblk_shift(24)
    }

    fn quota(scale: Scale) -> u64 {
        // Victim replacements per thread (each a free and an alloc).
        match scale {
            Scale::Full => 375_000,
            Scale::Smoke => 100_000,
            Scale::Sim => 2_000,
        }
    }

    fn latency_quota(scale: Scale) -> u64 {
        match scale {
            Scale::Full => 250_000,
            _ => 25_000,
        }
    }

    fn workers(_arena: &KmemArena, threads: usize, seed: u64, scale: Scale) -> Vec<LargeWorker> {
        (0..threads)
            .map(|t| {
                let mut rng = Rng::new(seed ^ 0x1a79e).fork(t as u64);
                let mut deck: Vec<u32> = LARGE_DECK
                    .iter()
                    .flat_map(|&(pages, count)| std::iter::repeat_n(pages, count))
                    .collect();
                rng.shuffle(&mut deck);
                LargeWorker {
                    seed,
                    rng,
                    live: [(0, 0); LARGE_LIVE],
                    nlive: 0,
                    deck,
                    deck_pos: 0,
                    churn_left: 0,
                    draining: false,
                    grain: grain(scale, 8),
                    tally: Tally::default(),
                }
            })
            .collect()
    }
}

impl LargeWorker {
    fn next_pages(&mut self) -> u32 {
        if self.deck_pos == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.deck_pos = 0;
        }
        let pages = self.deck[self.deck_pos];
        self.deck_pos += 1;
        pages
    }

    fn fill<M: Mem>(&mut self, mem: &mut M, slot: usize) {
        let pages = self.next_pages();
        self.tally.call(Op::Alloc);
        match mem.alloc(pages as usize * PAGE_SIZE) {
            Ok(p) => {
                stamp(self.seed, p);
                self.tally.alloc_ok += 1;
                self.live[slot] = (p.as_ptr() as usize, pages);
                self.nlive += 1;
            }
            Err(_) => self.tally.failed += 1,
        }
    }

    fn empty<M: Mem>(&mut self, mem: &mut M, slot: usize) -> u32 {
        let (addr, pages) = self.live[slot];
        if addr == 0 {
            return 0;
        }
        let p = ptr_of(addr);
        if !verify(self.seed, p) {
            self.tally.tag_bad += 1;
        }
        self.tally.call(Op::Free);
        // SAFETY: `p` is a live span this worker allocated; the slot is
        // cleared so it is freed once.
        unsafe { mem.free(p, pages as usize * PAGE_SIZE) };
        self.tally.freed += 1;
        self.live[slot] = (0, 0);
        self.nlive -= 1;
        1
    }
}

impl Worker for LargeWorker {
    fn begin_rep(&mut self, quota: u64) {
        self.churn_left = quota;
        self.draining = false;
    }

    fn done(&self) -> bool {
        self.draining && self.nlive == 0
    }

    fn step<M: Mem>(&mut self, mem: &mut M) -> Option<u32> {
        let mut calls = 0;
        for _ in 0..self.grain {
            if self.draining {
                // Rep end: free the live set, last slot first.
                let Some(slot) = self.live.iter().rposition(|&(addr, _)| addr != 0) else {
                    break;
                };
                calls += self.empty(mem, slot);
            } else if self.nlive < LARGE_LIVE && self.churn_left > 0 {
                // Rep start (or a slot emptied by a failed allocation).
                let slot = self
                    .live
                    .iter()
                    .position(|&(addr, _)| addr == 0)
                    .expect("nlive < LARGE_LIVE");
                self.fill(mem, slot);
                calls += 1;
                if self.live[slot].0 == 0 {
                    // Out of memory with spans still to place: give up the
                    // rep rather than spin on a failing call.
                    self.churn_left = 0;
                    self.draining = true;
                }
            } else if self.churn_left > 0 {
                let victim = self.rng.index(LARGE_LIVE);
                calls += self.empty(mem, victim);
                self.fill(mem, victim);
                calls += 1;
                self.churn_left -= 1;
            } else {
                self.draining = true;
            }
        }
        Some(calls)
    }

    fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

// ----------------------------------------------------------------- mix

/// `mix`: STREAMS/DLM-shaped events at every layer's natural rate.
pub struct Mix;

/// Working-set turning points, in live blocks per thread.
const MIX_LOW: usize = 256;
const MIX_HIGH: usize = 4096;
/// Slots of each neighbour ring (objects in flight between two threads).
const MIX_RING: usize = 256;
/// Relative weight of each of the nine classes for STREAMS buffers:
/// halving every two classes, so small buffers dominate and page-sized
/// ones still occur (mean request ≈ 190 B).
const MIX_BUF_WEIGHTS: [u32; 9] = [16, 16, 8, 8, 4, 4, 2, 2, 1];
const MSGB_SIZE: usize = 64;
const DATAB_SIZE: usize = 32;
const LKB_SIZE: usize = 256;
const RSB_SIZE: usize = 512;

/// A live STREAMS message (msgb + datab + buffer) or DLM lock (lkb and
/// sometimes an rsb): up to three blocks freed together.
#[derive(Debug, Clone, Copy)]
struct MixObj {
    /// Block addresses; 0 marks an unused slot.
    addrs: [usize; 3],
    /// Request size of `addrs[2]` (message buffer), 0 for a lock.
    buf_size: u32,
    is_msg: bool,
}

impl MixObj {
    fn blocks(&self) -> usize {
        self.addrs.iter().filter(|&&a| a != 0).count()
    }
}

pub struct MixWorker {
    seed: u64,
    rng: Rng,
    msgb: Cookie,
    datab: Cookie,
    live: Vec<MixObj>,
    live_blocks: usize,
    growing: bool,
    events_left: u64,
    /// Objects the neighbour handed us to free.
    inbox: Consumer<MixObj>,
    /// Objects we hand to the neighbour.
    outbox: Producer<MixObj>,
    inbox_buf: Vec<MixObj>,
    /// Set once this worker will push nothing more this rep.
    closed: Arc<AtomicBool>,
    /// The `closed` flag of the worker feeding our inbox.
    feeder_closed: Arc<AtomicBool>,
    finished: bool,
    grain: u32,
    tally: Tally,
}

impl Workload for Mix {
    type W = MixWorker;
    const NAME: &'static str = "mix";
    const SLICE_CALLS: u32 = 2048;
    const PROFILE_COLUMNS: bool = true;
    const WHY: &'static str = "STREAMS allocb triplets and DLM lock blocks over all nine classes, working set waving 256..4096 blocks per thread, 1 in 8 frees done by a neighbour: every layer at its natural rate";

    fn threads(host_threads: usize) -> usize {
        host_threads
    }

    fn space(_scale: Scale) -> SpaceConfig {
        SpaceConfig::new(64 << 20)
    }

    fn quota(scale: Scale) -> u64 {
        // Events per thread (an event creates or retires one object).
        match scale {
            Scale::Full => 150_000,
            Scale::Smoke => 60_000,
            Scale::Sim => 4_000,
        }
    }

    fn latency_quota(scale: Scale) -> u64 {
        match scale {
            Scale::Full => 100_000,
            _ => 20_000,
        }
    }

    fn workers(arena: &KmemArena, threads: usize, seed: u64, scale: Scale) -> Vec<MixWorker> {
        let flags: Vec<Arc<AtomicBool>> = (0..threads)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        // Ring `t` carries objects from thread `t` to thread `t + 1`.
        let (mut txs, mut rxs): (Vec<_>, Vec<_>) = (0..threads)
            .map(|_| {
                let (tx, rx) = ring::channel::<MixObj>(MIX_RING);
                (Some(tx), Some(rx))
            })
            .unzip();
        (0..threads)
            .map(|t| {
                let feeder = (t + threads - 1) % threads;
                MixWorker {
                    seed,
                    rng: Rng::new(seed ^ 0x313).fork(t as u64),
                    msgb: arena.cookie_for(MSGB_SIZE).expect("msgb class"),
                    datab: arena.cookie_for(DATAB_SIZE).expect("datab class"),
                    live: Vec::with_capacity(MIX_HIGH),
                    live_blocks: 0,
                    growing: true,
                    events_left: 0,
                    inbox: rxs[feeder].take().expect("one consumer per ring"),
                    outbox: txs[t].take().expect("one producer per ring"),
                    inbox_buf: Vec::with_capacity(8),
                    closed: Arc::clone(&flags[t]),
                    feeder_closed: Arc::clone(&flags[feeder]),
                    finished: false,
                    grain: grain(scale, 8),
                    tally: Tally::default(),
                }
            })
            .collect()
    }
}

impl MixWorker {
    fn alloc_block<M: Mem>(&mut self, mem: &mut M, size: usize, cookie: Option<Cookie>) -> usize {
        let got = match cookie {
            Some(c) => {
                self.tally.call(Op::AllocCookie);
                mem.alloc_cookie(c)
            }
            None => {
                self.tally.call(Op::Alloc);
                mem.alloc(size)
            }
        };
        match got {
            Ok(p) => {
                stamp(self.seed, p);
                self.tally.alloc_ok += 1;
                p.as_ptr() as usize
            }
            Err(_) => {
                self.tally.failed += 1;
                0
            }
        }
    }

    /// A STREAMS buffer size: class by weight, then anywhere in the upper
    /// half of the class so the size-to-class map sees unaligned requests.
    fn buf_size(&mut self) -> usize {
        let total: u32 = MIX_BUF_WEIGHTS.iter().sum();
        let mut pick = self.rng.range_u64(0..total as u64) as u32;
        let mut class = 0;
        for (i, &w) in MIX_BUF_WEIGHTS.iter().enumerate() {
            if pick < w {
                class = i;
                break;
            }
            pick -= w;
        }
        let top = 16usize << class;
        top / 2 + 1 + self.rng.index(top / 2)
    }

    fn create<M: Mem>(&mut self, mem: &mut M) -> u32 {
        let obj = if self.rng.ratio(3, 4) {
            // allocb: msgb + datab through cookies, buffer by size.
            let size = self.buf_size();
            MixObj {
                addrs: [
                    self.alloc_block(mem, MSGB_SIZE, Some(self.msgb)),
                    self.alloc_block(mem, DATAB_SIZE, Some(self.datab)),
                    self.alloc_block(mem, size, None),
                ],
                buf_size: size as u32,
                is_msg: true,
            }
        } else {
            // Lock request: an lkb, and a new rsb for one lock in four.
            let lkb = self.alloc_block(mem, LKB_SIZE, None);
            let rsb = if self.rng.ratio(1, 4) {
                self.alloc_block(mem, RSB_SIZE, None)
            } else {
                0
            };
            MixObj {
                addrs: [lkb, rsb, 0],
                buf_size: 0,
                is_msg: false,
            }
        };
        let calls = if obj.is_msg {
            3
        } else {
            1 + (obj.addrs[1] != 0) as u32
        };
        self.live_blocks += obj.blocks();
        self.live.push(obj);
        calls
    }

    /// Frees every block of `obj` (ours or handed over by the neighbour).
    fn retire<M: Mem>(&mut self, mem: &mut M, obj: MixObj) -> u32 {
        let mut calls = 0;
        for (i, &addr) in obj.addrs.iter().enumerate() {
            if addr == 0 {
                continue;
            }
            let p = ptr_of(addr);
            if !verify(self.seed, p) {
                self.tally.tag_bad += 1;
            }
            // SAFETY (all arms): `p` was allocated through the matching
            // interface when the object was created, and an object is
            // retired exactly once by whoever holds it.
            match (obj.is_msg, i) {
                (true, 0) => {
                    self.tally.call(Op::FreeCookie);
                    unsafe { mem.free_cookie(p, self.msgb) };
                }
                (true, 1) => {
                    self.tally.call(Op::FreeCookie);
                    unsafe { mem.free_cookie(p, self.datab) };
                }
                (true, _) => {
                    // freeb does not know the buffer size: descriptor lookup.
                    self.tally.call(Op::Free);
                    unsafe { mem.free(p, obj.buf_size as usize) };
                }
                (false, 0) => {
                    self.tally.call(Op::FreeSized);
                    unsafe { mem.free_sized(p, LKB_SIZE) };
                }
                (false, _) => {
                    self.tally.call(Op::FreeSized);
                    unsafe { mem.free_sized(p, RSB_SIZE) };
                }
            }
            self.tally.freed += 1;
            calls += 1;
        }
        calls
    }

    fn retire_one<M: Mem>(&mut self, mem: &mut M) -> u32 {
        let victim = self.rng.index(self.live.len());
        let obj = self.live.swap_remove(victim);
        self.live_blocks -= obj.blocks();
        // One retirement in eight is finished by the neighbour (a message
        // passed downstream, a lock released by the other node); a full
        // ring means the neighbour is behind, so free it here instead.
        if self.rng.ratio(1, 8) && self.outbox.push(obj) {
            return 0;
        }
        self.retire(mem, obj)
    }

    fn drain_inbox<M: Mem>(&mut self, mem: &mut M, max: usize) -> u32 {
        let mut buf = std::mem::take(&mut self.inbox_buf);
        buf.clear();
        self.inbox.pop_batch(&mut buf, max);
        let mut calls = 0;
        for &obj in &buf {
            calls += self.retire(mem, obj);
        }
        self.inbox_buf = buf;
        calls
    }
}

impl Worker for MixWorker {
    fn begin_rep(&mut self, quota: u64) {
        self.events_left = quota;
        self.growing = true;
        self.finished = false;
        self.closed.store(false, Ordering::Release);
    }

    fn done(&self) -> bool {
        self.finished
    }

    fn step<M: Mem>(&mut self, mem: &mut M) -> Option<u32> {
        let mut calls = 0;
        if self.events_left > 0 {
            calls += self.drain_inbox(mem, 4);
            for _ in 0..(self.grain as u64).min(self.events_left) {
                let create = if self.live.is_empty() {
                    true
                } else if self.growing {
                    self.rng.ratio(3, 4)
                } else {
                    self.rng.ratio(1, 4)
                };
                if create {
                    calls += self.create(mem);
                } else {
                    calls += self.retire_one(mem);
                }
                if self.live_blocks >= MIX_HIGH {
                    self.growing = false;
                } else if self.live_blocks <= MIX_LOW {
                    self.growing = true;
                }
                self.events_left -= 1;
            }
            return Some(calls);
        }
        if let Some(obj) = self.live.pop() {
            // Rep end: retire the working set locally.
            self.live_blocks -= obj.blocks();
            return Some(self.retire(mem, obj));
        }
        self.closed.store(true, Ordering::Release);
        // Read the feeder's flag *before* looking at the ring: if it was
        // closed then, nothing can arrive after an empty pop.
        let feeder_closed = self.feeder_closed.load(Ordering::Acquire);
        calls += self.drain_inbox(mem, 8);
        if calls > 0 {
            return Some(calls);
        }
        if feeder_closed && self.inbox.is_empty() {
            self.finished = true;
            return Some(0);
        }
        None
    }

    fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}
