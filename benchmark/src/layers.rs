//! Layer drivers: each layer's public functions driven directly and
//! batch-timed (no per-call timers), one layer at a time, from outside.
//!
//! Every driver returns one sample per batch, in ns per operation as named
//! by the metric it feeds. A traced run makes one short pass over the
//! drivers in every round, so each rep is reconciled with costs measured
//! within the same second, and a metric's samples span the whole run.

use std::collections::BTreeMap;
use std::ptr::NonNull;
use std::sync::Arc;
use std::time::Instant;

use kmem::chain::Chain;
use kmem::global::GlobalPool;
use kmem::pagelayer::PageLayer;
use kmem::percpu::CpuCache;
use kmem::vmblklayer::VmblkLayer;
use kmem::{AllocError, ClassConfig, Cookie, Faults, KmemArena, KmemConfig};
use kmem_testkit::Rng;
use kmem_vm::{KernelSpace, PhysPool, SpaceConfig, PAGE_SIZE};

use crate::mem::Mem;
use crate::runner::{run_together, Job, SpinBarrier};
use crate::stats::{summarize, Summary};
use crate::workload::{Large, Scale, Worker, Workload};

/// Block size the single-class drivers use: the DLM/`pair` class.
const BLOCK: usize = 256;
/// `target` of that class under the paper's heuristics.
const TARGET: usize = 10;
/// Stand-alone caches / pools per batch: enough that a batch of one
/// operation each is long against the `Instant` pair around it.
const UNITS: usize = 1024;

/// How long one pass over the drivers runs (about 0.1 s at full scale).
#[derive(Debug, Clone, Copy)]
struct Effort {
    /// Batches per driver and pass.
    batches: usize,
    /// Iterations of a loop-style driver per batch.
    iters: u64,
}

impl Effort {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Effort {
                batches: 2,
                iters: 100_000,
            },
            _ => Effort {
                batches: 1,
                iters: 20_000,
            },
        }
    }
}

/// One driver's batch samples.
type Samples = Vec<f64>;

/// A get on an empty pool / a put into a pool at its bound: priced for the
/// ledger only, not declared metrics.
pub const GLOBAL_GET_MISS: &str = "ledger.global_get_miss_ns";
pub const GLOBAL_PUT_SPILL: &str = "ledger.global_put_spill_ns";

/// Everything the drivers measured: batch samples by metric name.
#[derive(Default)]
pub struct LayerCosts {
    samples: BTreeMap<&'static str, Samples>,
}

impl LayerCosts {
    fn add(&mut self, name: &'static str, samples: Samples) {
        self.samples.entry(name).or_default().extend(samples);
    }

    /// Adds another pass's samples to this one's.
    pub fn merge(&mut self, other: LayerCosts) {
        for (name, samples) in other.samples {
            self.add(name, samples);
        }
    }

    /// Names measured so far, with the summary of each.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Summary)> + '_ {
        self.samples
            .iter()
            .map(|(&name, samples)| (name, summarize(samples)))
    }

    /// # Panics
    ///
    /// Panics when no pass has measured `name`.
    pub fn get(&self, name: &str) -> Summary {
        summarize(&self.samples[name])
    }
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// `batches` samples of `sample()`.
fn batches(effort: Effort, mut sample: impl FnMut() -> f64) -> Samples {
    (0..effort.batches).map(|_| sample()).collect()
}

/// ns per iteration of `body`, over `effort.iters` iterations per batch,
/// after one untimed batch.
fn loop_ns(effort: Effort, mut body: impl FnMut()) -> Samples {
    for _ in 0..effort.iters / 4 {
        body();
    }
    batches(effort, || {
        let start = Instant::now();
        for _ in 0..effort.iters {
            body();
        }
        elapsed_ns(start) / effort.iters as f64
    })
}

/// Backing store for free blocks handed to stand-alone caches and pools.
struct Slab {
    words: Vec<u128>,
}

impl Slab {
    fn new(blocks: usize) -> Self {
        Slab {
            words: vec![0u128; blocks * BLOCK / 16],
        }
    }

    /// `n` chains of `len` blocks each, carved in address order.
    fn chains(&mut self, n: usize, len: usize) -> Vec<Chain> {
        assert!(n * len * BLOCK <= self.words.len() * 16, "slab too small");
        let base = self.words.as_mut_ptr() as *mut u8;
        (0..n)
            .map(|c| {
                let mut chain = Chain::new();
                for b in 0..len {
                    // SAFETY: the block lies inside the slab, is 16-aligned
                    // and `BLOCK` bytes long, and appears in exactly one
                    // chain; the slab outlives every chain (callers forget
                    // or drain them before it drops).
                    unsafe { chain.push(base.add((c * len + b) * BLOCK)) };
                }
                chain
            })
            .collect()
    }
}

// ------------------------------------------------ cookie / sizeclass / arena

/// `cookie.pair_ns`, `sizeclass.std_pair_ns`, `sizeclass.free_lookup_ns`:
/// the three interfaces on one warm single-CPU arena, batches interleaved
/// so drift hits all three alike.
fn interfaces(effort: Effort) -> (Samples, Samples, Samples) {
    let arena = KmemArena::new(KmemConfig::new(1, SpaceConfig::new(16 << 20))).expect("arena");
    let cpu = arena.register_cpu().expect("cpu");
    let cookie: Cookie = arena.cookie_for(BLOCK).expect("class");
    let iters = effort.iters;
    let cookie_pair = || {
        let p = cpu.alloc_cookie(cookie).expect("warm arena");
        std::hint::black_box(p);
        // SAFETY: allocated just above with this cookie.
        unsafe { cpu.free_cookie(p, cookie) };
    };
    let std_pair = || {
        let p = cpu.alloc(BLOCK).expect("warm arena");
        std::hint::black_box(p);
        // SAFETY: allocated just above with this size.
        unsafe { cpu.free_sized(p, BLOCK) };
    };
    let lookup_pair = || {
        let p = cpu.alloc(BLOCK).expect("warm arena");
        std::hint::black_box(p);
        // SAFETY: allocated just above.
        unsafe { cpu.free(p) };
    };
    let time = |body: &dyn Fn()| {
        let start = Instant::now();
        for _ in 0..iters {
            body();
        }
        elapsed_ns(start) / iters as f64
    };
    time(&cookie_pair);
    time(&std_pair);
    time(&lookup_pair);
    let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..effort.batches {
        a.push(time(&cookie_pair));
        let std_ns = time(&std_pair);
        b.push(std_ns);
        // The lookup's extra over `free_sized`, against the batch run
        // right before it.
        c.push(time(&lookup_pair) - std_ns);
    }
    (a, b, c)
}

/// `arena.all_cpus_pair_ns`: the `pair` workload's loop on every thread at
/// once, each on a CPU handle of its own of one arena; thread-time per
/// alloc+free pair. Above `cookie.pair_ns` by what the CPUs' caches and
/// counters cost each other (nothing, if no line is shared) and by what
/// the threads' cores do (see [`Pair`](crate::workload::Pair)).
fn all_cpus(effort: Effort, threads: usize) -> Samples {
    let arena =
        KmemArena::new(KmemConfig::new(threads, SpaceConfig::new(16 << 20))).expect("arena");
    // A handle is `Send`, not `Sync`: each thread borrows its own mutably.
    let mut cpus: Vec<_> = (0..threads)
        .map(|_| arena.register_cpu().expect("cpu"))
        .collect();
    let cookie: Cookie = arena.cookie_for(BLOCK).expect("class");
    let pairs = effort.iters;
    batches(effort, || {
        let jobs = cpus
            .iter_mut()
            .map(|cpu| {
                let job = move |barrier: &SpinBarrier| {
                    let cpu = &*cpu;
                    let pair = || {
                        let p = cpu.alloc_cookie(cookie).expect("warm arena");
                        std::hint::black_box(p);
                        // SAFETY: allocated just above with this cookie.
                        unsafe { cpu.free_cookie(p, cookie) };
                    };
                    // Called through `dyn`, as `interfaces` calls its
                    // loops, so that this figure compares with theirs.
                    let pair: &dyn Fn() = std::hint::black_box(&pair);
                    barrier.wait();
                    let start = Instant::now();
                    for _ in 0..pairs {
                        pair();
                    }
                    (start, Instant::now())
                };
                Box::new(job) as Job<'_, (Instant, Instant)>
            })
            .collect();
        let stamps = run_together(jobs);
        let first = stamps.iter().map(|s| s.0).min().expect("threads >= 1");
        let last = stamps.iter().map(|s| s.1).max().expect("threads >= 1");
        last.duration_since(first).as_nanos() as f64 / pairs as f64
    })
}

// ---------------------------------------------------------------- percpu

/// `percpu.hit_pair_ns`, `percpu.refill_ns`, `percpu.flush_ns` on
/// stand-alone `CpuCache`s.
fn percpu(effort: Effort) -> (Samples, Samples, Samples) {
    let mut slab = Slab::new(UNITS * TARGET);
    let mut chains = slab.chains(UNITS, TARGET);

    let mut cache = CpuCache::new(TARGET, true);
    let first = cache.refill(chains[0].take());
    // SAFETY: `first` was just popped from this cache.
    let overflow = unsafe { cache.free(first) };
    assert!(overflow.is_none());
    let hit_pair = loop_ns(effort, || {
        let block = cache.alloc().expect("cache holds blocks");
        std::hint::black_box(block);
        // SAFETY: popped just above; the cache is never past `target`.
        let overflow = unsafe { cache.free(block) };
        debug_assert!(overflow.is_none());
    });
    chains[0] = cache.flush();

    let mut caches: Vec<CpuCache> = (0..UNITS).map(|_| CpuCache::new(TARGET, true)).collect();
    let mut popped = vec![std::ptr::null_mut(); UNITS];
    let (mut refill, mut flush) = (Vec::new(), Vec::new());
    for _ in 0..effort.batches {
        let start = Instant::now();
        for (i, cache) in caches.iter_mut().enumerate() {
            popped[i] = cache.refill(chains[i].take());
        }
        refill.push(elapsed_ns(start) / UNITS as f64);
        for (i, cache) in caches.iter_mut().enumerate() {
            // SAFETY: `popped[i]` came out of this cache's refill.
            let overflow = unsafe { cache.free(popped[i]) };
            assert!(overflow.is_none());
        }
        let start = Instant::now();
        for (i, cache) in caches.iter_mut().enumerate() {
            chains[i] = cache.flush();
        }
        flush.push(elapsed_ns(start) / UNITS as f64);
    }
    for chain in &mut chains {
        chain.forget();
    }
    (hit_pair, refill, flush)
}

// ---------------------------------------------------------------- global

/// `global.get_ns`, `global.put_ns`, `global.odd_put_ns`: the lock-free
/// exact-chain paths and the locked odd-chain path of stand-alone pools.
fn global(effort: Effort) -> (Samples, Samples, Samples) {
    /// Blocks of an odd chain: short of `TARGET`, so the regroup under the
    /// lock cannot form a ready chain.
    const ODD: usize = 7;
    let gbltarget = ClassConfig::with_heuristics(BLOCK).gbltarget;
    let pools: Vec<GlobalPool> = (0..UNITS)
        .map(|_| GlobalPool::new(TARGET, gbltarget))
        .collect();
    let mut slab = Slab::new(UNITS * (2 * TARGET + ODD));
    let mut chains = slab.chains(2 * UNITS, TARGET);
    let (mut get, mut put) = (Vec::new(), Vec::new());
    for _ in 0..effort.batches {
        let start = Instant::now();
        for (i, pool) in pools.iter().enumerate() {
            // Two chains stay inside the `2 * gbltarget` bound: no spill.
            let a = pool.put_chain(chains[2 * i].take());
            let b = pool.put_chain(chains[2 * i + 1].take());
            debug_assert!(a.is_none() && b.is_none());
        }
        put.push(elapsed_ns(start) / (2 * UNITS) as f64);
        let start = Instant::now();
        for (i, pool) in pools.iter().enumerate() {
            chains[2 * i] = pool.get_chain().expect("two chains were put");
            chains[2 * i + 1] = pool.get_chain().expect("two chains were put");
        }
        get.push(elapsed_ns(start) / (2 * UNITS) as f64);
    }
    for chain in &mut chains {
        chain.forget();
    }

    let mut slab = Slab::new(UNITS * ODD);
    let mut odd = slab.chains(UNITS, ODD);
    let odd_put = batches(effort, || {
        let start = Instant::now();
        for (i, pool) in pools.iter().enumerate() {
            let spill = pool.put_odd(odd[i].take());
            debug_assert!(spill.is_none());
        }
        let ns = elapsed_ns(start) / UNITS as f64;
        for (i, pool) in pools.iter().enumerate() {
            odd[i] = pool.drain_all();
        }
        ns
    });
    for chain in &mut odd {
        chain.forget();
    }
    (get, put, odd_put)
}

/// Ledger-only: a get that finds the pool empty (lock, look, miss) and a
/// put into a pool at its `2 * gbltarget` bound (lock, push, trim a chain
/// off for the page layer) — the two paths `sweep` and the ends of a `mix`
/// wave take on nearly every global-layer call.
fn global_slow(effort: Effort) -> (Samples, Samples) {
    let gbltarget = ClassConfig::with_heuristics(BLOCK).gbltarget;
    let empty = GlobalPool::new(TARGET, gbltarget);
    let get_miss = loop_ns(effort, || {
        let chain = empty.get_chain();
        debug_assert!(chain.is_none());
    });

    let full = GlobalPool::new(TARGET, gbltarget);
    let per_pool = 2 * gbltarget / TARGET;
    let mut slab = Slab::new((per_pool + 1) * TARGET);
    let mut chains = slab.chains(per_pool + 1, TARGET);
    let mut extra = chains.pop().expect("one chain beyond the bound");
    for chain in chains {
        let spill = full.put_chain(chain);
        assert!(spill.is_none());
    }
    let effort = Effort {
        iters: effort.iters / 8,
        ..effort
    };
    let put_spill = loop_ns(effort, || {
        // The spill of one put is the input of the next.
        let mut spill = full.put_chain(extra.take()).expect("pool is at its bound");
        if spill.len() != TARGET {
            // An odd trim: top the pool up again and start over.
            let back = full.put_odd(spill.take());
            debug_assert!(back.is_none());
            spill = full.get_chain().expect("pool holds blocks");
        }
        extra = spill;
    });
    extra.forget();
    full.drain_all().forget();
    (get_miss, put_spill)
}

/// `global.contended_pair_ns`: every thread does get→put on one pool;
/// thread-time per pair.
fn global_contended(effort: Effort, threads: usize) -> Samples {
    // Bound wide enough that a put never takes the trimming slow path.
    let pool = GlobalPool::new(TARGET, TARGET * threads.max(2));
    let mut slab = Slab::new(threads * TARGET);
    for chain in slab.chains(threads, TARGET) {
        let spill = pool.put_chain(chain);
        assert!(spill.is_none());
    }
    let pairs = effort.iters / 4;
    let summary = batches(effort, || {
        let pool = &pool;
        let jobs = (0..threads)
            .map(|_| {
                let job = move |barrier: &SpinBarrier| {
                    barrier.wait();
                    let start = Instant::now();
                    let mut done = 0;
                    while done < pairs {
                        // Another thread may hold every chain for a
                        // moment; retry.
                        let Some(chain) = pool.get_chain() else {
                            std::hint::spin_loop();
                            continue;
                        };
                        let spill = pool.put_chain(chain);
                        debug_assert!(spill.is_none());
                        done += 1;
                    }
                    (start, Instant::now())
                };
                Box::new(job) as Job<'_, (Instant, Instant)>
            })
            .collect();
        let stamps = run_together(jobs);
        let first = stamps.iter().map(|s| s.0).min().expect("threads >= 1");
        let last = stamps.iter().map(|s| s.1).max().expect("threads >= 1");
        last.duration_since(first).as_nanos() as f64 / pairs as f64
    });
    pool.drain_all().forget();
    summary
}

// ------------------------------------------------------------- pagelayer

fn vm_layer(space: SpaceConfig) -> VmblkLayer {
    VmblkLayer::new_with_cache(Arc::new(KernelSpace::new(space)), true, Faults::none())
}

/// `pagelayer.alloc_chain_ns`, `pagelayer.free_chain_ns`: `TARGET`-block
/// chains in and out of a 256-B layer held at half occupancy, so requests
/// are served from partial pages (per chain).
fn page_steady(effort: Effort) -> (Samples, Samples) {
    let vm = vm_layer(SpaceConfig::new(16 << 20));
    let layer = PageLayer::new(4, BLOCK, true);
    let mut held: Vec<Chain> = (0..2 * UNITS)
        .map(|_| {
            layer
                .alloc_chain(&vm, TARGET)
                .expect("space for the driver")
        })
        .collect();
    // Chains were cut from consecutive addresses and a 16-block page spans
    // two or three of them: freeing every other chain leaves each page
    // partly allocated.
    let release = |held: &mut Vec<Chain>| {
        for chain in held.iter_mut().skip(1).step_by(2) {
            // SAFETY: the chain's blocks came from this layer and are free.
            unsafe { layer.free_chain(&vm, chain.take()) };
        }
    };
    release(&mut held);
    let (mut alloc, mut free) = (Vec::new(), Vec::new());
    for _ in 0..effort.batches {
        let start = Instant::now();
        for chain in held.iter_mut().skip(1).step_by(2) {
            *chain = layer
                .alloc_chain(&vm, TARGET)
                .expect("blocks were just freed");
        }
        alloc.push(elapsed_ns(start) / UNITS as f64);
        let start = Instant::now();
        release(&mut held);
        free.push(elapsed_ns(start) / UNITS as f64);
    }
    for chain in held.iter_mut().step_by(2) {
        // SAFETY: as above.
        unsafe { layer.free_chain(&vm, chain.take()) };
    }
    (alloc, free)
}

/// `pagelayer.page_cycle_ns`: acquire a page, carve it, take all 16
/// blocks, free them all, release the page.
fn page_cycle(effort: Effort) -> Samples {
    let vm = vm_layer(SpaceConfig::new(16 << 20));
    let layer = PageLayer::new(4, BLOCK, true);
    // Keep one span allocated so the vmblk is not carved and released
    // around every cycle.
    let (pin, _) = vm.alloc_span(1).expect("pin page");
    let per_page = layer.blocks_per_page();
    let effort = Effort {
        iters: effort.iters / 16,
        ..effort
    };
    let summary = loop_ns(effort, || {
        let chain = layer.alloc_chain(&vm, per_page).expect("one page");
        // SAFETY: the chain's blocks came from this layer and are free.
        unsafe { layer.free_chain(&vm, chain) };
    });
    // SAFETY: `pin` is the single page allocated above.
    unsafe { vm.free_span(pin, 1) };
    summary
}

/// Per-block page-layer cost of one class filling fresh pages in
/// `target`-block refills, then draining them through `target`-block
/// chains of blocks in shuffled order: the regime of a `sweep` pass, and
/// of the grow and shrink halves of a `mix` wave. Returns (fill, drain),
/// each the faster of two passes: the first faults the pages in.
///
/// `pages` is the workload's own peak footprint: a drain over 4 MB misses
/// the CPU's caches where one over 1 MB would not, and that is most of
/// what a shuffled free costs.
pub fn page_fill_drain(class: usize, size: usize, pages: usize, seed: u64) -> (f64, f64) {
    let per_page = PAGE_SIZE / size;
    let target = ClassConfig::with_heuristics(size).target;
    let pages = pages.clamp(16, 4096);
    let blocks = pages * per_page;
    let vm = vm_layer(SpaceConfig::new(32 << 20));
    let layer = PageLayer::new(class, size, true);
    let mut rng = Rng::new(seed ^ size as u64);
    let mut held: Vec<Chain> = Vec::with_capacity(blocks / target + 1);
    let mut ptrs: Vec<*mut u8> = Vec::with_capacity(blocks + target);
    let (mut fill, mut drain) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let mut got = 0;
        let start = Instant::now();
        while got < blocks {
            let chain = layer
                .alloc_chain(&vm, target)
                .expect("space for the driver");
            got += chain.len();
            held.push(chain);
        }
        fill.push(elapsed_ns(start) / got as f64);

        ptrs.clear();
        for mut chain in held.drain(..) {
            while let Some(block) = chain.pop() {
                ptrs.push(block);
            }
        }
        rng.shuffle(&mut ptrs);
        for group in ptrs.chunks(target) {
            let mut chain = Chain::new();
            for &block in group {
                // SAFETY: `block` came out of this layer's chains above,
                // is free, and is pushed into exactly one chain.
                unsafe { chain.push(block) };
            }
            held.push(chain);
        }
        let start = Instant::now();
        for chain in held.drain(..) {
            // SAFETY: the chain holds free blocks of this layer's class.
            unsafe { layer.free_chain(&vm, chain) };
        }
        drain.push(elapsed_ns(start) / got as f64);
    }
    (summarize(&fill).min, summarize(&drain).min)
}

// ------------------------------------------------------------ vmblklayer

/// `LargeWorker` straight on a `VmblkLayer`: the `large` workload's span
/// churn without the arena in between.
struct SpanMem<'a>(&'a VmblkLayer);

impl Mem for SpanMem<'_> {
    fn alloc(&mut self, size: usize) -> Result<NonNull<u8>, AllocError> {
        self.0
            .alloc_large(size)
            .map_err(|_| AllocError::OutOfMemory { requested: size })
    }

    unsafe fn free(&mut self, ptr: NonNull<u8>, _size: usize) {
        // SAFETY: forwarded caller contract.
        unsafe { self.0.free_large(ptr) };
    }

    fn alloc_cookie(&mut self, _cookie: Cookie) -> Result<NonNull<u8>, AllocError> {
        unreachable!("the span driver only makes multi-page requests")
    }

    unsafe fn free_cookie(&mut self, _ptr: NonNull<u8>, _cookie: Cookie) {
        unreachable!("the span driver only makes multi-page requests")
    }

    unsafe fn free_sized(&mut self, _ptr: NonNull<u8>, _size: usize) {
        unreachable!("the span driver only makes multi-page requests")
    }
}

/// `threads` workers of the `large` workload, to be run on a [`SpanMem`].
fn span_workers(threads: usize, seed: u64) -> Vec<<Large as Workload>::W> {
    // A throw-away arena only lends the worker factory its signature.
    let arena = KmemArena::new(Large::config(threads, Scale::Full)).expect("arena");
    Large::workers(&arena, threads, seed, Scale::Full)
}

/// `vmblklayer.contended_pair_ns`: every thread runs the `large` churn on
/// one `VmblkLayer`, so every call queues for its boundary-tag lock;
/// thread-time per victim replacement.
fn vmblk_contended(effort: Effort, threads: usize, seed: u64) -> Samples {
    let vm = vm_layer(Large::space(Scale::Full));
    let mut workers = span_workers(threads, seed);
    let replacements = effort.iters / 8;
    batches(effort, || {
        let vm = &vm;
        let jobs = workers
            .iter_mut()
            .map(|worker| {
                let job = move |barrier: &SpinBarrier| {
                    worker.begin_rep(replacements);
                    let mut mem = SpanMem(vm);
                    barrier.wait();
                    let start = Instant::now();
                    while !worker.done() {
                        worker.step(&mut mem);
                    }
                    let end = Instant::now();
                    (start, end, worker.take_tally().total_calls())
                };
                Box::new(job) as Job<'_, (Instant, Instant, u64)>
            })
            .collect();
        let stamps = run_together(jobs);
        let first = stamps.iter().map(|s| s.0).min().expect("threads >= 1");
        let last = stamps.iter().map(|s| s.1).max().expect("threads >= 1");
        let calls: u64 = stamps.iter().map(|s| s.2).sum();
        2.0 * last.duration_since(first).as_nanos() as f64 * threads as f64 / calls as f64
    })
}

/// `vmblklayer.span1_pair_ns` (whole-page cache path), `spanN_pair_ns`
/// (the `large` workload's victim replacement: one boundary-tag free and
/// one allocation of 2..64 pages) and `pd_lookup_ns`.
fn vmblk(effort: Effort, seed: u64) -> (Samples, Samples, Samples) {
    let vm = vm_layer(Large::space(Scale::Full));
    let (pin, _) = vm.alloc_span(1).expect("pin page");
    let span1 = loop_ns(effort, || {
        let (page, _) = vm.alloc_span(1).expect("one page");
        std::hint::black_box(page);
        // SAFETY: the page allocated just above.
        unsafe { vm.free_span(page, 1) };
    });

    let mut worker = span_workers(1, seed).pop().expect("one worker");
    let replacements = effort.iters / 8;
    let span_n = batches(effort, || {
        let mut mem = SpanMem(&vm);
        worker.begin_rep(replacements);
        let start = Instant::now();
        while !worker.done() {
            worker.step(&mut mem);
        }
        let ns = elapsed_ns(start);
        // Two calls per replacement, plus filling and draining the live set.
        2.0 * ns / worker.take_tally().total_calls() as f64
    });

    let pages: Vec<usize> = (0..256)
        .map(|_| vm.alloc_span(1).expect("page").0.as_ptr() as usize)
        .collect();
    let mut next = 0;
    let pd_lookup = loop_ns(effort, || {
        let pd = vm.pd_of(pages[next % pages.len()] + 64);
        std::hint::black_box(pd.is_some());
        next += 1;
    });
    for addr in pages {
        let page = NonNull::new(addr as *mut u8).expect("page address");
        // SAFETY: each page was allocated above and is freed once.
        unsafe { vm.free_span(page, 1) };
    }
    // SAFETY: the pin page allocated above.
    unsafe { vm.free_span(pin, 1) };
    (span1, span_n, pd_lookup)
}

// -------------------------------------------------------------------- vm

/// `vm.claim_release_ns` and `vm.dope_lookup_ns`.
fn vm(effort: Effort) -> (Samples, Samples) {
    let pool = PhysPool::new(1 << 20);
    let claim_release = loop_ns(effort, || {
        pool.claim(1).expect("pool is large");
        pool.release(1);
    });

    let layer = vm_layer(SpaceConfig::new(16 << 20));
    let (page, _) = layer.alloc_span(1).expect("one page");
    let addr = page.as_ptr() as usize;
    let mut offset = 0;
    let dope_lookup = loop_ns(effort, || {
        let tag = layer.space().dope_lookup(addr + (offset & 0xfff));
        std::hint::black_box(tag);
        offset += 64;
    });
    // SAFETY: the page allocated above.
    unsafe { layer.free_span(page, 1) };
    (claim_release, dope_lookup)
}

impl LayerCosts {
    /// One pass over every driver that does not depend on the workload
    /// being traced (the one that does is [`page_fill_drain`]).
    pub fn measure(scale: Scale, threads: usize, seed: u64) -> LayerCosts {
        let mut costs = LayerCosts::default();
        costs.pass(Effort::of(scale), threads, seed);
        costs
    }

    fn pass(&mut self, effort: Effort, threads: usize, seed: u64) {
        let (cookie_pair, std_pair, free_lookup) = interfaces(effort);
        self.add("cookie.pair_ns", cookie_pair);
        self.add("sizeclass.std_pair_ns", std_pair);
        self.add("sizeclass.free_lookup_ns", free_lookup);
        self.add("arena.all_cpus_pair_ns", all_cpus(effort, threads));
        let (hit_pair, refill, flush) = percpu(effort);
        self.add("percpu.hit_pair_ns", hit_pair);
        self.add("percpu.refill_ns", refill);
        self.add("percpu.flush_ns", flush);
        let (get, put, odd_put) = global(effort);
        self.add("global.get_ns", get);
        self.add("global.put_ns", put);
        self.add("global.odd_put_ns", odd_put);
        let (get_miss, put_spill) = global_slow(effort);
        self.add(GLOBAL_GET_MISS, get_miss);
        self.add(GLOBAL_PUT_SPILL, put_spill);
        self.add(
            "global.contended_pair_ns",
            global_contended(effort, threads),
        );
        let (alloc_chain, free_chain) = page_steady(effort);
        self.add("pagelayer.alloc_chain_ns", alloc_chain);
        self.add("pagelayer.free_chain_ns", free_chain);
        self.add("pagelayer.page_cycle_ns", page_cycle(effort));
        let (span1, span_n, pd_lookup) = vmblk(effort, seed);
        self.add("vmblklayer.span1_pair_ns", span1);
        self.add("vmblklayer.spanN_pair_ns", span_n);
        self.add("vmblklayer.pd_lookup_ns", pd_lookup);
        self.add(
            "vmblklayer.contended_pair_ns",
            vmblk_contended(effort, threads, seed),
        );
        let (claim_release, dope_lookup) = vm(effort);
        self.add("vm.claim_release_ns", claim_release);
        self.add("vm.dope_lookup_ns", dope_lookup);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every driver runs to the end (in debug builds `Chain`'s drop check
    /// also proves no driver leaks a chain) and yields finite, positive
    /// costs; passes merge into one set of samples.
    #[test]
    fn drivers_produce_finite_costs_and_leak_no_chain() {
        let mut costs = LayerCosts::measure(Scale::Smoke, 2, 7);
        let batches = Effort::of(Scale::Smoke).batches;
        assert_eq!(costs.iter().count(), 22);
        for (name, s) in costs.iter() {
            assert_eq!(s.n, batches, "{name}");
            assert!(s.value().is_finite(), "{name}: {s:?}");
            // The lookup's extra is a difference and may dip below zero.
            assert!(
                s.value() > 0.0 || name == "sizeclass.free_lookup_ns",
                "{name}: {s:?}"
            );
        }
        costs.merge(LayerCosts::measure(Scale::Smoke, 2, 7));
        assert_eq!(costs.get("cookie.pair_ns").n, 2 * batches);
        let (fill, drain) = page_fill_drain(4, 256, 64, 7);
        assert!(fill > 0.0 && drain > 0.0);
    }
}
