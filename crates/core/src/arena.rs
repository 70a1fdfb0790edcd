//! Arena wiring and the public `kmem_alloc`/`kmem_free` interface.
//!
//! A [`KmemArena`] owns the four layers (Figure 4 of the paper: per-CPU
//! cache array → per-class global pools → per-class coalesce-to-page →
//! coalesce-to-vmblk) and hands out [`CpuHandle`]s, each of which is the
//! exclusive access path to one virtual CPU's caches.

use core::cell::UnsafeCell;
use core::marker::PhantomData;
use core::ptr::NonNull;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use kmem_smp::{
    faults, CachePadded, ClaimError, CpuClaim, CpuId, CpuRegistry, EventCounter, Faults,
    LocalCounter, NodeId, PerCpu, Topology,
};
use kmem_vm::{KernelSpace, PAGE_SIZE};

use crate::block::{self, LinkKey};
use crate::chain::Chain;
use crate::config::{HardenedConfig, KmemConfig};
use crate::cookie::Cookie;
use crate::error::{AllocError, CorruptionSite};
use crate::global::{GlobalPool, Miss};
use crate::maint::{MaintKeys, MaintState, MaintWork};
use crate::pagedesc::PdKind;
use crate::pagelayer::PageLayer;
use crate::percpu::{CacheStats, CpuCache, QuarantineVerdict};
use crate::pressure::PressureLadder;
use crate::sizeclass::SizeClasses;
use crate::snapshot::{
    CacheCounts, ClassSnapshot, GlobalCounts, KmemSnapshot, MaintCounts, NodeCounts, PageCounts,
};
use crate::stats::KmemStats;
use crate::vmblklayer::VmblkLayer;

/// Why a cache flush ran, for statistics attribution.
#[derive(Clone, Copy)]
enum FlushCause {
    /// Public API call or CPU teardown.
    Explicit,
    /// Honouring another CPU's drain request.
    Drain,
    /// This CPU's own low-memory retry path.
    LowMemory,
}

/// Arena identity counter (cookie validation across arenas). Starts at 1:
/// a [`CpuHandle`] that is not plain stands for "no arena" with id 0.
static NEXT_ARENA_ID: AtomicU64 = AtomicU64::new(1);

/// splitmix64 finalizer: derives the per-arena link secret and carve
/// shuffle seed from the configured hardened seed and the arena id.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One (CPU, class) record: the cache and its counters side by side, so a
/// class index is one bound check and one base address. Aligned to
/// [`kmem_smp::pad::CACHE_LINE`]: a CPU's records then start and end on
/// line boundaries its neighbour's never cross, and their 512-byte stride
/// makes the index a shift.
#[repr(align(128))]
pub(crate) struct ClassSlot {
    cache: UnsafeCell<CpuCache>,
    /// Kept outside the `UnsafeCell` so statistics snapshots never alias
    /// the owner's cache borrow.
    stats: CacheStats,
}

const _: () = {
    let stride = size_of::<ClassSlot>();
    assert!(align_of::<ClassSlot>() == kmem_smp::pad::CACHE_LINE);
    assert!(stride.is_power_of_two() && stride.is_multiple_of(64));
};

/// Per-CPU slot: one record per size class plus the drain-request flag.
pub(crate) struct CpuSlot {
    classes: Box<[ClassSlot]>,
    /// Multi-page blocks this CPU took from / returned to the vmblk layer
    /// (owner-written; snapshots sum them over CPUs).
    large_allocs: LocalCounter,
    large_frees: LocalCounter,
    /// Refill chains this CPU took from its own node's shard / stole from
    /// a remote node's (owner-written; snapshots sum them per node).
    local_refills: LocalCounter,
    stolen_refills: LocalCounter,
    /// Set by *other* CPUs under memory pressure; the owner checks it on
    /// every operation (the userspace stand-in for a reclaim IPI).
    drain: AtomicBool,
}

// SAFETY: the `UnsafeCell`s are only dereferenced by the thread holding the
// `CpuClaim` for this slot's CPU (see `CpuHandle::cache_mut`), which makes
// all access single-threaded in practice. The atomic flag is safe to share.
unsafe impl Sync for CpuSlot {}

pub(crate) struct ArenaInner {
    id: u64,
    classes: SizeClasses,
    space: Arc<KernelSpace>,
    vm: VmblkLayer,
    /// CPU → node map; `Topology::single` when `nodes == 1`.
    topology: Topology,
    /// Global pools, one *shard* per (class, node) in node-minor order:
    /// `globals[class * nnodes + node]`. With one node this is exactly the
    /// old one-pool-per-class layout.
    globals: Box<[CachePadded<GlobalPool>]>,
    /// Per node (arena-wide, not per class): blocks spilled from the
    /// node's shards down to the (shared) coalesce-to-page layer — each one
    /// a frame-locality loss. Shared, not per CPU: the maintenance thread
    /// spills too.
    remote_spills: Box<[EventCounter]>,
    pages: Box<[CachePadded<PageLayer>]>,
    slots: PerCpu<CpuSlot>,
    registry: Arc<CpuRegistry>,
    max_large: usize,
    /// Failpoint handle shared with the vm substrate; consulted at the
    /// global-get, page-get, spill, and refill boundaries.
    faults: Faults,
    /// The memory-pressure escalation state machine.
    pressure: PressureLadder,
    /// The hardened-profile knobs this arena runs with (DESIGN.md §12).
    hardened: HardenedConfig,
    /// Whether the arena runs the plain profile: no hardened knob set,
    /// split freelist.
    plain: bool,
    /// Per-class blocks deliberately leaked after a corruption detection:
    /// a chain walk that hit an implausible link sinks the unreachable
    /// remainder, and verify-on-alloc refuses a block whose poison was
    /// overwritten. The conservation check counts these as a known loss —
    /// the alternative (re-threading a block whose contents lied once)
    /// would hand the corruption a second chance.
    sunk: Box<[AtomicUsize]>,
    /// Blocks currently parked in per-CPU quarantine rings, arena-wide.
    /// A racy gauge for snapshots; per-class exact reads go through
    /// [`ArenaInner::quarantined_blocks`] under quiescence.
    quarantined: AtomicUsize,
    /// Corruption detections reported, all sites.
    corruption_reports: EventCounter,
    /// Poison-based detections (double free by poison, use-after-free).
    poison_hits: EventCounter,
    /// Encoded-link detections (implausible decodes, sunk chains).
    encode_faults: EventCounter,
    /// Maintenance-core state (mailbox + key layout) when the arena was
    /// configured with [`crate::config::MaintConfig::on`]; `None` runs
    /// every [`MaintWork`] item inline. Read on the slow path only by
    /// [`ArenaInner::schedule`].
    maint: Option<MaintState>,
}

impl Drop for ArenaInner {
    fn drop(&mut self) {
        // Free blocks still cached in chains point into the reservation,
        // which is about to be released wholesale; abandon them so the
        // chain leak-detector does not fire.
        for (_, slot) in self.slots.iter() {
            for class in slot.classes.iter() {
                // SAFETY: `drop` has `&mut self`: no CPU handle can exist
                // (they hold an `Arc` keeping the arena alive).
                let cache = unsafe { &mut *class.cache.get() };
                cache.flush().forget();
            }
        }
        for pool in self.globals.iter() {
            pool.drain_all().forget();
        }
    }
}

/// The allocator arena: create one per "kernel".
///
/// Cloning the handle is cheap (`Arc`); the arena is destroyed when the
/// last handle **and** the last [`CpuHandle`] are dropped.
#[derive(Clone)]
pub struct KmemArena {
    inner: Arc<ArenaInner>,
}

impl KmemArena {
    /// Builds an arena from `config`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see
    /// [`KmemConfig::validate`]) — configurations are developer input.
    pub fn new(config: KmemConfig) -> Result<KmemArena, AllocError> {
        config.validate();
        let faults = config.faults.clone();
        let topology = config.topology();
        // The physical pool is sharded exactly like the global layer, so
        // the arena's node count overrides whatever the space config says.
        let space = Arc::new(KernelSpace::new_with_faults(
            config.space.nodes(config.nodes),
            faults.clone(),
        ));
        let vm = VmblkLayer::new(Arc::clone(&space), config.release_empty_vmblks);
        let max_large = vm.max_span_pages() * PAGE_SIZE;
        let nnodes = topology.nnodes();
        let id = NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed);
        let hardened = config.hardened;
        // Per-arena secret: the configured seed mixed with the arena id,
        // so same-seed arenas still encode differently. The key's bounds
        // are the whole reservation — every freelist link must decode to
        // null or an in-reservation, block-aligned address.
        let mixed = mix64(hardened.seed ^ (id.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let key = if hardened.encode {
            let base = space.base_addr();
            LinkKey::hardened(
                mixed as usize,
                base,
                base + space.nvmblks() * space.vmblk_size(),
            )
        } else {
            LinkKey::PLAIN
        };
        let shuffle_seed = hardened
            .randomize
            .then(|| mix64(mixed ^ 0xc0de_5eed_0bad_cafe));
        let mut globals = Vec::with_capacity(config.classes.len() * nnodes);
        for c in &config.classes {
            for _ in 0..nnodes {
                globals.push(CachePadded::new(GlobalPool::sized(
                    c.size,
                    c.target,
                    c.gbltarget,
                    faults.clone(),
                    key,
                )));
            }
        }
        let globals = globals.into_boxed_slice();
        let remote_spills = (0..nnodes).map(|_| EventCounter::new()).collect();
        let pages = config
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                CachePadded::new(PageLayer::new_hardened(
                    i,
                    c.size,
                    config.radix_pages,
                    faults.clone(),
                    key,
                    shuffle_seed,
                    hardened.poison,
                ))
            })
            .collect();
        let slots = PerCpu::new(config.ncpus, |_| CpuSlot {
            classes: config
                .classes
                .iter()
                .map(|c| ClassSlot {
                    cache: UnsafeCell::new(CpuCache::new_hardened(
                        c.target,
                        config.split_freelist,
                        key,
                        hardened.quarantine,
                    )),
                    stats: CacheStats::default(),
                })
                .collect(),
            large_allocs: LocalCounter::new(),
            large_frees: LocalCounter::new(),
            local_refills: LocalCounter::new(),
            stolen_refills: LocalCounter::new(),
            drain: AtomicBool::new(false),
        });
        let sunk = (0..config.classes.len())
            .map(|_| AtomicUsize::new(0))
            .collect();
        let registry = CpuRegistry::new(config.ncpus);
        let maint = config
            .maint
            .enabled
            .then(|| MaintState::new(MaintKeys::new(config.classes.len(), nnodes, config.ncpus)));
        let classes = SizeClasses::new(config.classes);
        Ok(KmemArena {
            inner: Arc::new(ArenaInner {
                id,
                classes,
                space,
                vm,
                topology,
                globals,
                remote_spills,
                pages,
                slots,
                registry,
                max_large,
                faults,
                pressure: PressureLadder::new(config.pressure),
                hardened,
                plain: !hardened.any() && config.split_freelist,
                sunk,
                quarantined: AtomicUsize::new(0),
                corruption_reports: EventCounter::new(),
                poison_hits: EventCounter::new(),
                encode_faults: EventCounter::new(),
                maint,
            }),
        })
    }

    /// Number of virtual CPUs.
    pub fn ncpus(&self) -> usize {
        self.inner.registry.ncpus()
    }

    /// Number of size classes (verification harnesses size their
    /// per-class tables with this; see [`crate::verify`]).
    pub fn nclasses(&self) -> usize {
        self.inner.classes.len()
    }

    /// The CPU/node topology the arena was built with.
    pub fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    /// Number of NUMA nodes (global-pool and physical-pool shards).
    pub fn nnodes(&self) -> usize {
        self.inner.nnodes()
    }

    /// Registers the calling context as the lowest-numbered free CPU.
    pub fn register_cpu(&self) -> Result<CpuHandle, ClaimError> {
        let claim = self.inner.registry.claim_any()?;
        Ok(self.handle(claim))
    }

    /// Registers the calling context as a specific CPU.
    pub fn register_cpu_on(&self, cpu: CpuId) -> Result<CpuHandle, ClaimError> {
        let claim = self.inner.registry.claim(cpu)?;
        Ok(self.handle(claim))
    }

    fn handle(&self, claim: CpuClaim) -> CpuHandle {
        let cpu = claim.cpu();
        let slot = self.inner.slots.get(cpu);
        CpuHandle {
            cpu,
            node: self.inner.topology.node_of(cpu),
            slot: NonNull::from(slot),
            plain_id: if self.inner.plain { self.inner.id } else { 0 },
            classes: NonNull::from(&*slot.classes),
            claim,
            inner: Arc::clone(&self.inner),
            _not_sync: PhantomData,
        }
    }

    /// The paper's `kmem_alloc_get_cookie`: resolves `size` to an opaque
    /// cookie for the fast-path interface. Returns `None` for sizes that
    /// no class serves (zero, or larger than the largest class).
    pub fn cookie_for(&self, size: usize) -> Option<Cookie> {
        let class = self.inner.classes.class_for(size)?;
        Some(Cookie {
            class: class as u32,
            size: self.inner.classes.class(class).size as u32,
            arena_id: self.inner.id,
        })
    }

    /// Largest request (in bytes) this arena can serve.
    pub fn max_alloc_size(&self) -> usize {
        self.inner.max_large
    }

    /// The kernel space (physical pool accounting, dope vector) backing
    /// this arena.
    pub fn space(&self) -> &KernelSpace {
        &self.inner.space
    }

    /// Pushes every block held by the *global* pools down through the
    /// coalescing layers, releasing any pages (and vmblks) that drain
    /// completely.
    ///
    /// Together with [`CpuHandle::flush`] on each registered CPU this
    /// returns all idle memory to the system — the "database
    /// reorganization at night" half of the paper's cyclic workload, where
    /// memory cached for small blocks must become available to user
    /// processes.
    pub fn reclaim(&self) {
        self.inner.reclaim_all();
    }

    /// The failpoint handle this arena (and its vm substrate) consults;
    /// arm it through [`Faults::plan`] to force failures at any layer
    /// boundary. Dormant unless the arena was configured with
    /// [`Faults::with_plan`].
    pub fn faults(&self) -> &Faults {
        &self.inner.faults
    }

    /// Current memory-pressure ladder level: 0 (calm) through 3 (a full
    /// reclaim ran and the pool has not yet recovered past the exit
    /// watermark).
    pub fn pressure_level(&self) -> u8 {
        self.inner.pressure.level()
    }

    /// Number of CPUs with an unserviced drain request. After every
    /// registered CPU runs an operation or [`CpuHandle::poll`], this must
    /// be zero — a flag that stays set would mean the drain protocol
    /// wedged (the fault-injection torture asserts exactly this).
    pub fn pending_drains(&self) -> usize {
        let mut pending = 0;
        for (_, slot) in self.inner.slots.iter() {
            if slot.drain.load(Ordering::Relaxed) {
                pending += 1;
            }
        }
        pending
    }

    /// Full counter sweep: every (CPU, class) cache, every global pool and
    /// page layer, plus arena-wide gauges. Lock-free and zero-cost to the
    /// running CPUs; see [`crate::snapshot`] for the consistency model and
    /// [`KmemSnapshot::delta`] for interval views.
    pub fn snapshot(&self) -> KmemSnapshot {
        let inner = &self.inner;
        let classes = (0..inner.classes.len())
            .map(|idx| {
                let cfg = inner.classes.class(idx);
                ClassSnapshot {
                    size: cfg.size,
                    target: cfg.target,
                    gbltarget: cfg.gbltarget,
                    global_bound: inner
                        .shards(idx)
                        .iter()
                        .map(|pool| pool.bound())
                        .max()
                        .unwrap_or(0),
                    per_cpu: inner
                        .slots
                        .collect(|_, slot| CacheCounts::read(&slot.classes[idx].stats)),
                    global: GlobalCounts::read_merged(
                        inner.shards(idx).iter().map(|pool| pool.stats()),
                    ),
                    page: PageCounts::read(inner.pages[idx].stats()),
                }
            })
            .collect();
        let nodes = (0..inner.nnodes())
            .map(|n| {
                let node = NodeId::new(n);
                let (mut local_refills, mut stolen_refills) = (0, 0);
                for cpu in inner.topology.cpus_of(node) {
                    let slot = inner.slots.get(CpuId::new(cpu));
                    local_refills += slot.local_refills.get();
                    stolen_refills += slot.stolen_refills.get();
                }
                NodeCounts {
                    shard_blocks: (0..inner.classes.len())
                        .map(|class| inner.shard(class, node).len())
                        .sum(),
                    local_refills,
                    stolen_refills,
                    remote_spills: inner.remote_spills[n].get(),
                }
            })
            .collect();
        let (fault_hits, fault_fired) = inner.faults.totals();
        let (mut large_allocs, mut large_frees) = (0, 0);
        for (_, slot) in inner.slots.iter() {
            large_allocs += slot.large_allocs.get();
            large_frees += slot.large_frees.get();
        }
        KmemSnapshot {
            classes,
            nodes,
            large_allocs,
            large_frees,
            vmblk_cache_hits: 0,
            vmblk_cache_puts: 0,
            vmblks_live: inner.vm.nvmblks(),
            phys_in_use: inner.space.phys().in_use(),
            phys_capacity: inner.space.phys().capacity(),
            pressure_level: inner.pressure.level(),
            pressure_escalations: inner.pressure.escalations(),
            pressure_deescalations: inner.pressure.deescalations(),
            pressure_reapplied: inner.pressure.reapplied(),
            fault_hits,
            fault_fired,
            corruption_reports: inner.corruption_reports.get(),
            poison_hits: inner.poison_hits.get(),
            encode_faults: inner.encode_faults.get(),
            quarantine_len: inner.quarantined.load(Ordering::Relaxed),
            maint: inner.maint_counts(),
        }
    }

    /// Whether this arena was built with the maintenance core enabled
    /// ([`crate::config::MaintConfig::on`]).
    pub fn maint_enabled(&self) -> bool {
        self.inner.maint.is_some()
    }

    /// Work items currently queued in the maintenance mailbox (0 when the
    /// core is disabled). A racy gauge: posts race the drainer.
    pub fn maint_backlog(&self) -> usize {
        self.inner
            .maint
            .as_ref()
            .map_or(0, |m| m.mailbox.backlog() as usize)
    }

    /// Drains the maintenance mailbox once, running every queued work item
    /// inline on the calling thread, and returns the number of items run.
    /// Returns 0 when the core is disabled, when the mailbox is empty, or
    /// when another thread is already draining (single-consumer).
    ///
    /// This is the explicit pump for hermetic tests and single-threaded
    /// harnesses; production-shaped runs use
    /// [`KmemArena::start_maint_thread`] instead. Any thread may pump —
    /// the work only touches the locked global/page layers and the
    /// per-CPU drain flags, never a CPU's caches.
    pub fn maint_poll(&self) -> usize {
        let inner = &*self.inner;
        let Some(maint) = &inner.maint else {
            return 0;
        };
        maint
            .mailbox
            .try_drain(|key, _payload| inner.run(maint.keys.work(key)))
    }

    /// Spawns the maintenance core: a thread that pumps
    /// [`KmemArena::maint_poll`] until the returned guard is dropped
    /// (which stops the thread, runs one final drain, and joins it).
    /// Returns `None` when the arena was built without the core.
    pub fn start_maint_thread(&self) -> Option<MaintPump> {
        self.inner.maint.as_ref()?;
        let stop = Arc::new(AtomicBool::new(false));
        let arena = self.clone();
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("kmem-maint".into())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    if arena.maint_poll() == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                }
                // Final sweep: nothing posted before `stop` is stranded.
                arena.maint_poll();
            })
            .expect("spawn kmem-maint thread");
        Some(MaintPump {
            stop,
            handle: Some(handle),
        })
    }

    /// Snapshot of per-layer statistics (the paper's miss-rate inputs),
    /// rolled up over CPUs. A convenience wrapper over
    /// [`KmemArena::snapshot`].
    pub fn stats(&self) -> KmemStats {
        self.snapshot().aggregate()
    }

    pub(crate) fn inner(&self) -> &ArenaInner {
        &self.inner
    }
}

/// Guard for the maintenance-core thread
/// ([`KmemArena::start_maint_thread`]): dropping it stops the thread,
/// drains any remaining mailbox items, and joins.
pub struct MaintPump {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MaintPump {
    /// Stops and joins the maintenance thread (same as dropping the
    /// guard, but explicit at call sites that want the join visible).
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for MaintPump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl ArenaInner {
    /// Where slow-path work runs: posted to the maintenance core when the
    /// arena has one, run inline on the calling CPU otherwise.
    fn schedule(&self, work: MaintWork) {
        match &self.maint {
            Some(maint) => maint.post(work),
            None => self.run(work),
        }
    }

    /// Runs one work item on the calling thread, with the same body
    /// wherever [`ArenaInner::schedule`] placed it. Never posts, so a
    /// pump's drain terminates.
    fn run(&self, work: MaintWork) {
        let (class, node, spill) = match work {
            MaintWork::Settle { class, node } => {
                (class, node, self.shard(class, NodeId::new(node)).settle())
            }
            MaintWork::Spill { class, node } => {
                let pool = self.shard(class, NodeId::new(node));
                (class, node, pool.spill_to(pool.gbltarget()))
            }
            MaintWork::DrainCpu { cpu } => {
                let slot = self.slots.get(CpuId::new(cpu));
                slot.drain.store(true, Ordering::Relaxed);
                return;
            }
        };
        // The one spill sink: every block a shard sheds is counted against
        // its node on the way to the (shared) coalesce-to-page layer.
        if let Some(spill) = spill {
            self.remote_spills[node].add(spill.len() as u64);
            // SAFETY: spilled blocks are free blocks of `class`.
            unsafe { self.pages[class].free_chain(&self.vm, spill) };
        }
    }

    /// Maintenance-core counters for snapshots: the mailbox flow.
    pub(crate) fn maint_counts(&self) -> MaintCounts {
        let (posted, deduped, drained, backlog) = match &self.maint {
            Some(m) => (
                m.mailbox.posted(),
                m.mailbox.deduped(),
                m.mailbox.drained(),
                m.mailbox.backlog() as usize,
            ),
            None => (0, 0, 0, 0),
        };
        MaintCounts {
            enabled: self.maint.is_some(),
            posted,
            deduped,
            drained,
            backlog,
        }
    }

    pub(crate) fn classes(&self) -> &SizeClasses {
        &self.classes
    }

    pub(crate) fn nnodes(&self) -> usize {
        self.topology.nnodes()
    }

    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The global-pool shard for (`class`, `node`).
    #[inline]
    pub(crate) fn shard(&self, class: usize, node: NodeId) -> &GlobalPool {
        &self.globals[class * self.nnodes() + node.index()]
    }

    /// All of `class`'s shards, node-minor.
    #[inline]
    pub(crate) fn shards(&self, class: usize) -> &[CachePadded<GlobalPool>] {
        let nn = self.nnodes();
        &self.globals[class * nn..(class + 1) * nn]
    }

    /// Total blocks in the global layer for `class`, summed over shards.
    pub(crate) fn global_blocks(&self, class: usize) -> usize {
        self.shards(class).iter().map(|pool| pool.len()).sum()
    }

    /// Drains every global shard through the coalescing layers (rung 3 of
    /// the pressure ladder, and [`KmemArena::reclaim`]).
    fn reclaim_all(&self) {
        for class in 0..self.classes.len() {
            for pool in self.shards(class) {
                let chain = pool.drain_all();
                if !chain.is_empty() {
                    // SAFETY: drained blocks are free blocks of `class`.
                    unsafe {
                        self.pages[class].free_chain(&self.vm, chain);
                    }
                }
            }
            // Settle fault-deferred (or freshly drained-to-full) pages so
            // idle memory actually leaves the page layer.
            self.pages[class].flush_full_pages(&self.vm);
        }
    }

    pub(crate) fn vm(&self) -> &VmblkLayer {
        &self.vm
    }

    pub(crate) fn globals(&self) -> &[CachePadded<GlobalPool>] {
        &self.globals
    }

    pub(crate) fn pages(&self) -> &[CachePadded<PageLayer>] {
        &self.pages
    }

    /// Sums cached blocks per class across CPUs (verification; must be
    /// called while no CPU is mutating its caches).
    pub(crate) fn cached_blocks(&self, class: usize) -> usize {
        let mut total = 0;
        for (_, slot) in self.slots.iter() {
            // SAFETY: quiescence per the function contract.
            total += unsafe { &*slot.classes[class].cache.get() }.len();
        }
        total
    }

    /// Reports a detected heap corruption: bumps the counters, then either
    /// panics with the report (`hardened.panic_on_corruption`) or returns
    /// the typed error for the caller to surface or drop.
    #[cold]
    pub(crate) fn report_corruption(&self, site: CorruptionSite, addr: usize) -> AllocError {
        self.corruption_reports.inc();
        match site {
            CorruptionSite::PoisonOverwrite | CorruptionSite::DoubleFreePoison => {
                self.poison_hits.inc();
            }
            CorruptionSite::FreelistLink => self.encode_faults.inc(),
            _ => {}
        }
        let err = AllocError::Corruption { site, addr };
        if self.hardened.panic_on_corruption {
            panic!("{err}");
        }
        err
    }

    /// Blocks of `class` deliberately leaked after corruption detections:
    /// the arena-level sinks plus every global shard's.
    pub(crate) fn sunk_blocks(&self, class: usize) -> usize {
        self.sunk[class].load(Ordering::Relaxed)
            + self
                .shards(class)
                .iter()
                .map(|pool| pool.sunk())
                .sum::<usize>()
    }

    /// Blocks of `class` parked in quarantine rings, summed across CPUs
    /// (verification; quiescence as for [`ArenaInner::cached_blocks`]).
    pub(crate) fn quarantined_blocks(&self, class: usize) -> usize {
        let mut total = 0;
        for (_, slot) in self.slots.iter() {
            // SAFETY: quiescence per the function contract.
            total += unsafe { &*slot.classes[class].cache.get() }.quarantine_len();
        }
        total
    }

    /// Checks every CPU's split-freelist bounds for `class` (verification;
    /// quiescence as for [`ArenaInner::cached_blocks`]).
    ///
    /// # Panics
    ///
    /// Panics if any half of any cache exceeds its `target`.
    pub(crate) fn check_cache_bounds(&self, class: usize) {
        let target = self.classes.class(class).target;
        for (cpu, slot) in self.slots.iter() {
            // SAFETY: quiescence per the function contract.
            let cache = unsafe { &*slot.classes[class].cache.get() };
            let (main, aux) = cache.shape();
            assert!(
                main <= 2 * target && aux <= target,
                "{cpu} class {class}: cache shape ({main}, {aux}) exceeds target {target}"
            );
        }
    }
}

/// The per-CPU allocation interface.
///
/// One live handle exists per virtual CPU; it is `Send` (the CPU identity
/// may migrate) but deliberately **not** `Sync` — two threads acting as the
/// same CPU would break the layer-1 exclusion the paper relies on.
pub struct CpuHandle {
    inner: Arc<ArenaInner>,
    #[expect(dead_code)] // Held for its `Drop`: releases the CPU claim.
    claim: CpuClaim,
    cpu: CpuId,
    /// This CPU's home node under the arena topology, cached so the
    /// refill and spill paths never recompute the mapping.
    node: NodeId,
    /// This CPU's slot in `inner.slots` and the arena's profile, resolved
    /// at registration. The profile is kept as the arena id a cookie must
    /// carry to run the inlined hit: the arena's own where it is plain,
    /// otherwise 0, which no arena has — so one compare answers for the
    /// profile and for the cookie.
    slot: NonNull<CpuSlot>,
    plain_id: u64,
    /// The slot's (CPU, class) records, base and count, resolved at
    /// registration like `slot`: a class index is then one bound check
    /// against the handle and one shift off it.
    classes: NonNull<[ClassSlot]>,
    /// `Cell` suppresses `Sync` while leaving the handle `Send`.
    _not_sync: PhantomData<core::cell::Cell<()>>,
}

// SAFETY: `slot` points into the boxed slot array of `inner`, and
// `classes` into that slot's boxed records, which the handle's own `Arc`
// keeps alive and never moves; `CpuSlot` is `Sync`: the pointers travel
// like the `&CpuSlot` they stand for. The other fields are `Send`.
unsafe impl Send for CpuHandle {}

impl CpuHandle {
    /// This handle's CPU.
    #[inline]
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// This handle's home NUMA node.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The arena this handle allocates from.
    pub fn arena(&self) -> KmemArena {
        KmemArena {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Whether the arena runs the plain profile: picks, once per call, the
    /// instance of the class paths to run.
    #[inline(always)]
    fn plain(&self) -> bool {
        self.plain_id != 0
    }

    /// This CPU's slot.
    #[inline(always)]
    fn slot(&self) -> &CpuSlot {
        // SAFETY: the slot lives in `self.inner`, which outlives `self`.
        unsafe { self.slot.as_ref() }
    }

    /// Honours a pending drain request, if any.
    #[inline]
    fn check_drain(&self) {
        let slot = self.slot();
        if slot.drain.load(Ordering::Relaxed) {
            slot.drain.store(false, Ordering::Relaxed);
            self.flush_with_cause(FlushCause::Drain);
        }
    }

    /// The standard System V interface: allocates at least `size` bytes.
    ///
    /// The returned block is aligned to the class block size (a power of
    /// two ≥ 16) or to the page size for multi-page requests, and its
    /// contents are uninitialized.
    #[inline]
    pub fn alloc(&self, size: usize) -> Result<NonNull<u8>, AllocError> {
        self.check_drain();
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        match self.inner.classes.class_for(size) {
            Some(class) => self.alloc_class_as(class, size),
            None => self.alloc_large(size),
        }
    }

    /// Like [`CpuHandle::alloc`], with the block zeroed.
    ///
    /// (The classic `kmem_zalloc`.) Zeroing covers the whole class block,
    /// so the caller may rely on `class_size(size)` zeroed bytes.
    pub fn alloc_zeroed(&self, size: usize) -> Result<NonNull<u8>, AllocError> {
        let p = self.alloc(size)?;
        let span = match self.inner.classes.class_for(size) {
            Some(class) => self.inner.classes.class(class).size,
            None => size.div_ceil(PAGE_SIZE) * PAGE_SIZE,
        };
        // SAFETY: the allocation spans the full class block (or whole
        // pages for large requests).
        unsafe { core::ptr::write_bytes(p.as_ptr(), 0, span) };
        Ok(p)
    }

    /// `kmem_alloc(..., KM_SLEEP)`: retries under memory pressure instead
    /// of failing, backing off between attempts so other CPUs can run and
    /// honour the drain requests the pressure ladder posts.
    ///
    /// Each failed attempt escalates the ladder (which posts drains once
    /// per climb, not once per attempt) and is counted in the class's
    /// `sleep_retries`; the loop then spins a capped, exponentially
    /// growing number of iterations and yields — spin/yield only, no
    /// wall-clock sleeps, so tests stay fast and repeatable.
    ///
    /// Returns `Err` only for unservable requests (zero size, too large)
    /// or after `max_attempts` exhausted retries — a deadlock guard the
    /// kernel version does not have, because a kernel can block forever.
    pub fn alloc_sleep(&self, size: usize, max_attempts: usize) -> Result<NonNull<u8>, AllocError> {
        const SPIN_CAP: u32 = 1 << 10;
        let class = self.inner.classes.class_for(size);
        let mut last = AllocError::OutOfMemory { requested: size };
        let mut spins: u32 = 1;
        for _ in 0..max_attempts.max(1) {
            match self.alloc(size) {
                Ok(p) => return Ok(p),
                Err(
                    e @ (AllocError::ZeroSize
                    | AllocError::TooLarge { .. }
                    | AllocError::Corruption { .. }),
                ) => return Err(e),
                Err(e) => {
                    last = e;
                    if let Some(class) = class {
                        // After the alloc's own `alloc_fail` bump, so a
                        // live reader sees `sleep_retries <= alloc_fail`.
                        self.classes()[class].stats.sleep_retries.bump();
                    }
                    for _ in 0..spins {
                        core::hint::spin_loop();
                    }
                    std::thread::yield_now();
                    spins = (spins * 2).min(SPIN_CAP);
                }
            }
        }
        Err(last)
    }

    /// The paper's `KMEM_ALLOC_COOKIE`: the lean fast path for sizes
    /// resolved ahead of time. Like the macro, the hit expands at the call
    /// site — the arena id (which answers for the profile too), the drain
    /// flag, the class bound, a pop from `main`, the counter; everything
    /// else (and every 64th call, whose hit samples occupancy) is one call
    /// to the whole path, decided before anything is counted or moved.
    #[inline(always)]
    pub fn alloc_cookie(&self, cookie: Cookie) -> Result<NonNull<u8>, AllocError> {
        if let Some(cs) = self.cookie_hit_slot(cookie) {
            let nth = cs.stats.alloc.next();
            if nth & 63 != 0 {
                // SAFETY: borrow scoped to the pop; the handle is plain.
                if let Some(block) = unsafe { (*cs.cache.get()).pop_main::<true>() } {
                    cs.stats.alloc.publish(nth);
                    // SAFETY: `block` came off a freelist of this arena,
                    // so it is also interior to the reservation.
                    return Ok(unsafe {
                        block::check_and_clear_poison_on_alloc(block);
                        NonNull::new_unchecked(block)
                    });
                }
            }
        }
        self.alloc_cookie_slow(cookie)
    }

    /// The record a cookie call may run its inlined hit on; `None` sends
    /// it to the whole path, which sorts out why.
    #[inline(always)]
    fn cookie_hit_slot(&self, cookie: Cookie) -> Option<&ClassSlot> {
        if cookie.arena_id != self.plain_id || self.slot().drain.load(Ordering::Relaxed) {
            return None;
        }
        self.classes().get(cookie.class as usize)
    }

    /// This CPU's (CPU, class) records.
    #[inline(always)]
    fn classes(&self) -> &[ClassSlot] {
        // SAFETY: the records live in `self.inner`, which outlives `self`.
        unsafe { self.classes.as_ref() }
    }

    /// [`CpuHandle::alloc_cookie`] in full.
    #[cold]
    #[inline(never)]
    fn alloc_cookie_slow(&self, cookie: Cookie) -> Result<NonNull<u8>, AllocError> {
        self.check_drain();
        self.check_cookie(cookie)?;
        self.alloc_class_as(cookie.class as usize, cookie.size as usize)
    }

    /// Validates a cookie's arena identity: a foreign cookie's class index
    /// would walk another arena's layout over this arena's caches, so it
    /// is a reported corruption in every profile (an assertion in debug
    /// builds). The inlined hits make the same compare, so they pay nothing.
    #[inline]
    fn check_cookie(&self, cookie: Cookie) -> Result<(), AllocError> {
        if cookie.arena_id != self.inner.id {
            debug_assert!(false, "cookie used on a different arena");
            return Err(self
                .inner
                .report_corruption(CorruptionSite::CookieArena, cookie.arena_id as usize));
        }
        Ok(())
    }

    /// [`CpuHandle::alloc_class`] under this handle's profile.
    #[inline]
    fn alloc_class_as(&self, class: usize, size: usize) -> Result<NonNull<u8>, AllocError> {
        if self.plain() {
            self.alloc_class::<true>(class, size)
        } else {
            self.alloc_class::<false>(class, size)
        }
    }

    /// The class-sized allocation every interface shares, one instance per
    /// profile. Out of line: five entry points reach it, and only the
    /// cookie hit is worth a copy per call site.
    #[inline(never)]
    fn alloc_class<const PLAIN: bool>(
        &self,
        class: usize,
        size: usize,
    ) -> Result<NonNull<u8>, AllocError> {
        let inner = &*self.inner;
        let cs = &self.classes()[class];
        let stats = &cs.stats;
        let nth = stats.alloc.bump();
        // SAFETY: borrow scoped to this operation.
        let cache = unsafe { &mut *cs.cache.get() };
        // SAFETY: `PLAIN` is the arena's profile.
        let block = match unsafe { cache.pop_main::<PLAIN>() }.or_else(|| cache.alloc()) {
            Some(b) => {
                // Occupancy shape sampling, 1 in 64 on the hit path (the
                // cold paths below sample unconditionally).
                if nth & 63 == 0 {
                    stats.sample_occupancy(cache);
                }
                b
            }
            None => {
                if !PLAIN {
                    if let Some(fault) = cache.take_fault() {
                        // A chain walk hit an implausible encoded link:
                        // the unreachable remainder was sunk by the chain;
                        // account the loss and surface the detection.
                        inner.sunk[class].fetch_add(fault.lost, Ordering::Relaxed);
                        return Err(
                            inner.report_corruption(CorruptionSite::FreelistLink, fault.addr)
                        );
                    }
                }
                stats.alloc_miss.bump();
                self.alloc_class_slow(class, size)?
            }
        };
        if !PLAIN && inner.hardened.poison {
            // SAFETY: `block` came off a freelist of this arena and spans
            // the full class size.
            if let Err(word) =
                unsafe { block::verify_free_poison(block, inner.classes.class(class).size) }
            {
                // Someone wrote through a freed block. The block's words
                // can no longer be trusted as data or links: sink it.
                inner.sunk[class].fetch_add(1, Ordering::Relaxed);
                return Err(inner.report_corruption(CorruptionSite::PoisonOverwrite, word));
            }
            // SAFETY: as above.
            unsafe { block::clear_poison_word(block) };
        } else {
            // SAFETY: `block` came off a freelist of this arena.
            unsafe { block::check_and_clear_poison_on_alloc(block) };
        }
        // SAFETY: freelist blocks are interior to the reservation.
        Ok(unsafe { NonNull::new_unchecked(block) })
    }

    /// One pass down the refill ladder: this node's global shard first,
    /// then a steal from the most-loaded remote shard, then the
    /// coalesce-to-page layer — each behind its failpoint, so injected
    /// faults exercise every fall-through combination.
    fn take_chain(&self, class: usize, target: usize) -> Option<Chain> {
        let inner = &*self.inner;
        let slot = self.slot();
        let local = inner.shard(class, self.node);
        // The shard consults `faults::GLOBAL_GET` itself, once per get. An
        // empty shard grows its bound at the miss only where no steal can
        // follow; with remote shards the growth waits for the page layer.
        let stealing = inner.nnodes() > 1;
        let miss = match local.get(!stealing) {
            Ok(chain) => {
                slot.local_refills.bump();
                return Some(chain);
            }
            Err(miss) => miss,
        };
        // Work-stealing overflow: pick the remote shard with the most
        // blocks (a racy read — the steal takes the victim's lock itself, so
        // a stale choice costs at worst one extra miss, never correctness)
        // and take one whole target-sized chain from it.
        if stealing && !inner.faults.hit(faults::GLOBAL_STEAL) {
            let shards = inner.shards(class);
            let victim = shards
                .iter()
                .enumerate()
                .filter(|&(n, _)| n != self.node.index())
                .map(|(n, pool)| (pool.len(), n))
                .max()
                .filter(|&(len, _)| len > 0);
            if let Some((_, n)) = victim {
                if let Some(chain) = shards[n].steal_chain() {
                    slot.stolen_refills.bump();
                    return Some(chain);
                }
            }
        }
        if stealing && miss == Miss::Empty {
            local.grow_after_miss();
        }
        // The page layer consults `faults::PAGE_GET` on both its listed-page
        // path and its fresh-page path.
        inner.pages[class]
            .alloc_chain_on(&inner.vm, target, self.node)
            .ok()
    }

    /// Escalates the pressure ladder after a failed backend allocation and
    /// runs the actions of every newly entered rung — or re-applies the
    /// deepest rung when the ladder was already at this depth, so repeated
    /// failures do not re-flush or re-post drain requests.
    #[cold]
    fn escalate_pressure(&self) {
        let phys = self.inner.space.phys();
        let (prev, next) = self
            .inner
            .pressure
            .escalate(phys.available(), phys.capacity());
        let from = if next > prev { prev + 1 } else { next };
        for rung in from..=next {
            match rung {
                1 => {
                    // Rung 1: flush our own caches and ask every other CPU
                    // to drain — once per climb, not per attempt. Through
                    // the mailbox (one dedup key per CPU) a climb storm
                    // across CPUs collapses to one item per target.
                    self.flush_with_cause(FlushCause::LowMemory);
                    for (cpu, _) in self.inner.slots.iter() {
                        if cpu != self.cpu {
                            self.inner
                                .schedule(MaintWork::DrainCpu { cpu: cpu.index() });
                        }
                    }
                }
                2 => {
                    // Rung 2: trim every global shard to `gbltarget` so
                    // the page layer can coalesce and release frames.
                    for class in 0..self.inner.classes.len() {
                        for node in 0..self.inner.nnodes() {
                            self.inner.schedule(MaintWork::Spill { class, node });
                        }
                    }
                }
                _ => {
                    // Rung 3: full reclaim — drain the global pools
                    // entirely through the coalescing layers.
                    self.inner.reclaim_all();
                }
            }
        }
    }

    /// Steps the ladder down (with hysteresis) after a successful cold
    /// operation. A single relaxed load when the ladder is calm, so the
    /// cache-hit fast paths never reach it and the cold paths barely
    /// notice it.
    #[inline]
    fn relax_pressure(&self) {
        if self.inner.pressure.level() == 0 {
            return;
        }
        let phys = self.inner.space.phys();
        self.inner.pressure.relax(phys.available(), phys.capacity());
    }

    /// Refills the cache from the global layer (or below) and returns the
    /// first block.
    #[cold]
    fn alloc_class_slow(&self, class: usize, size: usize) -> Result<*mut u8, AllocError> {
        let cs = &self.classes()[class];
        let stats = &cs.stats;
        let target = self.inner.shard(class, self.node).target();
        let chain = match self.take_chain(class, target) {
            Some(chain) => chain,
            None => {
                // Low memory: escalate the pressure ladder (drains, global
                // spill, full reclaim) and retry the layers once.
                self.escalate_pressure();
                match self.take_chain(class, target) {
                    Some(chain) => chain,
                    None => {
                        stats.alloc_fail.bump();
                        return Err(AllocError::OutOfMemory { requested: size });
                    }
                }
            }
        };
        debug_assert!(!chain.is_empty());
        if self.inner.faults.hit(faults::PERCPU_REFILL) {
            // Injected refill failure. The chain must not be dropped:
            // route it back through the global layer so every block stays
            // accounted for, and surface the typed error. No `refill` is
            // counted, so `refill + alloc_fail == alloc_miss` still holds
            // at quiescence.
            self.return_chain(class, chain);
            stats.alloc_fail.bump();
            return Err(AllocError::OutOfMemory { requested: size });
        }
        // Write order matters for live snapshots: `refill` (the bound)
        // before `refill_short` (the detail it bounds).
        stats.refill.bump();
        if chain.len() < target {
            stats.refill_short.bump();
        }
        stats.refill_blocks.add(chain.len() as u64);
        // SAFETY: borrow scoped to this operation.
        let cache = unsafe { &mut *cs.cache.get() };
        let block = cache.refill(chain);
        stats.sample_occupancy(cache);
        self.relax_pressure();
        Ok(block)
    }

    /// Allocates a multi-page block directly from the vmblk layer
    /// ("requests for blocks of memory larger than one page bypass layers
    /// 1 through 3").
    #[cold]
    fn alloc_large(&self, size: usize) -> Result<NonNull<u8>, AllocError> {
        if size > self.inner.max_large {
            return Err(AllocError::TooLarge {
                requested: size,
                max: self.inner.max_large,
            });
        }
        let slot = self.slot();
        match self.inner.vm.alloc_large_on(size, self.node) {
            Ok(p) => {
                slot.large_allocs.bump();
                self.relax_pressure();
                Ok(p)
            }
            Err(_) => {
                self.escalate_pressure();
                self.inner
                    .vm
                    .alloc_large_on(size, self.node)
                    .inspect(|_| {
                        slot.large_allocs.bump();
                    })
                    .map_err(|_| AllocError::OutOfMemory { requested: size })
            }
        }
    }

    /// The standard free: the block's size class is recovered from its
    /// page descriptor through the dope vector (paper Figure 6).
    ///
    /// # Safety
    ///
    /// `ptr` must have been returned by an allocation method of *this
    /// arena*, not yet freed, and no references into the block may outlive
    /// this call.
    #[inline]
    pub unsafe fn free(&self, ptr: NonNull<u8>) {
        // A hardened detection (double free, foreign poison) is counted
        // and the free dropped; callers that want the typed report use
        // `free_checked`.
        // SAFETY: forwarded caller contract.
        let _ = unsafe { self.free_checked(ptr) };
    }

    /// Like [`CpuHandle::free`], surfacing hardened corruption detections
    /// as [`AllocError::Corruption`] instead of count-and-drop. Always
    /// `Ok(())` in the default profile.
    ///
    /// # Safety
    ///
    /// As for [`CpuHandle::free`].
    #[inline]
    pub unsafe fn free_checked(&self, ptr: NonNull<u8>) -> Result<(), AllocError> {
        self.check_drain();
        // The one address resolution of this free: the large path hands
        // it down instead of looking `ptr` up again.
        let at = self
            .inner
            .vm
            .resolve(ptr.as_ptr() as usize)
            .expect("free of a pointer this arena does not manage");
        let pd = at.pd();
        match pd.kind() {
            PdKind::BlockPage => {
                let class = pd.class();
                // SAFETY: forwarded caller contract.
                unsafe { self.free_class_as(class, ptr.as_ptr()) }
            }
            PdKind::Large => {
                self.slot().large_frees.bump();
                // SAFETY: forwarded caller contract.
                unsafe { self.inner.vm.free_large_at(at) };
                Ok(())
            }
            other => panic!("free of a block in a page of kind {other:?}"),
        }
    }

    /// System V `kmem_free(addr, size)`: like [`CpuHandle::free`] but with
    /// the size supplied by the caller, skipping the descriptor lookup for
    /// class-sized blocks.
    ///
    /// # Safety
    ///
    /// As for [`CpuHandle::free`]; additionally `size` must be the size
    /// passed to the matching allocation call.
    #[inline]
    pub unsafe fn free_sized(&self, ptr: NonNull<u8>, size: usize) {
        self.check_drain();
        match self.inner.classes.class_for(size) {
            // SAFETY: forwarded caller contract.
            Some(class) => {
                let _ = unsafe { self.free_class_as(class, ptr.as_ptr()) };
            }
            None => {
                self.slot().large_frees.bump();
                // SAFETY: forwarded caller contract.
                unsafe { self.inner.vm.free_large(ptr) };
            }
        }
    }

    /// The paper's `KMEM_FREE_COOKIE`: frees with no size lookup at all.
    /// The hit — a push onto a `main` below `target` — expands at the call
    /// site like [`CpuHandle::alloc_cookie`]'s; the rest is one call.
    ///
    /// # Safety
    ///
    /// As for [`CpuHandle::free`]; additionally `cookie` must be the
    /// cookie used for the matching allocation.
    #[inline(always)]
    pub unsafe fn free_cookie(&self, ptr: NonNull<u8>, cookie: Cookie) {
        if let Some(cs) = self.cookie_hit_slot(cookie) {
            let nth = cs.stats.free.next();
            // SAFETY: borrow scoped to the push; the handle is plain and
            // the caller owns the allocated block, which is in no list. The
            // debug double-free check reads a word the push leaves alone.
            if nth & 63 != 0 && unsafe { (*cs.cache.get()).push_main::<true>(ptr.as_ptr()) } {
                cs.stats.free.publish(nth);
                // SAFETY: as above.
                unsafe {
                    block::check_not_double_free(ptr.as_ptr());
                    block::poison(ptr.as_ptr());
                }
                return;
            }
        }
        // SAFETY: forwarded caller contract.
        unsafe { self.free_cookie_slow(ptr, cookie) }
    }

    /// [`CpuHandle::free_cookie`] in full.
    ///
    /// # Safety
    ///
    /// As for [`CpuHandle::free_cookie`].
    #[cold]
    #[inline(never)]
    unsafe fn free_cookie_slow(&self, ptr: NonNull<u8>, cookie: Cookie) {
        self.check_drain();
        if self.check_cookie(cookie).is_err() {
            // Reported; freeing through a foreign cookie's class index
            // would corrupt a freelist, so the block is dropped instead.
            return;
        }
        // SAFETY: forwarded caller contract.
        let _ = unsafe { self.free_class_as(cookie.class as usize, ptr.as_ptr()) };
    }

    /// [`CpuHandle::free_class`] under this handle's profile.
    ///
    /// # Safety
    ///
    /// As for [`CpuHandle::free_class`].
    #[inline]
    unsafe fn free_class_as(&self, class: usize, block: *mut u8) -> Result<(), AllocError> {
        // SAFETY: forwarded caller contract.
        unsafe {
            if self.plain() {
                self.free_class::<true>(class, block)
            } else {
                self.free_class::<false>(class, block)
            }
        }
    }

    /// The class-sized free every interface shares: one instance per
    /// profile, out of line like [`CpuHandle::alloc_class`].
    ///
    /// # Safety
    ///
    /// `block` is an allocated block of `class` from this arena, unaliased.
    #[inline(never)]
    unsafe fn free_class<const PLAIN: bool>(
        &self,
        class: usize,
        block: *mut u8,
    ) -> Result<(), AllocError> {
        let inner = &*self.inner;
        let cs = &self.classes()[class];
        let stats = &cs.stats;
        let nth = stats.free.bump();
        if !PLAIN && inner.hardened.poison {
            // SAFETY: caller owns the (allocated) block.
            if unsafe { block::is_free_poisoned(block) } {
                // The block still carries its free poison: it was never
                // re-allocated since the last free, so this free is a
                // duplicate (or a forged pointer at a freed block). It is
                // already on a freelist — drop this free.
                return Err(
                    inner.report_corruption(CorruptionSite::DoubleFreePoison, block as usize)
                );
            }
            // SAFETY: caller owns the block, which spans the class size.
            unsafe { block::poison_free(block, inner.classes.class(class).size) };
        } else {
            // SAFETY: caller owns the (allocated) block.
            unsafe {
                // With a quarantine ring configured, ring hits are the
                // double-free defense and must surface as typed reports;
                // the debug assertion would fire first and mask them.
                if PLAIN || inner.hardened.quarantine == 0 {
                    block::check_not_double_free(block);
                }
                block::poison(block);
            }
        }
        // SAFETY: borrow scoped to this operation.
        let cache = unsafe { &mut *cs.cache.get() };
        let mut park = block;
        if !PLAIN && cache.has_quarantine() {
            match cache.quarantine_check_insert(block) {
                QuarantineVerdict::Hit => {
                    return Err(inner
                        .report_corruption(CorruptionSite::DoubleFreeQuarantine, block as usize));
                }
                QuarantineVerdict::Parked => {
                    inner.quarantined.fetch_add(1, Ordering::Relaxed);
                    if nth & 63 == 0 {
                        stats.sample_occupancy(cache);
                    }
                    return Ok(());
                }
                // The ring is full: the oldest resident leaves quarantine
                // and continues down the normal free path in this block's
                // stead.
                QuarantineVerdict::Evicted(old) => park = old,
            }
        }
        // SAFETY: `park` is free as of this call and in no list; `PLAIN` is
        // the arena's profile.
        let overflow = unsafe {
            if cache.push_main::<PLAIN>(park) {
                None
            } else {
                cache.free_as::<PLAIN>(park)
            }
        };
        if let Some(chain) = overflow {
            stats.free_miss.bump();
            self.return_chain(class, chain);
        } else if nth & 63 == 0 {
            // Occupancy shape sampling, 1 in 64 on the hit path.
            stats.sample_occupancy(cache);
        }
        Ok(())
    }

    /// Hands an overflow chain to this node's global shard; a settle the
    /// put leaves owed (regroup, trim, spill into the shared
    /// coalesce-to-page layer) runs wherever [`ArenaInner::schedule`]
    /// places it — with the maintenance core, off this CPU.
    #[cold]
    fn return_chain(&self, class: usize, chain: Chain) {
        let node = self.node.index();
        if self.inner.shard(class, self.node).put(chain) {
            self.inner.schedule(MaintWork::Settle { class, node });
        }
        if self.inner.faults.hit(faults::GLOBAL_SPILL) {
            // The spill boundary cannot "fail" without dropping blocks, so
            // injection here perturbs *placement* instead: force an early
            // trim to `gbltarget`, driving the spill/coalesce path at
            // arbitrary points in the schedule.
            self.inner.schedule(MaintWork::Spill { class, node });
        }
        // No relax here: return_chain runs inside rung-1 flushes, and a
        // de-escalation driven by the escalation's own actions would undo
        // the climb before the retry. Successful slow-path *allocations*
        // relax the ladder instead.
    }

    /// Flushes every per-CPU cache of this CPU into the global layer
    /// (low-memory operation; also useful before dropping the handle if
    /// the arena should shrink).
    pub fn flush(&self) {
        self.flush_with_cause(FlushCause::Explicit);
    }

    /// [`CpuHandle::flush`] with the triggering cause recorded per class.
    /// Flushes that evict nothing are not counted (every counted flush
    /// contributes at least one block to `flush_blocks`).
    fn flush_with_cause(&self, cause: FlushCause) {
        for (class, cs) in self.classes().iter().enumerate() {
            // SAFETY: borrow scoped to this operation.
            let cache = unsafe { &mut *cs.cache.get() };
            let stats = &cs.stats;
            stats.sample_occupancy(cache);
            let parked = cache.quarantine_len();
            let all = cache.flush();
            if parked > 0 {
                // Quarantined blocks re-entered circulation with the flush.
                self.inner.quarantined.fetch_sub(parked, Ordering::Relaxed);
            }
            if !all.is_empty() {
                match cause {
                    FlushCause::Explicit => stats.flush_explicit.bump(),
                    FlushCause::Drain => stats.flush_drain.bump(),
                    FlushCause::LowMemory => stats.flush_lowmem.bump(),
                };
                stats.flush_blocks.add(all.len() as u64);
                self.return_chain(class, all);
            }
        }
    }

    /// Cooperative scheduling point: honours pending drain requests.
    ///
    /// Idle CPUs should call this periodically so that memory cached on
    /// their behalf can reach CPUs under pressure — the userspace analogue
    /// of servicing a reclaim IPI.
    pub fn poll(&self) {
        self.check_drain();
    }

    /// Requests that every *other* CPU drain its caches at its next
    /// operation or [`CpuHandle::poll`].
    pub fn request_drain(&self) {
        for (cpu, slot) in self.inner.slots.iter() {
            if cpu != self.cpu {
                slot.drain.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Blocks cached by this CPU across all classes (tests).
    pub fn cached_blocks(&self) -> usize {
        (0..self.inner.classes.len())
            // SAFETY: read-only peek at our own caches.
            .map(|c| unsafe { &*self.classes()[c].cache.get() }.len())
            .sum()
    }

    /// `(main, aux)` lengths of this CPU's cache for `class` (tests — the
    /// paper's split-freelist bound is that each stays ≤ `target`).
    pub fn cache_shape(&self, class: usize) -> (usize, usize) {
        // SAFETY: read-only peek at our own cache.
        unsafe { &*self.classes()[class].cache.get() }.shape()
    }
}

impl Drop for CpuHandle {
    fn drop(&mut self) {
        // A departing CPU (handle dropped = CPU going offline) drains its
        // caches into the global layer, exactly as a kernel CPU-offline
        // path would; otherwise its cached blocks would be stranded until
        // the CPU id is claimed again.
        self.flush();
    }
}

impl core::fmt::Debug for CpuHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "CpuHandle({})", self.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_arena, verify_conservation, verify_empty};

    fn arena() -> KmemArena {
        KmemArena::new(KmemConfig::small()).unwrap()
    }

    #[test]
    fn alloc_free_round_trip_standard() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        let p = cpu.alloc(50).unwrap();
        // The 50-byte request lands in the 64-byte class: alignment holds.
        assert_eq!(p.as_ptr() as usize % 64, 0);
        // The block is writable over its full class size.
        // SAFETY: freshly allocated 64-byte block.
        unsafe { core::ptr::write_bytes(p.as_ptr(), 0xa5, 64) };
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(p) };
        verify_arena(&a);
    }

    /// A shard grown past `2 * gbltarget` is held to its own bound: the
    /// walker passes it there and still catches it over-full.
    #[test]
    #[should_panic(expected = "global pool holds")]
    fn an_over_full_grown_shard_trips_the_walker() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        let class = a.inner().classes().class_for(64).unwrap();
        let pool = a.inner().shard(class, NodeId::new(0));
        let target = pool.target();
        // Every block first, so no refill draws on the shard below.
        let mut held: Vec<*mut u8> = (0..20 * pool.gbltarget())
            .map(|_| cpu.alloc(64).unwrap().as_ptr())
            .collect();
        let mut chain = || {
            let mut c = Chain::new();
            for p in held.drain(..target) {
                // SAFETY: allocated above; the chain owns it now.
                unsafe { c.push(p) };
            }
            c
        };
        // Spill once, then miss: the bound doubles.
        let mut spill = loop {
            if let Some(spill) = pool.put_chain(chain()) {
                break spill;
            }
        };
        spill.forget();
        while let Some(mut c) = pool.get_chain() {
            c.forget();
        }
        assert_eq!(pool.bound(), 4 * pool.gbltarget());
        while pool.len() < pool.bound() + a.ncpus() * target {
            pool.put(chain());
        }
        verify_arena(&a);
        // One chain past what the CPUs' owed settles can leave.
        pool.put(chain());
        verify_arena(&a);
    }

    #[test]
    fn immediate_reuse_hits_cache() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        let p = cpu.alloc(128).unwrap();
        // SAFETY: allocated above.
        unsafe { cpu.free(p) };
        let q = cpu.alloc(128).unwrap();
        // LIFO per-CPU cache: the same block comes straight back.
        assert_eq!(p, q);
        // SAFETY: allocated above.
        unsafe { cpu.free(q) };
        let stats = a.stats();
        let c128 = stats.classes.iter().find(|c| c.size == 128).unwrap();
        assert_eq!(c128.cpu_alloc.accesses, 2);
        assert_eq!(c128.cpu_alloc.misses, 1); // only the first
    }

    #[test]
    fn cookie_interface_round_trip() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        let cookie = a.cookie_for(100).unwrap();
        assert_eq!(cookie.block_size(), 128);
        let p = cpu.alloc_cookie(cookie).unwrap();
        // SAFETY: allocated with this cookie.
        unsafe { cpu.free_cookie(p, cookie) };
        // Cookie and standard interfaces share the same pools.
        let q = cpu.alloc(100).unwrap();
        assert_eq!(p, q);
        // SAFETY: allocated above.
        unsafe { cpu.free_sized(q, 100) };
        verify_arena(&a);
    }

    #[test]
    fn only_the_default_profile_with_the_split_freelist_is_plain() {
        // The inlined cookie hit and the `PLAIN` class paths carry no
        // defense and assume split caches: any knob, alone, must turn them
        // off for every handle of the arena.
        let plain = |cfg: KmemConfig| {
            let a = KmemArena::new(cfg).unwrap();
            a.register_cpu().unwrap().plain()
        };
        let off = HardenedConfig::off();
        assert!(plain(KmemConfig::small()));
        for h in [
            HardenedConfig {
                encode: true,
                ..off
            },
            HardenedConfig {
                poison: true,
                ..off
            },
            HardenedConfig {
                randomize: true,
                ..off
            },
            HardenedConfig {
                quarantine: 1,
                ..off
            },
            HardenedConfig::full(7),
        ] {
            assert!(!plain(KmemConfig::small().hardened(h)), "{h:?}");
        }
        let mut single_list = KmemConfig::small();
        single_list.split_freelist = false;
        assert!(!plain(single_list));
    }

    #[test]
    fn cookie_for_rejects_unservable_sizes() {
        let a = arena();
        assert!(a.cookie_for(0).is_none());
        assert!(a.cookie_for(4097).is_none());
        assert!(a.cookie_for(4096).is_some());
    }

    #[test]
    fn zero_size_and_too_large_are_typed_errors() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        assert_eq!(cpu.alloc(0).unwrap_err(), AllocError::ZeroSize);
        let max = a.max_alloc_size();
        assert!(matches!(
            cpu.alloc(max + 1).unwrap_err(),
            AllocError::TooLarge { .. }
        ));
    }

    #[test]
    fn large_allocations_bypass_the_class_layers() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        let p = cpu.alloc(3 * PAGE_SIZE).unwrap();
        assert_eq!(p.as_ptr() as usize % PAGE_SIZE, 0);
        // SAFETY: 3 pages were allocated.
        unsafe { core::ptr::write_bytes(p.as_ptr(), 0x5a, 3 * PAGE_SIZE) };
        let stats = a.stats();
        assert_eq!(stats.large_allocs, 1);
        assert!(stats.classes.iter().all(|c| c.cpu_alloc.accesses == 0));
        // Standard free resolves it through the page descriptor.
        // SAFETY: allocated above.
        unsafe { cpu.free(p) };
        assert_eq!(a.stats().large_frees, 1);
        verify_empty(&a);
    }

    #[test]
    fn cross_cpu_alloc_here_free_there() {
        let a = arena();
        let cpu0 = a.register_cpu().unwrap();
        let cpu1 = a.register_cpu().unwrap();
        // CPU 0 allocates many blocks; CPU 1 frees them all (the pattern
        // the global layer exists for).
        let blocks: Vec<_> = (0..200).map(|_| cpu0.alloc(256).unwrap()).collect();
        for p in blocks {
            // SAFETY: allocated by cpu0, freed exactly once by cpu1.
            unsafe { cpu1.free(p) };
        }
        verify_arena(&a);
        let held = vec![0; a.inner().classes().len()];
        verify_conservation(&a, &held);
        // Blocks flowed back: CPU 0 can allocate them again.
        let again: Vec<_> = (0..200).map(|_| cpu0.alloc(256).unwrap()).collect();
        for p in again {
            // SAFETY: allocated above.
            unsafe { cpu0.free(p) };
        }
        verify_arena(&a);
    }

    #[test]
    fn threads_can_carry_handles() {
        let a = arena();
        let mut join = Vec::new();
        for _ in 0..4 {
            let handle = a.register_cpu().unwrap();
            join.push(std::thread::spawn(move || {
                let mut held = Vec::new();
                for i in 0..2000usize {
                    let size = 16 << (i % 5);
                    held.push((handle.alloc(size).unwrap(), size));
                    if held.len() > 32 {
                        let (p, _s) = held.swap_remove(i % held.len());
                        // SAFETY: allocated above, freed once.
                        unsafe { handle.free(p) };
                    }
                }
                for (p, s) in held {
                    // SAFETY: allocated above, freed once.
                    unsafe { handle.free_sized(p, s) };
                }
            }));
        }
        for j in join {
            j.join().unwrap();
        }
        verify_arena(&a);
        verify_conservation(&a, &vec![0; a.inner().classes().len()]);
    }

    #[test]
    fn flush_and_reclaim_release_all_physical_memory() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        let blocks: Vec<_> = (0..500).map(|_| cpu.alloc(512).unwrap()).collect();
        assert!(a.space().phys().in_use() > 0);
        for p in blocks {
            // SAFETY: allocated above.
            unsafe { cpu.free(p) };
        }
        // Caches and global pools retain bounded amounts...
        assert!(a.space().phys().in_use() > 0);
        // ...until flushed and reclaimed.
        cpu.flush();
        a.reclaim();
        verify_empty(&a);
    }

    #[test]
    fn exhaustion_returns_oom_and_recovers_after_free() {
        // Tiny pool: 16 KB vmblks, 8 physical frames.
        let cfg = KmemConfig::new(
            1,
            kmem_vm::SpaceConfig::new(1 << 20)
                .vmblk_shift(14)
                .phys_pages(8),
        );
        let a = KmemArena::new(cfg).unwrap();
        let cpu = a.register_cpu().unwrap();
        let mut held = Vec::new();
        loop {
            match cpu.alloc(2048) {
                Ok(p) => held.push(p),
                Err(AllocError::OutOfMemory { requested }) => {
                    assert_eq!(requested, 2048);
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(!held.is_empty());
        // Free one block: allocation works again (the flush-retry path
        // reclaims the caller's own cache too).
        let p = held.pop().unwrap();
        // SAFETY: allocated above.
        unsafe { cpu.free(p) };
        let q = cpu.alloc(2048).unwrap();
        held.push(q);
        for p in held {
            // SAFETY: allocated above.
            unsafe { cpu.free(p) };
        }
        cpu.flush();
        a.reclaim();
        verify_empty(&a);
    }

    #[test]
    fn drain_request_recovers_memory_cached_on_other_cpus() {
        // All memory fits in CPU 1's caches; CPU 0 must be able to get it
        // back ("any given CPU must be able to allocate the last
        // remaining buffer").
        let cfg = KmemConfig::new(
            2,
            kmem_vm::SpaceConfig::new(1 << 20)
                .vmblk_shift(14)
                .phys_pages(4),
        )
        .set_class(1024, 8, 8);
        let a = KmemArena::new(cfg).unwrap();
        let cpu0 = a.register_cpu().unwrap();
        let cpu1 = a.register_cpu().unwrap();
        // CPU 1 allocates and frees: blocks end up cached on CPU 1.
        let held: Vec<_> = (0..8).map(|_| cpu1.alloc(1024).unwrap()).collect();
        for p in held {
            // SAFETY: allocated above.
            unsafe { cpu1.free(p) };
        }
        assert!(cpu1.cached_blocks() > 0);
        // CPU 0 wants everything; its first try may fail but must set the
        // drain flag; once CPU 1 polls, CPU 0 succeeds.
        let mut got = Vec::new();
        loop {
            match cpu0.alloc(1024) {
                Ok(p) => got.push(p),
                Err(_) => {
                    if cpu1.cached_blocks() == 0 {
                        break;
                    }
                    cpu1.poll(); // services the drain request
                }
            }
        }
        // CPU 0 ends up holding every block the pool can back (3 data
        // pages were available; header takes the 4th frame).
        assert!(got.len() >= 3, "only got {} blocks", got.len());
        for p in got {
            // SAFETY: allocated above.
            unsafe { cpu0.free(p) };
        }
        cpu0.flush();
        cpu1.flush();
        a.reclaim();
        verify_empty(&a);
    }

    #[test]
    fn injected_refill_failure_conserves_blocks_and_surfaces_typed_error() {
        use kmem_smp::FailPolicy;

        // Regression (fault audit): a refill fault between take_chain and
        // cache.refill used to be un-testable; the chain it holds must be
        // routed back, not dropped.
        let cfg = KmemConfig {
            faults: Faults::with_plan(),
            ..KmemConfig::small()
        };
        let a = KmemArena::new(cfg).unwrap();
        let cpu = a.register_cpu().unwrap();
        // Warm the global layer: allocate, free, flush.
        let held: Vec<_> = (0..20).map(|_| cpu.alloc(256).unwrap()).collect();
        for p in held {
            // SAFETY: allocated above, freed once.
            unsafe { cpu.free(p) };
        }
        cpu.flush();
        let global_before = a.inner().globals()[4].len(); // class 256
        assert!(global_before > 0);
        a.faults()
            .plan()
            .unwrap()
            .set(faults::PERCPU_REFILL, FailPolicy::Script(vec![true]));
        let err = cpu.alloc(256).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { requested: 256 }));
        // Nothing reached the cache and nothing leaked: the chain the
        // failed refill held went back to the global/page layers.
        assert_eq!(cpu.cached_blocks(), 0);
        verify_arena(&a);
        verify_conservation(&a, &vec![0; a.inner().classes().len()]);
        // The fault was one-shot: service resumes.
        let p = cpu.alloc(256).unwrap();
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(p) };
        let snap = a.snapshot();
        assert_eq!(snap.fault_fired, 1);
        cpu.flush();
        a.reclaim();
        snap.check_live().unwrap();
    }

    #[test]
    fn injected_layer_misses_fall_through_and_recover() {
        use kmem_smp::FailPolicy;

        let cfg = KmemConfig {
            faults: Faults::with_plan(),
            ..KmemConfig::small()
        };
        let a = KmemArena::new(cfg).unwrap();
        let cpu = a.register_cpu().unwrap();
        let plan = a.faults().plan().unwrap().clone();
        // A global-layer fault is invisible to callers while the page
        // layer can still refill.
        plan.set(faults::GLOBAL_GET, FailPolicy::EveryNth(1));
        let p = cpu.alloc(128).unwrap();
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(p) };
        plan.set(faults::GLOBAL_GET, FailPolicy::Off);
        // Faulting both page-layer attempts (initial + post-escalation
        // retry) turns a healthy arena into a typed OOM...
        plan.set(faults::PAGE_GET, FailPolicy::Script(vec![true, true]));
        let err = cpu.alloc(4096).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { requested: 4096 }));
        // ...and the escalation was recorded by the ladder.
        assert!(a.pressure_level() >= 1);
        assert!(a.snapshot().pressure_escalations[0] >= 1);
        // The script is spent: service resumes, and successes relax the
        // ladder back to calm (the pool was never actually short).
        let q = cpu.alloc(4096).unwrap();
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(q) };
        assert_eq!(a.pressure_level(), 0);
        verify_arena(&a);
        cpu.flush();
        a.reclaim();
        verify_empty(&a);
    }

    #[test]
    fn forced_spill_faults_keep_conservation() {
        use kmem_smp::FailPolicy;

        // GLOBAL_SPILL injection trims the pool early on every return;
        // blocks must land in the page layer, never vanish.
        let cfg = KmemConfig {
            faults: Faults::with_plan(),
            ..KmemConfig::small()
        };
        let a = KmemArena::new(cfg).unwrap();
        let cpu = a.register_cpu().unwrap();
        a.faults()
            .plan()
            .unwrap()
            .set(faults::GLOBAL_SPILL, FailPolicy::EveryNth(2));
        for round in 0..5 {
            let held: Vec<_> = (0..64).map(|_| cpu.alloc(64).unwrap()).collect();
            for p in held {
                // SAFETY: allocated above, freed once.
                unsafe { cpu.free(p) };
            }
            if round % 2 == 0 {
                cpu.flush();
            }
        }
        verify_arena(&a);
        verify_conservation(&a, &vec![0; a.inner().classes().len()]);
        cpu.flush();
        a.reclaim();
        verify_empty(&a);
    }

    #[test]
    fn stats_roll_up_by_class() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        for _ in 0..10 {
            let p = cpu.alloc(32).unwrap();
            // SAFETY: allocated above.
            unsafe { cpu.free(p) };
        }
        let stats = a.stats();
        let c32 = stats.classes.iter().find(|c| c.size == 32).unwrap();
        assert_eq!(c32.cpu_alloc.accesses, 10);
        assert_eq!(c32.cpu_free.accesses, 10);
        assert_eq!(c32.cpu_alloc.misses, 1);
        assert!(c32.cpu_alloc.miss_rate() <= 0.1 + f64::EPSILON);
        assert_eq!(stats.total_allocs(), 10);
    }

    #[test]
    fn alloc_zeroed_really_zeroes_the_class_block() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        // Dirty a block, free it, and get it back zeroed.
        let p = cpu.alloc(100).unwrap();
        // SAFETY: 128-byte class block.
        unsafe { core::ptr::write_bytes(p.as_ptr(), 0xFF, 128) };
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(p) };
        let q = cpu.alloc_zeroed(100).unwrap();
        assert_eq!(p, q); // same block, straight from the cache
                          // SAFETY: live 128-byte block.
        let bytes = unsafe { core::slice::from_raw_parts(q.as_ptr(), 128) };
        assert!(bytes.iter().all(|&b| b == 0));
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(q) };
        // Multi-page requests zero whole pages.
        let big = cpu.alloc_zeroed(2 * PAGE_SIZE).unwrap();
        // SAFETY: live 2-page block.
        let bytes = unsafe { core::slice::from_raw_parts(big.as_ptr(), 2 * PAGE_SIZE) };
        assert!(bytes.iter().all(|&b| b == 0));
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(big) };
    }

    #[test]
    fn alloc_sleep_succeeds_after_a_peer_frees() {
        let cfg = KmemConfig::new(
            2,
            kmem_vm::SpaceConfig::new(1 << 20)
                .vmblk_shift(14)
                .phys_pages(4),
        );
        let a = KmemArena::new(cfg).unwrap();
        let holder = a.register_cpu().unwrap();
        let sleeper = a.register_cpu().unwrap();
        // The holder takes everything. (Addresses, so the vector can move
        // into the freeing thread; ownership of the blocks moves with it.)
        let mut held: Vec<usize> = Vec::new();
        while let Ok(p) = holder.alloc(4096) {
            held.push(p.as_ptr() as usize);
        }
        assert!(matches!(
            sleeper.alloc(4096),
            Err(AllocError::OutOfMemory { .. })
        ));
        // A peer thread frees one block shortly; the sleeper retries
        // until it appears.
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::yield_now();
                for addr in held {
                    let p = NonNull::new(addr as *mut u8).unwrap();
                    // SAFETY: allocated above, freed once.
                    unsafe { holder.free(p) };
                }
                holder.flush();
            });
            let p = sleeper.alloc_sleep(4096, 1_000_000).unwrap();
            // SAFETY: allocated above, freed once.
            unsafe { sleeper.free(p) };
        });
        // Unservable requests fail immediately, not after retries.
        assert!(matches!(
            sleeper.alloc_sleep(0, 100),
            Err(AllocError::ZeroSize)
        ));
    }

    #[test]
    fn class_blocks_are_aligned_to_their_size() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        for shift in 4..=12 {
            let size = 1usize << shift;
            let p = cpu.alloc(size).unwrap();
            assert_eq!(
                p.as_ptr() as usize % size,
                0,
                "{size}-byte block misaligned"
            );
            // SAFETY: allocated above, freed once.
            unsafe { cpu.free_sized(p, size) };
        }
    }

    #[test]
    fn free_and_free_sized_are_interchangeable() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        // Alloc with the standard interface, free with the sized one, and
        // vice versa — both route to the same class.
        let p = cpu.alloc(300).unwrap();
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free_sized(p, 300) };
        let q = cpu.alloc(300).unwrap();
        assert_eq!(p, q);
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(q) };
        let r = cpu.alloc_cookie(a.cookie_for(300).unwrap()).unwrap();
        assert_eq!(q, r);
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(r) };
        verify_arena(&a);
    }

    #[test]
    fn custom_class_ladders_work() {
        // Only two classes; everything between 65 and 1024 bytes rounds
        // to 1024, larger requests go to the vmblk layer.
        let cfg = KmemConfig {
            classes: vec![
                crate::config::ClassConfig::with_heuristics(64),
                crate::config::ClassConfig::with_heuristics(1024),
            ],
            ..KmemConfig::small()
        };
        let a = KmemArena::new(cfg).unwrap();
        let cpu = a.register_cpu().unwrap();
        let p = cpu.alloc(65).unwrap();
        assert_eq!(p.as_ptr() as usize % 1024, 0);
        let big = cpu.alloc(1025).unwrap(); // beyond the ladder: large path
        assert_eq!(big.as_ptr() as usize % PAGE_SIZE, 0);
        assert_eq!(a.stats().large_allocs, 1);
        // SAFETY: allocated above, freed once each.
        unsafe {
            cpu.free(p);
            cpu.free(big);
        }
        cpu.flush();
        a.reclaim();
        verify_empty(&a);
    }

    #[test]
    fn retained_vmblks_are_reused_when_release_is_off() {
        let cfg = KmemConfig {
            release_empty_vmblks: false,
            ..KmemConfig::small()
        };
        let a = KmemArena::new(cfg).unwrap();
        let cpu = a.register_cpu().unwrap();
        let p = cpu.alloc(4096).unwrap();
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(p) };
        cpu.flush();
        a.reclaim();
        // The vmblk is retained (its header frame stays claimed)...
        let stats = a.stats();
        assert_eq!(stats.vmblks_live, 1);
        assert!(stats.phys_in_use > 0);
        // ...and gets reused rather than growing the footprint.
        let q = cpu.alloc(4096).unwrap();
        assert_eq!(a.stats().vmblks_live, 1);
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free(q) };
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different arena")]
    fn cookies_do_not_cross_arenas() {
        let a = arena();
        let b = arena();
        let cookie_a = a.cookie_for(64).unwrap();
        let cpu_b = b.register_cpu().unwrap();
        let _ = cpu_b.alloc_cookie(cookie_a);
    }

    #[test]
    fn handles_are_send_and_arena_is_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<CpuHandle>();
        assert_send::<KmemArena>();
        assert_sync::<KmemArena>();
    }

    #[test]
    fn dropping_a_handle_drains_its_caches() {
        let a = arena();
        {
            let cpu = a.register_cpu().unwrap();
            let p = cpu.alloc(64).unwrap();
            // SAFETY: allocated above, freed once.
            unsafe { cpu.free(p) };
            assert!(cpu.cached_blocks() > 0);
        }
        // The departed CPU left nothing behind; a reclaim returns every
        // frame.
        a.reclaim();
        verify_empty(&a);
        // And the CPU id is reusable with a clean cache.
        let cpu = a.register_cpu().unwrap();
        assert_eq!(cpu.cached_blocks(), 0);
    }

    #[test]
    fn registering_more_cpus_than_configured_fails() {
        let a = arena();
        let _h: Vec<_> = (0..4).map(|_| a.register_cpu().unwrap()).collect();
        assert!(a.register_cpu().is_err());
    }

    #[test]
    #[should_panic(expected = "does not manage")]
    fn freeing_foreign_pointer_is_caught() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        let foreign = Box::new([0u8; 64]);
        let ptr = NonNull::from(&foreign[0]);
        // SAFETY: intentionally violates the contract to check the guard
        // rail; the pointer is valid memory, just not arena memory.
        unsafe { cpu.free(ptr) };
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught_in_debug() {
        let a = arena();
        let cpu = a.register_cpu().unwrap();
        let p = cpu.alloc(64).unwrap();
        // SAFETY: first free is legitimate; the second intentionally
        // violates the contract to check the poison guard rail.
        unsafe {
            cpu.free(p);
            cpu.free(p);
        }
    }
}
