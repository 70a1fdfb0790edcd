//! Multi-threaded allocator torture driver.
//!
//! Runs N real threads, each registered as one virtual CPU of a
//! [`KmemArena`], through a long randomized mix of the operations the
//! paper cares about:
//!
//! * allocations through all three interfaces (standard, sized, cookie),
//!   across several size classes, plus multi-page "large" requests;
//! * frees on the allocating CPU **and cross-thread frees** through a
//!   shared exchange pool — the one-CPU-allocates/another-frees traffic
//!   the global layer exists for;
//! * explicit cache flushes, which push odd-sized chains into the global
//!   layer's bucket list (the regrouping path), and `poll()` calls that
//!   service low-memory drain requests from other CPUs.
//!
//! The run is split into phases. At the end of each phase every thread
//! quiesces at a barrier and the leader runs the cross-layer invariant
//! walkers ([`verify_arena`]) plus, optionally, exact per-class block
//! conservation ([`verify_conservation`]) counting the blocks threads and
//! the exchange pool still hold. Any failure anywhere aborts the whole
//! run and reports **the seed that reproduces it**.
//!
//! Per-thread operation streams are derived deterministically from the
//! seed, so a reported seed replays the same programs (the OS scheduler
//! still decides the cross-thread timing, as on real hardware).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::{Arc, Condvar, Mutex};

use kmem::verify::{verify_arena, verify_conservation};
use kmem::{faults, AllocError, Cookie, CpuHandle, FailPolicy, FaultPlan, KmemArena, KmemSnapshot};
use kmem_vm::PAGE_SIZE;

use crate::rng::Rng;

/// Parameters for one torture run.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Worker threads; each claims one virtual CPU of the arena.
    pub threads: usize,
    /// Randomized operations per thread (spread over the phases).
    pub ops_per_thread: usize,
    /// Quiescent verification checkpoints (≥ 1; the run ends with one).
    pub phases: usize,
    /// Request sizes to draw from (each must map to a size class).
    pub sizes: Vec<usize>,
    /// Bound on blocks a thread holds privately before frees are forced.
    pub max_held_per_thread: usize,
    /// Bound on the shared cross-thread exchange pool.
    pub exchange_capacity: usize,
    /// Master seed (`KMEM_TORTURE_SEED` overrides it).
    pub seed: u64,
    /// Weight (in 1/64ths) of multi-page allocations; 0 disables them.
    pub large_weight: u64,
    /// Run exact block conservation at every checkpoint (slower).
    pub check_conservation: bool,
    /// Rotate deterministic fault-injection policies across every
    /// failpoint site, re-drawn each phase (`KMEM_TORTURE_FAULTS=1`/`0`
    /// overrides). Requires an arena built with
    /// `KmemConfig { faults: Faults::with_plan(), .. }`; silently inert on
    /// an arena without a plan, so a blanket env flag cannot break
    /// fault-less tests.
    pub faults: bool,
    /// Seed for the fault-policy rotation (`KMEM_TORTURE_FAULT_SEED`
    /// overrides), independent of the op-stream seed so the same ops can
    /// be replayed under different fault schedules.
    pub fault_seed: u64,
    /// Request the hardened profile (`KMEM_TORTURE_HARDENED=1`/`0`
    /// overrides). The driver itself never builds arenas; tests use
    /// [`TortureConfig::hardened_requested`] to decide whether to
    /// construct theirs with `HardenedConfig::full(seed)`, so the same
    /// op streams replay with every defense armed.
    pub hardened: bool,
    /// Request the maintenance core (`KMEM_TORTURE_MAINT=1`/`0`
    /// overrides). As with `hardened`, tests use
    /// [`TortureConfig::maint_requested`] to decide whether to build
    /// their arena with `MaintConfig::on()`; the driver then pumps the
    /// mailbox at every quiescent checkpoint and asserts it settles
    /// exactly (`backlog == 0`, `drained == posted - deduped`).
    pub maint: bool,
}

impl TortureConfig {
    /// The acceptance-grade configuration: 4 threads × 100 000 ops over
    /// 4 size classes, cross-thread frees, flush pressure, conservation
    /// checks at every phase.
    pub fn standard() -> TortureConfig {
        TortureConfig {
            threads: 4,
            ops_per_thread: 100_000,
            phases: 4,
            sizes: vec![48, 256, 1024, 4096],
            max_held_per_thread: 2_048,
            exchange_capacity: 4_096,
            seed: 0x7042_7475_7265_4b4d, // "tOrTureKM"
            large_weight: 2,
            check_conservation: true,
            faults: false,
            fault_seed: 0x4641_554c_5453_2121, // "FAULTS!!"
            hardened: false,
            maint: false,
        }
    }

    /// Whether this run should rotate fault policies, after applying the
    /// `KMEM_TORTURE_FAULTS` environment override. Tests use this to
    /// decide whether to build the arena with a fault plan.
    pub fn faults_requested(&self) -> bool {
        match std::env::var("KMEM_TORTURE_FAULTS") {
            Ok(v) => !matches!(v.trim(), "" | "0"),
            Err(_) => self.faults,
        }
    }

    /// Whether the arena for this run should be built with the hardened
    /// profile, after applying the `KMEM_TORTURE_HARDENED` environment
    /// override. The op streams are unchanged; only the arena's defenses
    /// (link encoding, poison, carve shuffle, quarantine) differ.
    pub fn hardened_requested(&self) -> bool {
        match std::env::var("KMEM_TORTURE_HARDENED") {
            Ok(v) => !matches!(v.trim(), "" | "0"),
            Err(_) => self.hardened,
        }
    }

    /// Whether the arena for this run should be built with the
    /// maintenance core enabled, after applying the `KMEM_TORTURE_MAINT`
    /// environment override. The op streams are unchanged; only the
    /// slow-path routing (deferred mailbox posts vs inline locked
    /// drains) differs.
    pub fn maint_requested(&self) -> bool {
        match std::env::var("KMEM_TORTURE_MAINT") {
            Ok(v) => !matches!(v.trim(), "" | "0"),
            Err(_) => self.maint,
        }
    }
}

/// Aggregate counts of what a torture run actually did — tests assert on
/// these so a silently degenerate mix (e.g. all allocations failing)
/// cannot pass.
#[derive(Debug, Default, Clone)]
pub struct TortureReport {
    /// Operations executed (of any kind).
    pub ops: u64,
    /// Successful class-sized allocations.
    pub allocs: u64,
    /// Frees by the thread that allocated.
    pub local_frees: u64,
    /// Frees of blocks taken from the exchange pool (cross-thread).
    pub cross_frees: u64,
    /// Blocks parked in the exchange pool.
    pub exchanges: u64,
    /// Allocation attempts that returned `OutOfMemory`.
    pub failed_allocs: u64,
    /// Explicit per-CPU cache flushes.
    pub flushes: u64,
    /// Successful multi-page allocations.
    pub large_allocs: u64,
    /// Quiescent checkpoints at which the invariant walkers ran.
    pub checkpoints: u64,
    /// Failpoint firings during the run (0 when fault rotation is off).
    pub injected_faults: u64,
}

impl TortureReport {
    fn absorb(&mut self, other: &TortureReport) {
        self.ops += other.ops;
        self.allocs += other.allocs;
        self.local_frees += other.local_frees;
        self.cross_frees += other.cross_frees;
        self.exchanges += other.exchanges;
        self.failed_allocs += other.failed_allocs;
        self.flushes += other.flushes;
        self.large_allocs += other.large_allocs;
        self.checkpoints += other.checkpoints;
        self.injected_faults += other.injected_faults;
    }
}

/// A barrier that can be aborted: when any thread panics, the others are
/// released instead of waiting forever for it.
struct SyncPoint {
    state: Mutex<SyncState>,
    cv: Condvar,
    n: usize,
}

struct SyncState {
    arrived: usize,
    generation: u64,
    aborted: bool,
}

impl SyncPoint {
    fn new(n: usize) -> SyncPoint {
        SyncPoint {
            state: Mutex::new(SyncState {
                arrived: 0,
                generation: 0,
                aborted: false,
            }),
            cv: Condvar::new(),
            n,
        }
    }

    /// Waits for all threads; returns `false` if the run was aborted.
    fn wait(&self) -> bool {
        let mut s = self.state.lock().unwrap();
        if s.aborted {
            return false;
        }
        s.arrived += 1;
        if s.arrived == self.n {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
            return true;
        }
        let gen = s.generation;
        while s.generation == gen && !s.aborted {
            s = self.cv.wait(s).unwrap();
        }
        !s.aborted
    }

    fn abort(&self) {
        let mut s = self.state.lock().unwrap();
        s.aborted = true;
        self.cv.notify_all();
    }
}

/// A block parked for another thread to free: address plus the index of
/// its request size in `cfg.sizes` (ownership travels with the entry).
type Parked = (usize, usize);

struct Shared {
    exchange: Mutex<Vec<Parked>>,
    /// Per-thread (class-indexed) held counts, published at checkpoints.
    held_tables: Vec<Mutex<Vec<usize>>>,
    sync: SyncPoint,
    /// Leader-only snapshot state carried across checkpoints: the previous
    /// checkpoint's counter sweep and per-class torture holdings, so each
    /// checkpoint can verify the snapshot *delta* against ground truth.
    observer: Mutex<ObserverState>,
    /// Fault-policy rotation state; present only when fault injection is
    /// active for this run.
    injector: Option<FaultInjector>,
}

/// Rotates deterministic failpoint policies across every site at each
/// phase boundary, drawing from a dedicated RNG stream (independent of the
/// op streams, so the same ops replay under different fault schedules).
struct FaultInjector {
    plan: Arc<FaultPlan>,
    rng: Mutex<Rng>,
}

impl FaultInjector {
    /// Installs this phase's policy at every site. Policy *shapes* rotate
    /// by `(phase + site_index) % 5`, so within one phase different sites
    /// run different shapes, and over five phases every site sees every
    /// shape — including `Off`, which exercises disarming under load.
    fn rotate(&self, phase: usize) {
        let mut rng = self.rng.lock().unwrap();
        for (i, site) in faults::ALL_SITES.iter().enumerate() {
            let r = rng.next_u64();
            let policy = match (phase + i) % 5 {
                0 => FailPolicy::EveryNth(2 + r % 6),
                1 => FailPolicy::AfterK(r % 4),
                2 => FailPolicy::Prob {
                    threshold: (2048 + (r % 8192)) as u16,
                    seed: rng.next_u64(),
                },
                3 => {
                    let len = (4 + r % 12) as usize;
                    FailPolicy::Script((0..len).map(|_| rng.range_u64(0..2) == 1).collect())
                }
                _ => FailPolicy::Off,
            };
            self.plan.set(site, policy);
        }
    }
}

struct ObserverState {
    prev: KmemSnapshot,
    /// Blocks the torture run held per class at `prev` (threads + exchange).
    prev_held: Vec<usize>,
}

/// Runs the torture workload against `arena`.
///
/// The arena must have at least `cfg.threads` unclaimed virtual CPUs.
/// On success the arena is left quiescent with every torture block freed
/// and every cache flushed (the caller can `reclaim()` + `verify_empty`).
///
/// # Panics
///
/// Panics — with the reproducing seed in the message — if any invariant
/// walker fails, any thread panics, or the configuration is unusable.
pub fn run_torture(arena: &KmemArena, cfg: &TortureConfig) -> TortureReport {
    assert!(cfg.threads >= 1, "torture needs at least one thread");
    assert!(cfg.phases >= 1, "torture needs at least one phase");
    assert!(!cfg.sizes.is_empty(), "torture needs at least one size");
    let seed = std::env::var("KMEM_TORTURE_SEED")
        .ok()
        .and_then(|s| parse_seed(&s))
        .unwrap_or(cfg.seed);
    let fault_seed = std::env::var("KMEM_TORTURE_FAULT_SEED")
        .ok()
        .and_then(|s| parse_seed(&s))
        .unwrap_or(cfg.fault_seed);
    // A fault-armed run needs an arena that carries a plan. A blanket
    // `KMEM_TORTURE_FAULTS=1` in the environment must not break tests whose
    // arenas were built without one, so the request is ignored, not an
    // error, when no plan is present.
    let injector = if cfg.faults_requested() {
        arena.faults().plan().cloned().map(|plan| FaultInjector {
            plan,
            rng: Mutex::new(Rng::new(fault_seed)),
        })
    } else {
        None
    };
    let fired_baseline = arena.faults().totals().1;
    let cookies: Vec<Cookie> = cfg
        .sizes
        .iter()
        .map(|&s| {
            arena
                .cookie_for(s)
                .unwrap_or_else(|| panic!("size {s} maps to no class"))
        })
        .collect();
    let nclasses = arena.nclasses();
    let shared = Shared {
        exchange: Mutex::new(Vec::new()),
        held_tables: (0..cfg.threads)
            .map(|_| Mutex::new(vec![0; nclasses]))
            .collect(),
        sync: SyncPoint::new(cfg.threads),
        // Baseline sweep before any worker runs: the run's own traffic is
        // then exactly the delta from here, even on a pre-used arena.
        observer: Mutex::new(ObserverState {
            prev: arena.snapshot(),
            prev_held: vec![0; nclasses],
        }),
        injector,
    };
    // Arm the first phase's policies before any worker runs, so injection
    // covers the run end-to-end (it stays armed through teardown, too).
    if let Some(inj) = &shared.injector {
        inj.rotate(0);
    }
    let mut master = Rng::new(seed);
    let thread_rngs: Vec<Rng> = (0..cfg.threads).map(|t| master.fork(t as u64)).collect();

    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut total = TortureReport::default();
        let partials: Vec<TortureReport> = std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for (tid, rng) in thread_rngs.into_iter().enumerate() {
                let shared = &shared;
                let cookies = &cookies;
                joins.push(scope.spawn(move || {
                    let body = AssertUnwindSafe(|| worker(arena, cfg, shared, cookies, tid, rng));
                    match catch_unwind(body) {
                        Ok(report) => report,
                        Err(payload) => {
                            shared.sync.abort();
                            resume_unwind(payload);
                        }
                    }
                }));
            }
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for p in &partials {
            total.absorb(p);
        }
        // Disarm before handing the arena back (counters are preserved), so
        // the caller's own post-run allocations cannot be injected.
        if let Some(inj) = &shared.injector {
            inj.plan.reset();
        }
        total.injected_faults = arena.faults().totals().1 - fired_baseline;
        total
    }));
    match result {
        Ok(report) => report,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".into()
            };
            panic!(
                "torture run failed with seed 0x{seed:016x} \
                 (reproduce with KMEM_TORTURE_SEED=0x{seed:x}): {msg}"
            );
        }
    }
}

fn parse_seed(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

fn worker(
    arena: &KmemArena,
    cfg: &TortureConfig,
    shared: &Shared,
    cookies: &[Cookie],
    tid: usize,
    mut rng: Rng,
) -> TortureReport {
    let cpu = arena
        .register_cpu()
        .expect("arena has fewer CPUs than torture threads");
    let mut report = TortureReport::default();
    let mut held: Vec<Parked> = Vec::new();
    let mut held_large: Vec<(usize, usize)> = Vec::new();
    let leader = tid == 0;

    let per_phase = cfg.ops_per_thread.div_ceil(cfg.phases);
    let mut remaining = cfg.ops_per_thread;
    for phase in 0..cfg.phases {
        for _ in 0..per_phase.min(remaining) {
            step(
                cfg,
                shared,
                cookies,
                &cpu,
                &mut rng,
                &mut held,
                &mut held_large,
                &mut report,
            );
            report.ops += 1;
            // Leader-only live sampling: a sweep taken while every other
            // thread keeps running must still satisfy the live-sample
            // bounds — including the fast/slow partitions of the global
            // layer (`get_fast + get_slow <= get`).
            if leader && report.ops.is_multiple_of(1024) {
                arena
                    .snapshot()
                    .check_live()
                    .unwrap_or_else(|e| panic!("live snapshot invariant failed: {e}"));
            }
        }
        remaining = remaining.saturating_sub(per_phase);

        // Publish what this thread still holds, then quiesce.
        publish_held(shared, cookies, tid, &held);
        if !shared.sync.wait() {
            return report;
        }
        // Maintenance round: the leader pumps the mailbox to empty (a
        // no-op when the core is disabled). Running DrainCpu items sets
        // drain flags that the poll round below services.
        if leader {
            pump_maint(arena);
        }
        if !shared.sync.wait() {
            return report;
        }
        // Dedicated drain-service round: with every thread stopped, one
        // poll() per CPU must clear every drain flag the phase (or the
        // pump above) posted — nothing here allocates, so no new
        // requests can appear. With the core on, each serviced drain may
        // *defer* its global-layer puts, so a second pump settles those
        // before the checkpoint asserts.
        cpu.poll();
        if !shared.sync.wait() {
            return report;
        }
        if leader {
            pump_maint(arena);
            // Only meaningful when this run polls every configured CPU;
            // request_drain flags slots nobody claimed, too.
            if cfg.threads == arena.ncpus() {
                assert_eq!(
                    arena.pending_drains(),
                    0,
                    "drain request survived a full poll round (wedged flag)"
                );
            }
            checkpoint(arena, cfg, shared, cookies, &mut report);
            if let Some(inj) = &shared.injector {
                inj.rotate(phase + 1);
            }
        }
        if !shared.sync.wait() {
            return report;
        }
    }

    // Teardown: everyone frees what they hold...
    for (addr, size_idx) in held.drain(..) {
        let p = NonNull::new(addr as *mut u8).unwrap();
        // SAFETY: allocated by this run, freed exactly once.
        unsafe { cpu.free_cookie(p, cookies[size_idx]) };
    }
    for (addr, _pages) in held_large.drain(..) {
        let p = NonNull::new(addr as *mut u8).unwrap();
        // SAFETY: allocated by this run, freed exactly once.
        unsafe { cpu.free(p) };
    }
    if !shared.sync.wait() {
        return report;
    }
    // ...the leader drains the exchange pool (one last burst of
    // cross-thread frees)...
    if leader {
        let parked = core::mem::take(&mut *shared.exchange.lock().unwrap());
        for (addr, size_idx) in parked {
            let p = NonNull::new(addr as *mut u8).unwrap();
            // SAFETY: parked blocks are live blocks owned by the pool.
            unsafe { cpu.free_cookie(p, cookies[size_idx]) };
            report.cross_frees += 1;
        }
    }
    if !shared.sync.wait() {
        return report;
    }
    // ...every CPU flushes its caches, and the leader verifies the fully
    // drained state.
    cpu.flush();
    if !shared.sync.wait() {
        return report;
    }
    if leader {
        // Faults stay armed through teardown: every path that ran since the
        // last phase (frees, flushes, reclaim) must tolerate injection
        // without losing a block or wedging a drain flag. The teardown
        // frees and flushes never allocate, so no DrainCpu work can have
        // been posted since the last poll round — one pump settles every
        // deferred put before the final verification.
        pump_maint(arena);
        if cfg.threads == arena.ncpus() {
            assert_eq!(arena.pending_drains(), 0, "drain flag wedged at teardown");
        }
        arena.reclaim();
        verify_arena(arena);
        verify_conservation(arena, &vec![0; arena.nclasses()]);
        snapshot_checkpoint(arena, shared, &vec![0; arena.nclasses()]);
        report.checkpoints += 1;
    }
    report
}

#[expect(clippy::too_many_arguments)] // private op dispatcher, not API
fn step(
    cfg: &TortureConfig,
    shared: &Shared,
    cookies: &[Cookie],
    cpu: &CpuHandle,
    rng: &mut Rng,
    held: &mut Vec<Parked>,
    held_large: &mut Vec<(usize, usize)>,
    report: &mut TortureReport,
) {
    // Weighted op mix out of 64. Holding too much forces the free arm so
    // bounded pools cannot wedge the run.
    let over_budget = held.len() >= cfg.max_held_per_thread;
    let roll = if over_budget {
        63
    } else {
        rng.range_u64(0..64)
    };
    match roll {
        // Allocate through a randomly chosen interface.
        0..=23 => {
            let size_idx = rng.index(cfg.sizes.len());
            let size = cfg.sizes[size_idx];
            let r = match rng.range_u64(0..3) {
                0 => cpu.alloc(size),
                1 => cpu.alloc_zeroed(size),
                _ => cpu.alloc_cookie(cookies[size_idx]),
            };
            match r {
                Ok(p) => {
                    // Scribble over the block: poison/overlap detectors in
                    // debug builds must still hold at the next alloc.
                    // SAFETY: fresh block of at least `size` bytes.
                    unsafe { core::ptr::write_bytes(p.as_ptr(), 0x5a, size) };
                    held.push((p.as_ptr() as usize, size_idx));
                    report.allocs += 1;
                }
                Err(AllocError::OutOfMemory { .. }) => report.failed_allocs += 1,
                Err(e) => panic!("unexpected alloc error: {e}"),
            }
        }
        // Free one of our own blocks, via a randomly chosen interface.
        24..=39 => {
            if held.is_empty() {
                return;
            }
            let (addr, size_idx) = held.swap_remove(rng.index(held.len()));
            let p = NonNull::new(addr as *mut u8).unwrap();
            // SAFETY: allocated by this thread, freed exactly once.
            unsafe {
                match rng.range_u64(0..3) {
                    0 => cpu.free(p),
                    1 => cpu.free_sized(p, cfg.sizes[size_idx]),
                    _ => cpu.free_cookie(p, cookies[size_idx]),
                }
            }
            report.local_frees += 1;
        }
        // Park a block for some other thread to free.
        40..=47 => {
            if held.is_empty() {
                return;
            }
            let entry = held.swap_remove(rng.index(held.len()));
            let mut exchange = shared.exchange.lock().unwrap();
            if exchange.len() < cfg.exchange_capacity {
                exchange.push(entry);
                report.exchanges += 1;
            } else {
                drop(exchange);
                let p = NonNull::new(entry.0 as *mut u8).unwrap();
                // SAFETY: allocated by this thread, freed exactly once.
                unsafe { cpu.free_cookie(p, cookies[entry.1]) };
                report.local_frees += 1;
            }
        }
        // Free a block some other thread allocated.
        48..=57 => {
            let entry = {
                let mut exchange = shared.exchange.lock().unwrap();
                if exchange.is_empty() {
                    None
                } else {
                    let i = rng.index(exchange.len());
                    Some(exchange.swap_remove(i))
                }
            };
            if let Some((addr, size_idx)) = entry {
                let p = NonNull::new(addr as *mut u8).unwrap();
                // SAFETY: ownership came with the exchange entry.
                unsafe { cpu.free_cookie(p, cookies[size_idx]) };
                report.cross_frees += 1;
            }
        }
        // Multi-page allocation: bypasses layers 1-3 entirely.
        58..=59 => {
            if rng.range_u64(0..64) < cfg.large_weight {
                let pages = rng.range_usize(2..5);
                match cpu.alloc(pages * PAGE_SIZE) {
                    Ok(p) => {
                        held_large.push((p.as_ptr() as usize, pages));
                        report.large_allocs += 1;
                    }
                    Err(AllocError::OutOfMemory { .. }) => report.failed_allocs += 1,
                    Err(e) => panic!("unexpected large-alloc error: {e}"),
                }
            } else if let Some((addr, _)) = held_large.pop() {
                let p = NonNull::new(addr as *mut u8).unwrap();
                // SAFETY: allocated by this thread, freed exactly once.
                unsafe { cpu.free(p) };
            }
        }
        // Flush: pushes odd-sized chains into the global bucket list
        // (the regrouping path) — the same thing the low-memory path does.
        60 => {
            cpu.flush();
            report.flushes += 1;
        }
        // Cooperative poll: services drain requests posted by CPUs that
        // hit memory pressure.
        _ => cpu.poll(),
    }
}

fn publish_held(shared: &Shared, cookies: &[Cookie], tid: usize, held: &[Parked]) {
    let mut table = shared.held_tables[tid].lock().unwrap();
    table.iter_mut().for_each(|c| *c = 0);
    for &(_, size_idx) in held {
        table[cookies[size_idx].class_index()] += 1;
    }
}

/// Leader-only, all other threads quiescent: drives the maintenance
/// mailbox to empty and asserts it settled exactly. Immediately returns
/// on an arena without the core.
fn pump_maint(arena: &KmemArena) {
    while arena.maint_poll() > 0 {}
    if arena.maint_enabled() {
        assert_eq!(arena.maint_backlog(), 0, "pump left a mailbox backlog");
        let m = arena.snapshot().maint;
        assert_eq!(
            m.drained,
            m.posted - m.deduped,
            "maintenance work leaked across a pump"
        );
    }
}

/// Leader-only, with every thread quiescent at the barrier: structural
/// invariants plus exact block conservation. On a maintenance-core
/// arena the mailbox must already be pumped dry, and its counters must
/// balance exactly — deferred work can be *pending*, never lost.
fn checkpoint(
    arena: &KmemArena,
    cfg: &TortureConfig,
    shared: &Shared,
    cookies: &[Cookie],
    report: &mut TortureReport,
) {
    if arena.maint_enabled() {
        assert_eq!(
            arena.maint_backlog(),
            0,
            "maintenance mailbox not empty at a quiescent checkpoint"
        );
        let m = arena.snapshot().maint;
        assert_eq!(
            m.drained,
            m.posted - m.deduped,
            "maintenance work leaked: {} posted, {} deduped, {} drained",
            m.posted,
            m.deduped,
            m.drained
        );
    }
    verify_arena(arena);
    let mut held = vec![0usize; arena.nclasses()];
    for table in &shared.held_tables {
        for (class, count) in table.lock().unwrap().iter().enumerate() {
            held[class] += count;
        }
    }
    for &(_, size_idx) in shared.exchange.lock().unwrap().iter() {
        held[cookies[size_idx].class_index()] += 1;
    }
    if cfg.check_conservation {
        verify_conservation(arena, &held);
    }
    snapshot_checkpoint(arena, shared, &held);
    report.checkpoints += 1;
}

/// Leader-only snapshot consistency checks (every thread quiescent):
///
/// * every per-counter and cross-counter invariant, including the
///   quiescent-only equalities ([`KmemSnapshot::check_quiescent`]);
/// * monotonicity against the previous checkpoint's sweep;
/// * **delta exactness**: per class, the counters' net block flow since
///   the last checkpoint — `Σ_cpu (alloc - alloc_fail) - Σ_cpu free` —
///   must equal the change in blocks the torture run actually holds
///   (the driver's own ground truth).
fn snapshot_checkpoint(arena: &KmemArena, shared: &Shared, held: &[usize]) {
    let snap = arena.snapshot();
    snap.check_quiescent()
        .unwrap_or_else(|e| panic!("snapshot invariant failed: {e}"));
    let mut obs = shared.observer.lock().unwrap();
    snap.check_monotone_since(&obs.prev)
        .unwrap_or_else(|e| panic!("snapshot monotonicity failed: {e}"));
    let delta = snap.delta(&obs.prev);
    for (class, cs) in delta.classes.iter().enumerate() {
        let total = cs.cache_total();
        let flow = total.allocs_served() as i128 - total.free as i128;
        let held_change = held[class] as i128 - obs.prev_held[class] as i128;
        assert_eq!(
            flow, held_change,
            "class {class} (size {}): snapshot delta says net {flow} blocks \
             handed out since the last checkpoint, ground truth is {held_change}",
            cs.size
        );
    }
    obs.prev = snap;
    obs.prev_held.copy_from_slice(held);
}
