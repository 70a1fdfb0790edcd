//! One workload on one arena: set-up, reps of each kind, and the output
//! checks that fail the run.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use kmem::{HardenedConfig, KmemArena, KmemConfig, KmemSnapshot, MaintConfig, MaintPump};
use kmem_vm::PAGE_SIZE;

use crate::mem::{ClassTable, Plain, Sink, Timed};
use crate::quiet::Slice;
use crate::runner::{drive, run_rep, RepOutcome, Slot};
use crate::workload::{Scale, Tally, Workload};

/// Allocator build the workload runs on: the default, or one of the
/// optional subsystems switched on through `KmemConfig` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    Default,
    /// Encoded links, poisoning, randomised carve, quarantine.
    Hardened,
    /// Maintenance core on, with its pump thread running.
    Maint,
    /// Two NUMA nodes (block mapping).
    Numa2,
}

impl Profile {
    pub fn name(self) -> &'static str {
        match self {
            Profile::Default => "default",
            Profile::Hardened => "hardened",
            Profile::Maint => "maint",
            Profile::Numa2 => "numa2",
        }
    }

    fn apply(self, mut config: KmemConfig, seed: u64) -> KmemConfig {
        match self {
            Profile::Default => config,
            Profile::Hardened => config.hardened(HardenedConfig::full(seed)),
            Profile::Maint => config.maint(MaintConfig::on()),
            Profile::Numa2 => {
                // Every node needs a CPU, even under a one-thread workload.
                config.ncpus = config.ncpus.max(2);
                config.nodes(2)
            }
        }
    }
}

/// Pages between two clock stamps of the pre-touch (about 0.1 ms).
const PRETOUCH_CHUNK: usize = 256;

/// Pushes the time since `*since` as a set-up step and restarts the clock.
fn stamp_step(since: &mut Instant, steps: &mut Vec<Slice>) {
    let now = Instant::now();
    let ns = now.duration_since(*since).as_nanos() as u32;
    steps.push(Slice { ns, calls: 0 });
    *since = now;
}

/// Faults in the host pages behind the arena's address space, so
/// first-touch page faults are paid in set-up and not inside a timed rep.
/// Every [`PRETOUCH_CHUNK`] pages are a step of their own.
///
/// Done with plain stores rather than through the allocator: claiming
/// every frame once would set `phys().peak()` to the pool size and hide
/// the workload's own peak.
fn pretouch(arena: &KmemArena, since: &mut Instant, steps: &mut Vec<Slice>) {
    let space = arena.space();
    let bytes = space.nvmblks() * space.vmblk_size();
    let base = space.base_addr() as *mut u8;
    for (page, offset) in (0..bytes).step_by(PAGE_SIZE).enumerate() {
        // SAFETY: `base..base + bytes` is the reservation `KernelSpace`
        // allocated and keeps for as long as `arena` lives. This runs
        // before the first allocation, so no vmblk is carved and nothing
        // reads these bytes before the allocator initialises them itself.
        unsafe { (base.add(offset) as *mut u64).write_volatile(0) };
        if (page + 1) % PRETOUCH_CHUNK == 0 {
            stamp_step(since, steps);
        }
    }
    stamp_step(since, steps);
}

/// What setting a workload up took.
pub struct Setup {
    /// All of it: arena construction, CPU registration, the pre-touch and
    /// the warm-up rep.
    pub seconds: f64,
    /// The part one thread did alone, step by step in the order made (the
    /// same steps in every set-up of a run, see [`crate::quiet`]): arena
    /// construction, the pre-touch in chunks, CPU registration with the
    /// workers, and the slices of a one-thread workload's warm-up rep.
    pub steps: Vec<Slice>,
    /// The warm-up rep of a workload whose threads wait for each other
    /// (0 for a one-thread workload: its warm-up is in `steps`).
    pub together_s: f64,
}

/// A plain rep's measurements.
pub struct PlainRep {
    pub outcome: RepOutcome,
    /// `phys().in_use()` after the rep freed every block, before any flush.
    pub frames_retained: usize,
    /// Counter movement across the timed phase.
    pub delta: KmemSnapshot,
    /// Frames claimed from the physical pool during the timed phase.
    pub frames_mapped: u64,
}

/// What closing a session found.
#[derive(Default)]
pub struct CloseReport {
    /// Human-readable failures of the structural checks (tags,
    /// conservation, `verify_empty`, frames back to zero); empty when all
    /// held. Failed or short allocations are counted in `tally.failed`.
    pub failures: Vec<String>,
    pub tally: Tally,
}

impl CloseReport {
    /// Adds what closing another session of the same run found.
    pub fn merge(&mut self, other: CloseReport) {
        self.failures.extend(other.failures);
        self.tally.add(&other.tally);
    }
}

pub struct Session<L: Workload> {
    arena: KmemArena,
    slots: Vec<Slot<L::W>>,
    classes: ClassTable,
    pump: Option<MaintPump>,
    scale: Scale,
    /// Everything the workers did since set-up (warm-up included).
    tally: Tally,
    /// Check failures found so far.
    failures: Vec<String>,
    _workload: PhantomData<L>,
}

impl<L: Workload> Session<L> {
    /// Sets the workload up: arena, page pre-touch, CPU registration and
    /// one warm-up rep.
    pub fn open(host_threads: usize, seed: u64, scale: Scale, profile: Profile) -> (Self, Setup) {
        let start = Instant::now();
        let mut since = start;
        let mut steps = Vec::new();
        let threads = L::threads(host_threads);
        let config = profile.apply(L::config(threads, scale), seed);
        let classes = ClassTable::new(&config.classes);
        let arena = KmemArena::new(config).expect("arena construction");
        stamp_step(&mut since, &mut steps);
        pretouch(&arena, &mut since, &mut steps);
        let pump = arena.start_maint_thread();
        let cpus: Vec<_> = (0..threads)
            .map(|_| arena.register_cpu().expect("config has a CPU per thread"))
            .collect();
        let slots = cpus
            .into_iter()
            .zip(L::workers(&arena, threads, seed, scale))
            .map(|(cpu, worker)| Slot {
                cpu,
                worker,
                slices: Vec::new(),
            })
            .collect();
        let mut session = Session {
            arena,
            slots,
            classes,
            pump,
            scale,
            tally: Tally::default(),
            failures: Vec::new(),
            _workload: PhantomData,
        };
        stamp_step(&mut since, &mut steps);
        let warmup = session.plain_rep_with_quota(L::warmup_quota(scale));
        let mut together_s = 0.0;
        if threads == 1 {
            steps.extend_from_slice(session.slices(0));
        } else {
            together_s = warmup.outcome.wall_ns / 1e9;
        }
        let setup = Setup {
            seconds: start.elapsed().as_secs_f64(),
            steps,
            together_s,
        };
        (session, setup)
    }

    pub fn threads(&self) -> usize {
        self.slots.len()
    }

    pub fn arena(&self) -> &KmemArena {
        &self.arena
    }

    /// The last rep of `thread`, slice by slice.
    pub fn slices(&self, thread: usize) -> &[Slice] {
        &self.slots[thread].slices
    }

    fn after_rep(&mut self, outcome: &RepOutcome) -> usize {
        self.tally.add(&outcome.tally);
        let retained = self.arena.space().phys().in_use();
        if L::DRAIN_EACH_REP {
            self.drain();
            self.verify_empty();
        }
        retained
    }

    /// `verify_empty` panics on a violation; record it as a check failure.
    fn verify_empty(&mut self) {
        let arena = &self.arena;
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| kmem::verify::verify_empty(arena))) {
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            self.failures
                .push(format!("verify_empty after flush+reclaim: {what}"));
        }
    }

    /// Flushes every CPU, settles the maintenance mailbox and reclaims.
    /// The pump thread is stopped for the duration (and restarted after):
    /// `maint_poll` returns 0 while another thread is draining, so with
    /// the pump running there is no telling when the mailbox has settled,
    /// and `verify_empty` must not race work still in flight.
    fn drain(&mut self) {
        let pumping = self.pump.take().is_some();
        for slot in &self.slots {
            slot.cpu.flush();
        }
        while self.arena.maint_poll() > 0 {}
        self.arena.reclaim();
        while self.arena.maint_poll() > 0 {}
        if pumping {
            self.pump = self.arena.start_maint_thread();
        }
    }

    fn plain_rep_with_quota(&mut self, quota: u64) -> PlainRep {
        let before = self.arena.snapshot();
        let mapped_before = self.arena.space().phys().total_mapped();
        let mut sinks = vec![(); self.slots.len()];
        let outcome = run_rep(
            &mut self.slots,
            &mut sinks,
            quota,
            |cpu, _, worker, slices| drive(worker, &mut Plain(cpu), L::SLICE_CALLS, slices),
        );
        let delta = self.arena.snapshot().delta(&before);
        let frames_mapped = (self.arena.space().phys().total_mapped() - mapped_before) as u64;
        let frames_retained = self.after_rep(&outcome);
        PlainRep {
            outcome,
            frames_retained,
            delta,
            frames_mapped,
        }
    }

    /// One rep with no per-call timing: the `ns_per_op` sample.
    pub fn plain_rep(&mut self) -> PlainRep {
        self.plain_rep_with_quota(L::quota(self.scale))
    }

    /// One shorter rep with an `Instant` pair around every call, reported
    /// to each thread's sink.
    pub fn timed_rep<S: Sink + Send>(&mut self, sinks: &mut [S]) -> RepOutcome {
        let classes = &self.classes;
        let quota = L::latency_quota(self.scale);
        let outcome = run_rep(
            &mut self.slots,
            sinks,
            quota,
            |cpu, sink, worker, slices| {
                sink.begin_rep();
                drive(
                    worker,
                    &mut Timed::new(cpu, classes, sink),
                    L::SLICE_CALLS,
                    slices,
                )
            },
        );
        self.after_rep(&outcome);
        outcome
    }

    /// Times `CpuHandle::flush` on every CPU and then `KmemArena::reclaim`,
    /// as the workload's last rep left the caches. Returns (flush ns per
    /// CPU, reclaim ns).
    pub fn timed_drain(&mut self) -> (f64, f64) {
        let start = Instant::now();
        for slot in &self.slots {
            slot.cpu.flush();
        }
        let flush = start.elapsed().as_nanos() as f64 / self.slots.len() as f64;
        while self.arena.maint_poll() > 0 {}
        let start = Instant::now();
        self.arena.reclaim();
        (flush, start.elapsed().as_nanos() as f64)
    }

    /// Ends the session: stops the maintenance pump, drains, and runs the
    /// output checks.
    pub fn close(mut self) -> CloseReport {
        let mut failures = std::mem::take(&mut self.failures);
        // Stopping the pump runs its final mailbox sweep.
        drop(self.pump.take());

        let t = self.tally;
        if t.tag_bad > 0 {
            failures.push(format!("{} blocks lost their tag word", t.tag_bad));
        }
        if t.alloc_ok != t.freed {
            failures.push(format!(
                "workers allocated {} blocks and freed {}",
                t.alloc_ok, t.freed
            ));
        }
        // The allocator's own books must agree: every block it counted out
        // came back (`alloc` counts attempts, so failures are taken off).
        let snap = self.arena.snapshot();
        for class in &snap.classes {
            let c = class.cache_total();
            if c.alloc - c.alloc_fail != c.free {
                failures.push(format!(
                    "class {}: snapshot shows {} allocs ({} failed) against {} frees",
                    class.size, c.alloc, c.alloc_fail, c.free
                ));
            }
        }
        if snap.large_allocs != snap.large_frees {
            failures.push(format!(
                "snapshot shows {} large allocs against {} large frees",
                snap.large_allocs, snap.large_frees
            ));
        }

        self.drain();
        self.verify_empty();
        failures.append(&mut self.failures);
        let in_use = self.arena.space().phys().in_use();
        if in_use != 0 {
            failures.push(format!("{in_use} frames still claimed after drain"));
        }
        CloseReport { failures, tally: t }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::LatencySink;
    use crate::workload::{Handoff, Large, Mix, Pair, Sweep};

    /// Set-up, one rep of each kind and the closing checks, at smoke scale.
    fn exercise<L: Workload>(host_threads: usize, profile: Profile) {
        let (mut session, setup) = Session::<L>::open(host_threads, 42, Scale::Smoke, profile);
        let stepped = setup.steps.iter().map(|s| s.ns as f64).sum::<f64>() / 1e9;
        assert!(stepped > 0.0 && stepped + setup.together_s <= setup.seconds);
        assert_eq!(setup.together_s > 0.0, session.threads() > 1);
        let threads = session.threads();
        let rep = session.plain_rep();
        assert!(rep.outcome.tally.total_calls() > 0);
        assert!(rep.outcome.ns_per_op() > 0.0);
        let mut sinks: Vec<LatencySink> = (0..threads).map(|_| LatencySink::default()).collect();
        let timed = session.timed_rep(&mut sinks);
        let recorded: u64 = sinks.iter().map(|s| s.all.count()).sum();
        assert_eq!(recorded, timed.tally.total_calls(), "one sample per call");
        for (thread, sink) in sinks.iter().enumerate() {
            let sliced: u64 = session.slices(thread).iter().map(|s| s.calls as u64).sum();
            assert_eq!(sliced, sink.all.count(), "every call is in a slice");
            assert!(sink.quiet_calls().percentile(0.5) > 0.0);
        }
        let close = session.close();
        assert_eq!(close.failures, Vec::<String>::new(), "{}", L::NAME);
        assert_eq!(close.tally.failed + close.tally.tag_bad, 0, "{}", L::NAME);
        assert_eq!(close.tally.alloc_ok, close.tally.freed);
    }

    #[test]
    fn every_workload_runs_clean_on_two_threads() {
        exercise::<Pair>(2, Profile::Default);
        exercise::<Handoff>(2, Profile::Default);
        exercise::<Sweep>(2, Profile::Default);
        exercise::<Large>(2, Profile::Default);
        exercise::<Mix>(2, Profile::Default);
    }

    #[test]
    fn every_workload_runs_clean_on_one_and_three_threads() {
        // One thread: `handoff` plays both ring ends, `mix` feeds itself.
        exercise::<Handoff>(1, Profile::Default);
        exercise::<Mix>(1, Profile::Default);
        // Three: `handoff` uses one producer/consumer pair of them.
        assert_eq!(Handoff::threads(3), 2);
        exercise::<Mix>(3, Profile::Default);
        exercise::<Large>(3, Profile::Default);
    }

    #[test]
    fn profiles_are_config_only_and_pass_the_same_checks() {
        exercise::<Handoff>(2, Profile::Hardened);
        exercise::<Handoff>(2, Profile::Maint);
        exercise::<Handoff>(2, Profile::Numa2);
        exercise::<Sweep>(1, Profile::Numa2);
        exercise::<Mix>(2, Profile::Hardened);
    }
}
