//! Runs one rep of a workload on real threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kmem::CpuHandle;

use crate::mem::Mem;
use crate::quiet::Slice;
use crate::workload::{Tally, Worker};

/// One thread's allocator handle and its share of the workload. The
/// handle is `Send` but not `Sync`, so it travels with the worker.
///
/// Aligned to two cache lines (the adjacent-line prefetcher pairs them):
/// the slots of a rep sit side by side in a `Vec` and every worker updates
/// its counters on each step, so without the alignment it is the address
/// the allocation happens to start at that decides whether two threads'
/// counters share a line for the life of the session.
#[repr(align(128))]
pub struct Slot<W> {
    pub cpu: CpuHandle,
    pub worker: W,
    /// The worker's last rep, slice by slice.
    pub slices: Vec<Slice>,
}

/// What a rep measured.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    /// Phase wall time: last worker's end minus first worker's start,
    /// both stamped inside the workers.
    pub wall_ns: f64,
    pub threads: usize,
    /// Counts summed over threads.
    pub tally: Tally,
}

impl RepOutcome {
    /// Thread-time per allocator call.
    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns * self.threads as f64 / self.tally.total_calls().max(1) as f64
    }
}

/// Longest a worker may wait on a ring before the run is declared wedged.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// Steps `worker` until its rep is done, stamping the clock into `slices`
/// every `slice_calls` calls (at the end of the step that reaches them, so
/// a slice ends at the same call in every rep). A closed loop: the next
/// call is issued when the previous one returns; a worker that can only
/// wait for its ring spins briefly, then yields so an oversubscribed host
/// can run the thread it waits for.
///
/// # Panics
///
/// Panics when the worker has waited [`STALL_LIMIT`] for its ring without
/// making a call: the thread it waits for is gone or wedged, and a run
/// that fails loudly is better than one that never ends.
pub fn drive<W: Worker, M: Mem>(
    worker: &mut W,
    mem: &mut M,
    slice_calls: u32,
    slices: &mut Vec<Slice>,
) {
    let mut idle = 0u32;
    let mut waiting_since = None;
    slices.clear();
    let mut calls = 0u32;
    let mut slice_start = Instant::now();
    let mut end_slice = |calls: &mut u32, mem: &mut M| {
        let now = Instant::now();
        let ns = now.duration_since(slice_start).as_nanos() as u32;
        let slice = Slice { ns, calls: *calls };
        slices.push(slice);
        mem.end_slice(slice);
        *calls = 0;
        slice_start = Instant::now();
    };
    while !worker.done() {
        if let Some(made) = worker.step(mem) {
            idle = 0;
            waiting_since = None;
            calls += made;
            if calls >= slice_calls {
                end_slice(&mut calls, mem);
            }
        } else if idle < 64 {
            idle += 1;
            std::hint::spin_loop();
        } else {
            idle = idle.wrapping_add(1);
            std::thread::yield_now();
            if idle.is_multiple_of(4096) {
                let since = *waiting_since.get_or_insert_with(Instant::now);
                assert!(
                    since.elapsed() < STALL_LIMIT,
                    "worker made no progress for {STALL_LIMIT:?}"
                );
            }
        }
    }
    if calls > 0 {
        end_slice(&mut calls, mem);
    }
}

/// Start line for threads that must begin together. Arrivals spin
/// instead of sleeping: a thread asleep on a futex leaves its CPU looking
/// idle, so the kernel starts the next new thread on that same CPU, and the
/// two then run the first milliseconds of the rep — all of a short rep —
/// in turns.
pub struct SpinBarrier {
    arrived: AtomicUsize,
    threads: usize,
}

impl SpinBarrier {
    pub fn wait(&self) {
        // Release/Acquire: everything a thread did before arriving is
        // visible to every thread that leaves.
        self.arrived.fetch_add(1, Ordering::AcqRel);
        while self.arrived.load(Ordering::Acquire) < self.threads {
            std::hint::spin_loop();
        }
    }
}

/// Keeps each worker on a CPU of its own for the length of its job.
///
/// Left to the scheduler, two workers shared a CPU for whole reps while
/// another stood idle: `pair` then read twice its cost, and `handoff` a
/// third of it (threads that run in turns pass no cache line between
/// cores). Which reps, and how many of a run, was the scheduler's choice.
#[cfg(target_os = "linux")]
mod affinity {
    use std::sync::OnceLock;

    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the process may run on, read before any thread is pinned.
    fn allowed() -> &'static [usize] {
        static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
        ALLOWED.get_or_init(|| {
            let mut set: CpuSet = [0; 16];
            // SAFETY: `set` is a writable `cpu_set_t` of the size passed;
            // pid 0 is the calling thread.
            let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) };
            if rc != 0 {
                return Vec::new();
            }
            (0..1024)
                .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        })
    }

    /// Pins the calling thread to the `index`-th allowed CPU (modulo their
    /// number). Best effort: where the kernel refuses, the thread floats.
    pub fn pin(index: usize) {
        let cpus = allowed();
        if cpus.is_empty() {
            return;
        }
        let cpu = cpus[index % cpus.len()];
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a readable `cpu_set_t` of the size passed.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &set) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin(_index: usize) {}
}

/// One thread's share of [`run_together`]: runs once, given the barrier.
pub type Job<'a, T> = Box<dyn FnOnce(&SpinBarrier) -> T + Send + 'a>;

/// Runs one job per thread and returns their results in order. Each job
/// is handed the barrier all of them share and calls `wait` on it where
/// its timed part begins. The calling thread runs the first job itself,
/// and job `i` runs pinned to the `i`-th CPU the process may use.
pub fn run_together<T: Send>(mut jobs: Vec<Job<'_, T>>) -> Vec<T> {
    let barrier = SpinBarrier {
        arrived: AtomicUsize::new(0),
        threads: jobs.len(),
    };
    let first = jobs.remove(0);
    std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                scope.spawn(move || {
                    affinity::pin(i + 1);
                    job(barrier)
                })
            })
            .collect();
        affinity::pin(0);
        let mut results = vec![first(barrier)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked")),
        );
        results
    })
}

/// Runs one rep of `quota` units per worker. `body` wraps the thread's
/// handle (and its per-thread `sink`) in the [`Mem`] the rep should use
/// and calls [`drive`].
pub fn run_rep<W, S, F>(slots: &mut [Slot<W>], sinks: &mut [S], quota: u64, body: F) -> RepOutcome
where
    W: Worker,
    S: Send,
    F: Fn(&CpuHandle, &mut S, &mut W, &mut Vec<Slice>) + Sync,
{
    assert_eq!(slots.len(), sinks.len());
    for slot in slots.iter_mut() {
        slot.worker.begin_rep(quota);
    }
    let threads = slots.len();
    let body = &body;
    let jobs = slots
        .iter_mut()
        .zip(sinks.iter_mut())
        .map(|(slot, sink)| {
            let job = move |barrier: &SpinBarrier| {
                barrier.wait();
                let start = Instant::now();
                body(&slot.cpu, sink, &mut slot.worker, &mut slot.slices);
                (start, Instant::now())
            };
            Box::new(job) as Job<'_, (Instant, Instant)>
        })
        .collect();
    let stamps = run_together(jobs);
    let first = stamps.iter().map(|&(s, _)| s).min().expect("threads >= 1");
    let last = stamps.iter().map(|&(_, e)| e).max().expect("threads >= 1");
    let mut tally = Tally::default();
    for slot in slots.iter_mut() {
        tally.add(&slot.worker.take_tally());
    }
    RepOutcome {
        wall_ns: last.duration_since(first).as_nanos() as f64,
        threads,
        tally,
    }
}
