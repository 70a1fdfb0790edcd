//! The five allocator calls the workloads make, behind one trait, so the
//! same workload code runs untimed, with a timer pair around every call,
//! or with a classified span per call.

use std::ptr::NonNull;
use std::time::Instant;

use kmem::{AllocError, Cookie, CpuHandle};

use crate::quiet::{Offer, Quietest, Slice};
use crate::stats::{Hist, LogHist, LogHistSum};

/// Which allocator entry point a call went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    AllocCookie = 0,
    FreeCookie = 1,
    Alloc = 2,
    Free = 3,
    FreeSized = 4,
}

pub const NOPS: usize = 5;
pub const OP_NAMES: [&str; NOPS] = ["alloc_cookie", "free_cookie", "alloc", "free", "free_sized"];

impl Op {
    pub fn is_alloc(self) -> bool {
        matches!(self, Op::AllocCookie | Op::Alloc)
    }
}

/// Where a call was served, judged from the per-CPU cache's shape just
/// before the call (the traced run only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Served {
    /// Per-CPU cache hit: no lower layer runs.
    Hit = 0,
    /// Cache under- or overflow: the global layer (or below) runs.
    Miss = 1,
    /// Multi-page request: straight to the vmblk layer.
    Large = 2,
    /// Not classified (latency reps).
    Unknown = 3,
}

/// The allocator as the workloads see it.
pub trait Mem {
    fn alloc_cookie(&mut self, cookie: Cookie) -> Result<NonNull<u8>, AllocError>;
    fn alloc(&mut self, size: usize) -> Result<NonNull<u8>, AllocError>;

    /// # Safety
    ///
    /// As for [`CpuHandle::free_cookie`].
    unsafe fn free_cookie(&mut self, ptr: NonNull<u8>, cookie: Cookie);

    /// `size` is the size the block was requested with; the allocator
    /// never sees it (it is only used to classify the call when tracing).
    ///
    /// # Safety
    ///
    /// As for [`CpuHandle::free`].
    unsafe fn free(&mut self, ptr: NonNull<u8>, size: usize);

    /// # Safety
    ///
    /// As for [`CpuHandle::free_sized`].
    unsafe fn free_sized(&mut self, ptr: NonNull<u8>, size: usize);

    /// Told by the runner that the calls since the last such notice made
    /// up `slice`; of interest only to a `Mem` that keeps something per call.
    fn end_slice(&mut self, _slice: Slice) {}
}

/// Untimed pass-through: what the `ns_per_op` reps run on.
pub struct Plain<'a>(pub &'a CpuHandle);

impl Mem for Plain<'_> {
    #[inline(always)]
    fn alloc_cookie(&mut self, cookie: Cookie) -> Result<NonNull<u8>, AllocError> {
        self.0.alloc_cookie(cookie)
    }

    #[inline(always)]
    fn alloc(&mut self, size: usize) -> Result<NonNull<u8>, AllocError> {
        self.0.alloc(size)
    }

    #[inline(always)]
    unsafe fn free_cookie(&mut self, ptr: NonNull<u8>, cookie: Cookie) {
        // SAFETY: forwarded caller contract.
        unsafe { self.0.free_cookie(ptr, cookie) }
    }

    #[inline(always)]
    unsafe fn free(&mut self, ptr: NonNull<u8>, _size: usize) {
        // SAFETY: forwarded caller contract.
        unsafe { self.0.free(ptr) }
    }

    #[inline(always)]
    unsafe fn free_sized(&mut self, ptr: NonNull<u8>, size: usize) {
        // SAFETY: forwarded caller contract.
        unsafe { self.0.free_sized(ptr, size) }
    }
}

/// `Instant` pairs a thread times before a timed rep to price the timer
/// itself (about half a millisecond).
const TIMER_SAMPLES: usize = 20_000;

/// Receives one thread's timed calls.
pub trait Sink {
    /// Whether calls should be classified hit/miss before they run (costs
    /// a cache-shape peek outside the timed interval).
    const CLASSIFY: bool;
    /// The histogram [`Sink::begin_rep`] records the timer's own cost in.
    fn timer(&mut self) -> &mut Hist;
    fn record(&mut self, op: Op, served: Served, start: Instant, end: Instant);
    /// The calls recorded since the last such notice made up `slice`.
    fn end_slice(&mut self, _slice: Slice) {}

    /// Called on the rep's own thread just before its first call: records
    /// [`TIMER_SAMPLES`] back-to-back `Instant` pairs, the cost every timed
    /// call carries. Measured on the thread and at the moment it is used —
    /// the pair's cost differs between threads and drifts between runs by
    /// more than a cache-hit call takes, so a figure calibrated once
    /// elsewhere is no use for subtracting.
    fn begin_rep(&mut self) {
        let timer = self.timer();
        for _ in 0..TIMER_SAMPLES {
            let start = Instant::now();
            let end = Instant::now();
            timer.record(end.duration_since(start).as_nanos() as u64);
        }
    }
}

/// Per-call latency histogram, plus the timer's own cost as measured on
/// the same thread just before. Aligned like [`crate::runner::Slot`]: the
/// threads' sinks sit side by side and each counts every call.
#[derive(Default)]
#[repr(align(128))]
pub struct LatencySink {
    pub all: Hist,
    pub timer: Hist,
    /// The calls of the slice under way.
    slice: LogHist,
    /// How many slices of the rep have ended.
    slices_ended: usize,
    /// Over every rep since the sink was made: the quietest observation of
    /// each slice (see [`crate::quiet`]), and the calls of every
    /// observation about as quiet. Of all of them, not of the quietest
    /// alone: of a slice's undisturbed observations the fastest is the one
    /// with the fewest slow calls, and a tail drawn from it alone would
    /// shorten with every rep a run adds.
    quiet: Quietest,
    /// Per slice: its quiet observations, and their calls summed.
    quiet_calls: Vec<(u32, LogHist)>,
}

impl LatencySink {
    /// Forgets the last rep (not the quietest slices of all reps so far).
    pub fn clear(&mut self) {
        self.all.clear();
        self.timer.clear();
        self.slice.clear();
        self.slices_ended = 0;
    }

    /// Folds every thread's histograms into the first sink and returns it.
    pub fn merge_all(sinks: &mut [LatencySink]) -> &LatencySink {
        let (all, rest) = sinks.split_first_mut().expect("threads >= 1");
        for sink in rest {
            all.all.merge(&sink.all);
            all.timer.merge(&sink.timer);
        }
        all
    }

    /// The calls of a rep as the host left them alone: every slice's
    /// quiet observations, each slice weighing as much as one observation
    /// of it however many were quiet.
    pub fn quiet_calls(&self) -> LogHistSum {
        let mut rep = LogHistSum::default();
        for (seen, calls) in &self.quiet_calls {
            rep.add(calls, 1.0 / *seen as f64);
        }
        rep
    }
}

impl Sink for LatencySink {
    const CLASSIFY: bool = false;

    fn timer(&mut self) -> &mut Hist {
        &mut self.timer
    }

    #[inline]
    fn record(&mut self, _op: Op, _served: Served, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as u64;
        self.all.record(ns);
        self.slice.record(ns);
    }

    fn end_slice(&mut self, slice: Slice) {
        debug_assert_eq!(self.slice.count(), slice.calls as u64);
        let kept = self.quiet_calls.get_mut(self.slices_ended);
        match (self.quiet.offer(self.slices_ended, slice), kept) {
            (Offer::Disturbed, _) => {}
            (Offer::Quiet, Some((seen, calls))) => {
                *seen += 1;
                calls.merge(&self.slice);
            }
            (Offer::Quietest, Some((seen, calls))) => {
                *seen = 1;
                calls.clone_from(&self.slice);
            }
            (_, None) => self.quiet_calls.push((1, self.slice.clone())),
        }
        self.slice.clear();
        self.slices_ended += 1;
    }
}

/// Size and `target` of every size class, ascending by size: what the
/// hit/miss judgement needs to know about the arena's configuration.
pub struct ClassTable {
    sizes: Vec<usize>,
    targets: Vec<usize>,
}

impl ClassTable {
    pub fn new(classes: &[kmem::ClassConfig]) -> Self {
        ClassTable {
            sizes: classes.iter().map(|c| c.size).collect(),
            targets: classes.iter().map(|c| c.target).collect(),
        }
    }

    /// The class serving a request of `size` bytes; `None` above a page.
    pub fn class_of(&self, size: usize) -> Option<usize> {
        self.sizes.iter().position(|&s| size <= s)
    }
}

/// An `Instant` pair around every call, reported to a [`Sink`].
pub struct Timed<'a, S: Sink> {
    cpu: &'a CpuHandle,
    classes: &'a ClassTable,
    sink: &'a mut S,
}

impl<'a, S: Sink> Timed<'a, S> {
    pub fn new(cpu: &'a CpuHandle, classes: &'a ClassTable, sink: &'a mut S) -> Self {
        Timed { cpu, classes, sink }
    }

    /// The split-freelist rules of `CpuCache`, read from outside: an
    /// allocation misses when both halves are empty; a free misses when
    /// `main` is full and `aux` still holds the previous overflow.
    #[inline]
    fn classify(&self, class: Option<usize>, alloc: bool) -> Served {
        if !S::CLASSIFY {
            return Served::Unknown;
        }
        let Some(class) = class else {
            return Served::Large;
        };
        let (main, aux) = self.cpu.cache_shape(class);
        let miss = if alloc {
            main + aux == 0
        } else {
            main == self.classes.targets[class] && aux > 0
        };
        if miss {
            Served::Miss
        } else {
            Served::Hit
        }
    }

    #[inline]
    fn class_of_size(&self, size: usize) -> Option<usize> {
        if !S::CLASSIFY {
            return None;
        }
        self.classes.class_of(size)
    }
}

impl<S: Sink> Mem for Timed<'_, S> {
    #[inline]
    fn alloc_cookie(&mut self, cookie: Cookie) -> Result<NonNull<u8>, AllocError> {
        let served = self.classify(Some(cookie.class_index()), true);
        let start = Instant::now();
        let r = self.cpu.alloc_cookie(cookie);
        let end = Instant::now();
        self.sink.record(Op::AllocCookie, served, start, end);
        r
    }

    #[inline]
    fn alloc(&mut self, size: usize) -> Result<NonNull<u8>, AllocError> {
        let served = self.classify(self.class_of_size(size), true);
        let start = Instant::now();
        let r = self.cpu.alloc(size);
        let end = Instant::now();
        self.sink.record(Op::Alloc, served, start, end);
        r
    }

    #[inline]
    unsafe fn free_cookie(&mut self, ptr: NonNull<u8>, cookie: Cookie) {
        let served = self.classify(Some(cookie.class_index()), false);
        let start = Instant::now();
        // SAFETY: forwarded caller contract.
        unsafe { self.cpu.free_cookie(ptr, cookie) };
        let end = Instant::now();
        self.sink.record(Op::FreeCookie, served, start, end);
    }

    #[inline]
    unsafe fn free(&mut self, ptr: NonNull<u8>, size: usize) {
        let served = self.classify(self.class_of_size(size), false);
        let start = Instant::now();
        // SAFETY: forwarded caller contract.
        unsafe { self.cpu.free(ptr) };
        let end = Instant::now();
        self.sink.record(Op::Free, served, start, end);
    }

    #[inline]
    unsafe fn free_sized(&mut self, ptr: NonNull<u8>, size: usize) {
        let served = self.classify(self.class_of_size(size), false);
        let start = Instant::now();
        // SAFETY: forwarded caller contract.
        unsafe { self.cpu.free_sized(ptr, size) };
        let end = Instant::now();
        self.sink.record(Op::FreeSized, served, start, end);
    }

    fn end_slice(&mut self, slice: Slice) {
        self.sink.end_slice(slice);
    }
}
