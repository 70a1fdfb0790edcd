//! The global layer (paper Figure 3): one lock per (class, shard).
//!
//! "The only purpose of the global layer is to support reasonable
//! performance in cases when one CPU allocates buffers of a given size,
//! which are then passed to other CPUs that free them. The global layer
//! allows the freed buffers to move back to the allocating CPU without
//! incurring the overhead of coalescing."
//!
//! Each size class has one [`GlobalPool`] per node, and, as in the paper,
//! the whole pool sits under one spinlock. The per-CPU layer above keeps
//! the traffic to it at one visit per `target` operations. The pool holds
//! two things:
//!
//! * `ready`, the paper's `gblfree` list: exact-`target` chains kept as
//!   `(head, tail)` pairs in an array allocated once, at construction, for
//!   the largest bound the pool may reach. A get pops a pair and a put
//!   pushes one, so neither reads or writes a block word under the lock;
//!   the chain is taken apart before the lock and rebuilt after it. The
//!   array, not a list linked through the head blocks, is what keeps a
//!   remote block's line out of the critical section (DESIGN.md §9).
//! * the *bucket list*, an ordinary [`Chain`] that regroups odd-sized
//!   chains (low-memory flushes, short refills handed back) and serves
//!   short gets.
//!
//! The block count is `ready.len() * target + bucket.len()`, exact. The
//! policy is split in two halves so the caller chooses where the second
//! runs: [`GlobalPool::put`] lands the chain and reports whether the pool
//! owes a [`GlobalPool::settle`] — the regroup plus the trim to exactly
//! the pool's *bound*. The arena settles inline or hands the settle to the
//! maintenance core; [`GlobalPool::put_chain`] and [`GlobalPool::put_odd`]
//! are the two halves back to back. Excess goes to the coalesce-to-page
//! layer and an empty pool is replenished from it — both via return
//! values, so the page layer is never entered with the pool locked.
//!
//! # The bound
//!
//! The paper caps a pool at `2 * gbltarget` blocks and names the trade:
//! the global miss rate "may be reduced to any desired level simply by
//! increasing the value of target. The only penalty is the increased
//! amount of memory". A pool built for a block size
//! ([`GlobalPool::sized`]) makes that trade per shard, under its lock and
//! only on the slow paths that already hold it:
//!
//! * **Grow.** A settle that spills arms the pool; the next get that
//!   misses doubles the bound and disarms it, up to a cap of
//!   [`GROWTH_PAGES`] pages' worth of blocks. A miss the `global.get`
//!   failpoint injected grows nothing, and neither does a steal.
//! * **Shrink.** A settle that spills first looks at the fewest chains
//!   `ready` held over a window that closes once gets have drawn half
//!   the bound through the pool; above half the bound, that demand never
//!   needed them, and the bound halves.
//! * **Snap back.** [`GlobalPool::spill_to`] (pressure rung 2) and
//!   [`GlobalPool::drain_all`] (rung 3, reclaim) reset the bound to
//!   `2 * gbltarget` and disarm the pool.
//!
//! A pool at `2 * gbltarget` keeps and spills exactly the blocks of the
//! paper's static pool. [`GlobalPool::new`] builds one whose cap *is*
//! `2 * gbltarget`: the paper's pool, which never grows.

use core::ptr;
use core::sync::atomic::{AtomicUsize, Ordering};

use kmem_smp::{faults, CachePadded, Faults, LocalCounter, SpinLock, SpinLockGuard};
use kmem_vm::PAGE_SIZE;

use crate::block::LinkKey;
use crate::chain::Chain;
use crate::counters::{self, counters};

/// Statistics for one global pool.
///
/// Beyond the access/miss pair the paper's tables need, the counters break
/// every event down by *how* it was served — the detail the snapshot layer
/// (`crate::snapshot`) exposes per class. Every counter is bumped with the
/// pool lock held, so a bump is a load and a store. Totals like
/// [`GlobalStats::get`] are *derived* as `fast + slow` at read time. The
/// slow path bumps its entry counter (`get_slow`/`put_slow`) before any
/// outcome detail, so a concurrent reader that loads the details first can
/// still assert `detail <= slow-entries` on live samples. The two counters
/// a get or put within the bound bumps come first, on one line.
#[derive(Default)]
#[repr(C)]
pub struct GlobalStats {
    /// Gets served a ready `target`-sized chain.
    pub get_fast: LocalCounter,
    /// Exact-`target` puts that landed on `ready` within the bound:
    /// nothing owed.
    pub put_fast: LocalCounter,
    /// Every other get: bucket serves, short pools, misses and injected
    /// faults.
    pub get_slow: LocalCounter,
    /// Gets whose first block came from the bucket list.
    pub get_bucket_hits: LocalCounter,
    /// Gets that handed back a sub-`target` chain (the pool held fewer
    /// than `target` blocks; each one erodes the per-CPU hysteresis).
    pub get_short: LocalCounter,
    /// Total blocks missing from short gets (`target - len`, summed).
    pub get_short_deficit: LocalCounter,
    /// Chain requests that fell through to the coalesce-to-page layer.
    pub get_miss: LocalCounter,
    /// Puts that owe the slow path: odd chains and bound-exceeding exact
    /// chains, wherever the settle then runs.
    pub put_slow: LocalCounter,
    /// Puts that took the odd-sized bucket path (low-memory flushes).
    pub put_odd: LocalCounter,
    /// Returns that spilled excess blocks to the coalesce-to-page layer.
    pub put_miss: LocalCounter,
    /// Spills forced by the pressure ladder ([`GlobalPool::spill_to`])
    /// rather than by a put exceeding the bound. Counted separately from
    /// `put_miss`, which stays bounded by [`GlobalStats::put`].
    pub pressure_spills: LocalCounter,
    /// Total blocks spilled to the coalesce-to-page layer (bound-exceeding
    /// puts and forced spills combined).
    pub spill_blocks: LocalCounter,
    /// Pool-lock acquisitions that found the lock held (monotone, and zero
    /// without contention). The name is kept from the lock-free stack this
    /// pool replaced, for readers of older snapshots.
    pub cas_retries: LocalCounter,
    /// Doublings of the pool's bound: a miss after a spill.
    pub bound_grows: LocalCounter,
    /// Snap-backs of a grown bound to `2 * gbltarget` (`spill_to`,
    /// `drain_all`).
    pub bound_resets: LocalCounter,
}

impl GlobalStats {
    /// Chain requests served (hits and misses): every get is either fast
    /// or slow.
    pub fn get(&self) -> u64 {
        // Fast before slow, the order `GlobalCounts::read` sweeps in.
        let fast = self.get_fast.get();
        fast + self.get_slow.get()
    }

    /// Gets served a ready `target`-sized chain: exactly the fast gets.
    pub fn get_chain_hits(&self) -> u64 {
        self.get_fast.get()
    }

    /// Chains returned by per-CPU caches.
    pub fn put(&self) -> u64 {
        let fast = self.put_fast.get();
        fast + self.put_slow.get()
    }
}

counters! {
    /// Global-pool per-event detail for one class.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct GlobalCounts {
        /// Chain requests (hits and misses); derived as
        /// `get_fast + get_slow` from the same sweep.
        counter get: u64,
        /// Gets served a ready `target`-sized chain.
        counter get_fast: u64,
        /// Gets served from the bucket list, missed, or faulted.
        counter get_slow: u64,
        /// Gets first served from a ready `target`-sized chain.
        counter get_chain_hits: u64,
        /// Gets first served from the bucket list.
        counter get_bucket_hits: u64,
        /// Gets that returned fewer than `target` blocks.
        counter get_short: u64,
        /// Blocks missing from short gets, summed.
        counter get_short_deficit: u64,
        /// Gets that fell through to the coalesce-to-page layer.
        counter get_miss: u64,
        /// Chains returned by per-CPU caches; derived as
        /// `put_fast + put_slow` from the same sweep.
        counter put: u64,
        /// Exact-`target` puts that landed on `ready` within the bound.
        counter put_fast: u64,
        /// Puts that owed the slow path: odd chains and bound-exceeding
        /// exact chains.
        counter put_slow: u64,
        /// Puts through the odd-sized bucket path.
        counter put_odd: u64,
        /// Puts that spilled to the coalesce-to-page layer.
        counter put_miss: u64,
        /// Spills forced by the pressure ladder (`spill_to`), counted apart
        /// from `put_miss` so the latter stays bounded by `put`.
        counter pressure_spills: u64,
        /// Blocks spilled to the coalesce-to-page layer (all causes).
        counter spill_blocks: u64,
        /// Pool-lock acquisitions that found the lock held (monotone; zero
        /// without contention).
        counter cas_retries: u64,
        /// Doublings of a shard's bound: a miss after a spill.
        counter bound_grows: u64,
        /// Snap-backs of a grown bound to `2 * gbltarget` under pressure or
        /// reclaim.
        counter bound_resets: u64,
    }
}

impl GlobalCounts {
    /// Sweeps one class's shards (one per node) into a single merged view,
    /// so per-class global counters keep their pre-NUMA meaning. Each
    /// shard is swept with the order guarantees of [`GlobalCounts::read`],
    /// and every derived partition (`get = get_fast + get_slow`, …) is a
    /// sum of per-shard equalities, so it survives the merge.
    pub(crate) fn read_merged<'a>(shards: impl Iterator<Item = &'a GlobalStats>) -> GlobalCounts {
        let mut total = GlobalCounts::default();
        for s in shards {
            total.merge(&GlobalCounts::read(s));
        }
        total
    }

    /// Field-wise accumulation (summing shards or classes).
    pub fn merge(&mut self, other: &GlobalCounts) {
        counters::merge(self, other);
    }

    /// Sweeps one shard. By hand, because the totals are *derived*: `get`,
    /// `put` and `get_chain_hits` are summed from this single sweep, which
    /// makes the fast/slow partition an equality even on live samples. The
    /// initializers run in the order written, which follows the sweep order
    /// rule of [`crate::counters`]: slow-path outcome details before the
    /// slow-entry counters that bound them.
    pub(crate) fn read(s: &GlobalStats) -> GlobalCounts {
        let mut c = GlobalCounts {
            bound_resets: s.bound_resets.get(),
            bound_grows: s.bound_grows.get(),
            cas_retries: s.cas_retries.get(),
            spill_blocks: s.spill_blocks.get(),
            pressure_spills: s.pressure_spills.get(),
            put_miss: s.put_miss.get(),
            put_odd: s.put_odd.get(),
            put_slow: s.put_slow.get(),
            put_fast: s.put_fast.get(),
            get_miss: s.get_miss.get(),
            get_short: s.get_short.get(),
            get_short_deficit: s.get_short_deficit.get(),
            get_bucket_hits: s.get_bucket_hits.get(),
            get_slow: s.get_slow.get(),
            get_fast: s.get_fast.get(),
            get_chain_hits: 0,
            get: 0,
            put: 0,
        };
        c.get = c.get_fast + c.get_slow;
        c.get_chain_hits = c.get_fast;
        c.put = c.put_fast + c.put_slow;
        c
    }
}

/// A ready chain's `(head, tail)`.
type Pair = (*mut u8, *mut u8);

/// Pairs per 64-byte line of the `ready` array.
const PAIRS_PER_LINE: usize = 4;

/// How far the bound of a pool built for a block size may grow: this many
/// pages' worth of its blocks (and never below `2 * gbltarget`). A
/// constant of the page geometry — 128 KB per class and shard at most —
/// not a knob. 64 pages bought `mix` no more speed than 32 for twice the
/// frames over the static bound (EXPERIMENTS.md).
pub const GROWTH_PAGES: usize = 32;

/// One line of the `ready` array. Aligned, so the array shares no line
/// with another allocation (another class's pool, say): the slots a get
/// or put touches are this pool's alone.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Line([Pair; PAIRS_PER_LINE]);

/// The ready chains, last in first out, in an array allocated once, at
/// construction, and never grown.
struct Ready {
    len: usize,
    /// The low-water mark: the fewest chains `ready` held since the
    /// pool's low-water window opened (`GlobalPool::settle`).
    low: usize,
    lines: Box<[Line]>,
}

impl Ready {
    fn with_capacity(chains: usize) -> Self {
        let empty = Line([(ptr::null_mut(), ptr::null_mut()); PAIRS_PER_LINE]);
        Ready {
            len: 0,
            low: 0,
            lines: vec![empty; chains.div_ceil(PAIRS_PER_LINE)].into_boxed_slice(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, pair: Pair) {
        debug_assert!(
            self.len < self.lines.len() * PAIRS_PER_LINE,
            "`ready` never grows"
        );
        self.lines[self.len / PAIRS_PER_LINE].0[self.len % PAIRS_PER_LINE] = pair;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Pair> {
        self.len = self.len.checked_sub(1)?;
        self.low = self.low.min(self.len);
        Some(self.lines[self.len / PAIRS_PER_LINE].0[self.len % PAIRS_PER_LINE])
    }
}

/// What the pool lock guards. The `ready` header and the bound a put
/// compares against come first, so they share a line with the lock word.
#[repr(C)]
struct Pool {
    /// Ready exact-`target` chains: at most `bound / target + 1`, every
    /// chain within the bound plus one over it; an exact chain that finds
    /// `ready` that full goes to the bucket.
    ready: Ready,
    /// The effective bound in blocks, from `2 * gbltarget` up to the
    /// pool's cap.
    bound: usize,
    /// Odd blocks awaiting regrouping, and the source of short gets.
    bucket: Chain,
    /// Set by a settle that spills: the next miss grows the bound.
    armed: bool,
    /// [`GlobalPool::drawn`] when the low-water window opened.
    window_opened: u64,
}

// SAFETY: the pool owns the free blocks its pairs and bucket link, as a
// `Chain` does, and only the lock holder reaches them.
unsafe impl Send for Pool {}

impl Pool {
    /// Blocks held: exact, with nothing derived.
    fn blocks(&self, target: usize) -> usize {
        self.ready.len() * target + self.bucket.len()
    }

    /// Whether `ready` takes one more chain under the current bound.
    fn ready_has_room(&self, target: usize) -> bool {
        self.ready.len() < self.bound / target + 1
    }
}

/// Why a get handed back no chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Miss {
    /// The `global.get` failpoint fired.
    Injected,
    /// The pool held no block (or sank its bucket on a clobbered link).
    Empty,
}

/// The pool lock, and the counters only its holder writes: the words a
/// call writes, kept off the lines of the words every call only reads.
#[repr(C)]
struct Locked {
    pool: SpinLock<Pool>,
    stats: GlobalStats,
}

/// The global free pool for one size class (one shard of it, on a
/// multi-node topology).
pub struct GlobalPool {
    target: usize,
    gbltarget: usize,
    /// The most blocks the bound may grow to.
    cap: usize,
    /// Link-encoding key shared with every chain this pool handles (the
    /// arena's per-secret key under the hardened profile, identity
    /// otherwise). Steal targets share the arena key, so a stolen chain
    /// decodes on the thief's node exactly as it would at home.
    key: LinkKey,
    faults: Faults,
    /// Blocks sunk by a detected bucket-link corruption: they are
    /// unreachable through the clobbered word, so the pool drops them and
    /// records the loss here for the conservation check.
    sunk: AtomicUsize,
    locked: CachePadded<Locked>,
}

impl GlobalPool {
    /// Creates an empty pool with the class's `target` and `gbltarget`
    /// (no failpoints, plain link encoding — the default profile). Its
    /// bound stays at the paper's `2 * gbltarget`.
    pub fn new(target: usize, gbltarget: usize) -> Self {
        GlobalPool::new_hardened(target, gbltarget, Faults::none(), LinkKey::PLAIN)
    }

    /// An empty pool wired to `faults` (the `faults::GLOBAL_GET` site is
    /// consulted once per [`GlobalPool::get_chain`]) whose bucket links
    /// are encoded under `key`. Its bound stays at the paper's
    /// `2 * gbltarget`.
    pub fn new_hardened(target: usize, gbltarget: usize, faults: Faults, key: LinkKey) -> Self {
        GlobalPool::build(target, gbltarget, 2 * gbltarget, faults, key)
    }

    /// The arena's constructor: [`GlobalPool::new_hardened`] for blocks of
    /// `size` bytes, whose bound adapts (module docs) between
    /// `2 * gbltarget` and [`GROWTH_PAGES`] pages' worth of blocks.
    pub fn sized(
        size: usize,
        target: usize,
        gbltarget: usize,
        faults: Faults,
        key: LinkKey,
    ) -> Self {
        let cap = (GROWTH_PAGES * PAGE_SIZE / size).max(2 * gbltarget);
        GlobalPool::build(target, gbltarget, cap, faults, key)
    }

    fn build(target: usize, gbltarget: usize, cap: usize, faults: Faults, key: LinkKey) -> Self {
        assert!(target >= 1, "target-sized chains must hold a block");
        GlobalPool {
            target,
            gbltarget,
            cap,
            key,
            faults,
            sunk: AtomicUsize::new(0),
            locked: CachePadded::new(Locked {
                pool: SpinLock::new(Pool {
                    ready: Ready::with_capacity(cap / target + 1),
                    bound: 2 * gbltarget,
                    bucket: Chain::new_keyed(key),
                    armed: false,
                    window_opened: 0,
                }),
                stats: GlobalStats::default(),
            }),
        }
    }

    /// This pool's `target`.
    pub fn target(&self) -> usize {
        self.target
    }

    /// This pool's `gbltarget`.
    pub fn gbltarget(&self) -> usize {
        self.gbltarget
    }

    /// The effective bound in blocks, between `2 * gbltarget` and
    /// [`GlobalPool::cap`].
    pub fn bound(&self) -> usize {
        self.lock().bound
    }

    /// The most blocks the bound may grow to: `2 * gbltarget` for a pool
    /// built without a block size.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Statistics for this pool.
    pub fn stats(&self) -> &GlobalStats {
        &self.locked.stats
    }

    /// Takes the pool lock, counting an acquisition that finds it held.
    #[inline]
    fn lock(&self) -> SpinLockGuard<'_, Pool> {
        if let Some(pool) = self.locked.pool.try_lock() {
            return pool;
        }
        let pool = self.locked.pool.lock();
        self.locked.stats.cas_retries.bump();
        pool
    }

    /// Rebuilds a chain taken off `ready`.
    ///
    /// # Safety
    ///
    /// `(head, tail)` was popped off this pool's `ready`, so it is an
    /// exact-`target` chain the caller now owns.
    unsafe fn ready_chain(&self, (head, tail): Pair) -> Chain {
        // SAFETY: `ready` holds only the parts of whole chains (`put`,
        // `settle`), untouched while they sat there.
        unsafe { Chain::from_raw(head, tail, self.target, self.key) }
    }

    /// Fetches a chain for a per-CPU cache.
    ///
    /// A ready `target`-sized chain when there is one; otherwise a serve
    /// from the bucket list, so the caller receives `min(target,
    /// pool_total)` blocks — the most the paper's hysteresis guarantee
    /// ("the global layer will be accessed at most one time per
    /// target-number of accesses") can get. A chain shorter than `target`
    /// is handed back only when the whole pool holds fewer than `target`
    /// blocks, counted in `get_short`/`get_short_deficit`.
    ///
    /// Returns `None` when the pool is empty — the caller then asks the
    /// coalesce-to-page layer (the counted miss, which grows an armed
    /// bound) — or when the `faults::GLOBAL_GET` failpoint fires, which it
    /// is asked once per get whatever would have served it.
    pub fn get_chain(&self) -> Option<Chain> {
        self.get(true).ok()
    }

    /// [`GlobalPool::get_chain`], saying why it missed. With `grow` unset
    /// an empty pool's miss leaves the bound alone: the caller may still
    /// be served by a steal, and grows the bound itself
    /// ([`GlobalPool::grow_after_miss`]) only if it goes on to the page
    /// layer.
    #[inline]
    pub(crate) fn get(&self, grow: bool) -> Result<Chain, Miss> {
        let fault = self.faults.hit(faults::GLOBAL_GET);
        let mut pool = self.lock();
        if !fault {
            if let Some(pair) = pool.ready.pop() {
                self.locked.stats.get_fast.bump();
                drop(pool);
                // SAFETY: just popped off `ready`.
                return Ok(unsafe { self.ready_chain(pair) });
            }
        }
        self.get_slow(pool, fault, grow)
    }

    /// Work-stealing get against a *remote* node's shard: takes one ready
    /// `target`-sized chain under the victim's lock, but never serves from
    /// the bucket — a thief takes only what is cheap to take — and never
    /// arms or grows either shard's bound. Counted as a fast get so the
    /// `get = get_fast + get_slow` partition stays exact; the *thief's*
    /// arena attributes the refill to stealing in its per-node stats.
    pub fn steal_chain(&self) -> Option<Chain> {
        let mut pool = self.lock();
        let pair = pool.ready.pop()?;
        self.locked.stats.get_fast.bump();
        drop(pool);
        // SAFETY: just popped off `ready`.
        Some(unsafe { self.ready_chain(pair) })
    }

    /// The get with no ready chain to hand out (or a fault to inject):
    /// serve (possibly short) from the bucket list, or miss.
    #[cold]
    fn get_slow(
        &self,
        mut pool: SpinLockGuard<'_, Pool>,
        fault: bool,
        grow: bool,
    ) -> Result<Chain, Miss> {
        let stats = &self.locked.stats;
        stats.get_slow.bump();
        if fault {
            stats.get_miss.bump();
            return Err(Miss::Injected);
        }
        let n = pool.bucket.len().min(self.target);
        if n > 0 {
            match pool.bucket.try_split_first(n) {
                Ok(chain) => {
                    if n < self.target {
                        stats.get_short_deficit.add((self.target - n) as u64);
                        stats.get_short.bump();
                    }
                    stats.get_bucket_hits.bump();
                    return Ok(chain);
                }
                // A clobbered bucket link: the walk stopped before
                // dereferencing it, the bucket sank its now-unreachable
                // blocks, and this get becomes a miss the page layer will
                // serve. The loss is recorded for the conservation check.
                Err(fault) => {
                    self.sunk.fetch_add(fault.lost, Ordering::Relaxed);
                }
            }
        }
        stats.get_miss.bump();
        if grow {
            self.grow(&mut pool);
        }
        Err(Miss::Empty)
    }

    /// A miss after a spill: the blocks the spill shed were wanted back,
    /// so the bound doubles (up to the cap) and the pool disarms.
    fn grow(&self, pool: &mut Pool) {
        if !core::mem::take(&mut pool.armed) {
            return;
        }
        let bound = (2 * pool.bound).min(self.cap);
        if bound > pool.bound {
            pool.bound = bound;
            self.locked.stats.bound_grows.bump();
        }
    }

    /// Grows an armed bound for an empty-pool miss that
    /// [`GlobalPool::get`] left to the caller, once no steal served it.
    pub(crate) fn grow_after_miss(&self) {
        let mut pool = self.lock();
        self.grow(&mut pool);
    }

    /// Snaps a grown bound back to the paper's `2 * gbltarget`, disarms
    /// the pool and opens a new low-water window.
    fn reset(&self, pool: &mut Pool) {
        pool.armed = false;
        self.open_window(pool);
        if pool.bound > 2 * self.gbltarget {
            pool.bound = 2 * self.gbltarget;
            self.locked.stats.bound_resets.bump();
        }
    }

    /// Accepts a chain from a per-CPU cache and returns whether the pool
    /// now owes a [`GlobalPool::settle`], which the caller runs inline or
    /// hands to the maintenance core.
    ///
    /// * An exact-`target` chain within the bound lands on `ready`:
    ///   nothing owed.
    /// * An exact chain over the bound lands on `ready` too while the
    ///   bound leaves it room (the bucket otherwise), counts as
    ///   `put_slow`, and owes the trim. Until the settle runs the pool may
    ///   hold one such chain per CPU beyond its bound.
    /// * A chain of any other length goes to the bucket list
    ///   ([`GlobalPool::append`]), so `ready` only ever holds exact
    ///   chains, even under misuse.
    pub fn put(&self, chain: Chain) -> bool {
        if chain.len() != self.target {
            return self.append(chain);
        }
        let (head, tail, _) = chain.into_raw();
        let mut pool = self.lock();
        if pool.blocks(self.target) + self.target <= pool.bound {
            // Within the bound, so `ready` has room: its capacity covers
            // every chain the cap admits, plus one.
            pool.ready.push((head, tail));
            self.locked.stats.put_fast.bump();
            return false;
        }
        self.put_over(pool, head, tail);
        true
    }

    /// The exact put over the bound: lands the chain and leaves the trim
    /// to the settle it owes.
    #[cold]
    fn put_over(&self, mut pool: SpinLockGuard<'_, Pool>, head: *mut u8, tail: *mut u8) {
        self.locked.stats.put_slow.bump();
        if pool.ready_has_room(self.target) {
            pool.ready.push((head, tail));
        } else {
            // SAFETY: the parts of the exact chain `put` took apart.
            let mut chain = unsafe { Chain::from_raw(head, tail, self.target, self.key) };
            pool.bucket.append(&mut chain);
        }
    }

    /// The odd-chain put (low-memory flushes, partial refills handed
    /// back): an O(1) append to the bucket list. Owes a settle only if the
    /// bucket now holds a chain's worth or the pool is over its bound.
    fn append(&self, mut chain: Chain) -> bool {
        if chain.is_empty() {
            return false;
        }
        let mut pool = self.lock();
        self.locked.stats.put_slow.bump();
        self.locked.stats.put_odd.bump();
        pool.bucket.append(&mut chain);
        pool.bucket.len() >= self.target || pool.blocks(self.target) > pool.bound
    }

    /// The slow half of a put: regroup the bucket list, then trim the
    /// pool to exactly its bound. Returns the spill for the caller to push
    /// to the coalesce-to-page layer, counted in `put_miss`. A settle that
    /// finds nothing owed changes nothing.
    ///
    /// A settle that spills also adapts the bound, before the trim: it
    /// halves the bound if `ready` never fell to half of it over a closed
    /// low-water window, and it arms the pool, so that the next miss
    /// grows the bound instead.
    pub fn settle(&self) -> Option<Chain> {
        let mut pool = self.lock();
        self.regroup(&mut pool);
        if pool.blocks(self.target) <= pool.bound {
            return None;
        }
        // The low-water window closes once gets have drawn half the
        // bound through it; a window that saw less demand stays open, so
        // the spills of a put-heavy stretch, each a moment after the last
        // with the pool still full, judge nothing.
        let drawn = self.drawn();
        let closes = (drawn - pool.window_opened) * self.target as u64 >= pool.bound as u64 / 2;
        if closes && pool.ready.low * self.target > pool.bound / 2 {
            pool.bound = (pool.bound / 2).max(2 * self.gbltarget);
        }
        pool.armed = true;
        let bound = pool.bound;
        let spill = self.shed(&mut pool, bound, &self.locked.stats.put_miss);
        if closes {
            self.open_window(&mut pool);
        }
        Some(spill)
    }

    /// Chains handed out so far, ready, bucket or stolen: the clock of the
    /// low-water window, read off the counters gets already bump.
    fn drawn(&self) -> u64 {
        self.locked.stats.get_fast.get() + self.locked.stats.get_bucket_hits.get()
    }

    /// Opens a new low-water window at the pool's present depth.
    fn open_window(&self, pool: &mut Pool) {
        pool.window_opened = self.drawn();
        pool.ready.low = pool.ready.len();
    }

    /// [`GlobalPool::put`] followed, when owed, by [`GlobalPool::settle`]:
    /// returns the spill, if any.
    pub fn put_chain(&self, chain: Chain) -> Option<Chain> {
        if self.put(chain) {
            self.settle()
        } else {
            None
        }
    }

    /// [`GlobalPool::put_chain`] through the bucket list, whatever the
    /// chain's length.
    pub fn put_odd(&self, chain: Chain) -> Option<Chain> {
        if self.append(chain) {
            self.settle()
        } else {
            None
        }
    }

    /// Trims the pool down to `bound` blocks on behalf of the pressure
    /// ladder, returning the spill for the caller to push to the
    /// coalesce-to-page layer. `None` when the pool is already within
    /// bounds. Counted in `pressure_spills`, not `put_miss`. Snaps a grown
    /// bound back to `2 * gbltarget` first, whether or not anything spills.
    pub fn spill_to(&self, bound: usize) -> Option<Chain> {
        let mut pool = self.lock();
        self.reset(&mut pool);
        self.regroup(&mut pool);
        if pool.blocks(self.target) <= bound {
            return None;
        }
        Some(self.shed(&mut pool, bound, &self.locked.stats.pressure_spills))
    }

    /// "The bucket list, which is used to group the blocks back into
    /// target-sized lists": whole chains move to `ready` while the bound
    /// leaves it room.
    fn regroup(&self, pool: &mut Pool) {
        while pool.bucket.len() >= self.target && pool.ready_has_room(self.target) {
            let (head, tail, _) = pool.bucket.split_first(self.target).into_raw();
            pool.ready.push((head, tail));
        }
    }

    /// Sheds exactly the blocks over `bound` (the pool holds more),
    /// attributing the spill to `cause` and `spill_blocks`.
    ///
    /// The bucket's leftover blocks go first (they serve only short gets),
    /// then whole ready chains, and the last one is split so the pool
    /// lands exactly on the bound (a walk of fewer than `target` links,
    /// once per trim).
    fn shed(&self, pool: &mut Pool, bound: usize, cause: &LocalCounter) -> Chain {
        let mut excess = pool.blocks(self.target) - bound;
        let n = excess.min(pool.bucket.len());
        let mut spill = if n > 0 {
            pool.bucket.split_first(n)
        } else {
            Chain::new_keyed(self.key)
        };
        excess -= n;
        while excess > 0 {
            let pair = pool
                .ready
                .pop()
                .expect("blocks beyond the bucket are ready chains");
            // SAFETY: just popped off `ready`.
            let mut chain = unsafe { self.ready_chain(pair) };
            if excess < self.target {
                // The bucket was shed above, so the kept remainder (fewer
                // than `target` blocks) is all it holds.
                spill.append(&mut chain.split_first(excess));
                pool.bucket.append(&mut chain);
                break;
            }
            spill.append(&mut chain);
            excess -= self.target;
        }
        cause.bump();
        self.locked.stats.spill_blocks.add(spill.len() as u64);
        spill
    }

    /// Current block count, exact (tests, the invariant walker, and the
    /// steal's victim pick).
    pub fn len(&self) -> usize {
        self.lock().blocks(self.target)
    }

    /// Returns whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks this pool sank on detected bucket-link corruption — still
    /// part of the arena's reservation, so the conservation check counts
    /// them alongside free and cached blocks.
    pub fn sunk(&self) -> usize {
        self.sunk.load(Ordering::Relaxed)
    }

    /// Drains every block (arena teardown and low-memory reclaim),
    /// snapping a grown bound back to `2 * gbltarget`.
    pub fn drain_all(&self) -> Chain {
        let mut pool = self.lock();
        self.reset(&mut pool);
        let mut all = pool.bucket.take();
        while let Some(pair) = pool.ready.pop() {
            // SAFETY: just popped off `ready`.
            all.append(&mut unsafe { self.ready_chain(pair) });
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmem_smp::probe;
    use kmem_smp::FailPolicy;

    // Boxed so each block keeps a stable address while the Vec grows.
    #[expect(clippy::vec_box)]
    struct Blocks {
        store: Vec<Box<[u8; 32]>>,
        next: usize,
    }

    impl Blocks {
        fn new(n: usize) -> Self {
            Blocks {
                store: (0..n).map(|_| Box::new([0u8; 32])).collect(),
                next: 0,
            }
        }

        fn chain(&mut self, n: usize) -> Chain {
            let mut c = Chain::new();
            for _ in 0..n {
                // SAFETY: fake blocks are owned and disjoint.
                unsafe { c.push(self.store[self.next].as_mut_ptr()) };
                self.next += 1;
            }
            c
        }
    }

    fn discard(c: Chain) -> usize {
        let mut c = c;
        let mut n = 0;
        while c.pop().is_some() {
            n += 1;
        }
        n
    }

    #[test]
    fn get_put_round_trip() {
        let mut blocks = Blocks::new(64);
        let pool = GlobalPool::new(3, 12);
        assert!(pool.get_chain().is_none());
        assert!(pool.put_chain(blocks.chain(3)).is_none());
        assert_eq!(pool.len(), 3);
        let got = pool.get_chain().unwrap();
        assert_eq!(got.len(), 3);
        assert!(pool.is_empty());
        discard(got);
    }

    #[test]
    fn single_block_targets_round_trip() {
        // target == 1: chain head == tail.
        let mut blocks = Blocks::new(8);
        let pool = GlobalPool::new(1, 4);
        for _ in 0..4 {
            assert!(pool.put_chain(blocks.chain(1)).is_none());
        }
        assert_eq!(pool.len(), 4);
        for _ in 0..4 {
            let c = pool.get_chain().unwrap();
            assert_eq!(c.len(), 1);
            discard(c);
        }
        assert!(pool.get_chain().is_none());
    }

    #[test]
    fn popped_chains_walk_intact() {
        // A chain rebuilt from its `(head, tail)` pair must walk
        // head-to-tail with its original blocks and a working tail.
        let mut blocks = Blocks::new(64);
        for target in [2usize, 3, 5, 8] {
            let pool = GlobalPool::new(target, 4 * target);
            let c = blocks.chain(target);
            let members: Vec<*mut u8> = c.iter().collect();
            pool.put_chain(c);
            pool.put_chain(blocks.chain(target)); // two ready chains
            discard(pool.get_chain().unwrap()); // takes the second chain
            let mut got = pool.get_chain().unwrap();
            assert_eq!(got.iter().collect::<Vec<_>>(), members);
            // The tail pointer survived the round trip: append works.
            let mut more = blocks.chain(1);
            got.append(&mut more);
            assert_eq!(got.len(), target + 1);
            discard(got);
        }
    }

    #[test]
    fn bucket_regroups_odd_chains() {
        let mut blocks = Blocks::new(64);
        let pool = GlobalPool::new(3, 12);
        // 2 + 2 blocks: one regrouped chain of 3 plus 1 in the bucket.
        assert!(pool.put_odd(blocks.chain(2)).is_none());
        assert!(pool.put_odd(blocks.chain(2)).is_none());
        assert_eq!(pool.len(), 4);
        let first = pool.get_chain().unwrap();
        assert_eq!(first.len(), 3);
        // The straggler comes out as a short chain rather than a miss.
        let second = pool.get_chain().unwrap();
        assert_eq!(second.len(), 1);
        assert!(pool.get_chain().is_none());
        discard(first);
        discard(second);
    }

    #[test]
    fn pool_spills_beyond_twice_gbltarget() {
        let mut blocks = Blocks::new(64);
        // target 3, gbltarget 6: capacity 12 blocks = 4 chains.
        let pool = GlobalPool::new(3, 6);
        for _ in 0..4 {
            assert!(pool.put_chain(blocks.chain(3)).is_none());
        }
        assert_eq!(pool.len(), 12);
        let spill = pool.put_chain(blocks.chain(3)).unwrap();
        assert_eq!(spill.len(), 3);
        assert_eq!(pool.len(), 12);
        discard(spill);
        discard(pool.drain_all());
    }

    #[test]
    fn spill_lands_exactly_on_the_bound() {
        let mut blocks = Blocks::new(64);
        // target 5, gbltarget 5: capacity 10.
        let pool = GlobalPool::new(5, 5);
        // 12 odd blocks regroup into two chains of 5 plus 2 in the bucket;
        // exactly the 2 excess blocks are shed (the final chain is split),
        // leaving the pool at its 10-block bound.
        let spill = pool.put_odd(blocks.chain(12)).unwrap();
        assert_eq!(spill.len(), 2);
        assert_eq!(pool.len(), 10);
        assert_eq!(pool.stats().spill_blocks.get(), 2);
        discard(spill);
        discard(pool.drain_all());
    }

    #[test]
    fn spill_of_one_excess_block_sheds_exactly_one() {
        // Regression edge case: total == 2 * gbltarget + 1 must spill
        // exactly 1 block, not a whole `target`-sized chain.
        let mut blocks = Blocks::new(32);
        // target 3, gbltarget 6: capacity 12 = 4 chains.
        let pool = GlobalPool::new(3, 6);
        for _ in 0..4 {
            assert!(pool.put_chain(blocks.chain(3)).is_none());
        }
        assert_eq!(pool.len(), 12);
        // One more block (odd put) pushes the total to 13.
        let spill = pool.put_odd(blocks.chain(1)).unwrap();
        assert_eq!(spill.len(), 1);
        assert_eq!(pool.len(), 12);
        // The split remainder keeps serving full chains: 12 blocks are
        // still four exact `target`-chains' worth.
        for _ in 0..4 {
            let c = pool.get_chain().unwrap();
            assert_eq!(c.len(), 3);
            discard(c);
        }
        assert!(pool.is_empty());
        discard(spill);
    }

    #[test]
    fn get_chain_tops_up_short_chains_from_the_bucket() {
        // Regression: a sub-`target` chain in the pool used to be handed
        // back as-is even when the bucket held more blocks, breaking the
        // "one global access per `target` operations" hysteresis. A
        // wrong-sized put routes through the bucket, which regroups into
        // exact `target`-sized stack chains whenever it holds enough.
        let mut blocks = Blocks::new(32);
        let pool = GlobalPool::new(4, 8);
        pool.put_chain(blocks.chain(2)); // misuse: short "exact" put
        pool.put_odd(blocks.chain(3));
        assert_eq!(pool.len(), 5);
        let first = pool.get_chain().unwrap();
        assert_eq!(first.len(), 4, "get must be topped up to target");
        assert_eq!(pool.stats().get_short.get(), 0);
        // Only 1 block left: the short get is now inevitable and counted.
        let second = pool.get_chain().unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(pool.stats().get_short.get(), 1);
        assert_eq!(pool.stats().get_short_deficit.get(), 3);
        assert!(pool.get_chain().is_none());
        discard(first);
        discard(second);
    }

    #[test]
    fn get_sources_are_counted() {
        let mut blocks = Blocks::new(32);
        let pool = GlobalPool::new(3, 8);
        pool.put_chain(blocks.chain(3));
        pool.put_odd(blocks.chain(2));
        discard(pool.get_chain().unwrap()); // ready chain first
        discard(pool.get_chain().unwrap()); // then the bucket
        assert!(pool.get_chain().is_none());
        let s = pool.stats();
        assert_eq!(s.get(), 3);
        assert_eq!(s.get_chain_hits(), 1);
        assert_eq!(s.get_bucket_hits.get(), 1);
        assert_eq!(s.get_miss.get(), 1);
        assert_eq!(s.put(), 2);
        assert_eq!(s.put_odd.get(), 1);
        // Fast/slow partition: the ready chain was the fast get; the
        // bucket hit and the miss were slow.
        assert_eq!(s.get_fast.get(), 1);
        assert_eq!(s.get_slow.get(), 2);
        assert_eq!(s.put_fast.get(), 1);
        assert_eq!(s.put_slow.get(), 1);
    }

    #[test]
    fn spill_to_trims_without_touching_put_counters() {
        let mut blocks = Blocks::new(32);
        // target 3, gbltarget 6: bound 12.
        let pool = GlobalPool::new(3, 6);
        for _ in 0..4 {
            assert!(pool.put_chain(blocks.chain(3)).is_none());
        }
        assert_eq!(pool.len(), 12);
        // Already within `2 * gbltarget`: nothing to shed at that bound.
        assert!(pool.spill_to(12).is_none());
        // A pressure spill down to `gbltarget` sheds exactly 6 blocks and
        // is attributed to `pressure_spills`, leaving `put_miss` alone.
        let spill = pool.spill_to(6).unwrap();
        assert_eq!(spill.len(), 6);
        assert_eq!(pool.len(), 6);
        let s = pool.stats();
        assert_eq!(s.put_miss.get(), 0);
        assert_eq!(s.pressure_spills.get(), 1);
        assert_eq!(s.spill_blocks.get(), 6);
        assert!(pool.spill_to(6).is_none(), "a second spill finds nothing");
        discard(spill);
        discard(pool.drain_all());
    }

    #[test]
    fn spill_trims_bucket_when_no_chains_remain() {
        let mut blocks = Blocks::new(64);
        // target 10, gbltarget 3: capacity 6, and 8 odd blocks are too few
        // to regroup into a chain — the bucket itself must be trimmed.
        let pool = GlobalPool::new(10, 3);
        let spill = pool.put_odd(blocks.chain(8)).unwrap();
        assert_eq!(spill.len(), 2);
        assert_eq!(pool.len(), 6);
        discard(spill);
        discard(pool.drain_all());
    }

    #[test]
    fn miss_statistics_track_fallthrough() {
        let mut blocks = Blocks::new(16);
        let pool = GlobalPool::new(2, 4);
        assert!(pool.get_chain().is_none());
        assert_eq!(pool.stats().get(), 1);
        assert_eq!(pool.stats().get_miss.get(), 1);
        pool.put_chain(blocks.chain(2));
        let c = pool.get_chain().unwrap();
        assert_eq!(pool.stats().get(), 2);
        assert_eq!(pool.stats().get_miss.get(), 1);
        discard(c);
    }

    #[test]
    fn drain_all_empties_everything() {
        let mut blocks = Blocks::new(32);
        let pool = GlobalPool::new(3, 10);
        pool.put_chain(blocks.chain(3));
        pool.put_odd(blocks.chain(2));
        assert_eq!(discard(pool.drain_all()), 5);
        assert!(pool.is_empty());
    }

    #[test]
    fn locked_words_share_no_line_with_the_read_mostly_ones() {
        use core::mem::{offset_of, size_of};
        // The 64-byte lines a field of `len` bytes at `offset` touches.
        let lines = |offset: usize, len: usize| offset / 64..=(offset + len - 1) / 64;
        let hot = lines(
            offset_of!(GlobalPool, locked),
            size_of::<CachePadded<Locked>>(),
        );
        for (name, cold) in [
            (
                "target",
                lines(offset_of!(GlobalPool, target), size_of::<usize>()),
            ),
            (
                "gbltarget",
                lines(offset_of!(GlobalPool, gbltarget), size_of::<usize>()),
            ),
            (
                "key",
                lines(offset_of!(GlobalPool, key), size_of::<LinkKey>()),
            ),
            (
                "faults",
                lines(offset_of!(GlobalPool, faults), size_of::<Faults>()),
            ),
        ] {
            assert!(
                cold.end() < hot.start() || hot.end() < cold.start(),
                "`{name}` on lines {cold:?} shares one with the locked words on {hot:?}"
            );
        }
    }

    /// An exact-`target` ping-pong takes the pool lock once per get and
    /// once per put, and interlocks on nothing else.
    #[test]
    fn ping_pong_takes_the_pool_lock_once() {
        let mut blocks = Blocks::new(16);
        let pool = GlobalPool::new(4, 16);
        pool.put_chain(blocks.chain(4));
        for _ in 0..100 {
            let (c, get) = probe::record(|| pool.get_chain().unwrap());
            let (owed, put) = probe::record(|| pool.put(c));
            assert!(!owed);
            assert_eq!(probe::steps(&get), "Lu", "get: {get:?}");
            assert_eq!(probe::steps(&put), "Lu", "put: {put:?}");
        }
        let s = pool.stats();
        assert_eq!(s.get_fast.get(), 100);
        assert_eq!(s.get_slow.get(), 0);
        assert_eq!(s.put_fast.get(), 101);
        assert_eq!(s.put_slow.get(), 0);
        assert_eq!(
            s.cas_retries.get(),
            0,
            "one thread never finds the lock held"
        );
        discard(pool.drain_all());
    }

    /// The step bound: a get and a put issue the same events whether the
    /// pool holds one chain or a full `ready` array.
    #[test]
    fn get_and_put_step_alike_at_any_depth() {
        let steps_at = |chains: usize| {
            let mut blocks = Blocks::new(64);
            // target 4, gbltarget 16: bound 32 = 8 chains, `ready` holds 9.
            let pool = GlobalPool::new(4, 16);
            for _ in 0..chains {
                pool.put(blocks.chain(4));
            }
            assert_eq!(pool.len(), 4 * chains);
            let (c, get) = probe::record(|| pool.get_chain().unwrap());
            let (_, put) = probe::record(|| pool.put(c));
            assert_eq!(pool.len(), 4 * chains);
            discard(pool.drain_all());
            (probe::steps(&get), probe::steps(&put))
        };
        let (one, full) = (steps_at(1), steps_at(9));
        assert_eq!(one, full, "a deeper pool must not cost more steps");
        assert_eq!(one, ("Lu".to_string(), "Lu".to_string()));

        // A pool grown to its cap: `ready` holds `cap / target + 1` chains,
        // and a get and a put at that depth still take the lock once.
        let mut blocks = Blocks::new(512);
        let pool = growable();
        grow_to_cap(&pool, &mut blocks);
        let chains = pool.cap() / pool.target() + 1;
        for _ in 0..chains {
            pool.put(blocks.chain(pool.target()));
        }
        assert_eq!(pool.len(), pool.target() * chains);
        let (c, get) = probe::record(|| pool.get_chain().unwrap());
        let (_, put) = probe::record(|| pool.put(c));
        assert_eq!(
            (probe::steps(&get), probe::steps(&put)),
            one,
            "a grown pool must not cost more steps"
        );
        discard(pool.drain_all());
    }

    /// A pool whose bound can grow: blocks of 4 KB, so the cap is
    /// [`GROWTH_PAGES`] blocks, from a floor of `2 * 3`.
    fn growable() -> GlobalPool {
        GlobalPool::sized(PAGE_SIZE, 2, 3, Faults::none(), LinkKey::PLAIN)
    }

    /// Puts exact chains until a settle spills; returns the spill.
    fn put_until_spill(pool: &GlobalPool, blocks: &mut Blocks) -> Chain {
        loop {
            if let Some(spill) = pool.put_chain(blocks.chain(pool.target())) {
                return spill;
            }
        }
    }

    /// Gets until the pool misses.
    fn get_until_miss(pool: &GlobalPool) {
        while let Some(c) = pool.get_chain() {
            discard(c);
        }
    }

    /// Spill, then miss, until the bound stops growing; returns the
    /// bounds it passed through.
    fn grow_to_cap(pool: &GlobalPool, blocks: &mut Blocks) -> Vec<usize> {
        let mut seen = vec![pool.bound()];
        while pool.bound() < pool.cap() {
            discard(put_until_spill(pool, blocks));
            get_until_miss(pool);
            seen.push(pool.bound());
        }
        seen
    }

    #[test]
    fn bound_doubles_on_a_miss_after_a_spill_up_to_the_cap() {
        let mut blocks = Blocks::new(512);
        let pool = growable();
        assert_eq!((pool.bound(), pool.cap()), (6, GROWTH_PAGES));
        // A miss with no spill before it grows nothing.
        get_until_miss(&pool);
        assert_eq!(pool.bound(), 6);
        let mut expected = vec![6];
        while expected.last() != Some(&GROWTH_PAGES) {
            expected.push((2 * expected.last().unwrap()).min(GROWTH_PAGES));
        }
        assert_eq!(grow_to_cap(&pool, &mut blocks), expected);
        assert_eq!(pool.stats().bound_grows.get(), expected.len() as u64 - 1);
        // At the cap a spill and a miss change nothing.
        discard(put_until_spill(&pool, &mut blocks));
        assert_eq!(pool.len(), GROWTH_PAGES, "a grown pool trims to its bound");
        get_until_miss(&pool);
        assert_eq!(pool.bound(), GROWTH_PAGES);
        // One spill grows the bound once: the miss disarms it.
        assert!(pool.get_chain().is_none());
        assert_eq!(pool.stats().bound_grows.get(), expected.len() as u64 - 1);
    }

    #[test]
    fn bound_halves_when_a_window_of_demand_never_needed_the_top_half() {
        let mut blocks = Blocks::new(512);
        let pool = growable();
        grow_to_cap(&pool, &mut blocks);
        let (cap, target) = (pool.cap(), pool.target());
        // Fill to the cap and spill once: the window that closes there saw
        // the pool drained to nothing, so the bound holds.
        discard(put_until_spill(&pool, &mut blocks));
        assert_eq!((pool.bound(), pool.len()), (cap, cap));
        // Put-heavy stretch: spill after spill, no get between them. The
        // window stays open and the bound holds.
        for _ in 0..8 {
            discard(pool.put_chain(blocks.chain(target)).unwrap());
        }
        assert_eq!(pool.bound(), cap);
        // Half the bound's worth drawn, one chain at a time, with the pool
        // never below `cap - target`: the next spill halves the bound and
        // trims to it.
        for _ in 0..cap / 2 / target {
            let c = pool.get_chain().unwrap();
            assert!(pool.put_chain(c).is_none());
        }
        discard(put_until_spill(&pool, &mut blocks));
        assert_eq!((pool.bound(), pool.len()), (cap / 2, cap / 2));
        // Now draw the pool down to exactly half of the bound: that demand
        // needed the top half, and the bound holds.
        let bound = pool.bound();
        let taken: Vec<Chain> = (0..bound / 2 / target)
            .map(|_| pool.get_chain().unwrap())
            .collect();
        for c in taken {
            assert!(pool.put_chain(c).is_none());
        }
        discard(put_until_spill(&pool, &mut blocks));
        assert_eq!(pool.bound(), bound);
        // Halving stops at the paper's bound.
        for _ in 0..8 {
            for _ in 0..pool.bound() / target {
                let c = pool.get_chain().unwrap();
                assert!(pool.put_chain(c).is_none());
            }
            discard(put_until_spill(&pool, &mut blocks));
        }
        assert_eq!(pool.bound(), 2 * pool.gbltarget());
        assert_eq!(pool.stats().bound_resets.get(), 0, "a halving is no reset");
        discard(pool.drain_all());
    }

    #[test]
    fn spill_to_and_drain_all_snap_the_bound_back() {
        let mut blocks = Blocks::new(512);
        let pool = growable();
        let floor = 2 * pool.gbltarget();
        // A reset of a bound at the floor is no reset.
        assert!(pool.spill_to(pool.gbltarget()).is_none());
        assert_eq!(pool.stats().bound_resets.get(), 0);

        grow_to_cap(&pool, &mut blocks);
        discard(put_until_spill(&pool, &mut blocks)); // armed again
        discard(pool.spill_to(pool.gbltarget()).unwrap());
        assert_eq!((pool.bound(), pool.len()), (floor, pool.gbltarget()));
        assert_eq!(pool.stats().bound_resets.get(), 1);
        // The reset disarmed the pool: the next miss grows nothing.
        get_until_miss(&pool);
        assert_eq!(pool.bound(), floor);

        grow_to_cap(&pool, &mut blocks);
        discard(put_until_spill(&pool, &mut blocks));
        discard(pool.drain_all());
        assert_eq!(pool.bound(), floor);
        assert_eq!(pool.stats().bound_resets.get(), 2);
        assert!(pool.get_chain().is_none());
        assert_eq!(pool.bound(), floor, "drain_all disarms too");
    }

    #[test]
    fn injected_misses_and_steals_never_grow_the_bound() {
        let mut blocks = Blocks::new(512);
        let faults = Faults::with_plan();
        let pool = GlobalPool::sized(PAGE_SIZE, 2, 3, faults.clone(), LinkKey::PLAIN);
        discard(put_until_spill(&pool, &mut blocks)); // armed
                                                      // An injected miss, with blocks in the pool or without.
        let plan = faults.plan().unwrap();
        plan.set(faults::GLOBAL_GET, FailPolicy::Script(vec![true]));
        assert_eq!(pool.get(true).unwrap_err(), Miss::Injected);
        assert_eq!(pool.bound(), 6);
        // Steals empty the pool and find it empty; neither grows.
        while let Some(c) = pool.steal_chain() {
            discard(c);
        }
        assert!(pool.steal_chain().is_none());
        assert_eq!(pool.bound(), 6);
        // A miss a steal may still serve leaves the growth to the caller.
        assert!(pool.put_chain(blocks.chain(2)).is_none());
        get_until_miss_deferred(&pool);
        assert_eq!(pool.bound(), 6);
        pool.grow_after_miss();
        assert_eq!(pool.bound(), 12, "the armed pool grew once");
        assert_eq!(pool.stats().bound_grows.get(), 1);
        discard(pool.drain_all());
    }

    fn get_until_miss_deferred(pool: &GlobalPool) {
        while let Ok(c) = pool.get(false) {
            discard(c);
        }
    }

    /// Adapting the bound happens under the lock a settle or a miss
    /// already holds: the same steps as at the paper's static bound.
    #[test]
    fn adapting_the_bound_adds_no_lock_acquisition() {
        let mut blocks = Blocks::new(512);
        let fixed = GlobalPool::new(2, 3);
        let pool = growable();
        grow_to_cap(&pool, &mut blocks);
        discard(put_until_spill(&pool, &mut blocks));
        for p in [&fixed, &pool] {
            while !p.put(blocks.chain(2)) {}
        }
        // The grown pool's settle closes a window and halves its bound.
        for _ in 0..pool.cap() / 2 / pool.target() {
            let c = pool.get_chain().unwrap();
            pool.put(c);
        }
        let bound = pool.bound();
        let (spill, fixed_settle) = probe::record(|| fixed.settle().unwrap());
        discard(spill);
        let (spill, halving_settle) = probe::record(|| pool.settle().unwrap());
        discard(spill);
        assert_eq!(pool.bound(), bound / 2, "the settle halved the bound");
        assert_eq!(probe::steps(&fixed_settle), "Lu");
        assert_eq!(probe::steps(&halving_settle), "Lu");
        // The miss that grows an armed bound, against one that cannot.
        get_until_miss(&fixed);
        get_until_miss(&pool);
        discard(put_until_spill(&pool, &mut blocks));
        get_until_miss_with_steps(&pool, bound / 2);
        discard(fixed.drain_all());
        discard(pool.drain_all());
    }

    /// Drains `pool` and checks that the growing miss at the end takes the
    /// lock once, like a miss at a bound that cannot grow.
    fn get_until_miss_with_steps(pool: &GlobalPool, bound: usize) {
        loop {
            let (got, steps) = probe::record(|| pool.get_chain());
            assert_eq!(probe::steps(&steps), "Lu");
            match got {
                Some(c) => {
                    discard(c);
                }
                None => break,
            }
        }
        assert_eq!(pool.bound(), 2 * bound, "the miss grew the bound");
    }

    /// Fast/slow totals partition `get`/`put` exactly at quiescence.
    #[test]
    fn fast_slow_counters_partition_totals() {
        let mut blocks = Blocks::new(64);
        let pool = GlobalPool::new(3, 6);
        for _ in 0..5 {
            // The 5th put exceeds the 12-block bound and goes slow.
            if let Some(sp) = pool.put_chain(blocks.chain(3)) {
                discard(sp);
            }
        }
        if let Some(sp) = pool.put_odd(blocks.chain(2)) {
            discard(sp);
        }
        while let Some(c) = pool.get_chain() {
            discard(c);
        }
        let s = pool.stats();
        assert_eq!(s.get_fast.get() + s.get_slow.get(), s.get());
        assert_eq!(s.put_fast.get() + s.put_slow.get(), s.put());
        assert_eq!(s.put_fast.get(), 4);
        assert_eq!(s.put_slow.get(), 2);
        discard(pool.drain_all());
    }

    /// The `global.get` failpoint is asked once per get, and a firing
    /// consult misses whether a ready chain or the bucket would have
    /// served.
    #[test]
    fn global_get_fault_fires_whatever_would_serve() {
        let mut blocks = Blocks::new(32);
        let faults = Faults::with_plan();
        let pool = GlobalPool::new_hardened(3, 8, faults.clone(), LinkKey::PLAIN);
        pool.put_chain(blocks.chain(3)); // a ready chain
        pool.put_odd(blocks.chain(2)); // and two blocks in the bucket

        let plan = faults.plan().unwrap();
        let consults = || {
            plan.site_stats()
                .iter()
                .find(|s| s.site == faults::GLOBAL_GET)
                .map_or((0, 0), |s| (s.hits, s.fired))
        };
        // Fire, pass, fire: the site is asked exactly once per get.
        plan.set(
            faults::GLOBAL_GET,
            FailPolicy::Script(vec![true, false, true]),
        );
        assert!(
            pool.get_chain().is_none(),
            "a ready chain bypassed the site"
        );
        assert_eq!(consults(), (1, 1));
        discard(pool.get_chain().unwrap()); // the ready chain, unharmed
        assert_eq!(consults(), (2, 1), "one consult per get");
        // Now only the bucket holds blocks.
        assert!(pool.get_chain().is_none(), "the bucket bypassed the site");
        assert_eq!(consults(), (3, 2));
        let s = pool.stats();
        assert_eq!((s.get_miss.get(), s.get_slow.get()), (2, 2));
        assert_eq!(pool.len(), 2, "faulted gets must not lose blocks");
        discard(pool.drain_all());
    }

    /// 16-aligned backing store for hardened-key tests (plausibility
    /// checks reject unaligned link targets).
    #[repr(align(16))]
    struct Aligned([u8; 32]);

    // Boxed so each block keeps a stable address while the Vec grows.
    #[expect(clippy::vec_box)]
    fn aligned_store(n: usize) -> (Vec<Box<Aligned>>, LinkKey) {
        let store: Vec<Box<Aligned>> = (0..n).map(|_| Box::new(Aligned([0u8; 32]))).collect();
        let lo = store.iter().map(|b| b.0.as_ptr() as usize).min().unwrap();
        let hi = store.iter().map(|b| b.0.as_ptr() as usize).max().unwrap();
        let key = LinkKey::hardened(0xfeed_5eed, lo, hi + 32);
        (store, key)
    }

    fn keyed_chain(
        store: &mut [Box<Aligned>],
        key: LinkKey,
        range: core::ops::Range<usize>,
    ) -> Chain {
        let mut c = Chain::new_keyed(key);
        for b in &mut store[range] {
            // SAFETY: fake blocks are owned and disjoint.
            unsafe { c.push(b.0.as_mut_ptr()) };
        }
        c
    }

    #[test]
    fn hardened_pool_round_trips_encoded_chains() {
        // Under a hardened key, chains survive put/get (and steal_chain,
        // the cross-shard path) with members and tail intact.
        let (mut store, key) = aligned_store(16);
        let pool = GlobalPool::new_hardened(3, 12, Faults::none(), key);
        let c = keyed_chain(&mut store, key, 0..3);
        let members: Vec<*mut u8> = c.iter().collect();
        assert!(pool.put_chain(c).is_none());
        assert!(pool.put_chain(keyed_chain(&mut store, key, 3..6)).is_none());
        // Two ready chains: the steal takes the later one.
        let stolen = pool.steal_chain().unwrap();
        assert_eq!(stolen.len(), 3);
        let mut got = pool.get_chain().unwrap();
        assert_eq!(got.iter().collect::<Vec<_>>(), members);
        // The tail survived the round trip: append still works.
        let mut more = keyed_chain(&mut store, key, 6..7);
        got.append(&mut more);
        assert_eq!(got.len(), 4);
        discard(stolen);
        discard(got);
    }

    #[test]
    fn hardened_bucket_corruption_is_sunk_not_dereferenced() {
        let (mut store, key) = aligned_store(8);
        let pool = GlobalPool::new_hardened(4, 8, Faults::none(), key);
        let chain = keyed_chain(&mut store, key, 0..3);
        let head = chain.peek().unwrap();
        assert!(pool.put_odd(chain).is_none());
        // Scribble the bucket head's encoded link (a use-after-free).
        // SAFETY: the fake block is owned by the test.
        unsafe { (head as *mut usize).write(0x4141_4141_4141_4141_u64 as usize) };
        assert!(
            pool.get_chain().is_none(),
            "a clobbered bucket must miss, not hand out garbage"
        );
        assert_eq!(pool.sunk(), 3, "the unreachable blocks are accounted");
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.stats().get_miss.get(), 1);
    }

    #[test]
    fn concurrent_get_put_preserves_blocks() {
        let pool = GlobalPool::new(4, 40);
        let mut blocks = Blocks::new(80);
        for _ in 0..20 {
            pool.put_chain(blocks.chain(4));
        }
        let spilled = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        if let Some(c) = pool.get_chain() {
                            if let Some(sp) = pool.put_odd(c) {
                                spilled.fetch_add(discard(sp), Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(pool.len() + spilled.into_inner(), 80);
        discard(pool.drain_all());
    }

    #[test]
    fn over_bound_exact_put_owes_a_settle() {
        let mut blocks = Blocks::new(64);
        // target 3, gbltarget 6: bound 12 = 4 chains.
        let pool = GlobalPool::new(3, 6);
        for _ in 0..4 {
            assert!(!pool.put(blocks.chain(3)), "within bound: nothing owed");
        }
        assert_eq!(pool.len(), 12);
        // Over the bound: the put lands, the pool overshoots by one chain
        // until the settle, and the caller is told to settle.
        assert!(
            pool.put(blocks.chain(3)),
            "an over-bound put must owe a settle"
        );
        assert_eq!(pool.len(), 15, "the trim is the settle's job");
        let s = pool.stats();
        assert_eq!((s.put_fast.get(), s.put_slow.get()), (4, 1));
        // The settle restores the bound with `put_miss` attribution.
        let spill = pool.settle().unwrap();
        assert_eq!(spill.len(), 3);
        assert_eq!(pool.len(), 12);
        assert_eq!(s.put_miss.get(), 1);
        assert_eq!(s.spill_blocks.get(), 3);
        assert!(pool.settle().is_none(), "a second settle finds nothing");
        discard(spill);
        discard(pool.drain_all());
    }

    #[test]
    fn put_into_a_full_ready_array_lands_in_the_bucket() {
        let mut blocks = Blocks::new(64);
        // target 3, gbltarget 5: bound 10, `ready` holds 10 / 3 + 1 = 4.
        let pool = GlobalPool::new(3, 5);
        for _ in 0..3 {
            assert!(!pool.put(blocks.chain(3)));
        }
        // Two over-bound puts before any settle runs: the first fills the
        // array, the second finds it full.
        assert!(pool.put(blocks.chain(3)));
        assert!(pool.put(blocks.chain(3)));
        assert_eq!(pool.len(), 15);
        assert_eq!(pool.stats().put_slow.get(), 2);
        assert_eq!(
            pool.stats().put_odd.get(),
            0,
            "an exact chain is no odd put"
        );
        // The settle sheds the bucket's 3 blocks and splits 2 off a ready
        // chain: exactly `2 * gbltarget` remain, however they divide.
        let spill = pool.settle().unwrap();
        assert_eq!(spill.len(), 5);
        assert_eq!(pool.len(), 10);
        assert!(pool.settle().is_none());
        let mut got = Vec::new();
        while let Some(c) = pool.get_chain() {
            got.push(c.len());
            discard(c);
        }
        assert_eq!(got, [3, 3, 3, 1], "three ready chains, then the remainder");
        discard(spill);
    }

    #[test]
    fn odd_puts_append_and_regroup_at_the_settle() {
        let mut blocks = Blocks::new(32);
        let pool = GlobalPool::new(3, 8);
        // Fewer than `target` blocks, within the bound: nothing owed.
        assert!(!pool.put(blocks.chain(2)));
        // A chain's worth in the bucket: the regroup is owed.
        assert!(pool.put(blocks.chain(2)));
        assert_eq!(pool.stats().put_odd.get(), 2);
        assert_eq!(pool.len(), 4);
        assert!(pool.settle().is_none());
        // One exact chain regrouped onto `ready`.
        let c = pool.get_chain().unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(
            pool.stats().get_fast.get(),
            1,
            "a regrouped chain is a ready chain"
        );
        discard(c);
        discard(pool.drain_all());
    }

    #[test]
    fn odd_put_over_the_bound_owes_a_settle() {
        let mut blocks = Blocks::new(32);
        // target 10, gbltarget 3: bound 6, and 8 blocks never regroup.
        let pool = GlobalPool::new(10, 3);
        assert!(!pool.put(blocks.chain(5)));
        assert!(pool.put(blocks.chain(3)), "8 blocks exceed the bound of 6");
        assert_eq!(discard(pool.settle().unwrap()), 2);
        assert_eq!(pool.len(), 6);
        discard(pool.drain_all());
    }

    #[test]
    fn hardened_drain_decodes_every_chain() {
        let (mut store, key) = aligned_store(11);
        let pool = GlobalPool::new_hardened(3, 12, Faults::none(), key);
        for i in 0..3 {
            let chain = keyed_chain(&mut store, key, i * 3..i * 3 + 3);
            assert!(pool.put_chain(chain).is_none());
        }
        assert!(pool.put_odd(keyed_chain(&mut store, key, 9..11)).is_none());
        assert_eq!(discard(pool.drain_all()), 11);
        assert!(pool.is_empty());
    }

    /// Exact-chain recycling under real threads: the pattern the global
    /// layer exists for. Conservation plus counter partitions.
    #[test]
    fn concurrent_exact_ping_pong_is_conserving_and_counted() {
        const THREADS: usize = 4;
        const OPS: usize = 500;
        let pool = GlobalPool::new(4, 4 * THREADS * 2);
        let mut blocks = Blocks::new(4 * THREADS * 2);
        for _ in 0..THREADS * 2 {
            pool.put_chain(blocks.chain(4));
        }
        let total = pool.len();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..OPS {
                        if let Some(c) = pool.get_chain() {
                            assert_eq!(c.len(), 4, "ready chains are exact");
                            assert!(pool.put_chain(c).is_none());
                        }
                    }
                });
            }
        });
        assert_eq!(pool.len(), total);
        let s = pool.stats();
        assert_eq!(s.get_fast.get() + s.get_slow.get(), s.get());
        assert_eq!(s.put_fast.get() + s.put_slow.get(), s.put());
        assert!(s.put_fast.get() > 0);
        discard(pool.drain_all());
    }
}
