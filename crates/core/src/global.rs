//! The global layer (paper Figure 3), lock-free on its common path.
//!
//! "The only purpose of the global layer is to support reasonable
//! performance in cases when one CPU allocates buffers of a given size,
//! which are then passed to other CPUs that free them. The global layer
//! allows the freed buffers to move back to the allocating CPU without
//! incurring the overhead of coalescing."
//!
//! Each size class has one [`GlobalPool`]. The ready `target`-sized
//! chains — the paper's `gblfree` list, and the only structure the
//! common CPU-to-CPU recycling pattern touches — live on a **lock-free
//! Treiber stack** whose head is a generation-tagged word
//! ([`kmem_smp::TaggedAtomic`]): [`GlobalPool::get_chain`] is a single
//! CAS pop and [`GlobalPool::put`] of an exact-`target` chain is a
//! single CAS push, so the last lock on the alloc/free fast path is
//! gone. Chains stay intact on the stack by threading the stack link
//! through each chain head's first word and stashing the displaced
//! intra-chain link and the tail pointer in the spare (poison) words —
//! see [`crate::block::write_stash`].
//!
//! Everything else — the *bucket list* that regroups odd-sized chains
//! (from low-memory cache flushes), short pools, and trims — stays
//! behind a narrow [`SpinLock`]ed slow path. The policy is split in two
//! halves so the caller chooses where the second runs: [`GlobalPool::put`]
//! lands the chain (a lock-free push, or an O(1) locked append for an
//! odd chain) and reports whether the pool owes a
//! [`GlobalPool::settle`] — the regroup plus the trim to `2 *
//! gbltarget`. The arena settles inline or hands the settle to the
//! maintenance core; [`GlobalPool::put_chain`] and
//! [`GlobalPool::put_odd`] are the two halves back to back. The bound is
//! judged by a block-count estimate *derived* from counters the pool
//! already keeps ([`GlobalPool::stack_blocks`] — no dedicated count, no
//! extra hot-path RMW) and enforced exactly by the settle, so concurrent
//! puts can transiently overshoot it by at most one chain per CPU (see
//! DESIGN.md §9 for the argument). Excess goes to the coalesce-to-page
//! layer and an empty pool is replenished from it — both via return
//! values, so the page layer is never entered while the slow-path lock
//! is held.

use core::ptr;
use core::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

use kmem_smp::{faults, EventCounter, Faults, SpinLock, TaggedAtomic};

use crate::block::{self, LinkKey};
use crate::chain::Chain;
use crate::counters::{self, counters};

/// Statistics for one global pool.
///
/// Beyond the access/miss pair the paper's tables need, the counters break
/// every event down by *how* it was served — the detail the snapshot layer
/// (`crate::snapshot`) exposes per class. The counters are chosen so the
/// lock-free fast path bumps exactly **one** of them per operation
/// ([`GlobalStats::get_fast`] or [`GlobalStats::put_fast`]): totals like
/// [`GlobalStats::get`] are *derived* as `fast + slow` at read time rather
/// than maintained with an extra hot-path RMW. The slow path bumps its
/// entry counter (`get_slow`/`put_slow`) before any outcome detail, so a
/// concurrent reader that loads the details first can still assert
/// `detail <= slow-entries` on live samples.
#[derive(Default)]
pub struct GlobalStats {
    /// Gets served entirely by the lock-free CAS pop (no spinlock); every
    /// one handed out a ready `target`-sized chain.
    pub get_fast: EventCounter,
    /// Gets that took the locked slow path (bucket serves, short pools,
    /// misses, and the under-lock stack retry).
    pub get_slow: EventCounter,
    /// Slow-path gets served by a ready chain (a racing put landed one
    /// between the failed fast pop and the lock).
    pub get_chain_hits_slow: EventCounter,
    /// Gets whose first block came from the bucket list.
    pub get_bucket_hits: EventCounter,
    /// Gets that handed back a sub-`target` chain (the pool held fewer
    /// than `target` blocks; each one erodes the per-CPU hysteresis).
    pub get_short: EventCounter,
    /// Total blocks missing from short gets (`target - len`, summed).
    pub get_short_deficit: EventCounter,
    /// Chain requests that fell through to the coalesce-to-page layer.
    pub get_miss: EventCounter,
    /// Exact-`target` puts within the bound: one lock-free CAS push,
    /// nothing owed.
    pub put_fast: EventCounter,
    /// Puts that owe the slow path: odd chains (a locked append) and
    /// bound-exceeding exact chains (a lock-free push that owes a
    /// settle), wherever that settle then runs.
    pub put_slow: EventCounter,
    /// Puts that took the odd-sized bucket path (low-memory flushes).
    pub put_odd: EventCounter,
    /// Returns that spilled excess blocks to the coalesce-to-page layer.
    pub put_miss: EventCounter,
    /// Spills forced by the pressure ladder ([`GlobalPool::spill_to`])
    /// rather than by a put exceeding the bound. Counted separately from
    /// `put_miss`, which stays bounded by [`GlobalStats::put`].
    pub pressure_spills: EventCounter,
    /// Total blocks spilled to the coalesce-to-page layer (bound-exceeding
    /// puts and forced spills combined).
    pub spill_blocks: EventCounter,
    /// Failed tag-CAS attempts on the Treiber stack head (both pops and
    /// pushes; monotone, and zero without contention).
    pub cas_retries: EventCounter,
    /// Epoch-batched stack detaches ([`GlobalPool::drain_all`]): each one
    /// moved *every* stacked chain with a single tagged CAS and settled
    /// the slow-path block account with a single RMW.
    pub batch_drains: EventCounter,
    /// Chains moved by batched detaches. `batched_chains / batch_drains`
    /// is the per-CAS amortization over a one-CAS-per-chain pop loop.
    pub batched_chains: EventCounter,
}

impl GlobalStats {
    /// Chain requests served (hits and misses): every get is either fast
    /// or slow, so the total is derived instead of costing the fast path
    /// a second RMW.
    pub fn get(&self) -> u64 {
        // Fast before slow: a live reader must never see a partition
        // exceed a total it reads later, and `get_fast` is the half that
        // races snapshots without a lock.
        let fast = self.get_fast.get();
        fast + self.get_slow.get()
    }

    /// Gets whose first block came from a ready `target`-sized chain —
    /// every fast get plus the slow path's under-lock stack hits.
    pub fn get_chain_hits(&self) -> u64 {
        let fast = self.get_fast.get();
        fast + self.get_chain_hits_slow.get()
    }

    /// Chains returned by per-CPU caches (derived, like
    /// [`GlobalStats::get`]).
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
        /// Gets served entirely by the lock-free CAS pop.
        counter get_fast: u64,
        /// Gets that took the locked slow path.
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
        /// Exact-`target` puts within the bound (one lock-free CAS push).
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
        /// Failed tag-CAS attempts on the lock-free chain stack (monotone;
        /// zero without contention).
        counter cas_retries: u64,
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

    /// Sweeps one shard. By hand, because the totals are *derived*: the
    /// pool keeps no total counters (the lock-free fast path pays one RMW
    /// per operation), so `get`, `put` and `get_chain_hits` are summed
    /// from this single sweep — which makes the fast/slow partition an
    /// equality even on live samples. The initializers run in the order
    /// written, which follows the sweep order rule of [`crate::counters`]:
    /// slow-path outcome details before the slow-entry counters that
    /// bound them.
    pub(crate) fn read(s: &GlobalStats) -> GlobalCounts {
        let mut c = GlobalCounts {
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
            get_chain_hits: s.get_chain_hits_slow.get(),
            get_bucket_hits: s.get_bucket_hits.get(),
            get_slow: s.get_slow.get(),
            get_fast: s.get_fast.get(),
            get: 0,
            put: 0,
        };
        c.get = c.get_fast + c.get_slow;
        c.get_chain_hits += c.get_fast;
        c.put = c.put_fast + c.put_slow;
        c
    }
}

/// The global free pool for one size class.
pub struct GlobalPool {
    /// Treiber stack of intact, exactly-`target`-sized chains. Only
    /// [`GlobalPool::push_stack`] / [`GlobalPool::pop_stack`] touch it.
    stack: TaggedAtomic,
    /// Net blocks the *slow path* has moved onto (+) or off (−) the
    /// stack: bound-exceeding puts and regrouped bucket chains add
    /// before pushing; trims, drains, and the under-lock get retry
    /// subtract after popping. Subtractions and regroup additions run
    /// under the bucket lock; a bound-exceeding put adds without it, but
    /// still before its push is published. Read lock-free by
    /// [`GlobalPool::stack_blocks`]. Fast-path traffic is *not* tracked
    /// here — it is derived from `put_fast`/`get_fast`, so the fast path
    /// pays no extra RMW for the block count.
    slow_net: AtomicI64,
    /// The slow path: the odd-sized bucket list awaiting regrouping,
    /// behind the pool's only lock. Holding this lock also serializes
    /// structural decisions (trims, short gets, drains) — the lock-free
    /// stack itself may still be pushed/popped concurrently.
    bucket: SpinLock<Chain>,
    target: usize,
    gbltarget: usize,
    /// Link-encoding key shared with every chain this pool handles (the
    /// arena's per-secret key under the hardened profile, identity
    /// otherwise). Steal targets share the arena key, so a stolen chain
    /// decodes on the thief's node exactly as it would at home.
    key: LinkKey,
    /// Blocks sunk by a detected bucket-link corruption: they are
    /// unreachable through the clobbered word, so the pool drops them and
    /// records the loss here for the conservation check.
    sunk: AtomicUsize,
    faults: Faults,
    stats: GlobalStats,
}

impl GlobalPool {
    /// Creates an empty pool with the class's `target` and `gbltarget`
    /// (no failpoints, plain link encoding — the default profile).
    pub fn new(target: usize, gbltarget: usize) -> Self {
        GlobalPool::new_hardened(target, gbltarget, Faults::none(), LinkKey::PLAIN)
    }

    /// The full constructor: an empty pool wired to `faults` (the
    /// `faults::GLOBAL_GET` site is consulted on *both* the CAS fast path
    /// and the locked slow path of [`GlobalPool::get_chain`]) whose stack
    /// words, stash words, and bucket links are all encoded under `key`.
    pub fn new_hardened(target: usize, gbltarget: usize, faults: Faults, key: LinkKey) -> Self {
        assert!(target >= 1, "target-sized chains must hold a block");
        GlobalPool {
            stack: TaggedAtomic::null(),
            slow_net: AtomicI64::new(0),
            bucket: SpinLock::new(Chain::new_keyed(key)),
            target,
            gbltarget,
            key,
            sunk: AtomicUsize::new(0),
            faults,
            stats: GlobalStats::default(),
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

    /// Statistics for this pool.
    pub fn stats(&self) -> &GlobalStats {
        &self.stats
    }

    /// Pushes an exactly-`target`-sized chain onto the lock-free stack.
    ///
    /// The chain is kept intact: the head's first word becomes the stack
    /// link, the displaced intra-chain link moves to the head's second
    /// word, and the tail pointer to the second block's second word
    /// (single-block chains need no stashing — head *is* tail). Only the
    /// head's first word is ever read by non-owners, so only it uses
    /// atomic accesses.
    fn push_stack(&self, chain: Chain) {
        let (head, tail, len) = chain.into_raw();
        debug_assert_eq!(len, self.target, "stack chains must be exactly target");
        if len > 1 {
            // SAFETY: we own the chain; head and its successor are free
            // blocks of at least MIN_BLOCK bytes.
            unsafe {
                let second = block::read_next(head, self.key);
                block::write_stash(head, second, self.key);
                block::write_stash(second, tail, self.key);
            }
        }
        let mut cur = self.stack.load();
        loop {
            // SAFETY: we still own `head` until the CAS publishes it.
            unsafe { block::write_next_atomic(head, cur.ptr(), self.key) };
            match self.stack.compare_exchange(cur, head) {
                Ok(_) => return,
                Err(seen) => {
                    self.stats.cas_retries.inc();
                    cur = seen;
                }
            }
        }
    }

    /// Pops one intact `target`-sized chain off the lock-free stack, or
    /// `None` if the stack is empty. Counter-free: callers attribute the
    /// pop to their own path.
    fn pop_stack(&self) -> Option<Chain> {
        let mut cur = self.stack.load();
        loop {
            if cur.is_null() {
                return None;
            }
            let head = cur.ptr();
            // SAFETY: `head` may already have been popped by a racing
            // CPU — the arena reservation is type-stable, so this atomic
            // load cannot fault, and a stale value is discarded below
            // when the generation-tag CAS fails.
            let next = unsafe { block::read_next_atomic(head, self.key) };
            match self.stack.compare_exchange(cur, next) {
                Ok(_) => {
                    // SAFETY: the successful tag CAS transferred the
                    // whole chain under `head` to us.
                    return Some(unsafe { self.rebuild_chain(head) });
                }
                Err(seen) => {
                    self.stats.cas_retries.inc();
                    cur = seen;
                }
            }
        }
    }

    /// Restores the intra-chain layout of a freshly popped stack chain.
    ///
    /// # Safety
    ///
    /// `head` must be a chain head this CPU just popped (owns) that was
    /// laid out by [`GlobalPool::push_stack`] for this pool's `target`.
    unsafe fn rebuild_chain(&self, head: *mut u8) -> Chain {
        if self.target == 1 {
            // SAFETY: we own `head`; racing poppers may still load its
            // first word, hence the atomic store.
            unsafe { block::write_next_atomic(head, ptr::null_mut(), self.key) };
            // SAFETY: a single owned block is a well-formed chain.
            return unsafe { Chain::from_raw(head, head, 1, self.key) };
        }
        // SAFETY: push_stack stashed the second-block and tail pointers
        // in the spare words; taking them back re-poisons the words.
        let second = unsafe { block::take_stash(head, self.key) };
        // Under a hardened key, a scribble over the head's stash word
        // decodes to an implausible second-block pointer; stop before
        // dereferencing it. A clean panic (not a typed error) because the
        // popped chain is already off the stack: there is no caller state
        // to unwind to that could keep the arena consistent.
        if !self.key.is_plain() && (!self.key.plausible(second) || second.is_null()) {
            panic!(
                "corrupted freelist link: stash word of stacked chain head {head:p} decoded to {second:p}"
            );
        }
        // SAFETY: as above (plausibility-checked under hardened keys).
        let tail = unsafe { block::take_stash(second, self.key) };
        if !self.key.is_plain() && (!self.key.plausible(tail) || tail.is_null()) {
            panic!(
                "corrupted freelist link: tail stash of stacked chain {head:p} decoded to {tail:p}"
            );
        }
        // SAFETY: restoring the intra-chain link we displaced; atomic
        // because racing poppers may still load this word.
        unsafe { block::write_next_atomic(head, second, self.key) };
        // SAFETY: head -> second -> … -> tail is the original chain.
        unsafe { Chain::from_raw(head, tail, self.target, self.key) }
    }

    /// Conservative lock-free estimate of the blocks on the stack.
    ///
    /// No dedicated counter is maintained — that would put a
    /// `fetch_add`/`fetch_sub` pair back on the CAS fast path. Instead
    /// the estimate is derived from counters the pool already keeps:
    /// the fast-path op counters (`put_fast` rises *before* its push,
    /// `get_fast` *after* its pop) plus [`GlobalPool::slow_net`], the
    /// lock holders' net block movement (also added before pushes,
    /// subtracted after pops). A torn sweep — another CPU completing
    /// round trips between the loads — could inflate the estimate
    /// without bound, so the sweep is seqlock-style: it retries while
    /// `put_fast` moves. With `put_fast` stable across the window, any
    /// pop the window counts is of a chain whose push it also counts:
    /// fast pushes raise `put_fast` first and would force a retry, and
    /// slow pushes raise `slow_net` before publishing, which reading
    /// `slow_net` *after* `get_fast` picks up through the pop's release
    /// chain. The result therefore overstates only by in-flight pushes
    /// that have raised their counter but not yet landed — at most one
    /// chain per CPU, the overshoot already granted by the approximate
    /// bound (DESIGN.md §9) — and never understates. Exact at
    /// quiescence. Under a sustained put storm the retry loop could
    /// spin, so after a few rounds it falls back to the torn-but-
    /// conservative read of [`GlobalPool::bound_estimate`].
    ///
    /// Callers are the slow-path consumers (trims, `len`, drains),
    /// where the retry cost is irrelevant and accuracy prevents
    /// spurious spills; the put fast path uses `bound_estimate`.
    fn stack_blocks(&self) -> usize {
        let mut pushed = self.stats.put_fast.get();
        for attempt in 0.. {
            let popped = self.stats.get_fast.get();
            let slow = self.slow_net.load(Ordering::Acquire);
            let pushed_after = self.stats.put_fast.get();
            if pushed_after == pushed || attempt == 8 {
                let est = self.target as i64 * (pushed_after as i64 - popped as i64) + slow;
                return est.max(0) as usize;
            }
            pushed = pushed_after;
        }
        unreachable!("loop above always returns")
    }

    /// Cheapest bound-safe estimate — three loads, no retry — for the
    /// put fast path. Reading `get_fast` (stale) before `put_fast`
    /// (fresh) means round trips completing mid-sweep *inflate* the
    /// result, so it never understates the stack and the `2 *
    /// gbltarget` check stays sound. The inflation is unbounded in
    /// theory (a long preemption mid-sweep), but the only consequence
    /// is a spurious slow-path entry, where [`GlobalPool::stack_blocks`]
    /// re-judges accurately under the lock.
    fn bound_estimate(&self) -> usize {
        let popped = self.stats.get_fast.get() as i64;
        let slow = self.slow_net.load(Ordering::Acquire);
        let pushed = self.stats.put_fast.get() as i64;
        (self.target as i64 * (pushed - popped) + slow).max(0) as usize
    }

    /// Slow-path push: accounts the chain in `slow_net` *before*
    /// publishing it, so [`GlobalPool::stack_blocks`] never understates.
    /// Runs under the bucket lock (regroups) or lock-free (a
    /// bound-exceeding [`GlobalPool::put`]).
    fn push_stack_slow(&self, chain: Chain) {
        self.slow_net
            .fetch_add(chain.len() as i64, Ordering::Release);
        self.push_stack(chain);
    }

    /// Slow-path pop: accounts the chain *after* it is off the stack.
    /// Caller must hold the bucket lock.
    fn pop_stack_slow(&self) -> Option<Chain> {
        let chain = self.pop_stack()?;
        self.slow_net
            .fetch_sub(chain.len() as i64, Ordering::Release);
        Some(chain)
    }

    /// Epoch-batched multi-chain pop: detaches **every** stacked chain
    /// with a *single* tagged CAS (swap the head to null), rebuilds the
    /// run privately, and settles the slow-path block account with a
    /// *single* RMW — instead of one CAS plus one `fetch_sub` per chain.
    /// A bulk drain of N chains costs O(1) shared-line RMWs on the stack
    /// head no matter how large N is (probe-asserted in the tests below).
    ///
    /// Caller must hold the bucket lock (the `slow_net` convention); the
    /// walk itself touches only blocks the CAS transferred to us.
    fn detach_stack_locked(&self) -> Chain {
        let mut all = Chain::new_keyed(self.key);
        let mut cur = self.stack.load();
        let run = loop {
            if cur.is_null() {
                return all;
            }
            match self.stack.compare_exchange(cur, ptr::null_mut()) {
                Ok(_) => break cur.ptr(),
                Err(seen) => {
                    self.stats.cas_retries.inc();
                    cur = seen;
                }
            }
        };
        let mut node = run;
        let mut chains = 0usize;
        while !node.is_null() {
            // Read the stack link *before* rebuilding: rebuild_chain
            // overwrites the head's first word with the intra-chain link.
            // SAFETY: the successful detach CAS transferred the whole run
            // to us; every node is an owned chain head.
            let next = unsafe { block::read_next_atomic(node, self.key) };
            // SAFETY: as above — `node` is an owned chain head laid out by
            // push_stack for this pool's target.
            let mut chain = unsafe { self.rebuild_chain(node) };
            all.append(&mut chain);
            chains += 1;
            node = next;
        }
        // One settle for the whole epoch: every stacked chain is exactly
        // `target` blocks, so the batch moved `chains * target` blocks.
        self.slow_net
            .fetch_sub((chains * self.target) as i64, Ordering::Release);
        self.stats.batch_drains.inc();
        self.stats.batched_chains.add(chains as u64);
        all
    }

    /// Fetches a chain for a per-CPU cache.
    ///
    /// The common case is a single tag-CAS pop of a ready `target`-sized
    /// chain — no lock. When the stack is empty the locked slow path
    /// serves from the bucket list instead, so the caller receives
    /// `min(target, pool_total)` blocks — the most the paper's
    /// hysteresis guarantee ("the global layer will be accessed at most
    /// one time per target-number of accesses") can get. A chain shorter
    /// than `target` is handed back only when the whole pool holds fewer
    /// than `target` blocks, counted in `get_short`/`get_short_deficit`.
    ///
    /// Returns `None` when the pool is empty — the caller then asks the
    /// coalesce-to-page layer (the counted miss) — or when the
    /// `faults::GLOBAL_GET` failpoint fires.
    pub fn get_chain(&self) -> Option<Chain> {
        // The failpoint preempts the pool entirely (fast and slow path
        // alike), exactly as an injected global-layer miss should.
        if self.faults.hit(faults::GLOBAL_GET) {
            return None;
        }
        if let Some(chain) = self.pop_stack() {
            // The fast path's *only* counter write; `get` and
            // `get_chain_hits` are derived from it at read time.
            self.stats.get_fast.inc();
            return Some(chain);
        }
        self.get_slow()
    }

    /// Work-stealing get against a *remote* node's shard: pops one ready
    /// `target`-sized chain with the same single tag-CAS as the local
    /// fast path, but never falls through to the locked bucket path — a
    /// thief takes only what is cheap to take and leaves the victim's
    /// slow-path structures alone. Counted as a fast get so the
    /// `get = get_fast + get_slow` partition (and the derived
    /// `get_chain_hits`) stays exact; the *thief's* arena attributes the
    /// refill to stealing in its per-node stats.
    pub fn steal_chain(&self) -> Option<Chain> {
        let chain = self.pop_stack()?;
        self.stats.get_fast.inc();
        Some(chain)
    }

    /// The locked get path: retry the stack under the lock, then serve
    /// (possibly short) from the bucket list.
    #[cold]
    fn get_slow(&self) -> Option<Chain> {
        self.stats.get_slow.inc();
        let mut bucket = self.bucket.lock();
        // The slow path honours the same failpoint: a lock-free rework
        // must never route around an armed site.
        if self.faults.hit(faults::GLOBAL_GET) {
            drop(bucket);
            self.stats.get_miss.inc();
            return None;
        }
        // A racing put may have pushed a chain after our empty fast-path
        // pop; prefer it over a short bucket serve.
        if let Some(chain) = self.pop_stack_slow() {
            self.stats.get_chain_hits_slow.inc();
            return Some(chain);
        }
        if bucket.is_empty() {
            drop(bucket);
            self.stats.get_miss.inc();
            return None;
        }
        let n = bucket.len().min(self.target);
        let chain = match bucket.try_split_first(n) {
            Ok(chain) => chain,
            Err(fault) => {
                // A clobbered bucket link: the walk stopped before
                // dereferencing it, the bucket sank its now-unreachable
                // blocks, and this get becomes a miss the page layer will
                // serve. The loss is recorded for the conservation check.
                drop(bucket);
                self.sunk.fetch_add(fault.lost, Ordering::Relaxed);
                self.stats.get_miss.inc();
                return None;
            }
        };
        drop(bucket);
        if n < self.target {
            self.stats.get_short_deficit.add((self.target - n) as u64);
            self.stats.get_short.inc();
        }
        self.stats.get_bucket_hits.inc();
        Some(chain)
    }

    /// Accepts a chain from a per-CPU cache and returns whether the pool
    /// now owes a [`GlobalPool::settle`], which the caller runs inline or
    /// hands to the maintenance core.
    ///
    /// * An exact-`target` chain within the `2 * gbltarget` bound (judged
    ///   by [`GlobalPool::bound_estimate`]) is one tag-CAS push: no lock,
    ///   nothing owed.
    /// * An exact chain over the bound still pushes lock-free — `slow_net`
    ///   rises before the push is published — but counts as `put_slow`
    ///   and owes the trim. Concurrent puts can overshoot the bound
    ///   transiently by at most one chain per CPU.
    /// * A chain of any other length goes to the bucket list
    ///   ([`GlobalPool::append`]), so the stack only ever holds exact
    ///   chains, even under misuse.
    pub fn put(&self, chain: Chain) -> bool {
        if chain.len() != self.target {
            return self.append(chain);
        }
        if self.bound_estimate() + self.target <= 2 * self.gbltarget {
            // The fast path's only counter write; `put` is derived, and
            // `stack_blocks` folds this increment into its estimate —
            // hence inc *before* push (the mirror of `get_chain`'s
            // pop-then-inc), keeping the estimate conservative.
            self.stats.put_fast.inc();
            self.push_stack(chain);
            return false;
        }
        self.stats.put_slow.inc();
        self.push_stack_slow(chain);
        true
    }

    /// The odd-chain put (low-memory flushes, partial refills handed
    /// back): an O(1) append to the bucket list under the lock. Owes a
    /// settle only if the bucket now holds a chain's worth or the pool is
    /// over its bound.
    fn append(&self, mut chain: Chain) -> bool {
        if chain.is_empty() {
            return false;
        }
        self.stats.put_slow.inc();
        self.stats.put_odd.inc();
        let mut bucket = self.bucket.lock();
        bucket.append(&mut chain);
        bucket.len() >= self.target || self.stack_blocks() + bucket.len() > 2 * self.gbltarget
    }

    /// The slow half of a put: regroup the bucket list, then trim the
    /// pool to exactly `2 * gbltarget` blocks. Returns the spill for the
    /// caller to push to the coalesce-to-page layer, counted in
    /// `put_miss`. A settle that finds nothing owed changes nothing.
    pub fn settle(&self) -> Option<Chain> {
        self.trim(2 * self.gbltarget, &self.stats.put_miss)
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
    /// bounds. Counted in `pressure_spills`, not `put_miss`.
    pub fn spill_to(&self, bound: usize) -> Option<Chain> {
        self.trim(bound, &self.stats.pressure_spills)
    }

    /// Regroup, then trim to `bound` with [`GlobalPool::trim_locked`],
    /// attributing a non-empty spill to `cause` and `spill_blocks`.
    fn trim(&self, bound: usize, cause: &EventCounter) -> Option<Chain> {
        let mut bucket = self.bucket.lock();
        self.regroup(&mut bucket);
        let spill = self.trim_locked(&mut bucket, bound)?;
        drop(bucket);
        cause.inc();
        self.stats.spill_blocks.add(spill.len() as u64);
        Some(spill)
    }

    /// Regroup: "the bucket list, which is used to group the blocks back
    /// into target-sized lists". Exact chains leave the bucket for the
    /// lock-free stack, where gets can reach them without the lock.
    fn regroup(&self, bucket: &mut Chain) {
        while bucket.len() >= self.target {
            let grouped = bucket.split_first(self.target);
            self.push_stack_slow(grouped);
        }
    }

    /// The one trimming walk: pops O(excess) chains until the pool holds
    /// exactly `bound` blocks. Whole chains are shed first (O(1) each);
    /// the final chain is *split* so the pool lands exactly on the bound
    /// (a walk of at most `target` links, once per trim). Counter-free so
    /// each caller can attribute the spill to its own cause. Caller holds
    /// the bucket lock; stack chains are shed through ordinary lock-free
    /// pops, so concurrent fast-path traffic stays correct (and may make
    /// the trim approximate — the next settle re-trims).
    fn trim_locked(&self, bucket: &mut Chain, bound: usize) -> Option<Chain> {
        let mut total = self.stack_blocks() + bucket.len();
        if total <= bound {
            return None;
        }
        let mut spill = Chain::new_keyed(self.key);
        while total > bound {
            let excess = total - bound;
            match self.pop_stack_slow() {
                Some(mut chain) if chain.len() > excess => {
                    let mut cut = chain.split_first(excess);
                    total -= excess;
                    spill.append(&mut cut);
                    // The kept remainder is odd-sized; it goes back through
                    // the bucket (and regroups if the bucket fills up).
                    bucket.append(&mut chain);
                    self.regroup(bucket);
                }
                Some(mut chain) => {
                    total -= chain.len();
                    spill.append(&mut chain);
                }
                None => {
                    // Only the bucket is left; trim it directly.
                    let n = excess.min(bucket.len());
                    if n == 0 {
                        break;
                    }
                    let mut cut = bucket.split_first(n);
                    total -= n;
                    spill.append(&mut cut);
                }
            }
        }
        Some(spill)
    }

    /// Current block count (tests and the invariant walker). Exact at
    /// quiescence; a live sample may transiently overstate by chains
    /// whose push has been counted but not yet published.
    pub fn len(&self) -> usize {
        let bucket = self.bucket.lock().len();
        self.stack_blocks() + bucket
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

    /// Drains every block (arena teardown and low-memory reclaim) through
    /// the epoch-batched detach: the whole stack moves with one tagged
    /// CAS and one counter settle, however many chains it held.
    pub fn drain_all(&self) -> Chain {
        let mut bucket = self.bucket.lock();
        let mut all = bucket.take();
        all.append(&mut self.detach_stack_locked());
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmem_smp::probe::{self, ProbeEvent};
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
        // target == 1: chain head == tail, no stash words in play.
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
        // The stack borrows chain-interior words; a popped chain must walk
        // head-to-tail with its original blocks and a working tail.
        let mut blocks = Blocks::new(64);
        for target in [2usize, 3, 5, 8] {
            let pool = GlobalPool::new(target, 4 * target);
            let c = blocks.chain(target);
            let members: Vec<*mut u8> = c.iter().collect();
            pool.put_chain(c);
            pool.put_chain(blocks.chain(target)); // stack depth 2
            discard(pool.get_chain().unwrap()); // pops the second chain
            let mut got = pool.get_chain().unwrap();
            assert_eq!(got.iter().collect::<Vec<_>>(), members);
            // The tail pointer survived the stash round trip: append works.
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
        // Fast/slow partition: the ready-chain pop was lock-free; the
        // bucket hit and the miss took the slow path.
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

    /// The acceptance-criterion probe test: an exact-`target` ping-pong
    /// must acquire no spinlock — the whole hot path is the tag CAS.
    #[test]
    fn exact_target_ping_pong_takes_no_spinlock() {
        let mut blocks = Blocks::new(16);
        let pool = GlobalPool::new(4, 16);
        pool.put_chain(blocks.chain(4));
        let ((), ev) = probe::record(|| {
            for _ in 0..100 {
                let c = pool.get_chain().unwrap();
                assert!(pool.put_chain(c).is_none());
            }
        });
        assert!(
            ev.iter().all(|e| !matches!(
                e,
                ProbeEvent::LockAcquire { .. } | ProbeEvent::LockRelease { .. }
            )),
            "fast path acquired a lock: {ev:?}"
        );
        // The CAS traffic itself is visible to the simulator.
        assert!(ev.iter().any(|e| matches!(e, ProbeEvent::LineRmw { .. })));
        let s = pool.stats();
        assert_eq!(s.get_fast.get(), 100);
        assert_eq!(s.get_slow.get(), 0);
        assert_eq!(s.put_fast.get(), 101);
        assert_eq!(s.put_slow.get(), 0);
        assert_eq!(s.cas_retries.get(), 0, "single thread never retries");
        discard(pool.drain_all());
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

    /// An armed `global.get` failpoint must preempt *both* paths: the
    /// CAS fast path (ready chains on the stack) and the locked slow
    /// path (blocks only in the bucket).
    #[test]
    fn global_get_fault_covers_fast_and_slow_paths() {
        let mut blocks = Blocks::new(32);
        let faults = Faults::with_plan();
        let pool = GlobalPool::new_hardened(3, 8, faults.clone(), LinkKey::PLAIN);
        pool.put_chain(blocks.chain(3)); // fast-path ammunition
        pool.put_odd(blocks.chain(2)); // slow-path ammunition

        let plan = faults.plan().unwrap();
        plan.set(faults::GLOBAL_GET, FailPolicy::EveryNth(1));
        // Stack non-empty, yet the armed site forces a miss before the CAS.
        assert!(pool.get_chain().is_none(), "fast path bypassed the site");
        plan.set(faults::GLOBAL_GET, FailPolicy::Off);
        discard(pool.get_chain().unwrap()); // stack drains normally

        // Now only the bucket holds blocks: fire on the slow path. The
        // script passes the entry consult and fires the locked one.
        plan.set(faults::GLOBAL_GET, FailPolicy::Script(vec![false, true]));
        assert!(pool.get_chain().is_none(), "slow path bypassed the site");
        assert_eq!(pool.stats().get_miss.get(), 1);
        assert_eq!(pool.len(), 2, "faulted gets must not lose blocks");
        let fired = plan
            .site_stats()
            .iter()
            .find(|s| s.site == faults::GLOBAL_GET)
            .unwrap()
            .fired;
        assert_eq!(fired, 2, "one firing per path");
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
        // The Treiber stack's word-stash layout must decode/re-encode
        // correctly under a hardened key: chains survive push/pop (and
        // steal_chain, the cross-shard path) with members and tail intact.
        let (mut store, key) = aligned_store(16);
        let pool = GlobalPool::new_hardened(3, 12, Faults::none(), key);
        let c = keyed_chain(&mut store, key, 0..3);
        let members: Vec<*mut u8> = c.iter().collect();
        assert!(pool.put_chain(c).is_none());
        assert!(pool.put_chain(keyed_chain(&mut store, key, 3..6)).is_none());
        // Stack depth 2: the deeper chain's stash words round-trip too.
        let stolen = pool.steal_chain().unwrap();
        assert_eq!(stolen.len(), 3);
        let mut got = pool.get_chain().unwrap();
        assert_eq!(got.iter().collect::<Vec<_>>(), members);
        // Tail survived the stash round trip: append still works.
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
        let spilled = EventCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        if let Some(c) = pool.get_chain() {
                            if let Some(sp) = pool.put_odd(c) {
                                spilled.add(discard(sp) as u64);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(pool.len() + spilled.get() as usize, 80);
        discard(pool.drain_all());
    }

    /// The acceptance-criterion probe test for the epoch-batched drain:
    /// a bulk drain of N chains costs the same number of shared-line
    /// RMWs whether N is 4 or 64 — one tagged CAS detaches the whole run
    /// and one RMW settles the slow-path account, unlike the old
    /// one-CAS-per-chain pop loop.
    #[test]
    fn batched_drain_moves_n_chains_with_constant_rmw_cost() {
        let rmws_for = |chains: usize| {
            let mut blocks = Blocks::new(chains * 2);
            let pool = GlobalPool::new(2, 2 * chains);
            for _ in 0..chains {
                assert!(pool.put_chain(blocks.chain(2)).is_none());
            }
            let (all, ev) = probe::record(|| pool.drain_all());
            assert_eq!(discard(all), chains * 2, "batched drain conserves");
            assert_eq!(pool.stats().batch_drains.get(), 1);
            assert_eq!(pool.stats().batched_chains.get(), chains as u64);
            ev.iter()
                .filter(|e| matches!(e, ProbeEvent::LineRmw { .. }))
                .count()
        };
        let small = rmws_for(4);
        let large = rmws_for(64);
        assert_eq!(
            small, large,
            "drain RMW cost must not scale with chain count"
        );
    }

    #[test]
    fn over_bound_exact_put_pushes_lock_free_and_owes_a_settle() {
        let mut blocks = Blocks::new(64);
        // target 3, gbltarget 6: bound 12 = 4 chains.
        let pool = GlobalPool::new(3, 6);
        for _ in 0..4 {
            assert!(!pool.put(blocks.chain(3)), "within bound: nothing owed");
        }
        assert_eq!(pool.len(), 12);
        // Over the bound: the put still lands without a spinlock, the pool
        // transiently overshoots, and the caller is told to settle.
        let (owed, ev) = probe::record(|| pool.put(blocks.chain(3)));
        assert!(owed, "an over-bound put must owe a settle");
        assert!(
            ev.iter().all(|e| !matches!(
                e,
                ProbeEvent::LockAcquire { .. } | ProbeEvent::LockRelease { .. }
            )),
            "over-bound put took a lock: {ev:?}"
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
        // One exact chain regrouped onto the lock-free stack.
        let c = pool.get_chain().unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(
            pool.stats().get_fast.get(),
            1,
            "regrouped chain is served lock-free"
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
    fn hardened_batched_drain_decodes_the_whole_run() {
        let (mut store, key) = aligned_store(9);
        let pool = GlobalPool::new_hardened(3, 12, Faults::none(), key);
        for i in 0..3 {
            let chain = keyed_chain(&mut store, key, i * 3..i * 3 + 3);
            assert!(pool.put_chain(chain).is_none());
        }
        assert_eq!(discard(pool.drain_all()), 9);
        assert_eq!(pool.stats().batched_chains.get(), 3);
    }

    /// Exact-chain recycling under real threads: the headline pattern the
    /// Treiber stack exists for. Conservation plus counter partitions.
    #[test]
    fn concurrent_exact_ping_pong_is_conserving_and_lock_free_counted() {
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
                            assert_eq!(c.len(), 4, "stack chains are exact");
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
