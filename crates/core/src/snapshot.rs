//! Per-CPU observability: snapshots and deltas of every allocator counter.
//!
//! The paper's whole evaluation is expressed in per-layer miss rates, and a
//! production operator wants the same numbers *per CPU*, live, without
//! perturbing the hot path. This module is the read side of that bargain:
//! every counter in the allocator is a single-writer relaxed/release store
//! on a cache line its CPU owns ([`kmem_smp::LocalCounter`]), and a
//! [`KmemSnapshot`] is nothing but an unsynchronized sweep of those
//! counters — no locks are taken, no CPU is interrupted, and the cost to
//! the writers is zero.
//!
//! Every struct here is a field table ([`crate::counters`]): one row per
//! counter, from which `delta`, `merge`, the JSON and the monotonicity
//! check are derived. What stays by hand is semantics — the cross-counter
//! invariants below.
//!
//! # Consistency model
//!
//! A snapshot taken while CPUs are running is a *live sample*: it is not a
//! single instant in time. Two properties still hold and are checkable:
//!
//! * **Monotonicity** — every counter only grows, so for two snapshots
//!   `a` then `b`, `b.delta(&a)` is exact event-for-event between the two
//!   sweeps (verified against torture-driver ground truth in the testkit).
//! * **Cross-counter bounds** — each CPU bumps an access counter *before*
//!   the corresponding miss/detail counter (with release stores), and the
//!   snapshot reads them in the *reverse* order (with acquire loads), so
//!   even a live sample satisfies `miss <= access`, `refill <= miss`, and
//!   friends. [`KmemSnapshot::check_live`] asserts exactly the set that is
//!   safe on live samples; [`KmemSnapshot::check_quiescent`] adds the
//!   equalities that only hold when no CPU is mid-operation.

use crate::counters::{self, counters, Table as _};
pub use crate::global::GlobalCounts;
use crate::json::JsonObj;
pub use crate::pagelayer::PageCounts;
pub use crate::percpu::CacheCounts;
use crate::percpu::OCC_BUCKETS;
use crate::stats::{ClassStats, KmemStats, LayerCounts};

/// `Ok` when `ok` holds, else an error naming the struct and its values.
fn ensure(ok: bool, what: &str, msg: &str, counts: &dyn core::fmt::Debug) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what}: {msg} ({counts:?})"))
    }
}

impl CacheCounts {
    /// Field-wise accumulation (summing CPUs or classes).
    pub fn merge(&mut self, other: &CacheCounts) {
        counters::merge(self, other);
    }

    /// Allocations that actually handed out a block.
    pub fn allocs_served(&self) -> u64 {
        self.alloc - self.alloc_fail
    }

    /// Per-CPU layer, allocation direction, as the paper's `LayerCounts`.
    pub fn alloc_layer(&self) -> LayerCounts {
        LayerCounts {
            accesses: self.alloc,
            misses: self.alloc_miss,
        }
    }

    /// Per-CPU layer, free direction.
    pub fn free_layer(&self) -> LayerCounts {
        LayerCounts {
            accesses: self.free,
            misses: self.free_miss,
        }
    }

    /// Total flushes that evicted blocks, over all causes.
    pub fn flushes(&self) -> u64 {
        self.flush_explicit + self.flush_drain + self.flush_lowmem
    }

    /// Total occupancy samples recorded.
    pub fn occupancy_samples(&self) -> u64 {
        self.occupancy.iter().sum()
    }

    /// Mean sampled occupancy as a fraction of capacity (bucket
    /// midpoints), or `None` with no samples.
    pub fn mean_occupancy(&self) -> Option<f64> {
        let samples = self.occupancy_samples();
        if samples == 0 {
            return None;
        }
        let weighted: f64 = self
            .occupancy
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as f64 + 0.5) / OCC_BUCKETS as f64 * n as f64)
            .sum();
        Some(weighted / samples as f64)
    }

    fn check_live(&self, what: &str) -> Result<(), String> {
        let c = |ok, msg| ensure(ok, what, msg, self);
        c(self.alloc_miss <= self.alloc, "alloc_miss > alloc")?;
        c(self.free_miss <= self.free, "free_miss > free")?;
        c(
            self.refill + self.alloc_fail <= self.alloc_miss,
            "refill + alloc_fail > alloc_miss",
        )?;
        c(self.refill_short <= self.refill, "refill_short > refill")?;
        c(
            self.sleep_retries <= self.alloc_fail,
            "sleep_retries > alloc_fail",
        )
    }

    fn check_quiescent(&self, what: &str) -> Result<(), String> {
        self.check_live(what)?;
        let c = |ok, msg| ensure(ok, what, msg, self);
        c(
            self.refill + self.alloc_fail == self.alloc_miss,
            "every quiescent miss must end in a refill or a failure",
        )?;
        c(
            self.refill <= self.refill_blocks,
            "refill chains of 0 blocks",
        )?;
        c(
            self.flushes() <= self.flush_blocks,
            "counted flushes that evicted nothing",
        )
    }
}

impl GlobalCounts {
    /// Global layer, allocation direction.
    pub fn alloc_layer(&self) -> LayerCounts {
        LayerCounts {
            accesses: self.get,
            misses: self.get_miss,
        }
    }

    /// Global layer, free direction.
    pub fn free_layer(&self) -> LayerCounts {
        LayerCounts {
            accesses: self.put,
            misses: self.put_miss,
        }
    }

    fn check_live(&self, what: &str) -> Result<(), String> {
        let c = |ok, msg| ensure(ok, what, msg, self);
        c(
            self.get_chain_hits + self.get_bucket_hits + self.get_miss <= self.get,
            "get outcomes exceed gets",
        )?;
        c(
            self.get_fast + self.get_slow <= self.get,
            "fast/slow gets exceed gets",
        )?;
        c(
            self.get_short <= self.get_short_deficit,
            "short gets with no deficit",
        )?;
        c(self.put_odd <= self.put, "put_odd > put")?;
        c(
            self.put_fast + self.put_slow <= self.put,
            "fast/slow puts exceed puts",
        )?;
        c(self.put_miss <= self.put, "put_miss > put")
    }

    fn check_quiescent(&self, what: &str) -> Result<(), String> {
        self.check_live(what)?;
        let c = |ok, msg| ensure(ok, what, msg, self);
        c(
            self.get_chain_hits + self.get_bucket_hits + self.get_miss == self.get,
            "quiescent get outcomes must partition gets",
        )?;
        c(
            self.get_fast + self.get_slow == self.get,
            "quiescent fast/slow gets must partition gets",
        )?;
        c(
            self.put_fast + self.put_slow == self.put,
            "quiescent fast/slow puts must partition puts",
        )
    }
}

counters! {
    /// Per-node rollup: how one NUMA node's CPUs interacted with the
    /// sharded global layer, plus the node's current shard occupancy.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NodeCounts {
        /// Blocks currently held by this node's shards, summed over
        /// classes.
        gauge shard_blocks: usize,
        /// Refill chains this node's CPUs took from their own shard.
        counter local_refills: u64,
        /// Refill chains this node's CPUs stole from a remote shard.
        counter stolen_refills: u64,
        /// Blocks this node's CPUs spilled past the global layer to the
        /// (shared) coalesce-to-page layer — frames that may come back
        /// remote.
        counter remote_spills: u64,
    }
}

counters! {
    /// Maintenance-core counters: the mailbox flow. All zeros (with
    /// `enabled: false`) when the arena runs without the core
    /// ([`crate::config::MaintConfig`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MaintCounts {
        /// Whether the arena was built with the maintenance core enabled.
        gauge enabled: bool,
        /// Work-item post attempts, including deduplicated ones.
        counter posted: u64,
        /// Posts suppressed because the same key was already queued.
        counter deduped: u64,
        /// Work items drained and run by the maintenance core. At
        /// quiescence (mailbox empty, no poster mid-call)
        /// `drained == posted - deduped`.
        counter drained: u64,
        /// Work items currently queued (racy while posters are active).
        gauge backlog: usize,
    }
}

counters! {
    /// Snapshot of one size class: per-CPU cache counters plus the shared
    /// global-pool and page-layer counters.
    #[derive(Debug, Clone)]
    pub struct ClassSnapshot {
        /// Block size of the class.
        gauge size: usize,
        /// The class's per-CPU `target` parameter.
        gauge target: usize,
        /// The class's global-layer `gbltarget` parameter.
        gauge gbltarget: usize,
        /// One entry per CPU, indexed by CPU number.
        nested per_cpu: Vec<CacheCounts>,
        /// Global pool detail.
        nested global: GlobalCounts,
        /// Coalesce-to-page detail.
        nested page: PageCounts,
    }
}

impl ClassSnapshot {
    /// Cache counters summed over all CPUs.
    pub fn cache_total(&self) -> CacheCounts {
        let mut total = CacheCounts::default();
        for c in &self.per_cpu {
            total.merge(c);
        }
        total
    }
}

counters! {
    /// A full counter sweep of a [`crate::KmemArena`]: every (CPU, class)
    /// cache, every global pool, every page layer, plus arena-wide gauges.
    ///
    /// Obtain one with [`crate::KmemArena::snapshot`]; see the module docs
    /// for the consistency model. [`KmemSnapshot::delta`] is exact per
    /// (CPU, class): every event counted after the earlier sweep and
    /// before this one appears in it exactly once.
    #[derive(Debug, Clone)]
    pub struct KmemSnapshot {
        /// One entry per size class, ascending by block size.
        nested classes: Vec<ClassSnapshot>,
        /// One entry per NUMA node, indexed by node number (a single entry
        /// on the default flat topology).
        nested nodes: Vec<NodeCounts>,
        /// Large (multi-page) allocations served by the vmblk layer.
        counter large_allocs: u64,
        /// Large frees.
        counter large_frees: u64,
        /// Retired with the vmblk layer's whole-page cache: always 0. The
        /// row stays because readers of the JSON still look it up.
        counter vmblk_cache_hits: u64 => "vmblk_cache"."hits",
        /// Retired with `vmblk_cache_hits`: always 0.
        counter vmblk_cache_puts: u64 => "vmblk_cache"."puts",
        /// vmblks currently live.
        gauge vmblks_live: usize,
        /// Physical frames currently claimed.
        gauge phys_in_use: usize,
        /// Physical frame capacity.
        gauge phys_capacity: usize,
        /// Current pressure-ladder level, 0–3.
        gauge pressure_level: u8 => "pressure"."level",
        /// `pressure_escalations[i]` counts entries into ladder rung
        /// `i + 1`.
        counter pressure_escalations: [u64; 3] => "pressure"."escalations",
        /// De-escalation steps taken by the ladder (hysteresis-gated).
        counter pressure_deescalations: u64 => "pressure"."deescalations",
        /// Failed allocations that re-applied the ladder's deepest rung
        /// rather than entering a new one.
        counter pressure_reapplied: u64 => "pressure"."reapplied",
        /// Failpoint consultations while a fault plan was armed.
        counter fault_hits: u64 => "faults"."hits",
        /// Failpoint firings (injected failures).
        counter fault_fired: u64 => "faults"."fired",
        /// Hardened-profile corruption detections reported, all sites
        /// (always zero in the default profile).
        counter corruption_reports: u64 => "hardened"."corruption_reports",
        /// Poison-based detections: double free by intact poison, or a
        /// use-after-free write caught by verify-on-alloc.
        counter poison_hits: u64 => "hardened"."poison_hits",
        /// Encoded-link detections: an implausible decode sank a chain.
        counter encode_faults: u64 => "hardened"."encode_faults",
        /// Blocks currently parked in double-free quarantine rings.
        gauge quarantine_len: usize => "hardened"."quarantine_len",
        /// Maintenance-core mailbox counters.
        nested maint: MaintCounts,
    }
}

impl KmemSnapshot {
    /// Number of CPUs covered by the snapshot.
    pub fn ncpus(&self) -> usize {
        self.classes.first().map_or(0, |c| c.per_cpu.len())
    }

    /// Number of size classes.
    pub fn nclasses(&self) -> usize {
        self.classes.len()
    }

    /// Counters of one (CPU, class) cache.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cpu_class(&self, cpu: usize, class: usize) -> &CacheCounts {
        &self.classes[class].per_cpu[cpu]
    }

    /// Iterates `(cpu, class, &counts)` over every per-CPU cache.
    pub fn iter_cpu_class(&self) -> impl Iterator<Item = (usize, usize, &CacheCounts)> {
        self.classes.iter().enumerate().flat_map(|(class, cs)| {
            cs.per_cpu
                .iter()
                .enumerate()
                .map(move |(cpu, counts)| (cpu, class, counts))
        })
    }

    /// Per-CPU totals summed over classes, indexed by CPU.
    pub fn per_cpu_totals(&self) -> Vec<CacheCounts> {
        let mut totals = vec![CacheCounts::default(); self.ncpus()];
        for (cpu, _, counts) in self.iter_cpu_class() {
            totals[cpu].merge(counts);
        }
        totals
    }

    /// Total allocations across classes and CPUs (cache-layer accesses).
    pub fn total_allocs(&self) -> u64 {
        self.iter_cpu_class().map(|(_, _, c)| c.alloc).sum()
    }

    /// Total frees across classes and CPUs.
    pub fn total_frees(&self) -> u64 {
        self.iter_cpu_class().map(|(_, _, c)| c.free).sum()
    }

    /// Rolls the snapshot up into the CPU-summed [`KmemStats`] shape the
    /// paper's tables use (`KmemArena::stats` is implemented this way).
    pub fn aggregate(&self) -> KmemStats {
        KmemStats {
            classes: self
                .classes
                .iter()
                .map(|c| {
                    let total = c.cache_total();
                    ClassStats {
                        size: c.size,
                        cpu_alloc: total.alloc_layer(),
                        cpu_free: total.free_layer(),
                        gbl_alloc: c.global.alloc_layer(),
                        gbl_free: c.global.free_layer(),
                    }
                })
                .collect(),
            large_allocs: self.large_allocs,
            large_frees: self.large_frees,
            vmblks_live: self.vmblks_live,
            phys_in_use: self.phys_in_use,
            phys_capacity: self.phys_capacity,
        }
    }

    /// Renders the snapshot as a single-line JSON object. Keys are the
    /// rows' JSON names (the Rust field names, a few grouped under
    /// `vmblk_cache`, `pressure`, `faults` and `hardened`); all values are
    /// numbers, flags or arrays of numbers.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        self.emit_rows(&mut o);
        o.finish()
    }

    /// Runs `cache` on every (CPU, class) cache and `global` on every
    /// class's global pool, each with a label for error messages.
    fn check_each(
        &self,
        cache: fn(&CacheCounts, &str) -> Result<(), String>,
        global: fn(&GlobalCounts, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        for (class, cs) in self.classes.iter().enumerate() {
            for (cpu, counts) in cs.per_cpu.iter().enumerate() {
                cache(
                    counts,
                    &format!("class {class} (size {}) cpu {cpu}", cs.size),
                )?;
            }
            global(
                &cs.global,
                &format!("class {class} (size {}) global", cs.size),
            )?;
        }
        Ok(())
    }

    /// Checks every invariant that holds even on a live, unsynchronized
    /// sample: per-(CPU, class) `miss <= access` bounds, refill/fail
    /// accounting, and global-pool outcome bounds.
    pub fn check_live(&self) -> Result<(), String> {
        self.check_each(CacheCounts::check_live, GlobalCounts::check_live)
    }

    /// Checks the live invariants plus the exact-accounting equalities
    /// that hold only when no CPU is mid-operation (torture checkpoints,
    /// post-join assertions), among them that every block a shard spilled
    /// is counted against its node.
    pub fn check_quiescent(&self) -> Result<(), String> {
        self.check_each(CacheCounts::check_quiescent, GlobalCounts::check_quiescent)?;
        let node: u64 = self.nodes.iter().map(|n| n.remote_spills).sum();
        let class: u64 = self.classes.iter().map(|c| c.global.spill_blocks).sum();
        ensure(
            node == class,
            "arena",
            "per-node remote_spills must sum to the classes' spill_blocks",
            &(node, class),
        )
    }

    /// Verifies that every counter in `self` is `>=` its counterpart in
    /// `earlier` — the property `delta` exactness rests on. Returns the
    /// first offending counter.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots come from arenas of different shape.
    pub fn check_monotone_since(&self, earlier: &KmemSnapshot) -> Result<(), String> {
        counters::check_monotone(self, earlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Kind;

    fn counts(alloc: u64, miss: u64, free: u64) -> CacheCounts {
        CacheCounts {
            alloc,
            alloc_miss: miss,
            free,
            refill: miss,
            refill_blocks: miss * 4,
            ..Default::default()
        }
    }

    fn snapshot_of(per_cpu: Vec<CacheCounts>) -> KmemSnapshot {
        KmemSnapshot {
            classes: vec![ClassSnapshot {
                size: 64,
                target: 4,
                gbltarget: 8,
                per_cpu,
                global: GlobalCounts::default(),
                page: PageCounts::default(),
            }],
            nodes: vec![NodeCounts::default()],
            large_allocs: 0,
            large_frees: 0,
            vmblk_cache_hits: 0,
            vmblk_cache_puts: 0,
            vmblks_live: 0,
            phys_in_use: 0,
            phys_capacity: 0,
            pressure_level: 0,
            pressure_escalations: [0; 3],
            pressure_deescalations: 0,
            pressure_reapplied: 0,
            fault_hits: 0,
            fault_fired: 0,
            corruption_reports: 0,
            poison_hits: 0,
            encode_faults: 0,
            quarantine_len: 0,
            maint: MaintCounts::default(),
        }
    }

    #[test]
    fn delta_is_field_wise_difference() {
        let a = snapshot_of(vec![counts(10, 2, 5), counts(4, 1, 0)]);
        let b = snapshot_of(vec![counts(25, 3, 11), counts(9, 2, 3)]);
        let d = b.delta(&a);
        assert_eq!(d.cpu_class(0, 0).alloc, 15);
        assert_eq!(d.cpu_class(0, 0).alloc_miss, 1);
        assert_eq!(d.cpu_class(0, 0).free, 6);
        assert_eq!(d.cpu_class(1, 0).alloc, 5);
        assert_eq!(d.total_allocs(), 20);
        assert!(b.check_monotone_since(&a).is_ok());
        assert!(a.check_monotone_since(&b).is_err());
    }

    #[test]
    fn per_cpu_totals_sum_over_classes() {
        let mut s = snapshot_of(vec![counts(10, 2, 5), counts(4, 1, 0)]);
        s.classes.push(ClassSnapshot {
            size: 128,
            target: 4,
            gbltarget: 8,
            per_cpu: vec![counts(1, 0, 1), counts(2, 0, 2)],
            global: GlobalCounts::default(),
            page: PageCounts::default(),
        });
        let totals = s.per_cpu_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].alloc, 11);
        assert_eq!(totals[1].alloc, 6);
        assert_eq!(totals[1].free, 2);
    }

    #[test]
    fn live_checks_catch_inverted_counters() {
        let mut bad = counts(5, 9, 0); // miss > alloc
        assert!(snapshot_of(vec![bad]).check_live().is_err());
        bad = counts(10, 2, 0);
        bad.refill = 1;
        bad.alloc_fail = 2; // refill + fail > miss
        assert!(snapshot_of(vec![bad]).check_live().is_err());
        assert!(snapshot_of(vec![counts(10, 2, 3)]).check_live().is_ok());
    }

    #[test]
    fn quiescent_check_requires_miss_accounting() {
        let mut c = counts(10, 3, 0);
        c.refill = 2; // one miss unaccounted: fine live, not quiescent
        let s = snapshot_of(vec![c]);
        assert!(s.check_live().is_ok());
        assert!(s.check_quiescent().is_err());
    }

    #[test]
    fn mean_occupancy_uses_bucket_midpoints() {
        let mut c = CacheCounts::default();
        assert_eq!(c.mean_occupancy(), None);
        c.occupancy[0] = 1;
        c.occupancy[7] = 1;
        let m = c.mean_occupancy().unwrap();
        assert!((m - 0.5).abs() < 1e-12, "{m}");
    }

    #[test]
    fn json_rendering_is_structurally_sound() {
        let mut s = snapshot_of(vec![counts(10, 2, 5), counts(4, 1, 0)]);
        s.pressure_level = 2;
        s.pressure_escalations = [3, 2, 1];
        s.fault_hits = 7;
        s.fault_fired = 2;
        let json = s.to_json();
        // Balanced structure and no trailing garbage.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Spot-check fields, including the new pressure/fault groups.
        assert!(json.contains("\"classes\":[{\"size\":64,"));
        assert!(json.contains("\"alloc\":10,"));
        assert!(json.contains("\"pressure\":{\"level\":2,\"escalations\":[3,2,1]"));
        assert!(json.contains("\"faults\":{\"hits\":7,\"fired\":2}"));
        assert!(json.contains(
            "\"hardened\":{\"corruption_reports\":0,\"poison_hits\":0,\
             \"encode_faults\":0,\"quarantine_len\":0}"
        ));
        assert!(json.contains(
            "\"nodes\":[{\"shard_blocks\":0,\"local_refills\":0,\
             \"stolen_refills\":0,\"remote_spills\":0}]"
        ));
        assert!(json.contains(
            "\"maint\":{\"enabled\":false,\"posted\":0,\"deduped\":0,\"drained\":0,\
             \"backlog\":0}"
        ));
        assert!(json.contains("\"sleep_retries\":0"));
        assert!(json.contains("\"pressure_spills\":0"));
        assert!(json.contains("\"get_fast\":0"));
        assert!(json.contains("\"put_slow\":0"));
        assert!(json.contains("\"cas_retries\":0"));
        // No pretty-printing: a single machine-readable line.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn aggregate_matches_summed_layers() {
        let s = snapshot_of(vec![counts(10, 2, 5), counts(4, 1, 3)]);
        let agg = s.aggregate();
        assert_eq!(agg.classes[0].cpu_alloc.accesses, 14);
        assert_eq!(agg.classes[0].cpu_alloc.misses, 3);
        assert_eq!(agg.classes[0].cpu_free.accesses, 8);
        assert_eq!(agg.total_allocs(), 14);
    }

    /// Hands out 1, 2, 3, …: every field of the golden snapshot differs.
    struct Seq(u64);

    impl Seq {
        fn next(&mut self) -> u64 {
            self.0 += 1;
            self.0
        }
    }

    fn golden_cache(s: &mut Seq) -> CacheCounts {
        CacheCounts {
            alloc: s.next(),
            alloc_miss: s.next(),
            alloc_fail: s.next(),
            sleep_retries: s.next(),
            free: s.next(),
            free_miss: s.next(),
            refill: s.next(),
            refill_short: s.next(),
            refill_blocks: s.next(),
            flush_explicit: s.next(),
            flush_drain: s.next(),
            flush_lowmem: s.next(),
            flush_blocks: s.next(),
            occupancy: core::array::from_fn(|_| s.next()),
        }
    }

    fn golden_class(s: &mut Seq) -> ClassSnapshot {
        ClassSnapshot {
            size: s.next() as usize,
            target: s.next() as usize,
            gbltarget: s.next() as usize,
            per_cpu: vec![golden_cache(s), golden_cache(s)],
            global: GlobalCounts {
                get: s.next(),
                get_fast: s.next(),
                get_slow: s.next(),
                get_chain_hits: s.next(),
                get_bucket_hits: s.next(),
                get_short: s.next(),
                get_short_deficit: s.next(),
                get_miss: s.next(),
                put: s.next(),
                put_fast: s.next(),
                put_slow: s.next(),
                put_odd: s.next(),
                put_miss: s.next(),
                pressure_spills: s.next(),
                spill_blocks: s.next(),
                cas_retries: s.next(),
            },
            page: PageCounts {
                refills: s.next(),
                page_acquires: s.next(),
                page_releases: s.next(),
                block_frees: s.next(),
                cas_retries: s.next(),
            },
        }
    }

    fn golden_node(s: &mut Seq) -> NodeCounts {
        NodeCounts {
            shard_blocks: s.next() as usize,
            local_refills: s.next(),
            stolen_refills: s.next(),
            remote_spills: s.next(),
        }
    }

    /// 2 classes × 2 CPUs × 2 nodes, maintenance core on, no two fields
    /// equal.
    fn golden_snapshot() -> KmemSnapshot {
        let s = &mut Seq(0);
        KmemSnapshot {
            classes: vec![golden_class(s), golden_class(s)],
            nodes: vec![golden_node(s), golden_node(s)],
            large_allocs: s.next(),
            large_frees: s.next(),
            vmblk_cache_hits: s.next(),
            vmblk_cache_puts: s.next(),
            vmblks_live: s.next() as usize,
            phys_in_use: s.next() as usize,
            phys_capacity: s.next() as usize,
            pressure_level: s.next() as u8,
            pressure_escalations: core::array::from_fn(|_| s.next()),
            pressure_deescalations: s.next(),
            pressure_reapplied: s.next(),
            fault_hits: s.next(),
            fault_fired: s.next(),
            corruption_reports: s.next(),
            poison_hits: s.next(),
            encode_faults: s.next(),
            quarantine_len: s.next() as usize,
            maint: MaintCounts {
                enabled: true,
                posted: s.next(),
                deduped: s.next(),
                drained: s.next(),
                backlog: s.next() as usize,
            },
        }
    }

    /// Rendered by the hand-written `to_json` this table-driven one
    /// replaced: same keys, nesting and order, byte for byte.
    #[test]
    fn golden_json_is_byte_identical_to_the_hand_written_emitter() {
        assert_eq!(
            golden_snapshot().to_json(),
            "\
             {\"classes\":[{\"size\":1,\"target\":2,\"gbltarget\":3,\
             \"per_cpu\":[{\"alloc\":4,\"alloc_miss\":5,\"alloc_fail\":6,\
             \"sleep_retries\":7,\"free\":8,\"free_miss\":9,\"refill\":10,\
             \"refill_short\":11,\"refill_blocks\":12,\"flush_explicit\":13,\
             \"flush_drain\":14,\"flush_lowmem\":15,\"flush_blocks\":16,\"occupancy\":[17,\
             18,19,20,21,22,23,24]},{\"alloc\":25,\"alloc_miss\":26,\"alloc_fail\":27,\
             \"sleep_retries\":28,\"free\":29,\"free_miss\":30,\"refill\":31,\
             \"refill_short\":32,\"refill_blocks\":33,\"flush_explicit\":34,\
             \"flush_drain\":35,\"flush_lowmem\":36,\"flush_blocks\":37,\"occupancy\":[38,\
             39,40,41,42,43,44,45]}],\"global\":{\"get\":46,\"get_fast\":47,\
             \"get_slow\":48,\"get_chain_hits\":49,\"get_bucket_hits\":50,\"get_short\":51,\
             \"get_short_deficit\":52,\"get_miss\":53,\"put\":54,\"put_fast\":55,\
             \"put_slow\":56,\"put_odd\":57,\"put_miss\":58,\"pressure_spills\":59,\
             \"spill_blocks\":60,\"cas_retries\":61},\"page\":{\"refills\":62,\
             \"page_acquires\":63,\"page_releases\":64,\"block_frees\":65,\
             \"cas_retries\":66}},{\"size\":67,\"target\":68,\"gbltarget\":69,\
             \"per_cpu\":[{\"alloc\":70,\"alloc_miss\":71,\"alloc_fail\":72,\
             \"sleep_retries\":73,\"free\":74,\"free_miss\":75,\"refill\":76,\
             \"refill_short\":77,\"refill_blocks\":78,\"flush_explicit\":79,\
             \"flush_drain\":80,\"flush_lowmem\":81,\"flush_blocks\":82,\"occupancy\":[83,\
             84,85,86,87,88,89,90]},{\"alloc\":91,\"alloc_miss\":92,\"alloc_fail\":93,\
             \"sleep_retries\":94,\"free\":95,\"free_miss\":96,\"refill\":97,\
             \"refill_short\":98,\"refill_blocks\":99,\"flush_explicit\":100,\
             \"flush_drain\":101,\"flush_lowmem\":102,\"flush_blocks\":103,\
             \"occupancy\":[104,105,106,107,108,109,110,111]}],\"global\":{\"get\":112,\
             \"get_fast\":113,\"get_slow\":114,\"get_chain_hits\":115,\
             \"get_bucket_hits\":116,\"get_short\":117,\"get_short_deficit\":118,\
             \"get_miss\":119,\"put\":120,\"put_fast\":121,\"put_slow\":122,\
             \"put_odd\":123,\"put_miss\":124,\"pressure_spills\":125,\"spill_blocks\":126,\
             \"cas_retries\":127},\"page\":{\"refills\":128,\"page_acquires\":129,\
             \"page_releases\":130,\"block_frees\":131,\"cas_retries\":132}}],\
             \"nodes\":[{\"shard_blocks\":133,\"local_refills\":134,\"stolen_refills\":135,\
             \"remote_spills\":136},{\"shard_blocks\":137,\"local_refills\":138,\
             \"stolen_refills\":139,\"remote_spills\":140}],\"large_allocs\":141,\
             \"large_frees\":142,\"vmblk_cache\":{\"hits\":143,\"puts\":144},\
             \"vmblks_live\":145,\"phys_in_use\":146,\"phys_capacity\":147,\
             \"pressure\":{\"level\":148,\"escalations\":[149,150,151],\
             \"deescalations\":152,\"reapplied\":153},\"faults\":{\"hits\":154,\
             \"fired\":155},\"hardened\":{\"corruption_reports\":156,\"poison_hits\":157,\
             \"encode_faults\":158,\"quarantine_len\":159},\"maint\":{\"enabled\":true,\
             \"posted\":160,\"deduped\":161,\"drained\":162,\"backlog\":163}}"
        );
    }

    /// Every cell of every table, as `(path, kind, value)` in walk order.
    fn cells(s: &KmemSnapshot) -> Vec<(String, Kind, u64)> {
        let mut cells = Vec::new();
        counters::walk(s, s, &mut |cx, v, _| {
            cells.push((cx.path(), cx.kind, v));
            v
        });
        cells
    }

    /// `s` with its `k`-th cell (in walk order) set to `v`.
    fn poke(s: &KmemSnapshot, k: usize, v: u64) -> KmemSnapshot {
        let mut at = 0;
        counters::walk(s, s, &mut |_, was, _| {
            at += 1;
            if at - 1 == k {
                v
            } else {
                was
            }
        })
    }

    /// One loop over every row of every table: a counter added later is
    /// covered without touching this test.
    #[test]
    fn every_row_of_every_table_reaches_delta_merge_json_and_monotone() {
        // No golden value reaches 201, so its digits appear in the JSON
        // only through the cell under test.
        const RAISED: u64 = 201;
        let base = golden_snapshot();
        let base_json = base.to_json();
        assert!(!base_json.contains("201"));
        let base_cells = cells(&base);
        // The fixture numbers 163 cells; the `enabled` flag is the 164th.
        assert_eq!(base_cells.len(), 164);
        for (k, (what, kind, was)) in base_cells.iter().enumerate() {
            // A flag cannot be raised; it (and the one gauge that reads
            // 1) is lowered instead.
            let to = if *was == 1 { 0 } else { RAISED };
            let raised = poke(&base, k, to);
            let json = raised.to_json();
            assert_ne!(json, base_json, "{what} missing from the JSON");
            assert!(to == 0 || json.contains("201"), "{what}: {json}");

            let delta = cells(&raised.delta(&base))[k].2;
            let mut sum = base.clone();
            counters::merge(&mut sum, &raised);
            let merged = cells(&sum)[k].2;
            raised.check_monotone_since(&base).expect(what);
            match kind {
                Kind::Counter => {
                    assert_eq!(delta, RAISED - was, "{what} in delta");
                    assert_eq!(merged, was + RAISED, "{what} in merge");
                    let err = base.check_monotone_since(&raised).expect_err(what);
                    assert!(err.starts_with(&format!("{what} went backwards")), "{err}");
                }
                Kind::Gauge => {
                    assert_eq!(delta, to, "gauge {what} keeps the later value");
                    assert_eq!(merged, *was, "gauge {what} does not sum");
                    base.check_monotone_since(&raised).expect(what);
                }
                Kind::Nested => unreachable!("{what}: cells belong to leaf rows"),
            }
        }
        // Spot-check the paths the errors carry.
        assert_eq!(base_cells[3].0, "classes[0].per_cpu[0].alloc");
        assert_eq!(base_cells[163].0, "maint.backlog");
    }

    #[test]
    #[should_panic(expected = "snapshots of different arenas")]
    fn delta_refuses_snapshots_with_different_node_counts() {
        let (two, mut one) = (golden_snapshot(), golden_snapshot());
        one.nodes.pop();
        let _ = two.delta(&one);
    }

    #[test]
    #[should_panic(expected = "snapshots of different arenas")]
    fn monotone_check_refuses_snapshots_with_different_cpu_counts() {
        let (two, mut one) = (golden_snapshot(), golden_snapshot());
        for class in &mut one.classes {
            class.per_cpu.pop();
        }
        let _ = two.check_monotone_since(&one);
    }

    #[test]
    #[should_panic(expected = "snapshots of different arenas")]
    fn monotone_check_refuses_snapshots_with_different_node_counts() {
        let (two, mut one) = (golden_snapshot(), golden_snapshot());
        one.nodes.pop();
        let _ = two.check_monotone_since(&one);
    }
}
