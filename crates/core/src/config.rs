//! Allocator configuration and the paper's parameter heuristics.

use kmem_smp::{Faults, NodeMapping, Topology, MAX_NODES};
use kmem_vm::{SpaceConfig, PAGE_SIZE};

use crate::pressure::PressureConfig;

/// Per-size-class parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassConfig {
    /// Block size in bytes (a power of two, at least 16).
    pub size: usize,
    /// Per-CPU cache transfer unit: each of `main` and `aux` holds at most
    /// `target` blocks, and blocks move between the per-CPU and global
    /// layers in `target`-sized chains.
    pub target: usize,
    /// Global-layer bound: the global pool holds up to `2 * gbltarget`
    /// blocks before spilling to the coalesce-to-page layer, until churn
    /// grows its bound (`kmem::global`).
    pub gbltarget: usize,
}

impl ClassConfig {
    /// Builds a class with the paper's heuristics for `target` and
    /// `gbltarget`.
    ///
    /// The paper reports `target` "ranges from 10 for 16-byte blocks to
    /// just 2 for 4096-byte blocks", set by "a heuristic that limits the
    /// amount of memory that is tied up in per-CPU caches", and
    /// `gbltarget = 15` for small blocks (the 6.7 % worst-case global miss
    /// rate). We reproduce both endpoints with memory-budget formulas:
    /// `target = clamp(budget / (2 * size), 2, 10)` with a 16 KB per-CPU
    /// budget, and `gbltarget = clamp(3 * budget / (2 * size), 3, 15)`.
    pub fn with_heuristics(size: usize) -> Self {
        const PERCPU_BUDGET: usize = 16 * 1024;
        let target = (PERCPU_BUDGET / (2 * size)).clamp(2, 10);
        let gbltarget = (3 * PERCPU_BUDGET / (2 * size)).clamp(3, 15);
        ClassConfig {
            size,
            target,
            gbltarget,
        }
    }
}

/// The hardened-profile knobs: which heap-corruption defenses an arena
/// runs with. The default ([`HardenedConfig::off`]) is the paper's plain
/// profile — the per-CPU layer runs an instance of its paths compiled
/// without the defenses (see [`HardenedConfig::any`]); the layers below
/// keep them compiled in but dormant, the dormant cost of their link paths
/// being the identity XOR mask ([`crate::block::LinkKey::PLAIN`]).
///
/// The defenses are the SLUB-style quartet: XOR-encoded freelist links,
/// poison-on-free verified on alloc, seeded randomized carve order for
/// fresh pages, and a per-CPU double-free quarantine ring. Each can be
/// toggled independently (the overhead bench prices them one at a time);
/// [`HardenedConfig::full`] turns them all on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardenedConfig {
    /// XOR-encode every intrusive `next` word with
    /// `secret ^ word_address`, so a decoded clobber is implausible and
    /// detected rather than dereferenced.
    pub encode: bool,
    /// Fill freed blocks with the poison pattern and verify it on the
    /// next allocation; an overwrite is a detected use-after-free.
    pub poison: bool,
    /// Shuffle the order in which a fresh page's blocks are carved onto
    /// its freelist, so heap feng-shui cannot rely on address-ordered
    /// allocation.
    pub randomize: bool,
    /// Per-CPU double-free quarantine ring size in blocks (0 disables the
    /// ring). A freed block parks here; freeing it again while parked is
    /// a detected double free.
    pub quarantine: usize,
    /// Panic with the corruption report instead of returning
    /// [`crate::KmemError::Corruption`]. Off by default: a production
    /// kernel wants the typed error, `should_panic` tests want the panic.
    pub panic_on_corruption: bool,
    /// Seed for the per-arena link secret and the carve shuffle. Two
    /// arenas with the same seed still derive different secrets (the
    /// arena id is mixed in), but a fixed seed makes torture rounds
    /// reproducible.
    pub seed: u64,
}

impl HardenedConfig {
    /// Every defense off — the paper's plain profile.
    pub const fn off() -> Self {
        HardenedConfig {
            encode: false,
            poison: false,
            randomize: false,
            quarantine: 0,
            panic_on_corruption: false,
            seed: 0,
        }
    }

    /// Every defense on: encoded links, poisoning, randomized carve, and
    /// an 8-slot per-CPU quarantine, reporting corruption as typed
    /// errors. The quarantine is deliberately small: its job is catching
    /// the free/free-again window, not delaying reuse, and each slot
    /// holds a block out of circulation per CPU per class.
    pub const fn full(seed: u64) -> Self {
        HardenedConfig {
            encode: true,
            poison: true,
            randomize: true,
            quarantine: 8,
            panic_on_corruption: false,
            seed,
        }
    }

    /// Whether any defense is active. With none (and the split freelist)
    /// the arena runs the plain profile, and that is the one branch the
    /// dormant path pays: a flag each [`crate::CpuHandle`] copies at
    /// registration and reads once per call, to pick the instance of the
    /// class paths compiled without poison, quarantine, latched-fault and
    /// link-mask code.
    pub const fn any(&self) -> bool {
        self.encode || self.poison || self.randomize || self.quarantine > 0
    }

    /// Panic instead of returning typed corruption errors.
    pub const fn panicking(mut self) -> Self {
        self.panic_on_corruption = true;
        self
    }
}

impl Default for HardenedConfig {
    fn default() -> Self {
        HardenedConfig::off()
    }
}

/// The maintenance-core knobs. Off by default ([`MaintConfig::off`]):
/// every slow-path chore (bound trims, bucket regrouping, pressure
/// spills, drain requests) runs inline on the CPU that crossed the
/// threshold, byte-for-byte the pre-maintenance behaviour. With the core
/// enabled ([`MaintConfig::on`]), hot CPUs instead post work items to a
/// wait-free deduplicated mailbox ([`kmem_smp::Mailbox`]) and a
/// maintenance thread — or an explicit [`crate::KmemArena::maint_poll`]
/// pump in deterministic tests — owns the global layer's settles and
/// spills alone.
///
/// The payoff is *tail* latency: the mean cost of a threshold crossing
/// barely moves, but no application CPU ever pays the regroup/trim walk
/// inline, so p99/p999 allocation latency drops (see `BENCH_maint.json`
/// and DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintConfig {
    /// Route slow-path chores through the maintenance mailbox.
    pub enabled: bool,
}

impl MaintConfig {
    /// Maintenance core off — every chore inline (the default).
    pub const fn off() -> Self {
        MaintConfig { enabled: false }
    }

    /// Maintenance core on — chores post to the mailbox.
    pub const fn on() -> Self {
        MaintConfig { enabled: true }
    }

    /// Whether the maintenance core is active (the one branch the
    /// disabled profile pays per slow-path site).
    pub const fn any(&self) -> bool {
        self.enabled
    }
}

impl Default for MaintConfig {
    fn default() -> Self {
        MaintConfig::off()
    }
}

/// Configuration for a [`crate::KmemArena`].
#[derive(Debug, Clone)]
pub struct KmemConfig {
    /// Number of virtual CPUs (per-CPU cache sets).
    pub ncpus: usize,
    /// Number of NUMA nodes. Every global pool is sharded per node, the
    /// physical pool is split per node, and frames record a home node.
    /// The default of 1 is the paper's flat Symmetry machine: one shard
    /// per class, one physical pool — byte-for-byte the pre-NUMA layout.
    pub nodes: usize,
    /// How CPU indices map onto nodes (ignored when `nodes == 1`).
    pub node_mapping: NodeMapping,
    /// Virtual-memory substrate configuration.
    pub space: SpaceConfig,
    /// Size classes, ascending by size.
    pub classes: Vec<ClassConfig>,
    /// Use the radix-sorted page lists of the paper (`true`: allocate
    /// from the page with the fewest free blocks) or the inverse
    /// most-free-first policy (`false`; ablation only — the "efficient"
    /// policy that minimizes page visits per refill but never lets a
    /// page drain).
    pub radix_pages: bool,
    /// Use the split (`main`/`aux`) per-CPU freelist of the paper (`true`)
    /// or a single bounded list (`false`; ablation only).
    pub split_freelist: bool,
    /// Return fully free vmblks to the kernel space (releases their page-
    /// descriptor frames too). Kept on by default so "everything freed"
    /// states are observable as `phys.in_use() == 0`.
    pub release_empty_vmblks: bool,
    /// Failpoint handle threaded through every fallible layer boundary
    /// (physical claim, vmblk carve, page get, global get/spill, per-CPU
    /// refill). Defaults to [`Faults::none`]: a dormant handle whose cost
    /// on the refill path is a single predictable branch.
    pub faults: Faults,
    /// Watermarks and hysteresis for the memory-pressure ladder.
    pub pressure: PressureConfig,
    /// Heap-corruption defenses ([`HardenedConfig::off`] by default).
    pub hardened: HardenedConfig,
    /// Maintenance-core offload ([`MaintConfig::off`] by default).
    pub maint: MaintConfig,
}

impl KmemConfig {
    /// The paper's default: nine power-of-two classes from 16 to 4096
    /// bytes, heuristic targets, 4 MB vmblks.
    pub fn new(ncpus: usize, space: SpaceConfig) -> Self {
        let classes = (4..=12)
            .map(|shift| ClassConfig::with_heuristics(1 << shift))
            .collect();
        KmemConfig {
            ncpus,
            nodes: 1,
            node_mapping: NodeMapping::Block,
            space,
            classes,
            radix_pages: true,
            split_freelist: true,
            release_empty_vmblks: true,
            faults: Faults::none(),
            pressure: PressureConfig::default(),
            hardened: HardenedConfig::off(),
            maint: MaintConfig::off(),
        }
    }

    /// A small arena suitable for unit tests and doc examples:
    /// 4 CPUs, 16 MB of space, 256 KB vmblks.
    pub fn small() -> Self {
        KmemConfig::new(4, SpaceConfig::new(16 << 20).vmblk_shift(18))
    }

    /// Spreads the arena over `nodes` NUMA nodes (block CPU mapping).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Replaces the hardened profile (builder form of the field).
    pub fn hardened(mut self, hardened: HardenedConfig) -> Self {
        self.hardened = hardened;
        self
    }

    /// Replaces the maintenance-core profile (builder form of the field).
    pub fn maint(mut self, maint: MaintConfig) -> Self {
        self.maint = maint;
        self
    }

    /// Overrides how CPU indices map onto nodes.
    pub fn node_mapping(mut self, mapping: NodeMapping) -> Self {
        self.node_mapping = mapping;
        self
    }

    /// The CPU/node topology this configuration describes.
    pub fn topology(&self) -> Topology {
        Topology::new(self.nodes, self.ncpus, self.node_mapping)
    }

    /// Overrides the `target`/`gbltarget` of the class matching `size`.
    ///
    /// # Panics
    ///
    /// Panics if no class has exactly this block size.
    pub fn set_class(mut self, size: usize, target: usize, gbltarget: usize) -> Self {
        let class = self
            .classes
            .iter_mut()
            .find(|c| c.size == size)
            .expect("no class with that size");
        class.target = target;
        class.gbltarget = gbltarget;
        self
    }

    /// Applies one `target`/`gbltarget` pair to every class (used by the
    /// parameter-sweep ablations).
    pub fn set_all_classes(mut self, target: usize, gbltarget: usize) -> Self {
        for c in &mut self.classes {
            c.target = target;
            c.gbltarget = gbltarget;
        }
        self
    }

    /// Largest class block size.
    pub fn max_class_size(&self) -> usize {
        self.classes.last().map(|c| c.size).unwrap_or(0)
    }

    /// Validates structural requirements.
    ///
    /// # Panics
    ///
    /// Panics on an unusable configuration (zero CPUs, unsorted or
    /// non-power-of-two classes, classes above the page size, or targets
    /// below 1) — configurations are developer input, not runtime data.
    pub fn validate(&self) {
        assert!(self.ncpus >= 1, "need at least one CPU");
        assert!(
            (1..=MAX_NODES).contains(&self.nodes),
            "node count must be between 1 and MAX_NODES"
        );
        assert!(self.ncpus >= self.nodes, "every node needs a CPU");
        assert!(!self.classes.is_empty(), "need at least one size class");
        let mut prev = 0;
        for c in &self.classes {
            assert!(
                c.size.is_power_of_two(),
                "class sizes must be powers of two"
            );
            assert!(c.size >= 16, "classes must hold two words plus poison");
            assert!(
                c.size <= PAGE_SIZE,
                "classes above a page go to the vmblk layer"
            );
            assert!(c.size > prev, "classes must be ascending and distinct");
            assert!(c.target >= 1, "target must be at least 1");
            assert!(
                c.gbltarget >= c.target,
                "gbltarget below target would thrash the page layer"
            );
            prev = c.size;
        }
        self.pressure.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristics_match_paper_endpoints() {
        // "This value ranges from 10 for 16-byte blocks to just 2 for
        // 4096-byte blocks."
        assert_eq!(ClassConfig::with_heuristics(16).target, 10);
        assert_eq!(ClassConfig::with_heuristics(4096).target, 2);
        // "The value of 15 used for gbltarget for small blocks."
        assert_eq!(ClassConfig::with_heuristics(16).gbltarget, 15);
        assert_eq!(ClassConfig::with_heuristics(256).gbltarget, 15);
        // Monotone non-increasing targets as size grows.
        let mut prev = usize::MAX;
        for shift in 4..=12 {
            let t = ClassConfig::with_heuristics(1 << shift).target;
            assert!(t <= prev);
            prev = t;
        }
    }

    #[test]
    fn default_classes_are_the_papers_nine() {
        let cfg = KmemConfig::small();
        let sizes: Vec<_> = cfg.classes.iter().map(|c| c.size).collect();
        assert_eq!(sizes, vec![16, 32, 64, 128, 256, 512, 1024, 2048, 4096]);
        cfg.validate();
    }

    #[test]
    fn set_class_overrides_one_class() {
        let cfg = KmemConfig::small().set_class(64, 7, 21);
        let c = cfg.classes.iter().find(|c| c.size == 64).unwrap();
        assert_eq!((c.target, c.gbltarget), (7, 21));
        cfg.validate();
    }

    #[test]
    fn node_knobs_default_to_the_flat_machine() {
        let cfg = KmemConfig::small();
        assert_eq!(cfg.nodes, 1);
        assert_eq!(cfg.topology().nnodes(), 1);
        let cfg = cfg.nodes(2);
        cfg.validate();
        assert_eq!(cfg.topology().nnodes(), 2);
        assert_eq!(cfg.topology().ncpus(), 4);
    }

    #[test]
    fn hardened_defaults_off_and_full_turns_everything_on() {
        let cfg = KmemConfig::small();
        assert!(!cfg.hardened.any());
        let cfg = cfg.hardened(HardenedConfig::full(42));
        assert!(cfg.hardened.any());
        assert!(cfg.hardened.encode && cfg.hardened.poison && cfg.hardened.randomize);
        assert!(cfg.hardened.quarantine > 0);
        assert!(!cfg.hardened.panic_on_corruption);
        assert!(HardenedConfig::full(1).panicking().panic_on_corruption);
        cfg.validate();
    }

    #[test]
    fn maint_defaults_off_and_on_enables_the_core() {
        let cfg = KmemConfig::small();
        assert!(!cfg.maint.any());
        let cfg = cfg.maint(MaintConfig::on());
        assert!(cfg.maint.any() && cfg.maint.enabled);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "every node needs a CPU")]
    fn validate_rejects_more_nodes_than_cpus() {
        KmemConfig::small().nodes(8).validate();
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn validate_rejects_duplicate_classes() {
        let mut cfg = KmemConfig::small();
        let first = cfg.classes[0];
        cfg.classes.insert(0, first);
        cfg.validate();
    }
}
