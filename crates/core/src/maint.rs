//! Slow-path work descriptors and their mailbox key layout.
//!
//! Every chore below the per-CPU caches that a CPU may defer is a
//! [`MaintWork`] item. The arena runs one item with one body wherever it
//! lands: inline on the CPU that noticed it, or — with the maintenance
//! core enabled ([`crate::config::MaintConfig`]) — posted to a
//! [`kmem_smp::Mailbox`] and run by the core. Only *where* the work runs
//! depends on the configuration, never *what* it does. The mailbox
//! deduplicates per key, so the key layout *is* the dedup policy: one key
//! per (kind, shard) means a storm of identical threshold crossings — a
//! hundred CPUs all noticing the same shard is over its bound — collapses
//! to one unit of work.
//!
//! [`MaintKeys`] owns the dense key layout for one arena topology:
//!
//! ```text
//! [0,          nshards)              Settle   per (class, node)
//! [nshards,    2*nshards)            Spill    per (class, node)
//! [2*nshards,  2*nshards + ncpus)    DrainCpu per cpu
//! ```
//!
//! where `nshards = nclasses * nnodes` and shards are node-minor
//! (`class * nnodes + node`), matching the arena's global-pool layout.

use kmem_smp::Mailbox;

/// One unit of deferrable slow-path work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintWork {
    /// Settle shard `(class, node)`: regroup its bucket list into
    /// `target`-sized ready chains and trim it to `2 * gbltarget` — the
    /// half of a put that [`crate::global::GlobalPool::put`] reports owed.
    Settle { class: usize, node: usize },
    /// Pressure-ladder spill of shard `(class, node)` down to
    /// `gbltarget` blocks.
    Spill { class: usize, node: usize },
    /// Request a cache drain from `cpu` (sets its drain flag; the CPU
    /// flushes at its next poll).
    DrainCpu { cpu: usize },
}

/// Dense key layout for one arena topology (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct MaintKeys {
    nclasses: usize,
    nnodes: usize,
    ncpus: usize,
}

impl MaintKeys {
    /// Builds the layout for `nclasses` size classes over `nnodes` NUMA
    /// nodes and `ncpus` CPUs.
    pub fn new(nclasses: usize, nnodes: usize, ncpus: usize) -> Self {
        assert!(nclasses >= 1 && nnodes >= 1 && ncpus >= 1);
        MaintKeys {
            nclasses,
            nnodes,
            ncpus,
        }
    }

    fn nshards(&self) -> usize {
        self.nclasses * self.nnodes
    }

    /// Total number of dedup keys (the mailbox size).
    pub fn count(&self) -> usize {
        2 * self.nshards() + self.ncpus
    }

    /// The dedup key for `work`.
    pub fn key(&self, work: MaintWork) -> usize {
        let shard = |class: usize, node: usize| {
            debug_assert!(class < self.nclasses && node < self.nnodes);
            class * self.nnodes + node
        };
        match work {
            MaintWork::Settle { class, node } => shard(class, node),
            MaintWork::Spill { class, node } => self.nshards() + shard(class, node),
            MaintWork::DrainCpu { cpu } => {
                debug_assert!(cpu < self.ncpus);
                2 * self.nshards() + cpu
            }
        }
    }

    /// The work item a drained `key` describes (inverse of
    /// [`MaintKeys::key`]).
    ///
    /// # Panics
    ///
    /// Panics if `key >= self.count()` — a key can only come from this
    /// layout's own mailbox.
    pub fn work(&self, key: usize) -> MaintWork {
        let nshards = self.nshards();
        let unshard = |shard: usize| (shard / self.nnodes, shard % self.nnodes);
        if key < nshards {
            let (class, node) = unshard(key);
            MaintWork::Settle { class, node }
        } else if key < 2 * nshards {
            let (class, node) = unshard(key - nshards);
            MaintWork::Spill { class, node }
        } else if key < self.count() {
            MaintWork::DrainCpu {
                cpu: key - 2 * nshards,
            }
        } else {
            panic!("maintenance key {key} out of range for {self:?}");
        }
    }
}

/// Per-arena maintenance state: the mailbox plus its key layout.
pub(crate) struct MaintState {
    pub(crate) mailbox: Mailbox,
    pub(crate) keys: MaintKeys,
}

impl MaintState {
    pub(crate) fn new(keys: MaintKeys) -> Self {
        MaintState {
            mailbox: Mailbox::new(keys.count()),
            keys,
        }
    }

    /// Wait-free post of a work item (deduplicated per key).
    pub(crate) fn post(&self, work: MaintWork) {
        self.mailbox.post(self.keys.key(work), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_dense_distinct_and_round_trip() {
        for (nclasses, nnodes, ncpus) in [(1, 1, 1), (9, 1, 4), (9, 4, 16), (3, 2, 5)] {
            let keys = MaintKeys::new(nclasses, nnodes, ncpus);
            let mut seen = vec![false; keys.count()];
            let mut all = Vec::new();
            for class in 0..nclasses {
                for node in 0..nnodes {
                    all.push(MaintWork::Settle { class, node });
                    all.push(MaintWork::Spill { class, node });
                }
            }
            for cpu in 0..ncpus {
                all.push(MaintWork::DrainCpu { cpu });
            }
            assert_eq!(all.len(), keys.count(), "layout is dense");
            for work in all {
                let k = keys.key(work);
                assert!(!seen[k], "key {k} assigned twice");
                seen[k] = true;
                assert_eq!(keys.work(k), work, "key round-trips");
            }
            assert!(seen.iter().all(|&s| s), "every key is reachable");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_key_is_rejected() {
        let keys = MaintKeys::new(2, 1, 1);
        let _ = keys.work(keys.count());
    }

    #[test]
    fn state_posts_dedupe_per_work_item() {
        let state = MaintState::new(MaintKeys::new(2, 1, 2));
        state.post(MaintWork::Settle { class: 0, node: 0 });
        state.post(MaintWork::Settle { class: 0, node: 0 });
        state.post(MaintWork::Settle { class: 1, node: 0 });
        assert_eq!(state.mailbox.posted(), 3);
        assert_eq!(state.mailbox.deduped(), 1);
        let mut drained = Vec::new();
        state
            .mailbox
            .try_drain(|key, _| drained.push(state.keys.work(key)));
        assert_eq!(
            drained,
            vec![
                MaintWork::Settle { class: 0, node: 0 },
                MaintWork::Settle { class: 1, node: 0 },
            ]
        );
    }
}
