//! Per-layer hit/miss statistics and the paper's miss rates.
//!
//! The distributed-lock-manager evaluation in the paper is expressed
//! entirely in **miss rates**: "We define the miss rate at a given layer as
//! the fraction of accesses to that layer that require the services of a
//! higher layer." This module aggregates the per-CPU cache counters and the
//! global-pool counters into exactly those rates, per class and per
//! operation direction, so the E6 experiment can print the same table.

use kmem_smp::counter::rate;

/// Raw access/miss counts for one layer and direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Operations presented to the layer.
    pub accesses: u64,
    /// Operations that required the next layer up.
    pub misses: u64,
}

impl LayerCounts {
    /// `misses / accesses`, the paper's miss rate.
    pub fn miss_rate(&self) -> f64 {
        rate(self.misses, self.accesses)
    }
}

/// Statistics for one size class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassStats {
    /// Block size of the class.
    pub size: usize,
    /// Per-CPU layer, allocation direction (summed over CPUs).
    pub cpu_alloc: LayerCounts,
    /// Per-CPU layer, free direction (summed over CPUs).
    pub cpu_free: LayerCounts,
    /// Global layer, allocation direction (chain gets).
    pub gbl_alloc: LayerCounts,
    /// Global layer, free direction (chain puts).
    pub gbl_free: LayerCounts,
}

impl ClassStats {
    /// Combined per-CPU + global miss rate for allocations: the fraction
    /// of `kmem_alloc` calls that reached the coalesce-to-page layer.
    pub fn combined_alloc_miss_rate(&self) -> f64 {
        rate(self.gbl_alloc.misses, self.cpu_alloc.accesses)
    }

    /// Combined per-CPU + global miss rate for frees.
    pub fn combined_free_miss_rate(&self) -> f64 {
        rate(self.gbl_free.misses, self.cpu_free.accesses)
    }
}

/// A snapshot of allocator statistics across all classes.
#[derive(Debug, Clone, Default)]
pub struct KmemStats {
    /// One entry per size class, ascending.
    pub classes: Vec<ClassStats>,
    /// Large (multi-page) allocations served by the vmblk layer.
    pub large_allocs: u64,
    /// Large frees.
    pub large_frees: u64,
    /// vmblks currently live.
    pub vmblks_live: usize,
    /// Physical frames currently claimed.
    pub phys_in_use: usize,
    /// Physical frame capacity.
    pub phys_capacity: usize,
}

impl KmemStats {
    /// Total allocations across classes (cache-layer accesses).
    pub fn total_allocs(&self) -> u64 {
        self.classes.iter().map(|c| c.cpu_alloc.accesses).sum()
    }

    /// Total frees across classes.
    pub fn total_frees(&self) -> u64 {
        self.classes.iter().map(|c| c.cpu_free.accesses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_math() {
        let l = LayerCounts {
            accesses: 1000,
            misses: 78,
        };
        assert!((l.miss_rate() - 0.078).abs() < 1e-12);
        assert_eq!(LayerCounts::default().miss_rate(), 0.0);
    }

    #[test]
    fn combined_rate_uses_cache_accesses_as_denominator() {
        // 1000 allocs, 100 reached the global layer, 10 of those reached
        // the page layer: combined rate 1%.
        let c = ClassStats {
            size: 256,
            cpu_alloc: LayerCounts {
                accesses: 1000,
                misses: 100,
            },
            gbl_alloc: LayerCounts {
                accesses: 100,
                misses: 10,
            },
            ..Default::default()
        };
        assert!((c.combined_alloc_miss_rate() - 0.01).abs() < 1e-12);
        // The product of the layer rates bounds the combined rate when the
        // layers are independent: 0.1 * 0.1 = 0.01.
        let product = c.cpu_alloc.miss_rate() * c.gbl_alloc.miss_rate();
        assert!((product - 0.01).abs() < 1e-12);
    }

    #[test]
    fn totals_sum_over_classes() {
        let mut s = KmemStats::default();
        for n in [10u64, 20, 30] {
            s.classes.push(ClassStats {
                cpu_alloc: LayerCounts {
                    accesses: n,
                    misses: 0,
                },
                cpu_free: LayerCounts {
                    accesses: n * 2,
                    misses: 0,
                },
                ..Default::default()
            });
        }
        assert_eq!(s.total_allocs(), 60);
        assert_eq!(s.total_frees(), 120);
    }
}
