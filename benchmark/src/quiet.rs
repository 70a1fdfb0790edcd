//! A one-thread timing put together from the quietest observation of each
//! of its slices.
//!
//! The recording host is a two-vCPU VM on a shared machine, and what its
//! neighbours do to one thread they do in spells of a fraction of a
//! millisecond to a few: timed in 100-µs stretches for a minute, a
//! cache-resident loop read 0.94 ns an iteration in a tenth to a quarter of
//! the stretches of every second and about 1.45 in the rest, and nothing in
//! between. A rep of 40 ms holds both kinds in a mix that drifts from a
//! tenth slow to nine tenths slow over minutes, so no rank of whole reps
//! holds still (`pair`, ten runs a set: the median moved by 40 %, the lower
//! quartile by 13 %, the 5th percentile by 4 to 19 %).
//!
//! A one-thread worker makes the same calls in the same order in every rep
//! of a run. The runner therefore stamps the clock every few thousand calls
//! (a slice of about 20 to 200 µs), and the `i`-th slice of every rep covers
//! the same work. [`Quietest`] keeps, for each `i`, the fastest observation
//! over all the run's reps, and the rep it reports is the sum of those:
//! every part of the work as it ran when the host left it alone. Three runs
//! that ranked 75, 211 and 266 reps (the first in a bad spell) read 6.07,
//! 6.03 and 6.07 ns on `pair`.
//!
//! Not for threads that wait for each other: there the host moves a slice
//! both ways (see `Summary::at_median`), and the fastest observation is the
//! moment the two vCPUs shared a core.

/// One stretch of a rep: the time a worker took over a fixed number of
/// calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    pub ns: u32,
    /// Allocator calls made in the stretch (for set-up steps: 0).
    pub calls: u32,
}

/// How far above the fastest observation of a slice another one may lie
/// and still count as undisturbed: 1/32 of it. Left alone, the same work
/// repeats to a per cent; a busy neighbour adds a third to a half.
const QUIET_WINDOW: u64 = 32;

/// How an observation of a slice compares with the fastest one so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The first observation, or faster than every earlier one by more
    /// than the window: those were all disturbed.
    Quietest,
    /// Within the window of the fastest (which it now is, if faster).
    Quiet,
    /// Slower than that.
    Disturbed,
}

/// The fastest observation of every slice over the timelines observed.
#[derive(Debug, Default)]
pub struct Quietest {
    best: Vec<Slice>,
}

impl Quietest {
    /// Takes in an observation of the `i`-th slice. Slices are offered in
    /// order, so `i` is at most the number known.
    pub fn offer(&mut self, i: usize, slice: Slice) -> Offer {
        let Some(best) = self.best.get_mut(i) else {
            assert_eq!(i, self.best.len(), "slices come in order");
            self.best.push(slice);
            return Offer::Quietest;
        };
        // Two observations of one slice make the same calls, give or take
        // a step of a workload whose threads feed each other: compare the
        // times per call (set-up steps make none: the times).
        let new = slice.ns as u64 * best.calls.max(1) as u64;
        let old = best.ns as u64 * slice.calls.max(1) as u64;
        if new < old {
            *best = slice;
        }
        if new + new / QUIET_WINDOW < old {
            Offer::Quietest
        } else if new <= old + old / QUIET_WINDOW {
            Offer::Quiet
        } else {
            Offer::Disturbed
        }
    }

    /// Takes in one more observation of the whole timeline.
    pub fn observe(&mut self, timeline: &[Slice]) {
        for (i, &slice) in timeline.iter().enumerate() {
            self.offer(i, slice);
        }
    }

    /// Length of the reassembled timeline.
    pub fn total_ns(&self) -> f64 {
        self.best.iter().map(|s| s.ns as f64).sum()
    }

    /// Its time per allocator call.
    pub fn ns_per_call(&self) -> f64 {
        let calls: f64 = self.best.iter().map(|s| s.calls as f64).sum();
        self.total_ns() / calls.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(ns: &[u32]) -> Vec<Slice> {
        ns.iter().map(|&ns| Slice { ns, calls: 10 }).collect()
    }

    #[test]
    fn the_reassembled_rep_is_the_sum_of_each_slices_fastest_observation() {
        let mut q = Quietest::default();
        q.observe(&timeline(&[100, 300, 100]));
        q.observe(&timeline(&[200, 150, 400]));
        // A shorter timeline (a run cut short) leaves the rest as it was.
        q.observe(&timeline(&[90]));
        assert_eq!(q.total_ns(), 90.0 + 150.0 + 100.0);
        assert_eq!(q.ns_per_call(), 340.0 / 30.0);
    }

    #[test]
    fn slices_are_compared_per_call_and_set_up_steps_by_time() {
        let mut q = Quietest::default();
        assert_eq!(q.offer(0, Slice { ns: 100, calls: 10 }), Offer::Quietest);
        // More time but still more calls: the quieter observation.
        assert_eq!(q.offer(0, Slice { ns: 110, calls: 12 }), Offer::Quietest);
        let mut steps = Quietest::default();
        assert_eq!(steps.offer(0, Slice { ns: 500, calls: 0 }), Offer::Quietest);
        assert_eq!(steps.offer(0, Slice { ns: 400, calls: 0 }), Offer::Quietest);
        assert_eq!(
            steps.offer(0, Slice { ns: 450, calls: 0 }),
            Offer::Disturbed
        );
        // Within 1/32 of the record, either side of it.
        assert_eq!(steps.offer(0, Slice { ns: 410, calls: 0 }), Offer::Quiet);
        assert_eq!(steps.offer(0, Slice { ns: 395, calls: 0 }), Offer::Quiet);
        assert_eq!(steps.total_ns(), 395.0);
    }
}
