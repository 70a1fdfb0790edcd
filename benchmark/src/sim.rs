//! The DES columns: the workload's own workers stepped by the
//! discrete-event simulator on eight virtual CPUs.

use kmem::KmemArena;
use kmem_sim::{SimConfig, Simulator};

use crate::mem::{Op, Plain};
use crate::workload::{Scale, Tally, Worker, Workload};

/// Share by which a `sim.*` column may differ between two runs of one
/// commit and seed (of its value for the cycle counts, of 1 for the ratios). The simulator prices cache lines by address, and where
/// the heap puts an arena decides whether a few of its fields straddle a
/// line: the columns repeat to the fourth digit on `pair`, `handoff` and
/// `large` and to the second on `sweep` and `mix`, not to the bit.
pub const TOLERANCE: f64 = 0.05;

/// Virtual CPUs of the `*_8` metrics.
pub const VCPUS: usize = 8;
/// Steps each vCPU takes (one allocator call per step at `Scale::Sim`).
const STEPS_PER_VCPU: u64 = 20_000;
/// Units handed to `begin_rep`: far more than the steps can consume, so
/// no worker finishes inside the simulation. A multiple of every batch size.
const ENDLESS: u64 = 1 << 40;
/// Probe-free cycles per call, from the paper's instruction counts on its
/// 50-MHz 80486 (13+13 cookie, 35+32 standard) with the driver-loop
/// overhead `kmem-bench`'s calibration uses: 60 and 115 cycles a pair.
const COOKIE_CALL_CYCLES: u64 = 30;
const STD_ALLOC_CYCLES: u64 = 60;
const STD_FREE_CYCLES: u64 = 55;
/// Cycles a vCPU burns on a step that could only poll its ring.
const IDLE_CYCLES: u64 = 20;

fn base_cycles(calls: &Tally) -> u64 {
    let n = |op: Op| calls.calls[op as usize];
    (n(Op::AllocCookie) + n(Op::FreeCookie)) * COOKIE_CALL_CYCLES
        + n(Op::Alloc) * STD_ALLOC_CYCLES
        + (n(Op::Free) + n(Op::FreeSized)) * STD_FREE_CYCLES
}

/// Simulated cycles per allocator call (vCPU-time, like `ns_per_op`) and
/// the share of vCPU-time spent waiting for locks.
pub fn simulate<L: Workload>(seed: u64) -> (f64, f64) {
    let arena = KmemArena::new(L::config(VCPUS, Scale::Sim)).expect("sim arena");
    let cpus: Vec<_> = (0..VCPUS)
        .map(|_| arena.register_cpu().expect("a CPU per vCPU"))
        .collect();
    let mut workers = L::workers(&arena, VCPUS, seed, Scale::Sim);
    for worker in &mut workers {
        worker.begin_rep(ENDLESS);
    }
    let mut calls = 0u64;
    let result = Simulator::new(SimConfig::new(VCPUS, STEPS_PER_VCPU)).run(|vcpu| {
        let worker = &mut workers[vcpu];
        match worker.step(&mut Plain(&cpus[vcpu])) {
            Some(_) => {
                let tally = worker.take_tally();
                calls += tally.total_calls();
                base_cycles(&tally)
            }
            None => IDLE_CYCLES,
        }
    });
    let vcpu_cycles = result.elapsed_cycles as f64 * VCPUS as f64;
    (
        vcpu_cycles / calls.max(1) as f64,
        result.lock_wait_cycles as f64 / vcpu_cycles.max(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Handoff, Pair};

    fn close(a: (f64, f64), b: (f64, f64)) -> bool {
        (a.0 - b.0).abs() <= TOLERANCE * a.0.max(1.0) && (a.1 - b.1).abs() <= TOLERANCE
    }

    #[test]
    fn simulation_repeats_and_prices_the_hand_off() {
        let pair = simulate::<Pair>(3);
        assert!(close(pair, simulate::<Pair>(3)));
        // `pair` touches no shared line: about the calibrated 30 cycles.
        assert!((pair.0 - COOKIE_CALL_CYCLES as f64).abs() < 2.0, "{pair:?}");
        let handoff = simulate::<Handoff>(3);
        assert!(close(handoff, simulate::<Handoff>(3)));
        assert!(handoff.0 > pair.0, "hand-off must cost shared-line traffic");
    }
}
