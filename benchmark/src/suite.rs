//! The suite: all five workloads in one process, their rounds interleaved
//! round-robin, one JSON document out; and the two-set repeatability check.

use std::process::Command;
use std::time::{Duration, Instant};

use kmem_bench::JsonObj;

use crate::layers::LayerCosts;
use crate::metrics::{MetricDef, END_TO_END, WORKLOADS};
use crate::report::{Options, WorkloadReport};
use crate::sim;
use crate::workload::Scale;
use crate::{declared, open_bench, round, MIN_ROUNDS};

/// The commit the numbers belong to; "unknown" outside a git checkout.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// One complete set: every workload opened, rounds interleaved until
/// `seconds` per workload have passed, every workload finished.
pub fn run_set(opts: &Options, traced: bool, seconds: f64) -> Vec<WorkloadReport> {
    let mut benches: Vec<_> = WORKLOADS
        .iter()
        .map(|&(name, _)| {
            eprintln!("kmembench: setting up {name}");
            open_bench(name, traced, opts).expect("table names are known")
        })
        .collect();
    let mut drivers = LayerCosts::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds * benches.len() as f64);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        round(&mut benches, traced, opts, &mut drivers);
        rounds += 1;
    }
    eprintln!(
        "kmembench: {rounds} interleaved rounds in {:.1} s",
        start.elapsed().as_secs_f64()
    );
    let declared = declared(traced);
    benches
        .into_iter()
        .map(|bench| {
            eprintln!("kmembench: finishing {}", bench.name());
            let mut report = bench.finish(&drivers);
            report.require(&declared);
            crate::print_human(&report);
            report
        })
        .collect()
}

/// The suite's JSON document.
pub fn document(opts: &Options, traced: bool, reports: &[WorkloadReport]) -> String {
    let mut doc = JsonObj::new();
    doc.u64("schema", 1)
        .str("benchmark", "kmembench")
        .str("git_commit", &git_commit())
        .u64("seed", opts.seed)
        .str("profile", "default")
        .usize("host_cpus", opts.host_cpus)
        .usize("threads", opts.host_threads)
        .str(
            "scale",
            if opts.scale == Scale::Full {
                "full"
            } else {
                "smoke"
            },
        )
        .bool("traced", traced);
    if opts.host_cpus == 1 {
        // One core: threads time-share it, so multi-thread numbers say
        // what a path costs, not how it scales.
        doc.bool("path_length_only", true);
    }
    doc.bool("correct", reports.iter().all(WorkloadReport::correct))
        .obj("workloads", |workloads| {
            for report in reports {
                workloads.obj(report.workload, |w| report.write_json(w));
            }
        });
    doc.finish()
}

/// Compares two sets of the same commit: every end-to-end metric must
/// agree within its bound, `sim.*` within [`sim::TOLERANCE`], and the layer
/// counts of single-thread workloads exactly. Returns the breaches.
pub fn compare(a: &[WorkloadReport], b: &[WorkloadReport], traced: bool) -> Vec<String> {
    let mut breaches = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        for (def, bound) in END_TO_END {
            let (Some(x), Some(y)) = (ra.get(def.name), rb.get(def.name)) else {
                continue;
            };
            let (x, y) = (x.value(), y.value());
            // Two zeros agree; a zero against anything else does not.
            let gap = if x == y {
                0.0
            } else {
                (x - y).abs() / x.abs().max(f64::MIN_POSITIVE)
            };
            // A gap that is not a number (a metric that was not) is a breach.
            let ok = gap <= *bound;
            let verdict = if ok { "ok" } else { "BREACH" };
            eprintln!(
                "  {:<8} {:<14} {:>14.4} {:>14.4}  |a-b|/a {:6.2}%  bound {:5.1}%  {verdict}",
                ra.workload,
                def.name,
                x,
                y,
                100.0 * gap,
                100.0 * bound
            );
            if !ok {
                breaches.push(format!(
                    "{} {}: {} vs {} differ by {:.1} % (bound {:.1} %)",
                    ra.workload,
                    def.name,
                    x,
                    y,
                    100.0 * gap,
                    100.0 * bound
                ));
            }
        }
        if !traced {
            continue;
        }
        // How far apart a per-layer metric's two values may be, if it is
        // one that must repeat at all.
        let tolerance = |def: &MetricDef| {
            if def.name.starts_with("sim.") {
                Some(sim::TOLERANCE)
            } else if ra.threads == 1 && (def.unit == "1/kop" || def.name.ends_with("_rate")) {
                Some(0.0)
            } else {
                None
            }
        };
        for def in declared(true) {
            let (Some(allowed), Some(x), Some(y)) =
                (tolerance(def), ra.get(def.name), rb.get(def.name))
            else {
                continue;
            };
            // Relative for the cycle counts, absolute for the ratios
            // (5 % of a lock-wait share of 0.0003 would be noise).
            let (x, y) = (x.value(), y.value());
            if (x - y).abs() > allowed * x.abs().max(1.0) {
                breaches.push(format!(
                    "{} {}: {} vs {} must repeat within {:.0} %",
                    ra.workload,
                    def.name,
                    x,
                    y,
                    100.0 * allowed
                ));
            }
        }
    }
    breaches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::report_of;

    #[test]
    fn compare_flags_gaps_beyond_the_bound_and_survives_zeros() {
        let bound = END_TO_END[0].1;
        let name = END_TO_END[0].0.name;
        let set = |value: f64| vec![report_of(1, &[(name, value)])];
        assert!(compare(&set(100.0), &set(100.0 * (1.0 + 0.9 * bound)), false).is_empty());
        assert_eq!(
            compare(&set(100.0), &set(100.0 * (1.0 + 1.1 * bound)), false).len(),
            1
        );
        assert!(compare(&set(0.0), &set(0.0), false).is_empty());
        assert_eq!(compare(&set(0.0), &set(1.0), false).len(), 1);
        assert_eq!(compare(&set(f64::NAN), &set(1.0), false).len(), 1);
    }
}
