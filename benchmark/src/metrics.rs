//! The benchmark's metric and workload tables: the one place a name, unit,
//! direction or bound is written down. `BENCHMARK.json` is generated from
//! these tables (`kmembench --emit-benchmark-json`) and a unit test keeps
//! the committed file equal to them.

use crate::workload::{Handoff, Large, Mix, Pair, Sweep, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with the share of the parent's value by which each
/// may worsen before a change counts as a regression.
///
/// Ten runs with ten seeds of one commit on the recording host (a two-vCPU
/// VM on a shared machine) spread by 2 to 5 % (`ns_per_op`) and 2 to 8 %
/// (`call_p99_ns`; inter-quartile distance over median) in a quiet hour and
/// by 6 to 11 % in a noisy one, the one-thread workloads included: whole
/// runs then sit 10 to 20 % above their neighbours, and no statistic taken
/// inside a run sees that. The two timings carry the widest bound the
/// contract allows, a little over twice the noisy hour's spread: one inside
/// the host's own noise would reject later changes at random. `frames_peak`
/// is a count that moves 0 to 3 % from seed to seed.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (lower("ns_per_op", "ns"), 0.25),
    (lower("call_p99_ns", "ns"), 0.25),
    (lower("frames_peak", "frames"), 0.10),
    (lower("setup_s", "s"), 0.25),
];

/// Per-layer metrics (no bounds): counts from snapshot deltas around the
/// timed phase, costs from the traced run's spans and layer drivers.
pub const PER_LAYER: &[MetricDef] = &[
    lower("cookie.pair_ns", "ns"),
    lower("sizeclass.std_pair_ns", "ns"),
    lower("sizeclass.free_lookup_ns", "ns"),
    lower("percpu.alloc_miss_rate", "ratio"),
    lower("percpu.free_miss_rate", "ratio"),
    lower("percpu.refill_short_rate", "ratio"),
    lower("percpu.hit_pair_ns", "ns"),
    lower("percpu.refill_ns", "ns"),
    lower("percpu.flush_ns", "ns"),
    lower("arena.glue_ns", "ns"),
    lower("arena.all_cpus_pair_ns", "ns"),
    lower("arena.hit_p50_ns", "ns"),
    lower("arena.miss_p50_ns", "ns"),
    lower("arena.miss_p99_ns", "ns"),
    lower("arena.call_p999_ns", "ns"),
    lower("arena.alloc_p50_ns", "ns"),
    lower("arena.free_p50_ns", "ns"),
    lower("arena.alloc_p99_ns", "ns"),
    lower("arena.free_p99_ns", "ns"),
    lower("arena.flush_ns", "ns"),
    lower("arena.reclaim_ns", "ns"),
    lower("arena.hardened_ns_per_op", "ns"),
    lower("arena.maint_ns_per_op", "ns"),
    lower("arena.maint_call_p99_ns", "ns"),
    lower("arena.numa2_ns_per_op", "ns"),
    lower("global.get_per_kop", "1/kop"),
    lower("global.put_per_kop", "1/kop"),
    lower("global.get_miss_rate", "ratio"),
    lower("global.put_miss_rate", "ratio"),
    lower("global.slow_rate", "ratio"),
    lower("global.cas_retries_per_kop", "1/kop"),
    lower("global.get_ns", "ns"),
    lower("global.put_ns", "ns"),
    lower("global.odd_put_ns", "ns"),
    lower("global.contended_pair_ns", "ns"),
    lower("pagelayer.refills_per_kop", "1/kop"),
    lower("pagelayer.page_acquires_per_kop", "1/kop"),
    lower("pagelayer.page_releases_per_kop", "1/kop"),
    lower("pagelayer.block_frees_per_kop", "1/kop"),
    lower("pagelayer.cas_retries_per_kop", "1/kop"),
    lower("pagelayer.alloc_chain_ns", "ns"),
    lower("pagelayer.free_chain_ns", "ns"),
    lower("pagelayer.page_cycle_ns", "ns"),
    higher("vmblklayer.cache_hit_rate", "ratio"),
    lower("vmblklayer.large_per_kop", "1/kop"),
    lower("vmblklayer.span1_pair_ns", "ns"),
    lower("vmblklayer.spanN_pair_ns", "ns"),
    lower("vmblklayer.contended_pair_ns", "ns"),
    lower("vmblklayer.pd_lookup_ns", "ns"),
    lower("vm.frames_mapped_per_kop", "1/kop"),
    lower("vm.frames_retained", "frames"),
    lower("vm.vmblks_live", "count"),
    lower("vm.claim_release_ns", "ns"),
    lower("vm.dope_lookup_ns", "ns"),
    lower("sim.cycles_per_op_8", "cycles"),
    lower("sim.lock_wait_frac_8", "ratio"),
    lower("ledger.predicted_ns_per_op", "ns"),
    lower("ledger.residual_frac", "ratio"),
    lower("trace.timer_ns", "ns"),
    lower("trace.overhead_frac", "ratio"),
    lower("check.fail_share", "ratio"),
];

/// Workload names and the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (Pair::NAME, Pair::WHY),
    (Handoff::NAME, Handoff::WHY),
    (Sweep::NAME, Sweep::WHY),
    (Large::NAME, Large::WHY),
    (Mix::NAME, Mix::WHY),
];

/// Seconds one driver run measures for: as long as the 114 runs the driver
/// makes of five workloads may take with a margin for their set-ups and
/// the two builds.
pub const RUN_SECONDS: u64 = 25;

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `BENCHMARK.json`, generated from the tables above: one array element
/// per line, so the committed file diffs by metric. Every string in the
/// tables is plain text (no quote or backslash), so none needs escaping.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricDef| {
        format!(
            r#""name": "{}", "unit": "{}", "better": "{}""#,
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let lines = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!(r#"{{"name": "{name}", "why": "{why}"}}"#));
    let end_to_end = END_TO_END
        .iter()
        .map(|(m, bound)| format!(r#"{{{}, "bound": {bound}}}"#, metric(m)));
    let per_layer = PER_LAYER.iter().map(|m| format!("{{{}}}", metric(m)));
    format!(
        r#"{{
  "command": ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"],
  "paths": ["benchmark"],
  "run_seconds": {RUN_SECONDS},
  "workloads": {},
  "end_to_end": {},
  "per_layer": {}
}}
"#,
        lines(workloads.collect()),
        lines(end_to_end.collect()),
        lines(per_layer.collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains(['\n', '"', '\\']),
                "why too long or not plain text: {why}"
            );
        }
        for m in END_TO_END.iter().map(|m| &m.0).chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "unit too long: {}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (m, bound) in END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.0.name == "setup_s").unwrap();
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_equals_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: kmembench --emit-benchmark-json > BENCHMARK.json"
        );
    }
}
