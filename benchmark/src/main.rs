//! kmembench — end-to-end and per-layer cost ledger for the kmem allocator.
//!
//! Driver form (what `BENCHMARK.json` runs), one workload per process:
//!
//! ```text
//! kmembench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints progress on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! Suite form (what `run.sh` runs), all five workloads with their reps
//! interleaved round-robin, printing one JSON document:
//!
//! ```text
//! kmembench --suite [--trace <0|1>] [--smoke] [--repeat] [--seed <n>] [--seconds <s>]
//! ```
//!
//! See `benchmark/README.md` for the metric glossary.

mod e2e;
mod layers;
mod mem;
mod metrics;
mod quiet;
mod report;
mod ring;
mod runner;
mod session;
mod sim;
mod stats;
mod suite;
mod trace;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use e2e::EndToEnd;
use layers::LayerCosts;
use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use report::{Bench, Options, WorkloadReport};
use traced::Traced;
use workload::{Handoff, Large, Mix, Pair, Scale, Sweep, Workload};

/// Default seed: fixed, non-zero, recorded in every envelope.
const DEFAULT_SEED: u64 = 0x5EED_1993;
/// Fewest rounds a workload is measured for, however short `--seconds` is.
const MIN_ROUNDS: usize = 5;

struct Cli {
    workload: Option<String>,
    suite: bool,
    traced: bool,
    repeat: bool,
    emit_benchmark_json: bool,
    seconds: f64,
    opts: Options,
}

fn usage() -> ! {
    eprintln!(
        "usage: kmembench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         kmembench --suite [--trace <0|1>] [--smoke] [--repeat] [--seed <n>] [--seconds <s>]\n       \
         kmembench --emit-benchmark-json",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cli = Cli {
        workload: None,
        suite: false,
        traced: false,
        repeat: false,
        emit_benchmark_json: false,
        seconds: RUN_SECONDS as f64,
        opts: Options {
            seed: DEFAULT_SEED,
            scale: Scale::Full,
            host_threads: host_cpus.min(4),
            host_cpus,
        },
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()),
            "--seed" => {
                let text = value();
                let parsed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                };
                cli.opts.seed = parsed.unwrap_or_else(|_| usage());
            }
            "--seconds" => cli.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cli.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--suite" => cli.suite = true,
            "--smoke" => cli.opts.scale = Scale::Smoke,
            "--repeat" => cli.repeat = true,
            "--emit-benchmark-json" => cli.emit_benchmark_json = true,
            _ => usage(),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0 && cli.seconds <= 600.0) {
        usage();
    }
    cli
}

fn open_bench(name: &str, traced: bool, opts: &Options) -> Option<Box<dyn Bench>> {
    fn open<L: Workload + 'static>(traced: bool, opts: &Options) -> Box<dyn Bench> {
        if traced {
            Box::new(Traced::<L>::open(opts))
        } else {
            Box::new(EndToEnd::<L>::open(opts))
        }
    }
    Some(match name {
        Pair::NAME => open::<Pair>(traced, opts),
        Handoff::NAME => open::<Handoff>(traced, opts),
        Sweep::NAME => open::<Sweep>(traced, opts),
        Large::NAME => open::<Large>(traced, opts),
        Mix::NAME => open::<Mix>(traced, opts),
        _ => return None,
    })
}

/// One round of every bench in `benches`; traced, after a pass over the
/// layer drivers, whose costs are also added to `all`.
fn round(benches: &mut [Box<dyn Bench>], traced: bool, opts: &Options, all: &mut LayerCosts) {
    let drivers = if traced {
        LayerCosts::measure(opts.scale, opts.host_threads, opts.seed)
    } else {
        LayerCosts::default()
    };
    for bench in benches.iter_mut() {
        bench.round(&drivers);
    }
    all.merge(drivers);
}

fn declared(traced: bool) -> Vec<&'static MetricDef> {
    if traced {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().map(|m| &m.0).collect()
    }
}

/// One workload: set-up, then rounds for `--seconds`.
fn run_driver(cli: &Cli, name: &str) -> ExitCode {
    let begin = Instant::now();
    let Some(bench) = open_bench(name, cli.traced, &cli.opts) else {
        eprintln!("unknown workload {name}");
        usage();
    };
    let mut benches = [bench];
    let mut drivers = LayerCosts::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(cli.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        round(&mut benches, cli.traced, &cli.opts, &mut drivers);
        rounds += 1;
    }
    let [bench] = benches;
    let mut report = bench.finish(&drivers);
    let declared = declared(cli.traced);
    report.require(&declared);
    eprintln!(
        "kmembench {name}: {rounds} rounds in {:.1} s ({:.1} s in all), seed {:#x}, threads {}",
        start.elapsed().as_secs_f64(),
        begin.elapsed().as_secs_f64(),
        cli.opts.seed,
        report.threads
    );
    print_human(&report);
    println!("{}", report.result_line(&declared));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_human(report: &WorkloadReport) {
    for (name, s) in &report.metrics {
        let unit = report::find_def(name).map_or("", |d| d.unit);
        eprintln!(
            "  {name:<34} {:>14.4} {unit:<7} q1 {:.4} median {:.4} q3 {:.4} min {:.4} n {} spread {:.2}%",
            s.value(),
            s.q1,
            s.median,
            s.q3,
            s.min,
            s.n,
            100.0 * s.spread()
        );
    }
    for (name, value) in &report.notes {
        eprintln!("  ({name} {value:.4})");
    }
    for remark in &report.remarks {
        eprintln!("  note: {remark}");
    }
    for failure in &report.failures {
        eprintln!("  CHECK FAILED: {failure}");
    }
}

fn main() -> ExitCode {
    let cli = parse_cli();
    if cli.emit_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match (&cli.workload, cli.suite) {
        (Some(name), false) => run_driver(&cli, name),
        (None, true) => run_suite(&cli),
        _ => usage(),
    }
}

/// All workloads interleaved; with `--repeat`, twice, and compared.
fn run_suite(cli: &Cli) -> ExitCode {
    // A smoke set must finish in under ten seconds.
    let seconds = if cli.opts.scale == Scale::Smoke {
        cli.seconds.min(0.5)
    } else {
        cli.seconds
    };
    let first = suite::run_set(&cli.opts, cli.traced, seconds);
    println!("{}", suite::document(&cli.opts, cli.traced, &first));
    let mut ok = first.iter().all(WorkloadReport::correct);
    if cli.repeat {
        let second = suite::run_set(&cli.opts, cli.traced, seconds);
        println!("{}", suite::document(&cli.opts, cli.traced, &second));
        ok &= second.iter().all(WorkloadReport::correct);
        eprintln!("kmembench: set A against set B");
        let breaches = suite::compare(&first, &second, cli.traced);
        for breach in &breaches {
            eprintln!("REPEAT BREACH: {breach}");
        }
        ok &= breaches.is_empty();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
