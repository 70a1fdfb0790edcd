//! The traced run of one workload: per-layer counts from snapshot deltas,
//! call spans classified hit/miss, the layer drivers, the profile and DES
//! columns, and the ledger that reconciles them with `ns_per_op`.
//!
//! The ledger is drawn up once per round, from that round's plain rep and
//! the layer costs measured in the same round: the recording host slows
//! down and speeds up by tens of per cent over seconds, and a rep compared
//! with drivers that ran ten seconds earlier reconciles by luck.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use kmem::KmemSnapshot;

use crate::layers::{self, LayerCosts, GLOBAL_GET_MISS, GLOBAL_PUT_SPILL};
use crate::mem::{LatencySink, Op, NOPS};
use crate::report::{find_def, Bench, Options, WorkloadReport};
use crate::session::{PlainRep, Profile, Session};
use crate::sim;
use crate::stats::{summarize, Hist, Summary};
use crate::trace::{write_spans, SpanHists, SpanSink};
use crate::workload::{Scale, Tally, Workload};
use crate::MIN_ROUNDS;

/// Spans a thread's buffer holds per traced rep (16 bytes each).
const SPAN_CAPACITY: usize = 3 << 20;
/// Spans per thread that are written out when the run ends (a full rep
/// holds up to a million a thread, some 40 MB of text).
const SPANS_WRITTEN: usize = 50_000;
/// Plain reps behind a profile column's `ns_per_op`.
const PROFILE_REPS: usize = 20;
/// The ledger must explain a `LEDGER_ASSERTED` workload to within this share.
const LEDGER_TOLERANCE: f64 = 0.25;

/// The ledger's terms, in the order [`Traced::ledger`] returns them.
const TERMS: [&str; 6] = [
    "cookie+percpu+glue",
    "sizeclass+percpu+glue",
    "percpu refill+flush",
    "global get+put",
    "pagelayer+vmblk page+vm",
    "vmblklayer spans+vm",
];

/// Counter movement over one plain rep: what the ledger multiplies the
/// layer costs with.
#[derive(Default)]
struct Totals {
    calls: u64,
    tally: Tally,
    /// Per class: page-layer chain requests and blocks pushed down.
    page_refills: Vec<u64>,
    page_block_frees: Vec<u64>,
    targets: Vec<usize>,
    cache_refills: u64,
    cache_flushes: u64,
    global_gets: u64,
    global_get_misses: u64,
    global_puts: u64,
    global_put_misses: u64,
    global_odd_puts: u64,
    large_calls: u64,
}

pub struct Traced<L: Workload> {
    session: Session<L>,
    opts: Options,
    sinks: Vec<SpanSink>,
    timer: Hist,
    spans: SpanHists,
    spans_dropped: u64,
    rep: u16,
    /// Per-rep samples of every count-derived metric.
    samples: BTreeMap<&'static str, Vec<f64>>,
    plain_ns_per_op: Vec<f64>,
    traced_ns_per_op: Vec<f64>,
    /// Calls over all plain reps, by entry point.
    tally: Tally,
    /// Per round: the ledger's terms, their sum, and the share of the
    /// round's `ns_per_op` the sum leaves unexplained.
    terms: Vec<[f64; TERMS.len()]>,
    predicted: Vec<f64>,
    residual: Vec<f64>,
}

fn per_kop(count: u64, calls: u64) -> f64 {
    1000.0 * count as f64 / calls.max(1) as f64
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl<L: Workload> Traced<L> {
    pub fn open(opts: &Options) -> Self {
        let (session, _) =
            Session::<L>::open(opts.host_threads, opts.seed, opts.scale, Profile::Default);
        let epoch = Instant::now();
        let sinks = (0..session.threads())
            .map(|_| SpanSink::new(epoch, SPAN_CAPACITY))
            .collect();
        Traced {
            session,
            opts: opts.clone(),
            sinks,
            timer: Hist::new(),
            spans: SpanHists::default(),
            spans_dropped: 0,
            rep: 0,
            samples: BTreeMap::new(),
            plain_ns_per_op: Vec::new(),
            traced_ns_per_op: Vec::new(),
            tally: Tally::default(),
            terms: Vec::new(),
            predicted: Vec::new(),
            residual: Vec::new(),
        }
    }

    /// Keeps a count-derived sample if it comes from one of the rounds
    /// every run makes: over a fixed amount of work the counts of the
    /// one-thread workloads repeat exactly, over "as many reps as fitted"
    /// they would depend on the host's speed.
    fn sample(&mut self, name: &'static str, value: f64) {
        if usize::from(self.rep) < MIN_ROUNDS {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Turns one plain rep's snapshot delta into per-rep metric samples
    /// and into the counts the rep's ledger needs.
    fn count(&mut self, rep: &PlainRep) -> Totals {
        let delta: &KmemSnapshot = &rep.delta;
        let calls = rep.outcome.tally.total_calls();
        let mut cache = kmem::CacheCounts::default();
        let mut global = kmem::GlobalCounts::default();
        let mut page = kmem::PageCounts::default();
        let mut t = Totals {
            page_refills: vec![0; delta.classes.len()],
            page_block_frees: vec![0; delta.classes.len()],
            targets: delta.classes.iter().map(|c| c.target).collect(),
            ..Totals::default()
        };
        for (i, class) in delta.classes.iter().enumerate() {
            cache.merge(&class.cache_total());
            global.merge(&class.global);
            page.refills += class.page.refills;
            page.page_acquires += class.page.page_acquires;
            page.page_releases += class.page.page_releases;
            page.block_frees += class.page.block_frees;
            page.cas_retries += class.page.cas_retries;
            t.page_refills[i] += class.page.refills;
            t.page_block_frees[i] += class.page.block_frees;
        }
        t.calls += calls;
        t.tally.add(&rep.outcome.tally);
        self.tally.add(&rep.outcome.tally);
        t.cache_refills += cache.refill;
        t.cache_flushes += cache.flushes();
        t.global_gets += global.get;
        t.global_get_misses += global.get_miss;
        t.global_puts += global.put;
        t.global_put_misses += global.put_miss;
        t.global_odd_puts += global.put_odd;
        t.large_calls += delta.large_allocs + delta.large_frees;

        self.sample(
            "percpu.alloc_miss_rate",
            ratio(cache.alloc_miss, cache.alloc),
        );
        self.sample("percpu.free_miss_rate", ratio(cache.free_miss, cache.free));
        self.sample(
            "percpu.refill_short_rate",
            ratio(cache.refill_short, cache.refill),
        );
        self.sample("global.get_per_kop", per_kop(global.get, calls));
        self.sample("global.put_per_kop", per_kop(global.put, calls));
        self.sample("global.get_miss_rate", ratio(global.get_miss, global.get));
        self.sample("global.put_miss_rate", ratio(global.put_miss, global.put));
        self.sample(
            "global.slow_rate",
            ratio(global.get_slow + global.put_slow, global.get + global.put),
        );
        self.sample(
            "global.cas_retries_per_kop",
            per_kop(global.cas_retries, calls),
        );
        self.sample("pagelayer.refills_per_kop", per_kop(page.refills, calls));
        self.sample(
            "pagelayer.page_acquires_per_kop",
            per_kop(page.page_acquires, calls),
        );
        self.sample(
            "pagelayer.page_releases_per_kop",
            per_kop(page.page_releases, calls),
        );
        self.sample(
            "pagelayer.block_frees_per_kop",
            per_kop(page.block_frees, calls),
        );
        self.sample(
            "pagelayer.cas_retries_per_kop",
            per_kop(page.cas_retries, calls),
        );
        self.sample(
            "vmblklayer.cache_hit_rate",
            ratio(delta.vmblk_cache_hits, page.page_acquires),
        );
        self.sample(
            "vmblklayer.large_per_kop",
            per_kop(delta.large_allocs + delta.large_frees, calls),
        );
        self.sample(
            "vm.frames_mapped_per_kop",
            per_kop(rep.frames_mapped, calls),
        );
        self.sample("vm.frames_retained", rep.frames_retained as f64);
        self.sample("vm.vmblks_live", delta.vmblks_live as f64);
        t
    }

    /// `ns_per_op` (and for `Maint` the call p99) of the same workload on
    /// an arena built with `profile`; check failures carry over.
    fn profile_column(
        &self,
        profile: Profile,
        failures: &mut Vec<String>,
        remarks: &mut Vec<String>,
    ) -> (f64, f64) {
        let (mut session, _) = Session::<L>::open(
            self.opts.host_threads,
            self.opts.seed,
            self.opts.scale,
            profile,
        );
        let ns: Vec<f64> = (0..PROFILE_REPS)
            .map(|_| session.plain_rep().outcome.ns_per_op())
            .collect();
        let mut p99 = 0.0;
        if profile == Profile::Maint {
            let mut sinks: Vec<LatencySink> = (0..session.threads())
                .map(|_| LatencySink::default())
                .collect();
            session.timed_rep(&mut sinks);
            let all = LatencySink::merge_all(&mut sinks);
            p99 = all.all.percentile(0.99) - all.timer.percentile(0.5);
        }
        let close = session.close();
        failures.extend(
            close
                .failures
                .into_iter()
                .map(|f| format!("{} profile: {f}", profile.name())),
        );
        // Only the default profile's allocations decide `failed`; a
        // profile that turns some away (the maintenance core defers the
        // spills an exhausted `sweep` pass waits for) is reported.
        if close.tally.failed > 0 {
            remarks.push(format!(
                "{} profile: {} allocations failed or fell short on {}",
                profile.name(),
                close.tally.failed,
                L::NAME
            ));
        }
        (summarize(&ns).value(), p99)
    }

    /// Writes the head of the last traced rep's spans, every thread's, to
    /// `kmembench-spans-<workload>.txt` beside the executable (the build
    /// directory: inside the checkout and ignored by git).
    fn write_spans(&self) -> io::Result<PathBuf> {
        let exe = std::env::current_exe()?;
        let path = exe.with_file_name(format!("kmembench-spans-{}.txt", L::NAME));
        let mut file = File::create(&path)?;
        for (thread, sink) in self.sinks.iter().enumerate() {
            let spans = sink.spans();
            write_spans(&mut file, thread, &spans[..spans.len().min(SPANS_WRITTEN)])?;
        }
        Ok(path)
    }

    /// Prices the page layer in the rep's own regime: a
    /// [`layers::page_fill_drain`] for each class the rep moved through the
    /// layer, over the workload's peak footprint. (Fill, drain) cost per
    /// block by class, 0 for a class that stayed out of the page layer.
    fn price_page_layer(&self, t: &Totals) -> Vec<(f64, f64)> {
        let pool = self.session.arena().space().phys().peak();
        (0..t.page_refills.len())
            .map(|class| {
                if t.page_refills[class] + t.page_block_frees[class] == 0 {
                    return (0.0, 0.0);
                }
                layers::page_fill_drain(class, 16 << class, pool, self.opts.seed)
            })
            .collect()
    }

    /// `Σ rate × cost` of one rep, in ns per call of the workload and in
    /// the order of [`TERMS`]; `drivers` holds the round's own layer costs.
    fn ledger(t: &Totals, drivers: &LayerCosts, page_ns: &[(f64, f64)]) -> [f64; TERMS.len()] {
        let cost = |name: &str| drivers.get(name).value();
        let calls = t.calls.max(1) as f64;
        let n = |op: Op| t.tally.calls[op as usize] as f64;
        let large = t.large_calls as f64;
        // The hit path of every class-sized call, by interface. `Alloc`
        // and `Free` calls that went to the vmblk layer are priced there.
        let std_calls = n(Op::Alloc) + n(Op::Free) + n(Op::FreeSized) - large;
        let class_frees_by_ptr = if large > 0.0 { 0.0 } else { n(Op::Free) };
        let page: f64 = (0..t.page_refills.len())
            .map(|c| {
                t.page_refills[c] as f64 * t.targets[c] as f64 * page_ns[c].0
                    + t.page_block_frees[c] as f64 * page_ns[c].1
            })
            .sum();
        // Puts that neither spilled nor took the odd-chain path (a put
        // that did both is priced twice; such puts are rare).
        let plain_puts = t
            .global_puts
            .saturating_sub(t.global_odd_puts + t.global_put_misses);
        [
            (n(Op::AllocCookie) + n(Op::FreeCookie)) * cost("cookie.pair_ns") / 2.0 / calls,
            (std_calls * cost("sizeclass.std_pair_ns") / 2.0
                + class_frees_by_ptr * cost("sizeclass.free_lookup_ns"))
                / calls,
            (t.cache_refills as f64 * cost("percpu.refill_ns")
                + t.cache_flushes as f64 * cost("percpu.flush_ns"))
                / calls,
            ((t.global_gets - t.global_get_misses) as f64 * cost("global.get_ns")
                + t.global_get_misses as f64 * cost(GLOBAL_GET_MISS)
                + plain_puts as f64 * cost("global.put_ns")
                + t.global_put_misses as f64 * cost(GLOBAL_PUT_SPILL)
                + t.global_odd_puts as f64 * cost("global.odd_put_ns"))
                / calls,
            page / calls,
            large * cost("vmblklayer.spanN_pair_ns") / 2.0 / calls,
        ]
    }
}

impl<L: Workload> Bench for Traced<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn round(&mut self, drivers: &LayerCosts) {
        let rep = self.session.plain_rep();
        let ns_per_op = rep.outcome.ns_per_op();
        self.plain_ns_per_op.push(ns_per_op);
        let totals = self.count(&rep);

        self.rep += 1;
        for sink in &mut self.sinks {
            sink.start_rep(self.rep);
        }
        let outcome = self.session.timed_rep(&mut self.sinks);
        self.traced_ns_per_op.push(outcome.ns_per_op());
        for sink in &mut self.sinks {
            self.spans.fold(sink.spans());
            self.spans_dropped += std::mem::take(&mut sink.dropped);
            self.timer.merge(&sink.timer);
            sink.timer.clear();
        }

        let terms = Self::ledger(&totals, drivers, &self.price_page_layer(&totals));
        let predicted: f64 = terms.iter().sum();
        self.terms.push(terms);
        self.predicted.push(predicted);
        self.residual.push((ns_per_op - predicted) / ns_per_op);
    }

    fn finish(mut self: Box<Self>, costs: &LayerCosts) -> WorkloadReport {
        let mut extra_failures = Vec::new();
        let mut remarks = Vec::new();
        remarks.push(match self.write_spans() {
            Ok(path) => format!(
                "first {SPANS_WRITTEN} call spans per thread of the last traced rep: {}",
                path.display()
            ),
            Err(e) => format!("call spans not written: {e}"),
        });
        let (flush_ns, reclaim_ns) = self.session.timed_drain();
        let threads = self.session.threads();
        // Columns a workload does not have read 0.
        let mut column = |profile| {
            if L::PROFILE_COLUMNS {
                self.profile_column(profile, &mut extra_failures, &mut remarks)
            } else {
                (0.0, 0.0)
            }
        };
        let (hardened_ns, _) = column(Profile::Hardened);
        let (maint_ns, maint_p99) = column(Profile::Maint);
        let (numa2_ns, _) = column(Profile::Numa2);
        let (sim_cycles, sim_lock_wait) = if L::SIMULATED {
            sim::simulate::<L>(self.opts.seed)
        } else {
            (0.0, 0.0)
        };

        let ns_per_op = summarize(&self.plain_ns_per_op).value();
        // Signed or adding up to a signed figure, so the middle round
        // speaks for them, not a low rank.
        let mid = |samples: &[f64]| summarize(samples).median;
        let predicted = mid(&self.predicted);
        let residual = mid(&self.residual);
        let terms: Vec<(&str, f64)> = TERMS
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let of_rounds: Vec<f64> = self.terms.iter().map(|t| t[i]).collect();
                (name, mid(&of_rounds))
            })
            .collect();

        let this = *self;
        let close = this.session.close();
        let tally = close.tally;
        let mut report = WorkloadReport::new(L::NAME, threads, close);
        report.failures.append(&mut extra_failures);
        report.remarks.append(&mut remarks);

        let timer_ns = this.timer.percentile(0.5);
        let net = |ns: f64| if ns > 0.0 { ns - timer_ns } else { 0.0 };
        let one = |v: f64| summarize(&[v]);
        for (&name, samples) in &this.samples {
            report.push(name, summarize(samples));
        }
        let mut put = |name: &'static str, s: Summary| report.push(name, s);
        // Every driver metric (the ledger-only costs are not declared).
        for (name, summary) in costs.iter().filter(|c| find_def(c.0).is_some()) {
            put(name, summary);
        }
        put(
            "arena.glue_ns",
            one(costs.get("cookie.pair_ns").value() - costs.get("percpu.hit_pair_ns").value()),
        );
        put("arena.hit_p50_ns", one(net(this.spans.hit.percentile(0.5))));
        put(
            "arena.miss_p50_ns",
            one(net(this.spans.miss.percentile(0.5))),
        );
        put(
            "arena.miss_p99_ns",
            one(net(this.spans.miss.percentile(0.99))),
        );
        put(
            "arena.call_p999_ns",
            one(net(this.spans.all.percentile(0.999))),
        );
        put(
            "arena.alloc_p50_ns",
            one(net(this.spans.alloc.percentile(0.5))),
        );
        put(
            "arena.free_p50_ns",
            one(net(this.spans.free.percentile(0.5))),
        );
        put(
            "arena.alloc_p99_ns",
            one(net(this.spans.alloc.percentile(0.99))),
        );
        put(
            "arena.free_p99_ns",
            one(net(this.spans.free.percentile(0.99))),
        );
        put("arena.flush_ns", one(flush_ns));
        put("arena.reclaim_ns", one(reclaim_ns));
        put("arena.hardened_ns_per_op", one(hardened_ns));
        put("arena.maint_ns_per_op", one(maint_ns));
        put("arena.maint_call_p99_ns", one(maint_p99));
        put("arena.numa2_ns_per_op", one(numa2_ns));
        put("sim.cycles_per_op_8", one(sim_cycles));
        put("sim.lock_wait_frac_8", one(sim_lock_wait));
        put("ledger.predicted_ns_per_op", one(predicted));
        put("ledger.residual_frac", one(residual));
        put("trace.timer_ns", one(timer_ns));
        put(
            "trace.overhead_frac",
            one((summarize(&this.traced_ns_per_op).value() - ns_per_op) / ns_per_op),
        );
        put(
            "check.fail_share",
            one((tally.failed + tally.tag_bad) as f64 / tally.total_calls().max(1) as f64),
        );

        report.push("ns_per_op", summarize(&this.plain_ns_per_op));
        report.note("spans", this.spans.all.count() as f64);
        report.note("spans.hit", this.spans.hit.count() as f64);
        report.note("spans.miss", this.spans.miss.count() as f64);
        report.note("spans.dropped", this.spans_dropped as f64);
        for (op, name) in crate::mem::OP_NAMES.iter().enumerate().take(NOPS) {
            report.note(format!("calls.{name}"), this.tally.calls[op] as f64);
        }
        for (name, ns) in &terms {
            report.note(format!("ledger.term.{name}"), *ns);
        }
        let largest = terms
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("terms");
        report.remarks.push(format!(
            "ledger, middle round of {}: predicted {predicted:.2} ns/op, {:+.1} % of the round's \
             ns_per_op unexplained; largest term {} ({:.2} ns). The unexplained part is the benchmark's own work between calls (tags, rings, \
             victim draws), cache misses the batch-timed drivers do not see, and waiting for locks \
             or lines held by other CPUs",
            this.residual.len(),
            100.0 * residual,
            largest.0,
            largest.1,
        ));
        // Asserted on the measured runs only: a smoke rep is a few
        // milliseconds and reconciles, or does not, by luck.
        let asserted = L::LEDGER_ASSERTED && this.opts.scale == Scale::Full;
        if asserted && residual.abs() > LEDGER_TOLERANCE {
            report.failures.push(format!(
                "ledger.residual_frac {residual:+.3} exceeds {LEDGER_TOLERANCE} on {}",
                L::NAME
            ));
        }
        let (cookie, std) = (
            costs.get("cookie.pair_ns"),
            costs.get("sizeclass.std_pair_ns"),
        );
        let spreads = format!(
            "cookie median {:.2} ns (q1 {:.2}, q3 {:.2}), standard median {:.2} ns (q1 {:.2}, q3 {:.2})",
            cookie.median, cookie.q1, cookie.q3, std.median, std.q1, std.q3
        );
        report.remarks.push(if cookie.q3 < std.q1 {
            format!("interface order resolved, cookie below standard: {spreads}")
        } else if std.q3 < cookie.q1 {
            format!("interface order inverted on this host, standard below cookie: {spreads}")
        } else {
            format!("interface order unresolved on this host, the quartiles overlap: {spreads}; no claim")
        });
        report
    }
}
