//! The end-to-end run of one workload: rounds of one untimed-per-call rep
//! and one latency rep, tracing off, on a succession of fresh arenas.
//!
//! The timings of a one-thread workload are read off the run's quietest
//! slices (see [`crate::quiet`]); those of a workload whose threads wait
//! for each other are the medians of its reps.

use std::time::{Duration, Instant};

use crate::layers::LayerCosts;
use crate::mem::LatencySink;
use crate::quiet::Quietest;
use crate::report::{Bench, Options, WorkloadReport};
use crate::session::{CloseReport, Profile, Session};
use crate::stats::summarize;
use crate::workload::Workload;

/// Rounds after which `frames_peak` is read on the first arena. The peak
/// only ever grows, so a run that fits more rounds into its seconds would
/// read higher: it is taken after a fixed amount of work (and then repeats
/// exactly on the one-thread workloads), enough of it that the peak has
/// stopped moving (after five rounds, ten seeds of `mix` spread by 4.8 %).
const PEAK_ROUNDS: usize = 20;

/// How long one arena is measured (time in its own rounds) before it is
/// closed and the next is set up (a dozen set-ups in a 25-s run, 4 % of
/// it), the first not before
/// `frames_peak` has been read on it. Every set-up is a `setup_s` sample:
/// several in a row at the start would all meet the same second of the
/// host's weather, and spread over the run they do not. The reps, too,
/// then come from several arenas, not from wherever one happened to be
/// placed.
const SESSION_TIME: Duration = Duration::from_secs(2);

pub struct EndToEnd<L: Workload> {
    /// The arena being measured; `None` only inside `reopen`.
    session: Option<Session<L>>,
    /// Time spent in rounds on that arena (not the wall time since its
    /// set-up: the suite runs the other workloads' rounds in between).
    busy: Duration,
    /// What closing the earlier arenas found.
    closed: CloseReport,
    opts: Options,
    sinks: Vec<LatencySink>,
    timer_ns: Vec<f64>,
    /// Per arena: all of its set-up, and its warm-up rep where the
    /// workload's threads wait for each other (0 where not).
    setup_s: Vec<f64>,
    setup_together_s: Vec<f64>,
    /// Per round: the two reps, each as a whole.
    ns_per_op: Vec<f64>,
    call_p99_ns: Vec<f64>,
    /// One-thread workloads: set-up and plain rep slice by slice (the
    /// latency rep's slices are with its calls, in the sink).
    quiet_setup: Quietest,
    quiet_plain: Quietest,
    /// `phys().peak()` of the first arena after `PEAK_ROUNDS` (at the end
    /// of a run too short to hold them).
    frames_peak: usize,
    latency_samples: u64,
}

impl<L: Workload> EndToEnd<L> {
    pub fn open(opts: &Options) -> Self {
        let mut run = EndToEnd {
            session: None,
            busy: Duration::ZERO,
            closed: CloseReport::default(),
            opts: opts.clone(),
            sinks: Vec::new(),
            timer_ns: Vec::new(),
            setup_s: Vec::new(),
            setup_together_s: Vec::new(),
            ns_per_op: Vec::new(),
            call_p99_ns: Vec::new(),
            quiet_setup: Quietest::default(),
            quiet_plain: Quietest::default(),
            frames_peak: 0,
            latency_samples: 0,
        };
        run.reopen();
        let threads = run.session().threads();
        run.sinks.resize_with(threads, LatencySink::default);
        run
    }

    fn session(&mut self) -> &mut Session<L> {
        self.session
            .as_mut()
            .expect("an arena is open between calls")
    }

    /// Closes the arena in use, if any, and sets the next one up. One
    /// after the other: two live arenas would double the memory in use.
    fn reopen(&mut self) {
        if let Some(old) = self.session.take() {
            self.closed.merge(old.close());
        }
        let o = &self.opts;
        let (session, setup) =
            Session::<L>::open(o.host_threads, o.seed, o.scale, Profile::Default);
        self.setup_s.push(setup.seconds);
        self.setup_together_s.push(setup.together_s);
        self.quiet_setup.observe(&setup.steps);
        self.session = Some(session);
        self.busy = Duration::ZERO;
    }
}

impl<L: Workload> Bench for EndToEnd<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn round(&mut self, _drivers: &LayerCosts) {
        let start = Instant::now();
        let one_thread = self.session().threads() == 1;
        let plain = self.session().plain_rep();
        self.ns_per_op.push(plain.outcome.ns_per_op());
        if one_thread {
            let slices = self.session.as_ref().expect("open").slices(0);
            self.quiet_plain.observe(slices);
        }

        let mut sinks = std::mem::take(&mut self.sinks);
        for sink in &mut sinks {
            sink.clear();
        }
        self.session().timed_rep(&mut sinks);
        let all = LatencySink::merge_all(&mut sinks);
        self.latency_samples += all.all.count();
        // Every sample carries the timer pair's own cost; take its median
        // off the percentile.
        let timer_ns = all.timer.percentile(0.5);
        self.timer_ns.push(timer_ns);
        self.call_p99_ns.push(all.all.percentile(0.99) - timer_ns);
        self.sinks = sinks;

        let rounds = self.ns_per_op.len();
        if rounds == PEAK_ROUNDS {
            self.frames_peak = self.session().arena().space().phys().peak();
        }
        self.busy += start.elapsed();
        if rounds >= PEAK_ROUNDS && self.busy >= SESSION_TIME {
            self.reopen();
        }
    }

    fn finish(mut self: Box<Self>, _drivers: &LayerCosts) -> WorkloadReport {
        let threads = self.session().threads();
        if self.ns_per_op.len() < PEAK_ROUNDS {
            self.frames_peak = self.session().arena().space().phys().peak();
        }
        let mut close = std::mem::take(&mut self.closed);
        close.merge(self.session.take().expect("an arena is open").close());
        let mut report = WorkloadReport::new(L::NAME, threads, close);
        let ns_per_op = summarize(&self.ns_per_op);
        let call_p99_ns = summarize(&self.call_p99_ns);
        let setup_s = summarize(&self.setup_s);
        if threads == 1 {
            // The timer pair, too, as it cost when the host left it alone:
            // each rep prices it over half a millisecond.
            let timer_ns = summarize(&self.timer_ns).min;
            let p99 = self.sinks[0].quiet_calls().percentile(0.99) - timer_ns;
            let quiet_ns_per_op = self.quiet_plain.ns_per_call();
            report.push("ns_per_op", ns_per_op.reported_as(quiet_ns_per_op));
            report.push("call_p99_ns", call_p99_ns.reported_as(p99));
            report.note("timer_quietest_ns", timer_ns);
        } else {
            report.push("ns_per_op", ns_per_op.at_median());
            report.push("call_p99_ns", call_p99_ns.at_median());
        }
        // What one thread did alone at its quietest, and the warm-up rep of
        // threads that wait for each other (0 where they do not) at its median.
        let together_s = summarize(&self.setup_together_s).median;
        let setup_s = setup_s.reported_as(self.quiet_setup.total_ns() / 1e9 + together_s);
        report.push("setup_s", setup_s);
        report.push("frames_peak", summarize(&[self.frames_peak as f64]));
        report.note("latency_samples", self.latency_samples as f64);
        report.note("timer_ns", summarize(&self.timer_ns).median);
        report
    }
}
