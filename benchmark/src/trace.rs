//! Call spans for the traced run: one span per allocator call, kept in a
//! preallocated per-thread buffer and folded into histograms (or written
//! out) after the rep, never during it.

use std::io::{self, BufWriter, Write};
use std::time::Instant;

use crate::mem::{Op, Served, Sink, OP_NAMES};
use crate::stats::Hist;

/// One allocator call. The parent span is the workload rep `rep` on the
/// thread whose buffer holds it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    pub dur_ns: u32,
    pub rep: u16,
    pub op: Op,
    pub served: Served,
}

/// Per-thread span buffer, aligned like [`crate::runner::Slot`].
#[repr(align(128))]
pub struct SpanSink {
    epoch: Instant,
    rep: u16,
    spans: Vec<Span>,
    /// Cost of the `Instant` pair, as timed on this thread before each rep.
    pub timer: Hist,
    /// Calls that arrived after the buffer filled (counted, not stored).
    pub dropped: u64,
}

impl SpanSink {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        SpanSink {
            epoch,
            rep: 0,
            spans: Vec::with_capacity(capacity),
            timer: Hist::new(),
            dropped: 0,
        }
    }

    /// Empties the buffer for rep number `rep`.
    pub fn start_rep(&mut self, rep: u16) {
        self.rep = rep;
        self.spans.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Sink for SpanSink {
    const CLASSIFY: bool = true;

    fn timer(&mut self) -> &mut Hist {
        &mut self.timer
    }

    #[inline]
    fn record(&mut self, op: Op, served: Served, start: Instant, end: Instant) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos().min(u32::MAX as u128) as u32,
            rep: self.rep,
            op,
            served,
        });
    }
}

/// Span durations grouped the way the per-layer metrics read them.
#[derive(Default)]
pub struct SpanHists {
    pub all: Hist,
    pub hit: Hist,
    pub miss: Hist,
    pub alloc: Hist,
    pub free: Hist,
}

impl SpanHists {
    pub fn fold(&mut self, spans: &[Span]) {
        for span in spans {
            let ns = span.dur_ns as u64;
            self.all.record(ns);
            match span.served {
                Served::Hit => self.hit.record(ns),
                Served::Miss => self.miss.record(ns),
                Served::Large | Served::Unknown => {}
            }
            if span.op.is_alloc() {
                self.alloc.record(ns);
            } else {
                self.free.record(ns);
            }
        }
    }
}

const SERVED_NAMES: [&str; 4] = ["hit", "miss", "large", "-"];

/// Appends one text line per span: `thread rep op served start_ns dur_ns`.
pub fn write_spans(out: &mut impl Write, thread: usize, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    for s in spans {
        writeln!(
            out,
            "{thread} {} {} {} {} {}",
            s.rep, OP_NAMES[s.op as usize], SERVED_NAMES[s.served as usize], s.start_ns, s.dur_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sink_stores_until_full_then_counts_drops() {
        let epoch = Instant::now();
        let mut sink = SpanSink::new(epoch, 2);
        sink.start_rep(7);
        let t = |ns| epoch + Duration::from_nanos(ns);
        sink.record(Op::Alloc, Served::Hit, t(10), t(25));
        sink.record(Op::Free, Served::Miss, t(30), t(130));
        sink.record(Op::Free, Served::Hit, t(140), t(150));
        assert_eq!(sink.spans().len(), 2);
        assert_eq!(sink.dropped, 1);
        let s = sink.spans()[1];
        assert_eq!((s.start_ns, s.dur_ns, s.rep), (30, 100, 7));

        let mut hists = SpanHists::default();
        hists.fold(sink.spans());
        assert_eq!(hists.all.count(), 2);
        assert_eq!((hists.hit.count(), hists.miss.count()), (1, 1));
        assert_eq!((hists.alloc.count(), hists.free.count()), (1, 1));

        let mut text = Vec::new();
        write_spans(&mut text, 3, sink.spans()).unwrap();
        assert_eq!(
            String::from_utf8(text).unwrap(),
            "3 7 alloc hit 10 15\n3 7 free miss 30 100\n"
        );
        sink.start_rep(8);
        assert!(sink.spans().is_empty());
    }
}
