//! Spans recorded by the harness around its calls into each layer.
//!
//! The traced run wraps every tape entry in a `call` span, the layer call
//! inside it (`core.execute`, `shard.*`, `stm.atomically`) in a child span,
//! and each structure call inside the benchmark's own closures in a body
//! span tagged with the attempt that ran it. Spans live in per-thread
//! memory: when a request's root span closes, its tree is folded into
//! per-name aggregates (self time = duration minus the part child spans
//! cover) and the first [`KEPT_SPANS`] spans per thread are kept verbatim
//! for the Chrome trace file written at exit.
//!
//! The untraced run uses [`NoTrace`], whose methods compile to nothing, so
//! end-to-end numbers never pay for a clock read they do not report.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// Spans kept verbatim per thread for the trace file (a few MB of JSON).
pub const KEPT_SPANS: usize = 20_000;

/// One duration and one self-time sample is kept per this many spans of a
/// name; the counts are exact.
const DECIMATE: u64 = 8;

macro_rules! span_names {
    ($($variant:ident => $text:literal),* $(,)?) => {
        /// The span names the harness records.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum SpanName { $($variant),* }

        impl SpanName {
            /// Every name, in discriminant order.
            pub const ALL: &'static [SpanName] = &[$(SpanName::$variant),*];

            /// The name as written to the trace file.
            pub fn as_str(self) -> &'static str {
                match self { $(SpanName::$variant => $text),* }
            }
        }
    };
}

span_names! {
    Call => "call",
    CoreExecute => "core.execute",
    ShardExecuteBatch => "shard.execute_batch",
    ShardTransfer => "shard.transfer",
    ShardMultiGet => "shard.multi_get",
    StmAtomically => "stm.atomically",
    AvlContains => "avltree.contains",
    AvlInsert => "avltree.insert",
    AvlRemove => "avltree.remove",
    HashContains => "structs.contains",
    HashInsert => "structs.insert",
    HashRemove => "structs.remove",
    MapContains => "stm.map_contains",
    MapInsert => "stm.map_insert",
    MapRemove => "stm.map_remove",
}

/// Parent index of a request's root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `parent` indexes the slice the span sits in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub parent: u32,
    /// Which run of the layer call's closure recorded this span (1-based;
    /// 0 outside a closure). Earlier attempts than the last are wasted.
    pub attempt: u16,
    /// Set when the request is folded: a later attempt superseded this one.
    pub wasted: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one span run on one thread and
/// so never overlap each other; each is clipped to its parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let start = s.start_ns.max(p.start_ns);
        let end = s.end_ns.min(p.end_ns);
        covered[s.parent as usize] += end.saturating_sub(start);
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// What the workloads record spans through. Closures handed to the layers
/// are `Fn`, so every method takes `&self`.
pub trait Trace: Sized {
    /// Opens the root span of one tape entry; `req` identifies the request
    /// on every span below it.
    fn call(&self, req: u64) -> SpanGuard<'_, Self>;
    /// Opens a child of the innermost open span.
    fn span(&self, name: SpanName) -> SpanGuard<'_, Self>;
    /// Marks the start of one run of the layer call's closure.
    fn attempt(&self);
    /// Closes the innermost open span (what dropping a guard does).
    fn close(&self);
    /// Folds closed requests into the aggregates from now on (the warm-up
    /// records spans too, at the same cost, and discards them).
    fn start_recording(&self);
}

/// Closes its span on drop, which also covers a closure left by unwinding
/// when its speculative attempt aborts.
pub struct SpanGuard<'a, T: Trace>(&'a T);

impl<T: Trace> Drop for SpanGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Tracing off: nothing is recorded and no clock is read.
pub struct NoTrace;

impl Trace for NoTrace {
    #[inline(always)]
    fn call(&self, _req: u64) -> SpanGuard<'_, Self> {
        SpanGuard(self)
    }
    #[inline(always)]
    fn span(&self, _name: SpanName) -> SpanGuard<'_, Self> {
        SpanGuard(self)
    }
    #[inline(always)]
    fn attempt(&self) {}
    #[inline(always)]
    fn close(&self) {}
    #[inline(always)]
    fn start_recording(&self) {}
}

/// Per-name totals over one thread's recorded requests.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub count: u64,
    /// Body spans run by an attempt that was not the last one.
    pub wasted: u64,
    pub dur_samples: Vec<f64>,
    pub self_samples: Vec<f64>,
}

struct Inner {
    /// Spans of the request in flight, root first.
    cur: Vec<Span>,
    /// Indices into `cur` of the spans still open, outermost first.
    open: Vec<u32>,
    req: u64,
    attempt: u16,
    recording: bool,
    aggs: Vec<Agg>,
    kept: Vec<Span>,
}

/// One thread's span buffer.
pub struct SpanBuf {
    pub tid: usize,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl SpanBuf {
    /// A buffer whose timestamps count from `epoch` (shared by all threads
    /// so the trace file has one time axis).
    pub fn new(tid: usize, epoch: Instant) -> Self {
        SpanBuf {
            tid,
            epoch,
            inner: RefCell::new(Inner {
                cur: Vec::with_capacity(64),
                open: Vec::with_capacity(8),
                req: 0,
                attempt: 0,
                recording: false,
                aggs: vec![Agg::default(); SpanName::ALL.len()],
                kept: Vec::with_capacity(KEPT_SPANS + 64),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: SpanName) {
        let start_ns = self.now_ns();
        let mut g = self.inner.borrow_mut();
        let i = &mut *g;
        let parent = i.open.last().copied().unwrap_or(NO_PARENT);
        i.open.push(i.cur.len() as u32);
        i.cur.push(Span {
            name,
            parent,
            attempt: i.attempt,
            wasted: false,
            start_ns,
            end_ns: start_ns,
            req: i.req,
        });
    }

    /// Per-name aggregates recorded so far.
    pub fn aggs(&self) -> Vec<Agg> {
        self.inner.borrow().aggs.clone()
    }

    /// The spans kept verbatim (parents index this vector).
    pub fn kept(&self) -> Vec<Span> {
        self.inner.borrow().kept.clone()
    }
}

impl Inner {
    /// Folds the finished request in `cur` into the aggregates.
    fn fold(&mut self) {
        if self.recording {
            let selfs = self_times(&self.cur);
            let last_attempt = self.attempt;
            for (s, self_ns) in self.cur.iter_mut().zip(selfs) {
                let a = &mut self.aggs[s.name as usize];
                s.wasted = s.attempt != 0 && s.attempt < last_attempt;
                a.wasted += u64::from(s.wasted);
                if a.count.is_multiple_of(DECIMATE) {
                    a.dur_samples.push(s.dur_ns() as f64);
                    a.self_samples.push(self_ns as f64);
                }
                a.count += 1;
            }
            if self.kept.len() < KEPT_SPANS {
                let base = self.kept.len() as u32;
                self.kept.extend(self.cur.iter().map(|s| Span {
                    parent: if s.parent == NO_PARENT {
                        NO_PARENT
                    } else {
                        s.parent + base
                    },
                    ..*s
                }));
            }
        }
        self.cur.clear();
    }
}

impl Trace for SpanBuf {
    fn call(&self, req: u64) -> SpanGuard<'_, Self> {
        {
            let mut i = self.inner.borrow_mut();
            i.req = req;
            i.attempt = 0;
        }
        self.open(SpanName::Call);
        SpanGuard(self)
    }

    fn span(&self, name: SpanName) -> SpanGuard<'_, Self> {
        self.open(name);
        SpanGuard(self)
    }

    fn attempt(&self) {
        let mut i = self.inner.borrow_mut();
        i.attempt = i.attempt.saturating_add(1);
    }

    fn close(&self) {
        let end_ns = self.now_ns();
        let mut i = self.inner.borrow_mut();
        let idx = i.open.pop().expect("close without an open span");
        i.cur[idx as usize].end_ns = end_ns;
        if i.open.is_empty() {
            i.fold();
        }
    }

    fn start_recording(&self) {
        self.inner.borrow_mut().recording = true;
    }
}

/// Aggregates of several threads' buffers merged per name.
pub struct TraceSummary {
    aggs: Vec<Agg>,
}

impl TraceSummary {
    /// Merges the buffers of the threads in `threads`.
    pub fn merge(bufs: &[SpanBuf], threads: &[usize]) -> Self {
        let mut aggs = vec![Agg::default(); SpanName::ALL.len()];
        for b in bufs.iter().filter(|b| threads.contains(&b.tid)) {
            for (into, from) in aggs.iter_mut().zip(b.aggs()) {
                into.count += from.count;
                into.wasted += from.wasted;
                into.dur_samples.extend(from.dur_samples);
                into.self_samples.extend(from.self_samples);
            }
        }
        TraceSummary { aggs }
    }

    pub fn count(&self, name: SpanName) -> u64 {
        self.aggs[name as usize].count
    }

    /// Median duration of `name` spans, 0 when none were recorded.
    pub fn median_dur(&self, name: SpanName) -> f64 {
        median(&self.aggs[name as usize].dur_samples)
    }

    /// Median self time of `name` spans, 0 when none were recorded.
    pub fn median_self(&self, name: SpanName) -> f64 {
        median(&self.aggs[name as usize].self_samples)
    }

    /// Median duration over all spans of the given names together.
    pub fn median_dur_of(&self, names: &[SpanName]) -> f64 {
        let all: Vec<f64> = names
            .iter()
            .flat_map(|&n| self.aggs[n as usize].dur_samples.iter().copied())
            .collect();
        median(&all)
    }

    /// Share of the given names' spans that a later attempt made useless.
    pub fn wasted_share(&self, names: &[SpanName]) -> f64 {
        let (wasted, count) = names.iter().fold((0, 0), |(w, c), &n| {
            let a = &self.aggs[n as usize];
            (w + a.wasted, c + a.count)
        });
        if count == 0 {
            0.0
        } else {
            wasted as f64 / count as f64
        }
    }
}

/// Renders the kept spans of all threads as Chrome `trace_event` JSON
/// (load in Perfetto or chrome://tracing). `args` carries what the viewer
/// has no field for: span id, parent id, request id, attempt, wasted.
pub fn chrome_trace_json(workload: &str, bufs: &[SpanBuf]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for b in bufs {
        for (i, s) in b.kept().iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\
                 \"req\":{},\"attempt\":{},\"wasted\":{}}}}}",
                s.name.as_str(),
                workload,
                b.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
                s.req,
                s.attempt,
                s.wasted,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, attempt: u16, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            attempt,
            wasted: false,
            start_ns,
            end_ns,
            req: 7,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // call [0,100] -> core.execute [10,90] -> two bodies [20,40] [50,85];
        // a grandchild must not be subtracted from the root, and a child
        // that overruns its parent is clipped to it.
        let spans = [
            span(SpanName::Call, NO_PARENT, 0, 0, 100),
            span(SpanName::CoreExecute, 0, 0, 10, 90),
            span(SpanName::AvlContains, 1, 1, 20, 40),
            span(SpanName::AvlContains, 1, 2, 50, 95),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 45]);
    }

    #[test]
    fn buffer_folds_requests_and_tags_wasted_attempts() {
        let buf = SpanBuf::new(0, Instant::now());
        buf.start_recording();
        {
            let _call = buf.call(42);
            let _layer = buf.span(SpanName::CoreExecute);
            for _ in 0..3 {
                buf.attempt();
                let _body = buf.span(SpanName::AvlInsert);
            }
        }
        let aggs = buf.aggs();
        assert_eq!(aggs[SpanName::Call as usize].count, 1);
        assert_eq!(aggs[SpanName::CoreExecute as usize].count, 1);
        assert_eq!(aggs[SpanName::AvlInsert as usize].count, 3);
        assert_eq!(aggs[SpanName::AvlInsert as usize].wasted, 2);
        let kept = buf.kept();
        assert_eq!(kept.len(), 5);
        assert_eq!(kept[0].parent, NO_PARENT);
        assert!(kept[2..].iter().all(|s| s.parent == 1 && s.req == 42));
        let sum = TraceSummary::merge(std::slice::from_ref(&buf), &[0]);
        assert_eq!(sum.count(SpanName::AvlInsert), 3);
        assert!((sum.wasted_share(&[SpanName::AvlInsert]) - 2.0 / 3.0).abs() < 1e-12);
        let json = chrome_trace_json("t", std::slice::from_ref(&buf));
        let doc = rtle_obs::parse_json(&json).expect("trace file is JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn spans_before_recording_are_discarded() {
        let buf = SpanBuf::new(1, Instant::now());
        drop(buf.call(1));
        assert_eq!(buf.aggs()[SpanName::Call as usize].count, 0);
        assert!(buf.kept().is_empty());
    }
}
