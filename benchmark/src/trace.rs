//! In-memory spans recorded by the driver around each call into a layer.
//!
//! The libraries are not instrumented (that is the later `obs` issue); a
//! span here is the driver's own timer around one public call. Spans stay
//! in memory and are written out once, after the measured section.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub session: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// Records spans while `enabled`; otherwise `begin`/`end` do nothing, so the
/// untraced run executes the same driver code without the bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub enabled: bool,
    pub session: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            session: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            session: self.session,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_us = self.now_us();
        // spans close in LIFO order; anything opened above `id` and never
        // closed (an early `?` return) is closed with it
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_us = end_us;
            if top == id {
                break;
            }
        }
    }

    /// Durations in ms of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per span name: (count, total ms, self ms), where self time is the
    /// span's duration minus what its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = table.entry(s.name).or_insert((0, 0.0, 0.0));
            row.0 += 1;
            row.1 += s.ms();
            row.2 += s.ms() - child_ms[i];
        }
        table
    }

    /// Share of `root`-span time not covered by child spans.
    pub fn unattributed_ratio(&self, root: &str) -> f64 {
        match self.self_times().get(root) {
            Some(&(_, total, own)) if total > 0.0 => own / total,
            _ => 0.0,
        }
    }

    /// Self-time table as text, widest consumer first; shares are of all
    /// traced time (the spans that have no parent).
    pub fn self_time_table(&self) -> String {
        let table = self.self_times();
        let root_total: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ms)
            .sum();
        let mut rows: Vec<_> = table.into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        let mut out = format!(
            "{:<22} {:>7} {:>12} {:>12} {:>8}\n",
            "span", "count", "total_ms", "self_ms", "share"
        );
        for (name, (count, total, own)) in rows {
            let share = if root_total > 0.0 {
                own / root_total
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{name:<22} {count:>7} {total:>12.3} {own:>12.3} {:>7.1}%",
                share * 100.0
            );
        }
        out
    }

    /// Chrome `trace_event` JSON (load in chrome://tracing or Perfetto):
    /// one complete ("X") event per span, one track per session.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"session\":{}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.session,
                s.session
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
