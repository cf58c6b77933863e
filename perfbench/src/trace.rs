//! In-memory spans recorded around the benchmark's calls into each
//! layer (workspace crate).
//!
//! Every thread owns a [`SpanLog`]; a span's parent is the span open on
//! the same thread when it began, and spans of one end-to-end operation
//! share a request id. Logs are merged into a [`Trace`] when the run
//! ends, which computes per-layer self time and writes the spans out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The workspace crate a span's call goes into. `Op` marks the
/// benchmark's own end-to-end operation spans (the roots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Op,
    Xmark,
    Xml,
    Storage,
    Bat,
    Axes,
    Xpath,
    Txn,
    Xupdate,
    Server,
}

/// The layers reported by name (every crate except the `core` facade).
pub const LAYERS: [Layer; 9] = [
    Layer::Xmark,
    Layer::Xml,
    Layer::Storage,
    Layer::Bat,
    Layer::Axes,
    Layer::Xpath,
    Layer::Txn,
    Layer::Xupdate,
    Layer::Server,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Xmark => "xmark",
            Layer::Xml => "xml",
            Layer::Storage => "storage",
            Layer::Bat => "bat",
            Layer::Axes => "axes",
            Layer::Xpath => "xpath",
            Layer::Txn => "txn",
            Layer::Xupdate => "xupdate",
            Layer::Server => "server",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call: nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// Handle of an open span (`None` while recording is off).
#[must_use]
pub struct Open(Option<u32>);

/// One thread's spans. Recording can be switched per operation, so a
/// traced run can interleave traced and untraced operations and
/// measure the tracing overhead.
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl SpanLog {
    pub fn new(epoch: Instant, on: bool) -> SpanLog {
        SpanLog {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "switch only between operations");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, layer: Layer, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = u32::try_from(self.spans.len()).expect("span count fits u32");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent,
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let now = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
            self.spans[idx as usize].end = now;
        }
    }

    /// Durations (µs) of this log's spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(name, layer, req);
        let r = f();
        self.end(s);
        r
    }
}

/// All threads' spans of one run.
pub struct Trace {
    logs: Vec<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { logs: Vec::new() }
    }

    pub fn absorb(&mut self, log: SpanLog) {
        debug_assert!(log.stack.is_empty(), "every span closed");
        self.logs.push(log.spans);
    }

    fn all(&self) -> impl Iterator<Item = &Span> {
        self.logs.iter().flatten()
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.all()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    pub fn total_spans(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.all().filter(|s| s.name == name).count()
    }

    /// Each layer's share (%) of the time inside end-to-end operation
    /// spans (`Layer::Op` roots), counting only its *self* time: a
    /// span's duration minus the time its child spans cover. Layers
    /// without spans under an operation read 0.
    pub fn self_pct(&self) -> BTreeMap<Layer, f64> {
        let mut by_layer: BTreeMap<Layer, f64> = BTreeMap::new();
        let mut op_total = 0.0;
        for spans in &self.logs {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if s.parent != NO_PARENT {
                    child_ns[s.parent as usize] += s.end - s.start;
                }
            }
            // A span belongs to an operation when its root is an Op span.
            let mut under_op = vec![false; spans.len()];
            for (i, s) in spans.iter().enumerate() {
                under_op[i] = if s.parent == NO_PARENT {
                    s.layer == Layer::Op
                } else {
                    under_op[s.parent as usize]
                };
                if !under_op[i] {
                    continue;
                }
                let own = (s.end - s.start).saturating_sub(child_ns[i]) as f64;
                *by_layer.entry(s.layer).or_default() += own;
                if s.parent == NO_PARENT {
                    op_total += (s.end - s.start) as f64;
                }
            }
        }
        LAYERS
            .iter()
            .map(|&l| {
                let own = by_layer.get(&l).copied().unwrap_or(0.0);
                let pct = if op_total > 0.0 {
                    own / op_total * 100.0
                } else {
                    0.0
                };
                (l, pct)
            })
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `thread req name layer start_ns end_ns parent`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("thread\treq\tname\tlayer\tstart_ns\tend_ns\tparent\n");
        for (t, spans) in self.logs.iter().enumerate() {
            for s in spans {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                };
                let _ = writeln!(
                    out,
                    "{t}\t{}\t{}\t{}\t{}\t{}\t{parent}",
                    s.req,
                    s.name,
                    s.layer.name(),
                    s.start,
                    s.end
                );
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now(), true);
        let op = log.begin("op.x", Layer::Op, 1);
        let a = log.begin("txn.a", Layer::Txn, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = log.begin("xpath.b", Layer::Xpath, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.end(b);
        log.end(a);
        log.end(op);
        // Spans outside an operation do not count.
        log.time("storage.probe", Layer::Storage, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        log.set_on(false);
        let off = log.begin("op.y", Layer::Op, 2);
        log.end(off);
        let mut t = Trace::new();
        t.absorb(log);
        let pct = t.self_pct();
        assert!(pct[&Layer::Txn] > 30.0 && pct[&Layer::Xpath] > 30.0);
        assert_eq!(pct[&Layer::Storage], 0.0);
        assert!((pct.values().sum::<f64>() - 100.0).abs() < 5.0);
        assert_eq!(t.count("op.y"), 0);
    }
}
