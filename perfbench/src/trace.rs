//! The benchmark's own tracing: in-memory spans recorded around each call
//! into the program, written out only when the run ends, and the
//! self-time / reconciliation arithmetic over them.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Along each request's blocking path the layer spans must cover the
/// end-to-end time to within this share, or the traced run fails.
pub const UNATTRIBUTED_TOLERANCE_PCT: f64 = 5.0;

/// One timed interval. Times are nanoseconds since the tracer's epoch;
/// `parent == 0` marks a request's root span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e3
    }
}

/// Root span ids are derived from the request id, so a span recorded on
/// another thread (a server handler) can name its root without a lookup.
pub fn root_id(req: u64) -> u64 {
    (1 << 62) | req
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Record one span; returns its id. Roots get [`root_id`], children
    /// an id from a counter (Relaxed: unique-id allocation only).
    pub fn span(&self, name: &'static str, parent: u64, req: u64, start: u64, end: u64) -> u64 {
        let id = if parent == 0 {
            root_id(req)
        } else {
            self.next.fetch_add(1, Ordering::Relaxed)
        };
        self.span_with_id(id, name, parent, req, start, end)
    }

    /// Record a span under an id the caller chose (so spans recorded on
    /// other threads can name it as their parent).
    pub fn span_with_id(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: u64,
        end: u64,
    ) -> u64 {
        self.spans.lock().expect("span buffer poisoned").push(Span {
            name,
            id,
            parent,
            req,
            start,
            end,
        });
        id
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// A server handler span names the client's call span as its parent. Add
/// the two halves of the call the handler does not cover: call start to
/// handler start (`switchboard.call.dispatch`: seal, frame, reactor
/// wakeup, open, dispatch) and handler end to call return
/// (`switchboard.call.return`).
pub fn derive_rpc_spans(spans: &mut Vec<Span>) {
    let calls: BTreeMap<u64, (u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "switchboard.call")
        .map(|s| (s.id, (s.start, s.end)))
        .collect();
    let mut derived = Vec::new();
    for h in spans.iter().filter(|s| s.name == "bench.handler") {
        if let Some(&(start, end)) = calls.get(&h.parent) {
            for (name, lo, hi) in [
                ("switchboard.call.dispatch", start, h.start),
                ("switchboard.call.return", h.end, end),
            ] {
                derived.push(Span {
                    name,
                    id: 0,
                    parent: h.parent,
                    req: h.req,
                    start: lo,
                    end: hi.max(lo),
                });
            }
        }
    }
    spans.extend(derived);
}

type Intervals = Vec<(u64, u64)>;

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Intervals, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// The program's layers. A span named `<layer>.…` times a call into the
/// program (or, for `switchboard.call.dispatch`/`.return`, a stretch that
/// lies wholly inside one). Every other span is the benchmark's own: the
/// request roots, `bench.*` glue and `loadgen.lag`.
pub const LAYERS: [&str; 4] = ["switchboard", "views", "drbac", "core"];

/// Whether a span accounts for its request's time: a program call, or
/// the open-loop queueing before a session starts (`loadgen.lag`), which
/// follows from how long earlier sessions held both workers. The
/// benchmark's glue (`bench.*`) accounts for nothing.
fn accounts(name: &str) -> bool {
    layer_of(name).is_some() || name.starts_with("loadgen.")
}

pub fn layer_of(name: &str) -> Option<&'static str> {
    LAYERS.iter().copied().find(|l| {
        name.strip_prefix(l)
            .is_some_and(|rest| rest.starts_with('.'))
    })
}

/// What the spans of one traced phase say.
#[derive(Default)]
pub struct Analysis {
    /// Span durations (µs) by span name.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    /// Self time (µs, summed over the phase) by layer: each span of the
    /// layer minus the part its child spans cover. Spans on different
    /// threads add up, so the layers may sum to more than the wall time.
    pub layer_self_us: BTreeMap<&'static str, f64>,
    /// Request root spans in the phase.
    pub roots: usize,
    /// Share (%) of root time that no program span and no queueing span
    /// below the root covers.
    pub unattributed_pct: f64,
    /// The part of `unattributed_pct` the benchmark's glue spans cover
    /// (the handler's lock, the admission hand-off).
    pub harness_pct: f64,
}

pub fn analyze(spans: &[Span]) -> Analysis {
    let parent_of: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.id != 0)
        .map(|s| (s.id, s.parent))
        .collect();
    let root_of = |s: &Span| {
        let mut id = s.parent;
        while let Some(&up) = parent_of.get(&id).filter(|&&up| up != 0) {
            id = up;
        }
        id
    };
    // Direct children (for self time) and, per root, the intervals of its
    // descendants: those that account for its time, and the glue.
    let mut children: BTreeMap<u64, Intervals> = BTreeMap::new();
    let mut below: BTreeMap<u64, (Intervals, Intervals)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
        let (accounted, glue) = below.entry(root_of(s)).or_default();
        if accounts(s.name) {
            accounted.push((s.start, s.end));
        } else {
            glue.push((s.start, s.end));
        }
    }
    let mut a = Analysis::default();
    let (mut root_ns, mut accounted_ns, mut either_ns) = (0u64, 0u64, 0u64);
    for s in spans {
        a.durations.entry(s.name).or_default().push(s.dur_us());
        let dur = s.end.saturating_sub(s.start);
        if let Some(layer) = layer_of(s.name) {
            let cov = children
                .get(&s.id)
                .map_or(0, |c| covered(c.clone(), s.start, s.end));
            *a.layer_self_us.entry(layer).or_default() += (dur - cov) as f64 / 1e3;
        }
        if s.parent == 0 {
            a.roots += 1;
            root_ns += dur;
            if let Some((accounted, glue)) = below.get(&s.id) {
                accounted_ns += covered(accounted.clone(), s.start, s.end);
                let both = accounted.iter().chain(glue).copied().collect();
                either_ns += covered(both, s.start, s.end);
            }
        }
    }
    if root_ns > 0 {
        a.unattributed_pct = (root_ns - accounted_ns) as f64 * 100.0 / root_ns as f64;
        a.harness_pct = (either_ns - accounted_ns) as f64 * 100.0 / root_ns as f64;
    }
    a
}

/// Write the spans as JSON lines (one span a line).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.req, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 1,
            start,
            end,
        }
    }

    #[test]
    fn only_program_spans_reconcile_and_self_time_is_per_layer() {
        let spans = vec![
            span("session", 10, 0, 0, 1000),
            span("loadgen.lag", 16, 10, 0, 50),
            span("switchboard.handshake", 11, 10, 100, 400),
            span("switchboard.accept", 12, 10, 300, 600), // overlaps
            span("bench.handler", 13, 10, 600, 900),
            span("views.invoke", 14, 13, 650, 750), // grandchild
            span("views.select_view", 15, 10, 950, 1200), // runs past the root
        ];
        let a = analyze(&spans);
        // Queueing covers 0..50 and program spans 100..600, 650..750 and
        // 950..1000: 700 ns of 1000. The handler's glue (200 ns) is the
        // harness's share.
        assert!((a.unattributed_pct - 30.0).abs() < 1e-9);
        assert!((a.harness_pct - 20.0).abs() < 1e-9);
        assert_eq!(a.roots, 1);
        // 300 + 300 ns of switchboard (the overlap counts on both
        // threads); 100 + 250 ns of views. Roots and glue are no layer.
        assert!((a.layer_self_us["switchboard"] - 0.6).abs() < 1e-9);
        assert!((a.layer_self_us["views"] - 0.35).abs() < 1e-9);
        assert_eq!(a.layer_self_us.len(), 2);
        assert_eq!(layer_of("switchboardx.call"), None);
    }
}
