//! The benchmark's own span recorder. It lives here, not in `taco_obs`,
//! so that crate can be refactored freely: spans are recorded from the
//! benchmark's files around each call into a layer's public functions.
//!
//! A span is `{name, start_ns, end_ns, parent, request_id}`. Each thread
//! records into its own pre-sized vector; a client thread's recorder is
//! adopted into the main one after the thread is joined. A layer's self
//! time is its span minus the interval its children cover ([`fold`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a span nothing caused.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same vector, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one request (probe, edit, client op) share this.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` while the recorder is off.
pub type Open = Option<u32>;

pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: the parent of whatever comes next.
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(epoch: Instant, capacity: usize) -> Recorder {
        Recorder { on: false, epoch, spans: Vec::with_capacity(capacity), stack: Vec::new() }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.stack.last().copied().unwrap_or(NO_PARENT)
    }

    /// Opens a span that later spans nest under until it is closed.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parent(),
            request_id: 0,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, open: Open) {
        if let Some(id) = open {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Records an already-timed call as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, request_id: u64) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span { name, start_ns, end_ns, parent: self.parent(), request_id });
        }
    }

    /// An empty recorder for another thread: same clock, same on/off.
    pub fn for_thread(&self, capacity: usize) -> Recorder {
        let mut r = Recorder::new(self.epoch, if self.on { capacity } else { 0 });
        r.on = self.on;
        r
    }

    /// Takes over a joined thread's spans; its outermost spans become
    /// children of this recorder's innermost open span.
    pub fn adopt(&mut self, thread: Recorder) {
        let base = self.spans.len() as u32;
        let parent = self.parent();
        self.spans.extend(thread.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT { parent } else { s.parent + base };
            s
        }));
    }

    /// Hands out everything recorded so far and starts over.
    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "take() between rounds, with nothing open");
        let capacity = self.spans.capacity();
        std::mem::replace(&mut self.spans, Vec::with_capacity(capacity))
    }
}

/// What [`fold`] knows about one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Folds spans by name. Children may overlap each other (two client
/// threads under one phase span) and may stick out of their parent
/// (clock reads are not atomic with the work): the covered interval is
/// the union of the children, clipped to the parent.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Folded> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let f = out.entry(s.name).or_default();
        f.count += 1;
        f.total_ns += s.duration_ns();
        f.self_ns += s.duration_ns() - covered;
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// Writes spans as one JSON array, one span per line.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}{}",
            s.name, s.start_ns, s.end_ns, parent, s.request_id, comma
        )?;
    }
    writeln!(w, "]")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, request_id: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // phase [0,100] ⊃ call [10,40] ⊃ inner [20,30]; call [50,70].
        let spans = vec![
            span("phase", 0, 100, NO_PARENT),
            span("call", 10, 40, 0),
            span("inner", 20, 30, 1),
            span("call", 50, 70, 0),
        ];
        let f = fold(&spans);
        assert_eq!(f["phase"], Folded { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(f["call"], Folded { count: 2, total_ns: 50, self_ns: 40 });
        assert_eq!(f["inner"], Folded { count: 1, total_ns: 10, self_ns: 10 });
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two threads' calls overlap on [30,50]; one sticks out past the
        // parent's end. Covered: [10,50] ∪ [90,100] = 50.
        let spans = vec![
            span("phase", 0, 100, NO_PARENT),
            span("op", 10, 50, 0),
            span("op", 30, 45, 0),
            span("op", 90, 120, 0),
        ];
        let f = fold(&spans);
        assert_eq!(f["phase"].self_ns, 50);
        assert_eq!(f["op"].total_ns, 40 + 15 + 30);
    }

    #[test]
    fn recorder_nests_and_adopts_thread_spans() {
        let t0 = Instant::now();
        let mut rec = Recorder::new(t0, 16);
        assert!(rec.open("off").is_none(), "off by default");
        rec.leaf("off", t0, t0, 1);
        rec.set_on(true);
        let phase = rec.open("phase");
        rec.leaf("call", t0, Instant::now(), 7);
        let mut thread = rec.for_thread(4);
        let op = thread.open("op");
        thread.leaf("wire", t0, Instant::now(), 9);
        thread.close(op);
        rec.adopt(thread);
        rec.close(phase);
        let spans = rec.take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("phase", NO_PARENT), ("call", 0), ("op", 0), ("wire", 2)]);
        assert_eq!(spans[1].request_id, 7);
        assert!(spans[0].end_ns >= spans[3].end_ns);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn durations_pick_one_name() {
        let spans =
            vec![span("a", 0, 5, NO_PARENT), span("b", 0, 9, NO_PARENT), span("a", 1, 3, 1)];
        assert_eq!(durations(&spans, "a"), vec![5.0, 2.0]);
    }
}
