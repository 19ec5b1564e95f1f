//! An in-memory span recorder for the traced replay.
//!
//! Spans carry a name, start, end, parent and the job or request id they
//! belong to. They stay in memory while the replay runs and are written
//! out once at the end as Chrome trace-event JSON, so spans recorded inside
//! the program later can be merged into the same timeline.

use std::collections::BTreeMap;
use std::time::Instant;

use tv_serve::json::escape;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span times (`uarch.run`, `serve.store.get`, ...).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin (`>= start` once closed).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job or request the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The span recorder. Spans opened with [`begin`](Recorder::begin) nest
/// under the innermost open span. A disabled recorder runs the same calls
/// and records nothing, which is how the tracing overhead is measured.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Self::new()
        }
    }

    /// Nanoseconds since the origin at instant `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.record(name, id, parent, start, start)
    }

    /// Closes span `idx`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order.
    pub fn end(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        let end = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end = end;
    }

    /// Times `f` as a span under the innermost open one.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name, id);
        let out = f();
        self.end(idx);
        out
    }

    /// Adds a closed span whose bounds were measured elsewhere (the gap
    /// between two observer callbacks, a group wall reported by the
    /// coordinator).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Every span, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (ns) of the spans called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.total_from(name, 0)
    }

    /// Total duration (ns) of the spans called `name` recorded at index
    /// `from` or later.
    pub fn total_from(&self, name: &str, from: usize) -> u64 {
        self.spans
            .iter()
            .skip(from)
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.dur() - covered(s.start, s.end, kids))
            .collect()
    }

    /// Self time (ns) summed per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// The spans as a Chrome trace-event document (complete `X` events,
    /// microsecond timestamps; parent and id ride in `args`).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                    escape(s.name),
                    s.start as f64 / 1e3,
                    s.dur() as f64 / 1e3,
                    s.id,
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new();
        let job = r.record("job", 7, None, 0, 100);
        let build = r.record("uarch.build", 7, Some(job), 10, 30);
        r.record("probe", 7, Some(build), 12, 20);
        r.record("uarch.run", 7, Some(job), 40, 90);
        assert_eq!(r.self_times(), vec![30, 12, 8, 50]);
        let by_name = r.self_by_name();
        assert_eq!(by_name["job"], 30);
        assert_eq!(by_name["uarch.run"], 50);
        // Self times partition the root: they sum to its duration.
        assert_eq!(r.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let mut r = Recorder::new();
        let root = r.record("request", 1, None, 100, 200);
        r.record("a", 1, Some(root), 90, 130);
        r.record("b", 1, Some(root), 120, 150);
        r.record("c", 1, Some(root), 190, 260);
        // Covered: [100,150) and [190,200) = 60 of 100.
        assert_eq!(r.self_times()[root], 40);
    }

    #[test]
    fn begin_end_nests_under_the_open_span() {
        let mut r = Recorder::new();
        let outer = r.begin("job", 3);
        let inner = r.time("uarch.warm_up", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            42
        });
        r.end(outer);
        assert_eq!(inner, 42);
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[1].dur() >= 1_000_000);
        assert!(spans[0].dur() >= spans[1].dur());
        let json = r.chrome_json();
        assert!(
            json.contains("\"name\":\"uarch.warm_up\",\"ph\":\"X\""),
            "{json}"
        );
        assert!(json.contains("\"parent\":0,\"id\":3"), "{json}");
    }

    #[test]
    fn a_disabled_recorder_runs_the_work_and_records_nothing() {
        let mut r = Recorder::disabled();
        let job = r.begin("job", 1);
        assert_eq!(r.time("uarch.run", 1, || 5), 5);
        r.record("core.campaign.cell", 1, Some(job), 0, 10);
        r.end(job);
        assert!(r.spans().is_empty());
    }
}
