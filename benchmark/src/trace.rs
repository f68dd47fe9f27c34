//! The benchmark's own span recorder (the workspace's `dsv-obs` stays
//! disabled): spans are opened around calls into each layer from the
//! benchmark's side of the public API, kept in memory, and written out
//! when the run ends. A layer's *self* time is its span minus the part
//! of that interval its child spans cover.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u64,
}

/// Per-name totals over all recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub wall_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: `(index, request_id)`.
    static OPEN: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span on drop.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    index: Option<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under this thread's innermost open span, inheriting
    /// its request id. A disabled recorder hands out inert guards.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.open(name, None)
    }

    /// Opens the root span of request `request_id`.
    pub fn request(&self, name: &'static str, request_id: u64) -> Guard<'_> {
        self.open(name, Some(request_id))
    }

    fn open(&self, name: &'static str, request_id: Option<u64>) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                recorder: self,
                index: None,
            };
        }
        let (parent, inherited) = OPEN.with(|o| match o.borrow().last() {
            Some(&(index, request)) => (Some(index), request),
            None => (None, 0),
        });
        let request_id = request_id.unwrap_or(inherited);
        let mut spans = self.spans.lock().expect("no recorder user panics mid-push");
        let index = spans.len() as u32;
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request_id,
        });
        drop(spans);
        OPEN.with(|o| o.borrow_mut().push((index, request_id)));
        Guard {
            recorder: self,
            index: Some(index),
        }
    }

    /// Times `f` under a span and returns its result.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("recorder lock").clone()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        totals(&self.spans())
    }

    /// The trace file: every per-name total plus the first `raw_cap`
    /// raw spans (a serve round records hundreds of thousands).
    pub fn to_json(&self, workload: &str, raw_cap: usize) -> Json {
        let spans = self.spans();
        let aggregate = totals(&spans)
            .into_iter()
            .map(|(name, t)| {
                Json::object([
                    ("name", Json::from(name)),
                    ("count", Json::from(t.count)),
                    ("wall_ns", Json::from(t.wall_ns)),
                    ("self_ns", Json::from(t.self_ns)),
                ])
            })
            .collect();
        let raw = spans
            .iter()
            .take(raw_cap)
            .map(|s| {
                Json::object([
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    ),
                    ("request_id", Json::from(s.request_id)),
                ])
            })
            .collect();
        Json::object([
            ("workload", Json::from(workload)),
            ("span_count", Json::from(spans.len() as u64)),
            ("aggregate", Json::Array(aggregate)),
            ("spans", Json::Array(raw)),
        ])
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end = self.recorder.now_ns();
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            if let Some(at) = open.iter().rposition(|&(i, _)| i == index) {
                open.remove(at);
            }
        });
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans[index as usize].end_ns = end;
        }
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span (children on other threads
/// may overlap each other or outlive the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.wall_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child a 10..40 with grandchild 20..30; child b 50..70.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("aa", 20, 30, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        // Children 10..60 and 40..80 overlap (union 70); a third runs
        // 90..130, past the parent's end at 100 (10 inside).
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            span("z", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
        // A child that fully contains another adds nothing twice.
        let nested = [
            span("root", 0, 50, None),
            span("big", 5, 45, Some(0)),
            span("small", 10, 20, Some(0)),
        ];
        assert_eq!(self_times(&nested)[0], 10);
    }

    #[test]
    fn recorder_parents_spans_per_thread_and_inherits_request_ids() {
        let rec = Recorder::new(true);
        {
            let _req = rec.request("request", 7);
            rec.time("encode", || ());
            let _inner = rec.span("wait");
            rec.time("decode", || ());
        }
        rec.time("loose", || ());
        let spans = rec.spans();
        let names: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.request_id))
            .collect();
        assert_eq!(
            names,
            vec![
                ("request", None, 7),
                ("encode", Some(0), 7),
                ("wait", Some(0), 7),
                ("decode", Some(2), 7),
                ("loose", None, 0),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.totals()["request"].count, 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.time("anything", || 3), 3);
        assert!(rec.spans().is_empty());
    }
}
