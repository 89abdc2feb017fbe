//! In-memory span recorder for the traced run.
//!
//! A span is a named host-time interval with an optional parent. The
//! benchmark opens spans around its own calls into each layer of the
//! simulator; nothing inside the simulator is instrumented. Spans are
//! kept in memory and read out once the run has ended. Worker threads
//! of the component executor record into the same recorder, so it is
//! shared by reference behind a mutex; it is touched a few times per
//! component, never per event.

use std::sync::Mutex;
use std::time::Instant;

/// One closed (or still open, `end_s` NaN) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `world.build`.
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    /// Seconds since the recorder was created.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Host seconds the span covers.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The recorder. `None` in place of a `&Spans` means tracing is off:
/// [`span`] then only runs its closure, and [`open`]/[`close`] do
/// nothing.
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_s = self.now_s();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_s,
            end_s: f64::NAN,
            parent,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end_s = self.now_s();
        self.spans.lock().expect("span recorder poisoned")[id].end_s = end_s;
    }

    /// Every recorded span, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder poisoned")
    }
}

/// Opens a span named `name` under `parent` and returns its id; close
/// it with [`close`]. With `spans` `None` nothing is recorded.
pub fn open(spans: Option<&Spans>, name: &'static str, parent: Option<usize>) -> Option<usize> {
    spans.map(|s| s.open(name, parent))
}

/// Closes a span [`open`] returned.
pub fn close(spans: Option<&Spans>, id: Option<usize>) {
    if let (Some(s), Some(id)) = (spans, id) {
        s.close(id);
    }
}

/// Runs `f` inside a span named `name` under `parent`; `f` receives
/// the new span's id to parent its own children.
pub fn span<R>(
    spans: Option<&Spans>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> R {
    let id = open(spans, name, parent);
    let out = f(id);
    close(spans, id);
    out
}

/// Total host seconds of every span named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .sum()
}

/// Durations of every span named `name`, in opening order.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .collect()
}

/// Self time per span: its duration minus the part of its interval
/// covered by its children. Children of one span may overlap (the
/// executor runs components on several threads), so coverage is the
/// union of their intervals, not their sum.
pub fn self_times_s(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_s() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            sp("root", 0.0, 10.0, None),
            sp("a", 1.0, 4.0, Some(0)),
            sp("b", 3.0, 6.0, Some(0)),
            sp("c", 8.0, 9.0, Some(0)),
            sp("d", 1.5, 2.0, Some(1)),
        ];
        let st = self_times_s(&spans);
        // Children of root cover [1,6] ∪ [8,9] = 6 s.
        assert!((st[0] - 4.0).abs() < 1e-12);
        assert!((st[1] - 2.5).abs() < 1e-12);
        assert!((st[2] - 3.0).abs() < 1e-12);
        assert!((total_s(&spans, "a") - 3.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_off_means_no_recording() {
        let rec = Spans::default();
        let v = span(Some(&rec), "outer", None, |p| {
            span(Some(&rec), "inner", p, |_| 7)
        });
        assert_eq!(v, 7);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_s >= s.start_s));
        assert_eq!(span(None, "off", None, |p| p), None);
    }
}
