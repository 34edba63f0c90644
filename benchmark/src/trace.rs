//! In-memory spans around the calls into each layer, recorded from the
//! benchmark's side of the public API. Off in untraced runs, where
//! [`Recorder::span`] is one untaken branch around the call.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// Spans written to the trace file in full; the per-name summary
/// beside them always covers every span.
const SPANS_WRITTEN: usize = 4096;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
}

#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Totals of every span of one name.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
    /// Every span's duration, ascending.
    pub durations_ns: Vec<u64>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses the spans recorded until [`Recorder::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("close without open");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Run `f` inside a leaf span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Per-name totals with self time: each span's duration is taken
    /// off its parent's self time.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let d = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(children);
            t.durations_ns.push(d);
        }
        for t in out.values_mut() {
            t.durations_ns.sort_unstable();
        }
        out
    }

    /// The trace document: every name's totals and the first spans in
    /// full, all tagged with `run` (workload, seed and process id).
    pub fn to_json(&self, run: &str) -> Value {
        let summary = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                let entry = Value::Map(vec![
                    ("count".into(), Value::U64(t.count)),
                    ("total_ns".into(), Value::U64(t.total_ns)),
                    ("self_ns".into(), Value::U64(t.self_ns)),
                    (
                        "p50_ns".into(),
                        Value::U64(percentile(&t.durations_ns, 0.50)),
                    ),
                    (
                        "p99_ns".into(),
                        Value::U64(percentile(&t.durations_ns, 0.99)),
                    ),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .take(SPANS_WRITTEN)
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    (
                        "parent".into(),
                        if s.parent == NO_PARENT {
                            Value::Null
                        } else {
                            Value::U64(s.parent as u64)
                        },
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            ("run".into(), Value::Str(run.into())),
            ("spans_recorded".into(), Value::U64(self.spans.len() as u64)),
            ("summary".into(), Value::Map(summary)),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unordered values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new(true);
        r.open("outer");
        r.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.span("inner", || ());
        r.close();
        let t = r.totals();
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["outer"].count, 1);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert!(t["inner"].total_ns >= 2_000_000);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", || 7), 7);
        r.open("y");
        r.close();
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn percentile_and_median() {
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.75), 3.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.99), 4);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
