//! The benchmark's own spans: one around each call it makes into a
//! layer (name, start, end, parent, job id), kept in memory and written
//! out when the run ends. Spans are recorded only in the traced pass;
//! untraced, [`Tracer::span`] is a plain call.

use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder shared by the job's thread and the fleet workers.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of `parent`. `f`
    /// receives this span's id so the calls it makes can nest under it.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("no span holder panics");
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent,
                job,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("no span holder panics")[id].end = end;
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span holder panics"))
    }
}

/// Self time of every span: its duration minus the part of it covered
/// by the union of its children (fleet children run on several workers
/// at once and overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Spans as JSON rows `[name, start_ns, end_ns, parent, job]`.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "[{},{},{},{},{}]",
                crate::json::quote(s.name),
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let s = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            job: 0,
        };
        let spans = [
            s("job", 0, 100, None),
            s("a", 10, 40, Some(0)),
            s("b", 30, 60, Some(0)),
            s("c", 80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60, 30, 30, 10]);
    }
}
