//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (synthesis, code generation, fast-forward, boot, detailed run,
//! checkpoint serialization, sinks, attacks). The detailed core's own
//! host `Profiler` only keeps per-stage totals, so after each detailed run
//! those totals are laid out as consecutive child spans of the run
//! ([`Spans::tile`]): their durations are measured, their positions
//! inside the run are not. Everything stays in memory until
//! [`Spans::to_jsonl`] at the end of the run.

use std::time::Instant;

use specmpk_trace::Json;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Calls folded into the span (1 for a measured span; the profiler's
    /// call count for a tiled stage span).
    calls: u64,
}

/// A span that has been opened and not yet closed. Its clock runs whether
/// or not spans are being recorded, so callers time their work through it
/// either way.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: Option<usize>,
    t0: Instant,
}

/// The recorder. When off, [`Spans::open`]/[`Spans::close`] only read the
/// clock.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans when `on`.
    #[must_use]
    pub fn new(on: bool) -> Spans {
        Spans { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Starts span `name`, a child of the innermost open span.
    pub fn open(&mut self, name: &str) -> Open {
        let t0 = Instant::now();
        let id = self.on.then(|| {
            let start_ns = self.ns_since_origin(t0);
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                calls: 1,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { id, t0 }
    }

    /// Ends `span` and returns its duration in nanoseconds. Spans close
    /// in the reverse order they opened.
    pub fn close(&mut self, span: Open) -> u64 {
        let now = Instant::now();
        if let Some(id) = span.id {
            let end_ns = self.ns_since_origin(now);
            self.spans[id].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
        (now - span.t0).as_nanos() as u64
    }

    /// Times `f` as span `name`, returning its result and duration in ns.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, u64) {
        let span = self.open(name);
        let out = f();
        (out, self.close(span))
    }

    /// Lays `parts` (name, total ns, calls) out as consecutive children of
    /// the closed span `parent`, starting at its start. The part named
    /// `nested.0` is placed inside the part named `nested.1` instead (a
    /// span the profiler times inside another one).
    pub fn tile(&mut self, parent: Open, parts: &[(&str, u64, u64)], nested: (&str, &str)) {
        let Some(pid) = parent.id else { return };
        let mut at = self.spans[pid].start_ns;
        let mut host = None;
        for &(name, ns, calls) in parts.iter().filter(|p| p.0 != nested.0) {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: at,
                end_ns: at + ns,
                parent: Some(pid),
                calls,
            });
            if name == nested.1 {
                host = Some(self.spans.len() - 1);
            }
            at += ns;
        }
        if let (Some(hid), Some(&(name, ns, calls))) =
            (host, parts.iter().find(|p| p.0 == nested.0))
        {
            let start_ns = self.spans[hid].start_ns;
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns + ns,
                parent: Some(hid),
                calls,
            });
        }
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (overlapping children count once).
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total duration and total self time of the spans named `name`.
    #[must_use]
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let self_ns = self.self_ns();
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(d, own), (s, o)| (d + s.end_ns - s.start_ns, own + o))
    }

    /// One JSON object per span: id, name, start_ns, end_ns, parent id,
    /// calls and self_ns.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let line = Json::object()
                .with("id", id)
                .with("name", s.name.as_str())
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("parent", s.parent.map_or(Json::Null, Json::from))
                .with("calls", s.calls)
                .with("self_ns", own);
            out.push_str(&line.dump_compact());
            out.push('\n');
        }
        out
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let mut spans = Spans::new(true);
        let run = spans.open("run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.close(run);
        // Children tiled over 1 ms of the run, with a nested part that
        // must not be counted twice.
        spans.tile(
            run,
            &[("a", 600_000, 10), ("b", 400_000, 10), ("inner", 100_000, 3)],
            ("inner", "a"),
        );
        let self_ns = spans.self_ns();
        let run_ns = spans.spans[0].end_ns - spans.spans[0].start_ns;
        assert_eq!(self_ns[0], run_ns - 1_000_000);
        assert_eq!(self_ns[1], 500_000, "a minus its nested child");
        assert_eq!(spans.totals("inner"), (100_000, 100_000));
        let lines: Vec<Json> =
            spans.to_jsonl().lines().map(|l| Json::parse(l).expect("valid JSONL")).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[3].get("parent").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut spans = Spans::new(false);
        let ((), ns) = spans.time("x", || std::thread::sleep(std::time::Duration::from_millis(1)));
        assert!(ns >= 1_000_000);
        assert!(spans.to_jsonl().is_empty());
    }
}
