//! Benchmark-side tracing: spans around the calls into each layer,
//! kept in memory and written out as ndjson when the run ends.
//!
//! A span records the monotonic wall clock (ns resolution) and the
//! thread's on-CPU time at both ends. Layer times are read from the
//! wall clock, the same clock the sharded engine's busy and
//! coordinator counters use, so the run's unattributed remainder is a
//! difference of like quantities.

use crate::host::{median, SchedStat};
use quartz_bench::timing::monotonic_ns;
use std::fmt::Write as _;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `topology.route`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Wall-clock start and end, ns since the benchmark's epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// On-CPU time of this thread inside the span, ns.
    pub cpu_ns: u64,
}

impl Span {
    /// Wall-clock duration, seconds.
    pub fn wall_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// The in-memory span log.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Runs `f` inside a span named `name`, nested in the innermost
    /// open span. `f` gets the log back to open child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let cpu0 = SchedStat::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: monotonic_ns(),
            end_ns: 0,
            cpu_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_ns = monotonic_ns();
        span.cpu_ns = SchedStat::now().since(cpu0).cpu_ns;
        out
    }

    /// Every span named `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median wall-clock seconds over the spans named `name` (0 if none).
    pub fn median_wall_s(&self, name: &str) -> f64 {
        let mut xs: Vec<f64> = self.named(name).map(Span::wall_s).collect();
        median(&mut xs)
    }

    /// Median on-CPU seconds over the spans named `name` (0 if none).
    pub fn median_cpu_s(&self, name: &str) -> f64 {
        let mut xs: Vec<f64> = self.named(name).map(|s| s.cpu_ns as f64 / 1e9).collect();
        median(&mut xs)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The log as ndjson, one span per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"cpu_ns\": {}}}",
                s.name, s.start_ns, s.end_ns, s.cpu_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_order() {
        let mut log = Spans::default();
        log.time("outer", |log| {
            log.time("inner", |_| std::hint::black_box(1 + 1));
            log.time("inner", |_| ());
        });
        assert_eq!(log.len(), 3);
        let inner: Vec<&Span> = log.named("inner").collect();
        assert_eq!(inner.len(), 2);
        assert!(inner.iter().all(|s| s.parent == Some(0)));
        let outer = log.named("outer").next().unwrap();
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner[0].start_ns && inner[1].end_ns <= outer.end_ns);
        let nd = log.to_ndjson();
        assert_eq!(nd.lines().count(), 3);
        assert!(nd.contains("\"name\": \"inner\", "));
    }
}
