//! In-memory spans around the benchmark's calls into each layer, written out
//! as Chrome trace-event JSON when the run ends.
//!
//! A span's layer is its name up to the first `.` (`sim.run` → `sim`); the
//! root span is the harness. A layer's self time is its spans' durations
//! minus the parts their child spans cover, so self times over all layers
//! add up to the root span.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Position of the job in the submission order, for spans of one job.
    pub job: Option<usize>,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; every call is a no-op when off, so untraced runs
/// pay one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str) {
        self.open_job(name, None);
    }

    pub fn open_job(&mut self, name: &'static str, job: Option<usize>) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id].end = self.origin.elapsed();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
    }

    /// Self time per layer, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *out.entry(s.layer()).or_insert(0.0) += s.secs() - children;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span, in start
    /// order, timestamps in microseconds since the tracer started.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = format!(
            "{{\"traceEvents\":[{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].start, i));
        for i in order {
            let s = &self.spans[i];
            let parent = s.parent.map_or(-1, |p| p as i64);
            let job = s.job.map_or(-1, |j| j as i64);
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{job}}}}}",
                s.name,
                s.layer(),
                s.start.as_secs_f64() * 1e6,
                s.secs() * 1e6,
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(true);
        t.open("harness.run");
        busy(Duration::from_millis(2));
        for job in 0..3 {
            t.open_job("sim.run", Some(job));
            busy(Duration::from_millis(1));
            t.close();
        }
        t.open("check");
        busy(Duration::from_millis(1));
        t.close();
        t.close();
        let root = t.spans()[0].secs();
        let selfs = t.self_times();
        let sum: f64 = selfs.values().sum();
        assert!((sum - root).abs() < 1e-9, "{sum} vs {root}");
        assert_eq!(
            selfs.keys().copied().collect::<Vec<_>>(),
            ["check", "harness", "sim"]
        );
        assert!(selfs["sim"] >= 0.003 && selfs["harness"] >= 0.002);
        assert_eq!(t.total("sim.run").1, 3);
        grs_bench::trace::validate_chrome_trace(&t.chrome_json("test")).expect("valid trace");
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("harness.run");
        t.close();
        assert!(t.spans().is_empty());
    }
}
