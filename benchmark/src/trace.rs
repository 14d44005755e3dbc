//! In-memory spans around the benchmark's calls into each layer, their
//! per-step attribution, and the Chrome trace-event writer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer's public function.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`, e.g. `sparse.select`.
    pub name: &'static str,
    /// Rank that made the call.
    pub rank: usize,
    /// Training step the call belongs to (shared by all of a step's
    /// spans, on every rank).
    pub step: usize,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
    /// Wall clock, ns since the run's origin.
    pub t0_ns: u64,
    /// Wall clock, ns since the run's origin.
    pub t1_ns: u64,
    /// The rank's simulated α-β clock at entry, ms.
    pub sim0_ms: f64,
    /// The rank's simulated α-β clock at exit, ms.
    pub sim1_ms: f64,
    /// Work the call did, in the unit its name implies (entries merged,
    /// wire elements moved); 0 where time is the only measure.
    pub work: u64,
}

impl Span {
    /// Wall duration, ms.
    pub fn ms(&self) -> f64 {
        (self.t1_ns - self.t0_ns) as f64 / 1e6
    }
}

/// One rank's span recorder. Spans nest by call order.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    rank: usize,
    step: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `rank`, timestamps relative to `origin`, with room
    /// for `capacity` spans so recording does not allocate mid-step.
    pub fn new(origin: Instant, rank: usize, capacity: usize) -> Self {
        Tracer {
            origin,
            rank,
            step: 0,
            open: Vec::new(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Sets the step id stamped on spans opened from now on.
    pub fn set_step(&mut self, step: usize) {
        self.step = step;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, sim_ms: f64) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            rank: self.rank,
            step: self.step,
            parent: self.open.last().copied(),
            t0_ns: now,
            t1_ns: now,
            sim0_ms: sim_ms,
            sim1_ms: sim_ms,
            work: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize, sim_ms: f64, work: u64) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.t1_ns = now;
        span.sim1_ms = sim_ms;
        span.work = work;
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Time, calls and work of one span name within one step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cell {
    /// Summed wall time, ms.
    pub ms: f64,
    /// Number of spans.
    pub calls: u64,
    /// Summed [`Span::work`].
    pub work: u64,
}

/// One rank's step, split by span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepRow {
    /// Totals per span name, at any depth.
    pub by_name: BTreeMap<&'static str, Cell>,
    /// Duration of the root span (`core.step`), ms.
    pub root_ms: f64,
    /// Root duration minus the time its direct children cover, ms.
    pub root_self_ms: f64,
}

impl StepRow {
    /// Wall time under `name`, ms (0 when the step made no such call).
    pub fn ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |c| c.ms)
    }
}

/// Splits one rank's spans (as recorded, parents before children) into
/// per-step rows, in step order.
pub fn step_rows(spans: &[Span]) -> Vec<StepRow> {
    let mut rows: BTreeMap<usize, StepRow> = BTreeMap::new();
    for span in spans {
        let row = rows.entry(span.step).or_default();
        let cell = row.by_name.entry(span.name).or_default();
        cell.ms += span.ms();
        cell.calls += 1;
        cell.work += span.work;
        match span.parent {
            None => {
                row.root_ms += span.ms();
                row.root_self_ms += span.ms();
            }
            Some(p) if spans[p].parent.is_none() => row.root_self_ms -= span.ms(),
            Some(_) => {}
        }
    }
    rows.into_values().collect()
}

/// Renders spans of all ranks as Chrome trace-event JSON (open in
/// `chrome://tracing` or Perfetto): one complete event per span, thread
/// id = rank, the span tree and the simulated clock under `args`.
pub fn chrome_json(ranks: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for spans in ranks {
        for (id, s) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"step\":{},\"id\":{},\"parent\":{},\
                 \"sim_t0_ms\":{},\"sim_t1_ms\":{},\"work\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.rank,
                s.t0_ns as f64 / 1e3,
                (s.t1_ns - s.t0_ns) as f64 / 1e3,
                s.step,
                id,
                parent,
                s.sim0_ms,
                s.sim1_ms,
                s.work
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_and_self_time_add_up_to_the_root() {
        let mut tr = Tracer::new(Instant::now(), 0, 16);
        for step in 0..3 {
            tr.set_step(step);
            let root = tr.open("core.step", 0.0);
            let a = tr.open("nn.forward", 0.0);
            tr.close(a, 0.0, 0);
            let b = tr.open("core.allreduce", 0.0);
            for _ in 0..2 {
                let c = tr.open("sparse.merge", 0.0);
                tr.close(c, 1.0, 10);
            }
            tr.close(b, 2.0, 0);
            tr.close(root, 2.0, 0);
        }
        let spans = tr.into_spans();
        assert_eq!(spans[3].parent, Some(2));
        let rows = step_rows(&spans);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            let children = row.ms("nn.forward") + row.ms("core.allreduce");
            assert!((children + row.root_self_ms - row.root_ms).abs() < 1e-9);
            assert!(row.root_self_ms >= 0.0);
            assert_eq!(row.by_name["sparse.merge"].calls, 2);
            assert_eq!(row.by_name["sparse.merge"].work, 20);
            assert_eq!(row.ms("comm.send"), 0.0);
        }
        let json = chrome_json(&[spans]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 15);
        assert!(json.contains("\"sim_t1_ms\":2"));
    }
}
