//! Per-client op context: the op clock, the span recorder and the counters
//! the per-layer metrics are built from.
//!
//! Every call into a layer goes through [`Cx::call`]. Untraced, that is a
//! plain call; traced, it records a [`Span`] (name, start, end, parent span,
//! op id) in memory. Oracle work runs inside [`Cx::unclocked`], which stops
//! the op clock, so an op's latency covers engine calls and the client work
//! between them, never the checks.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use xnf_workload::Violations;

/// One recorded call. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    /// Index of the enclosing span in the same client's span list.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Work counters a client accumulates over its ops.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Write-transaction attempts (each retry is a new attempt).
    pub write_attempts: u64,
    /// Attempts aborted by a first-writer-wins conflict.
    pub conflicts: u64,
    /// Write transactions that committed.
    pub commits: u64,
    pub rows_scanned: u64,
    pub rows_emitted: u64,
    pub co_ops: u64,
    pub co_tuples: u64,
}

impl Counters {
    pub fn absorb(&mut self, o: &Counters) {
        self.write_attempts += o.write_attempts;
        self.conflicts += o.conflicts;
        self.commits += o.commits;
        self.rows_scanned += o.rows_scanned;
        self.rows_emitted += o.rows_emitted;
        self.co_ops += o.co_ops;
        self.co_tuples += o.co_tuples;
    }
}

/// What one CO op saw, kept for the end-of-run comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CoRecord {
    pub key: i64,
    pub digest: u64,
    pub tuples: usize,
}

/// One client's op context.
pub struct Cx<'v> {
    violations: &'v Violations,
    epoch: Instant,
    traced: bool,
    op: u64,
    op_start: Instant,
    paused: Duration,
    stack: Vec<u32>,
    op_span: Option<u32>,
    /// Checks this client saw fail.
    pub failed_checks: u64,
    pub spans: Vec<Span>,
    pub n: Counters,
    pub co_log: Vec<CoRecord>,
    /// Query texts whose compile stages this client has probed.
    pub probed: HashSet<String>,
}

impl<'v> Cx<'v> {
    pub fn new(violations: &'v Violations, epoch: Instant) -> Self {
        Cx {
            violations,
            epoch,
            traced: false,
            op: 0,
            op_start: epoch,
            paused: Duration::ZERO,
            stack: Vec::new(),
            op_span: None,
            failed_checks: 0,
            spans: Vec::new(),
            n: Counters::default(),
            co_log: Vec::new(),
            probed: HashSet::new(),
        }
    }

    /// Whether the current op records spans.
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.op,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: u32) {
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Start op `op`; `traced` decides whether its calls record spans.
    pub fn begin_op(&mut self, op: u64, traced: bool) {
        self.op = op;
        self.traced = traced;
        self.paused = Duration::ZERO;
        self.op_start = Instant::now();
        self.op_span = traced.then(|| self.open("op"));
    }

    /// End the current op, naming its span after `class`. Returns the op's
    /// latency: wall time minus the time spent in oracle checks.
    pub fn end_op(&mut self, class: &'static str) -> Duration {
        let elapsed = self.op_start.elapsed();
        if let Some(idx) = self.op_span.take() {
            self.close(idx);
            self.spans[idx as usize].name = class;
        }
        self.traced = false;
        elapsed.saturating_sub(self.paused)
    }

    /// Run one call into a layer, recording it as span `name` when traced.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.traced {
            return f(self);
        }
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Run oracle work with the op clock stopped.
    pub fn unclocked<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let t = Instant::now();
        let out = self.call("oracle", f);
        self.paused += t.elapsed();
        out
    }

    /// Record a check; a failure counts against the run.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.violations.check(ok, msg);
        if !ok {
            self.failed_checks += 1;
        }
    }
}

/// Self time per span name over `spans`: each span's duration minus the
/// durations of its direct children (calls on one client are sequential,
/// so children never overlap). Returns `(name, total self ns, calls)`.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut self_ns: Vec<i128> = spans.iter().map(|s| s.duration_ns() as i128).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p as usize] -= s.duration_ns() as i128;
        }
    }
    let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        let ns = ns.max(0) as u64;
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += ns;
                e.2 += 1;
            }
            None => by_name.push((s.name, ns, 1)),
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(None, "op", 0, 100),
            span(Some(0), "session.statement", 10, 60),
            span(Some(1), "session.prepare", 12, 20),
            span(Some(1), "exec.query", 20, 55),
            span(Some(0), "txn.commit", 70, 90),
        ];
        let t = self_times(&spans);
        let get = |n: &str| t.iter().find(|e| e.0 == n).unwrap().1;
        assert_eq!(get("op"), 100 - 50 - 20);
        assert_eq!(get("session.statement"), 50 - 8 - 35);
        assert_eq!(get("exec.query"), 35);
        assert_eq!(get("txn.commit"), 20);
    }
}
