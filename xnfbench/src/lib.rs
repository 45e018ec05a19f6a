//! `xnfbench` — the repository's benchmark.
//!
//! Three closed-loop, oracle-checked workloads drive the public
//! `Database`/`Session` API from one process:
//!
//! * [`ycsb`] — in-memory read-mostly point/range mix with a CO point fetch;
//! * [`tpcc`] (`tpcc_durable`) — TPC-C-lite write transactions on a WAL-backed
//!   data directory, every commit maintaining a CO matview;
//! * [`co_extract`] — the paper's path: ad-hoc `OUT OF … TAKE` queries
//!   compiled per op, loaded into a `Workspace` and navigated, over a
//!   database about 4× larger than its buffer pool.
//!
//! A run builds its database several times (timed as set-up), runs the
//! closed loop for a fixed time, then checks the engine's final state
//! against the workload's oracle with the clock off. See `README.md`.

pub mod co_extract;
pub mod probe;
pub mod report;
pub mod tpcc;
pub mod ycsb;

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use xnf_core::{
    CoCache, Database, DiskStats, ExecOutcome, ExecStats, GcStats, PlanCacheStats, QueryResult,
    Session, Value, WalStats, Workspace, XnfError,
};
use xnf_storage::BufferStats;
use xnf_workload::Violations;

pub use probe::{CoRecord, Counters, Cx, Span};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["ycsb", "tpcc_durable", "co_extract"];

/// End-to-end metrics are medians over slices of the measured window of
/// this length, so a burst of interference from outside the process moves
/// a few slices, not the whole figure.
pub const SLICE: Duration = Duration::from_secs(1);

/// Traced runs alternate untraced and traced blocks of this length, so
/// both modes see the same database state and the difference is the
/// tracing overhead.
const TRACE_BLOCK: Duration = Duration::from_millis(200);

/// Input sizes. `Tiny` exists for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// A deliberately wrong answer, to prove the checks catch one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Perturb one row of the replayed model (or of a CO's expected shape).
    Model,
    /// Alter a CO the engine returned: the first one an op navigated, or
    /// on `tpcc_durable` one connection of the stored CO view.
    Co,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Untimed ops before the window (plan cache, buffer pool warm-up).
    pub warmup: Duration,
    pub trace: bool,
    /// Database builds before the window and again after it (at least);
    /// `setup_s` is the median of both rounds.
    pub setups: usize,
    /// Keep building until this much time has gone into set-up.
    pub setup_min: Duration,
    pub scale: Scale,
    pub inject: Option<Inject>,
    /// Where durable workloads put their data directories.
    pub data_root: PathBuf,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
}

impl Options {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Options {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        Options {
            workload: workload.to_string(),
            seed,
            seconds,
            warmup: Duration::from_millis(500),
            trace,
            setups: 7,
            setup_min: Duration::from_millis(500),
            scale: Scale::Full,
            inject: None,
            data_root: here.join("run-data"),
            trace_dir: here.join("traces"),
        }
    }

    /// Tiny inputs, one set-up and a short warm-up: the self-test scale.
    pub fn tiny(mut self) -> Options {
        self.scale = Scale::Tiny;
        self.setups = 1;
        self.setup_min = Duration::ZERO;
        self.warmup = Duration::from_millis(50);
        self
    }

    fn is_tiny(&self) -> bool {
        self.scale == Scale::Tiny
    }
}

/// A data directory removed when dropped.
pub struct DataDir(PathBuf);

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

impl DataDir {
    pub fn new(opts: &Options) -> DataDir {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = opts
            .data_root
            .join(format!("{}-{}-{n}", opts.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create benchmark data directory");
        DataDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty root behind either (ignored if another run uses it).
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Build the workload's database at least `opts.setups` times and for at
/// least `opts.setup_min` in total (small set-ups repeat more, so their
/// median is steady); keep the last. Returns it with the set-up times in
/// seconds. Workloads call it again after the measured window, with their
/// database dropped, so `setup_s` samples the host at both ends of the run
/// rather than only in the half second before it.
pub fn timed_setups<T>(opts: &Options, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < opts.setups.max(1) || start.elapsed() < opts.setup_min {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), times)
}

// ---------------------------------------------------------------------------
// calls into the engine
// ---------------------------------------------------------------------------

/// Traced only: compile a query text stage by stage (parse;
/// parse→QGM→rewrite; parse→…→plan) so the trace can split compile time by
/// layer. Each client probes each query text once; ad-hoc texts are all
/// distinct, so those are probed on every op.
pub fn probe_compile(cx: &mut Cx, db: &Database, text: &str) -> Result<(), XnfError> {
    let is_query = text.starts_with("SELECT") || text.starts_with("OUT OF");
    if !cx.traced() || !is_query || !cx.probed.insert(text.to_string()) {
        return Ok(());
    }
    cx.call("sql.parse", |_| xnf_sql::parse_statement(text))?;
    cx.call("probe.compile_to_qgm", |_| db.compile_to_qgm(text))?;
    cx.call("probe.compile", |_| db.compile(text))?;
    Ok(())
}

/// Prepare (through the plan cache), bind and execute one statement: the
/// body of `Session::execute`, split at its public seams so each is a span.
pub fn statement(
    cx: &mut Cx,
    s: &Session<'_>,
    sql: &str,
    params: &[Value],
) -> Result<ExecOutcome, XnfError> {
    probe_compile(cx, s.database(), sql)?;
    cx.call("session.statement", |cx| {
        let mut p = cx.call("session.prepare", |_| s.prepare(sql))?;
        if !params.is_empty() || p.param_count() > 0 {
            p.bind(params)?;
        }
        let out = cx.call("exec.query", |_| p.execute())?;
        if let ExecOutcome::Rows(r) = &out {
            cx.n.rows_scanned += r.stats.rows_scanned;
            cx.n.rows_emitted += r.stats.rows_emitted;
        }
        Ok(out)
    })
}

/// [`statement`] expecting rows.
pub fn query(
    cx: &mut Cx,
    s: &Session<'_>,
    sql: &str,
    params: &[Value],
) -> Result<QueryResult, XnfError> {
    statement(cx, s, sql, params)?.try_rows()
}

pub fn commit(cx: &mut Cx, s: &Session<'_>) -> Result<(), XnfError> {
    cx.call("txn.commit", |_| s.commit())
}

/// Roll back whatever transaction an error left open.
pub fn abort_quietly(s: &Session<'_>) {
    if s.in_transaction() {
        let _ = s.rollback();
    }
}

/// Run one write attempt until it is not refused by a write conflict,
/// backing off between attempts (the retries are part of the op's
/// latency). Gives up after 30 s, returning the conflict as an error.
pub fn retry_conflicts(
    cx: &mut Cx,
    mut attempt: impl FnMut(&mut Cx) -> Result<(), XnfError>,
) -> Result<(), XnfError> {
    let start = Instant::now();
    let mut tries = 0u32;
    loop {
        cx.n.write_attempts += 1;
        match attempt(cx) {
            Err(e) if e.is_write_conflict() && start.elapsed() < Duration::from_secs(30) => {
                cx.n.conflicts += 1;
                tries += 1;
                if tries < 4 {
                    std::thread::yield_now();
                } else {
                    let us = (20u64 << tries.min(10)).min(2_000);
                    std::thread::sleep(Duration::from_micros(us));
                }
            }
            other => return other,
        }
    }
}

/// One explicit write transaction: BEGIN, `body`, then COMMIT (or the
/// stream's deliberate ROLLBACK), retried on conflicts. Counts a commit.
pub fn write_txn(
    cx: &mut Cx,
    s: &Session<'_>,
    rollback: bool,
    mut body: impl FnMut(&mut Cx) -> Result<(), XnfError>,
) -> Result<(), XnfError> {
    retry_conflicts(cx, |cx| {
        s.begin()?;
        match body(cx) {
            Ok(()) if rollback => s.rollback(),
            Ok(()) => commit(cx, s),
            Err(e) => {
                abort_quietly(s);
                // A deliberately rolled-back transaction that conflicted
                // has the same effect as one that ran: none.
                if rollback && e.is_write_conflict() {
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    })?;
    if !rollback {
        cx.n.commits += 1;
    }
    Ok(())
}

/// A single-statement (autocommit) write, retried on conflicts.
pub fn autocommit_write(
    cx: &mut Cx,
    s: &Session<'_>,
    sql: &str,
    params: &[Value],
) -> Result<(), XnfError> {
    retry_conflicts(cx, |cx| statement(cx, s, sql, params).map(|_| ()))?;
    cx.n.commits += 1;
    Ok(())
}

/// Integer value of a result cell.
pub fn int(v: &Value) -> Result<i64, XnfError> {
    v.as_int().map_err(XnfError::from)
}

// ---------------------------------------------------------------------------
// composite objects
// ---------------------------------------------------------------------------

/// One parent→child connection reached by navigation: relationship index
/// and the first-column keys of both tuples.
pub type Edge = (usize, i64, i64);

/// Navigate every path of a workspace from its root components (those no
/// relationship points into) down every relationship, the way a client
/// walks a CO. Returns the edges walked.
pub fn navigate(ws: &Workspace) -> Result<Vec<Edge>, XnfError> {
    let mut edges = Vec::new();
    for (ci, comp) in ws.components.iter().enumerate() {
        if ws.relationships.iter().any(|r| r.children.contains(&ci)) {
            continue;
        }
        for root in ws.independent(&comp.name)? {
            walk(ws, ci, root.id(), int(&root.values()[0])?, &mut edges)?;
        }
    }
    Ok(edges)
}

fn walk(
    ws: &Workspace,
    comp: usize,
    id: xnf_core::TupleId,
    key: i64,
    edges: &mut Vec<Edge>,
) -> Result<(), XnfError> {
    for (ri, rel) in ws.relationships.iter().enumerate() {
        if rel.parent != comp {
            continue;
        }
        for child in ws.children(&rel.name, id)? {
            let child_key = int(&child.values()[0])?;
            edges.push((ri, key, child_key));
            walk(ws, rel.children[0], child.id(), child_key, edges)?;
        }
    }
    Ok(())
}

/// Canonical edge set of a navigation: relationship names instead of
/// indexes, sorted, duplicates (shared sub-objects) removed.
pub fn edge_set(ws: &Workspace, edges: &[Edge]) -> Vec<(String, i64, i64)> {
    let mut set: Vec<(String, i64, i64)> = edges
        .iter()
        .map(|&(r, a, b)| (ws.relationships[r].name.to_ascii_lowercase(), a, b))
        .collect();
    set.sort();
    set.dedup();
    set
}

pub fn digest(set: &[(String, i64, i64)]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

/// Fetch a stored CO by point key, navigate it, and log it for the
/// end-of-run comparison.
pub fn co_point(cx: &mut Cx, db: &Database, view: &str, key: i64) -> Result<CoCache, XnfError> {
    let co = cx.call("matview.fetch_co_point", |_| {
        db.fetch_co_point(view, &Value::Int(key))
    })?;
    let edges = cx.call("cache.navigate", |_| navigate(&co.workspace))?;
    cx.unclocked(|cx| log_co(cx, &co.workspace, key, &edges));
    Ok(co)
}

/// Record what a CO op saw.
pub fn log_co(cx: &mut Cx, ws: &Workspace, key: i64, edges: &[Edge]) {
    let set = edge_set(ws, edges);
    cx.n.co_ops += 1;
    cx.n.co_tuples += ws.tuple_count() as u64;
    cx.co_log.push(CoRecord {
        key,
        digest: digest(&set),
        tuples: ws.tuple_count(),
    });
}

/// Compare every logged CO against the expected `(digest, tuples)` per key.
pub fn check_co_log(
    v: &Violations,
    log: &[CoRecord],
    inject: Option<Inject>,
    mut expected: impl FnMut(i64) -> (u64, usize),
) {
    let mut by_key: BTreeMap<i64, (u64, usize)> = BTreeMap::new();
    for (i, rec) in log.iter().enumerate() {
        let want = *by_key.entry(rec.key).or_insert_with(|| expected(rec.key));
        let mut got = (rec.digest, rec.tuples);
        if i == 0 && inject == Some(Inject::Co) {
            got.0 ^= 1;
        }
        v.check_eq(got, want, || {
            format!(
                "CO for key {}: (digest, tuples) differs from extraction",
                rec.key
            )
        });
    }
}

// ---------------------------------------------------------------------------
// the closed loop
// ---------------------------------------------------------------------------

/// What one client did.
pub struct ClientOut {
    /// Ops this client executed, warm-up included: a prefix of its share
    /// (`index % clients == client`) of the stream.
    pub executed: usize,
    /// `(end, latency)` (ns; end after the window opened) of each op
    /// started in the measured window, by class.
    pub samples: BTreeMap<&'static str, Vec<(u64, u64)>>,
    pub spans: Vec<Span>,
    pub n: Counters,
    pub co_log: Vec<CoRecord>,
    pub failed_ops: u64,
    pub traced_ops: u64,
    pub untraced_ops: u64,
    /// Wall-clock `(start, end)` of each measured op, oracle work included
    /// (ns after the window opened).
    pub ops: Vec<(u64, u64)>,
    /// Latency summed over every op, warm-up included.
    pub busy_ns: u64,
}

pub struct LoopOut {
    pub clients: Vec<ClientOut>,
    /// Measured window: from its start to the end of the last op.
    pub window: Duration,
    /// Nominal window length (`--seconds`).
    pub nominal: Duration,

    pub stream_exhausted: bool,
}

impl LoopOut {
    /// Stream indexes that executed (in any order — the workloads' writes
    /// commute, so the model replays them in index order).
    pub fn executed(&self) -> Vec<usize> {
        let k = self.clients.len();
        let mut idx: Vec<usize> = self
            .clients
            .iter()
            .enumerate()
            .flat_map(|(c, out)| (0..out.executed).map(move |j| c + j * k))
            .collect();
        idx.sort_unstable();
        idx
    }

    pub fn measured_ops(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.traced_ops + c.untraced_ops)
            .sum()
    }

    pub fn counters(&self) -> Counters {
        let mut n = Counters::default();
        for c in &self.clients {
            n.absorb(&c.n);
        }
        n
    }

    pub fn co_log(&self) -> Vec<CoRecord> {
        self.clients
            .iter()
            .flat_map(|c| c.co_log.iter().cloned())
            .collect()
    }

    /// `(end, latency)` samples of the given classes (all when empty).
    fn timed_samples(&self, classes: &[&str]) -> Vec<(u64, u64)> {
        self.clients
            .iter()
            .flat_map(|c| c.samples.iter())
            .filter(|(k, _)| classes.is_empty() || classes.contains(k))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Sorted latencies (ns) of the given classes (all when empty).
    pub fn samples(&self, classes: &[&str]) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .timed_samples(classes)
            .into_iter()
            .map(|(_, lat)| lat)
            .collect();
        all.sort_unstable();
        all
    }

    /// Equal slices the nominal window splits into: [`SLICE`]-long, or one
    /// for a window shorter than that.
    fn slices(&self) -> usize {
        (self.nominal.as_nanos() / SLICE.as_nanos()).max(1) as usize
    }

    /// Median over slices of the window of each slice's median latency
    /// (ns) of the given classes, a sample falling in the slice it ended
    /// in. Sparse classes use fewer, longer slices (at least 100 samples
    /// each), so no slice's median rests on a handful of ops.
    pub fn slice_p50(&self, classes: &[&str]) -> f64 {
        let samples = self.timed_samples(classes);
        let n = self.slices().min(samples.len() / 100).max(1);
        let slice = (self.nominal.as_nanos() as u64 / n as u64).max(1);
        let mut by_slice = vec![Vec::new(); n];
        for (end, lat) in samples {
            by_slice[((end / slice) as usize).min(n - 1)].push(lat);
        }
        let p50s: Vec<f64> = by_slice
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| {
                v.sort_unstable();
                v[(v.len() - 1) / 2] as f64
            })
            .collect();
        report::median(&p50s)
    }

    /// Ops completed per second in each slice of the window. An op counts
    /// towards each slice in proportion to the part of its wall time that
    /// falls in it, so a slice holding few long ops reads no coarser than
    /// one holding many short ones.
    pub fn slice_rates(&self) -> Vec<f64> {
        let n = self.slices();
        let slice = (self.nominal.as_nanos() as u64 / n as u64).max(1);
        let mut done = vec![0f64; n];
        for &(start, end) in self.clients.iter().flat_map(|c| c.ops.iter()) {
            if end == start {
                if let Some(d) = done.get_mut((start / slice) as usize) {
                    *d += 1.0;
                }
                continue;
            }
            let len = (end - start) as f64;
            let mut at = start;
            while at < end && ((at / slice) as usize) < n {
                let upto = end.min((at / slice + 1) * slice);
                done[(at / slice) as usize] += (upto - at) as f64 / len;
                at = upto;
            }
        }
        let secs = slice as f64 / 1e9;
        done.iter().map(|d| d / secs).collect()
    }

    /// Window time spent in traced blocks.
    pub fn traced_window(&self) -> Duration {
        let b = TRACE_BLOCK.as_nanos();
        let w = self.window.as_nanos();
        let full = w / b;
        let rem = w - full * b;
        let ns = (full / 2) * b + if full % 2 == 1 { rem } else { 0 };
        Duration::from_nanos(ns as u64)
    }
}

/// Run `op(index, session, cx, local)` over the stream from `clients`
/// threads, client `c` taking indexes `c, c + clients, …` in order, each
/// with its own `Session` and per-client state `L`, until the measured
/// window closes. An op returns its class, or an error (the op failed).
pub fn drive<L: Default>(
    db: &Database,
    opts: &Options,
    clients: usize,
    stream_len: usize,
    violations: &Violations,
    op: impl Fn(usize, &Session<'_>, &mut Cx, &mut L) -> Result<&'static str, XnfError> + Sync,
) -> LoopOut {
    let epoch = Instant::now();
    let window_start = epoch + opts.warmup;
    let deadline = window_start + Duration::from_secs_f64(opts.seconds);
    let op = &op;
    let outs: Vec<(ClientOut, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let session = db.session();
                    let mut cx = Cx::new(violations, epoch);
                    let mut local = L::default();
                    let mut out = ClientOut {
                        executed: 0,
                        samples: BTreeMap::new(),
                        spans: Vec::new(),
                        n: Counters::default(),
                        co_log: Vec::new(),
                        failed_ops: 0,
                        traced_ops: 0,
                        untraced_ops: 0,
                        ops: Vec::new(),
                        busy_ns: 0,
                    };
                    let mut exhausted = false;
                    loop {
                        let i = c + out.executed * clients;
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        if i >= stream_len {
                            exhausted = true;
                            break;
                        }
                        let measured = now >= window_start;
                        let traced = opts.trace
                            && measured
                            && ((now - window_start).as_nanos() / TRACE_BLOCK.as_nanos()) % 2 == 1;
                        cx.begin_op(i as u64, traced);
                        let failed_before = cx.failed_checks;
                        let res = op(i, &session, &mut cx, &mut local);
                        let class = *res.as_ref().unwrap_or(&"error");
                        let latency = cx.end_op(class);
                        out.executed += 1;
                        out.busy_ns += latency.as_nanos() as u64;
                        if let Err(e) = &res {
                            abort_quietly(&session);
                            violations.check(false, || format!("op {i} failed: {e}"));
                        }
                        if res.is_err() || cx.failed_checks > failed_before {
                            out.failed_ops += 1;
                        }
                        if measured {
                            if traced {
                                out.traced_ops += 1;
                            } else {
                                out.untraced_ops += 1;
                            }
                            let end = window_start.elapsed().as_nanos() as u64;
                            out.samples
                                .entry(class)
                                .or_default()
                                .push((end, latency.as_nanos() as u64));
                            out.ops.push(((now - window_start).as_nanos() as u64, end));
                        }
                    }
                    out.spans = std::mem::take(&mut cx.spans);
                    out.n = cx.n.clone();
                    out.co_log = std::mem::take(&mut cx.co_log);
                    (out, exhausted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let stream_exhausted = outs.iter().any(|(_, e)| *e);
    let clients: Vec<ClientOut> = outs.into_iter().map(|(o, _)| o).collect();
    let window = clients
        .iter()
        .filter_map(|c| c.ops.last().map(|op| op.1))
        .max()
        .map_or(Duration::from_nanos(1), Duration::from_nanos);
    LoopOut {
        clients,
        window,
        nominal: Duration::from_secs_f64(opts.seconds),
        stream_exhausted,
    }
}

// ---------------------------------------------------------------------------
// database-wide counters
// ---------------------------------------------------------------------------

/// The engine's public stats, read before and after the loop.
#[derive(Debug, Clone)]
pub struct DbCounters {
    pub plan: PlanCacheStats,
    pub maint: ExecStats,
    pub wal: Option<WalStats>,
    pub disk: DiskStats,
    pub buffer: BufferStats,
    pub gc: GcStats,
}

impl DbCounters {
    pub fn read(db: &Database) -> DbCounters {
        DbCounters {
            plan: db.plan_cache_stats(),
            maint: db.maint_stats(),
            wal: db.wal_stats(),
            disk: db.integrity_stats(),
            buffer: db.catalog().buffer_pool().stats(),
            gc: db.gc_stats(),
        }
    }
}

/// Everything a workload hands back for reporting.
pub struct Outcome {
    pub setup_secs: Vec<f64>,
    pub loop_out: LoopOut,
    pub before: DbCounters,
    pub after: DbCounters,
    pub violations: Violations,
    /// Checks of the final state that failed.
    pub end_failures: u64,
    /// Time the final checks took.
    pub check_secs: f64,
    /// `(key, value)` facts about the run's configuration.
    pub config: Vec<(&'static str, String)>,
    /// Buffer-pool frames, and the pages the database occupies after the
    /// run: more pages than frames means the pool must evict.
    pub buffer_frames: usize,
    pub db_pages: u64,
    /// Classes whose latency counts as read / write / scan / CO.
    pub classes: Classes,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Classes {
    /// The workload's defining op class, gated as `main_p50_us`.
    pub main: &'static [&'static str],
    pub read: &'static [&'static str],
    pub write: &'static [&'static str],
    pub scan: &'static [&'static str],
    pub co: &'static [&'static str],
}

/// Buffer-pool frames and database pages of `db`.
pub fn pool_size(db: &Database) -> (usize, u64) {
    let pool = db.catalog().buffer_pool();
    (pool.capacity(), pool.disk().page_count())
}

/// Run the end-of-run checks. Returns how many failed and how long they
/// took (seconds).
pub fn end_checks(v: &Violations, checks: impl FnOnce(&Violations)) -> (u64, f64) {
    let before = v.count();
    let t = Instant::now();
    checks(v);
    (v.count() - before, t.elapsed().as_secs_f64())
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "ycsb" => Ok(ycsb::run(opts)),
        "tpcc_durable" => Ok(tpcc::run(opts)),
        "co_extract" => Ok(co_extract::run(opts)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
