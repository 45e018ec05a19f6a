//! The execution engine: materialises shared subplans ("table queues") as
//! batch sequences and delivers the output streams of a QEP.

use std::sync::Arc;

use xnf_plan::{Qep, QepOutput};
use xnf_qgm::OutputKind;
use xnf_storage::Catalog;

use crate::batch::RowBatch;
use crate::error::{ExecError, Result};
use crate::eval::{OuterCtx, Params, Row, Visibility};
use crate::ops::{build_operator, ExecStats, Runtime};

/// One delivered output stream.
#[derive(Debug, Clone)]
pub struct StreamResult {
    pub name: String,
    pub kind: OutputKind,
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

/// The complete result of a QEP: all output streams, in delivery order.
/// For a plain SQL query there is exactly one stream; for an XNF query the
/// streams form the heterogeneous CO result (node streams + connection
/// streams, Sect. 5.0).
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub streams: Vec<StreamResult>,
    pub stats: ExecStats,
}

impl QueryResult {
    /// The single relational result, or an error when this is a CO result
    /// with several streams (or none).
    pub fn try_table(&self) -> Result<&StreamResult> {
        match self.streams.as_slice() {
            [one] => Ok(one),
            streams => Err(ExecError::Api(format!(
                "expected a single relational stream, got {}",
                streams.len()
            ))),
        }
    }

    /// Find a stream by name.
    pub fn stream(&self, name: &str) -> Option<&StreamResult> {
        self.streams
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
    }
}

/// Build the runtime for one QEP run — parameter bindings plus the
/// visibility handle — and materialise the QEP's shared subplans into it,
/// in id order (ids are topologically sorted: a shared plan only
/// references lower ids). Each shared result is a table queue kept in
/// batch form, so its consumers re-stream it chunk-at-a-time.
fn start_run<'a>(
    catalog: &'a Catalog,
    qep: &Qep,
    params: Params,
    visibility: Visibility,
) -> Result<Runtime<'a>> {
    let mut rt = Runtime::with_ctx(
        catalog,
        OuterCtx::with_params_and_visibility(params, visibility),
    );
    rt.batch_size = qep.batch_size.max(1);
    for plan in &qep.shared {
        let mut op = build_operator(plan);
        let mut batches: Vec<RowBatch> = Vec::new();
        while let Some(batch) = op.next_batch(&mut rt)? {
            rt.stats.note_batch(batch.len());
            batches.push(batch);
        }
        rt.shared.push(Arc::new(batches));
    }
    Ok(rt)
}

/// Execute a QEP, delivering its output streams one after another.
/// `params` are the prepared-statement bindings, resolved at `eval` time;
/// `visibility` `Some(snapshot)` pins every scan and index lookup of the
/// run to that MVCC snapshot (reads inside an open transaction), `None`
/// reads the latest committed state (autocommit).
pub fn execute_qep(
    catalog: &Catalog,
    qep: &Qep,
    params: Params,
    visibility: Visibility,
) -> Result<QueryResult> {
    let mut rt = start_run(catalog, qep, params, visibility)?;
    let mut streams = Vec::with_capacity(qep.outputs.len());
    for out in &qep.outputs {
        streams.push(run_output(&mut rt, out)?);
    }
    let stats = rt.stats;
    Ok(QueryResult { streams, stats })
}

fn run_output(rt: &mut Runtime<'_>, out: &QepOutput) -> Result<StreamResult> {
    let mut op = build_operator(&out.plan);
    let mut rows: Vec<Row> = Vec::new();
    while let Some(batch) = op.next_batch(rt)? {
        rt.stats.note_batch(batch.len());
        rt.stats.rows_emitted += batch.len() as u64;
        rows.extend(batch.into_rows());
    }
    Ok(StreamResult {
        name: out.name.clone(),
        kind: out.kind.clone(),
        columns: out.columns.clone(),
        rows,
    })
}

/// [`execute_qep`], delivering the output streams **in parallel** after
/// sequentially materialising the shared subplans they all read. This is
/// the parallelism opportunity the paper calls out for set-oriented CO
/// extraction (Sect. 5.1 / Sect. 6 "parallelism technology … become\[s\]
/// automatically available to XNF"): the heterogeneous output streams are
/// independent once the common subexpressions exist. The streams are
/// dispatched over a worker pool capped at the QEP's degree of
/// parallelism ([`Qep::dop`]), so a CO view with dozens of streams no
/// longer spawns dozens of threads on a small host. The snapshot resolved
/// for the shared-subplan pass is pinned and handed to every stream
/// thread, so all streams of one CO extraction read the same state.
pub fn execute_qep_parallel(
    catalog: &Catalog,
    qep: &Qep,
    params: Params,
    visibility: Visibility,
) -> Result<QueryResult> {
    let rt = start_run(catalog, qep, params.clone(), visibility)?;
    let shared = rt.shared.clone();
    let base_stats = rt.stats;
    let batch_size = rt.batch_size;
    let snapshot = rt.snapshot.clone();

    // Worker pool capped at the plan's degree of parallelism: workers
    // claim stream indices from a shared counter, so a CO view with many
    // streams runs at most `dop` of them concurrently.
    let pool = qep.dop.max(1).min(qep.outputs.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut joined: Vec<(usize, Result<(StreamResult, ExecStats)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool)
            .map(|_| {
                let shared = shared.clone();
                let params = params.clone();
                let snapshot = snapshot.clone();
                let next = &next;
                scope.spawn(move || {
                    let mut rt = Runtime::with_ctx(
                        catalog,
                        OuterCtx::with_params_and_visibility(params, Some(snapshot)),
                    );
                    rt.shared = shared;
                    rt.batch_size = batch_size;
                    let mut done: Vec<(usize, Result<(StreamResult, ExecStats)>)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(out) = qep.outputs.get(idx) else {
                            break;
                        };
                        rt.stats = ExecStats::default();
                        let r = run_output(&mut rt, out).map(|sr| (sr, rt.stats));
                        done.push((idx, r));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("stream thread panicked"))
            .collect()
    });
    joined.sort_by_key(|(idx, _)| *idx);

    let mut streams = Vec::with_capacity(joined.len());
    let mut stats = base_stats;
    for (_, r) in joined {
        let (sr, s) = r?;
        stats.merge(&s);
        streams.push(sr);
    }
    Ok(QueryResult { streams, stats })
}
