//! `ycsb`: in-memory, read-mostly point and range mix.
//!
//! 5,000 `USERTABLE` rows plus the 8-department paper fixture, Zipfian
//! θ=0.99 keys and the harness's default mix (55 read / 20 update /
//! 5 insert / 8 scan of 50 rows / 7 read-modify-write / 5 CO point fetch
//! on `hot_deps`). Fits the default 1024-frame buffer pool. Its views are
//! a direct-apply selection view and a static CO view, so the commit path
//! does little: this is the workload for range-access changes and the
//! bypass workload for commit-path changes.

use xnf_core::{Database, Session, Value, XnfError};
use xnf_fixtures::DEPS_ARC;
use xnf_workload::oracle::{canon_co, rows_of};
use xnf_workload::ycsb::{
    build_ycsb_db, derived_f1, derived_payload, generate_stream, YcsbConfig, YcsbModel, YcsbOp,
};
use xnf_workload::Violations;

use crate::{
    autocommit_write, check_co_log, co_point, digest, drive, edge_set, end_checks, int, navigate,
    pool_size, query, statement, timed_setups, write_txn, Classes, Cx, DbCounters, Inject, Options,
    Outcome,
};

/// One client: its scans already fan out over both cores of the 2-vCPU
/// reference host, and a second client's point reads would queue behind
/// them, timing the scheduler rather than the read path.
const CLIENTS: usize = 1;

/// Upper bound on the op rate the stream is sized for (ops/s).
const MAX_RATE: f64 = 50_000.0;

fn config(opts: &Options) -> YcsbConfig {
    let seconds = opts.seconds + opts.warmup.as_secs_f64();
    YcsbConfig {
        records: if opts.is_tiny() { 300 } else { 5_000 },
        ops: (MAX_RATE * seconds).ceil() as u64,
        clients: CLIENTS,
        seed: opts.seed,
        paper_departments: 8,
        durable: false,
        ..YcsbConfig::default()
    }
}

pub fn run(opts: &Options) -> Outcome {
    let cfg = config(opts);
    let mut setup = || build_ycsb_db(&cfg).0;
    let (db, mut setup_secs) = timed_setups(opts, &mut setup);
    let stream = generate_stream(&cfg);
    let violations = Violations::new();
    let before = DbCounters::read(&db);
    let loop_out = drive(
        &db,
        opts,
        CLIENTS,
        stream.len(),
        &violations,
        |i, s, cx, _: &mut ()| run_op(&cfg, &stream[i], s, cx),
    );
    let after = DbCounters::read(&db);
    let (buffer_frames, db_pages) = pool_size(&db);

    let executed: Vec<YcsbOp> = loop_out
        .executed()
        .into_iter()
        .map(|i| stream[i].clone())
        .collect();
    let mut model = YcsbModel::replay(&cfg, &executed);
    if opts.inject == Some(Inject::Model) {
        *model.rows.values_mut().next().expect("model has rows") += 1;
    }
    let co_log = loop_out.co_log();
    let (end_failures, check_secs) = end_checks(&violations, |v| {
        final_checks(&db, &model, v);
        check_co_log(v, &co_log, opts.inject, |dept| expected_co(&db, dept));
    });
    drop(db);
    setup_secs.extend(timed_setups(opts, &mut setup).1);
    let config = vec![
        ("flush_policy", "in-memory, no WAL".to_string()),
        ("checkpoint_interval", "n/a (no WAL)".to_string()),
        ("records", cfg.records.to_string()),
        ("key_dist", cfg.dist.label()),
    ];
    Outcome {
        setup_secs,
        loop_out,
        before,
        after,
        violations,
        end_failures,
        check_secs,
        config,
        buffer_frames,
        db_pages,
        classes: Classes {
            main: &["read"],
            read: &["read"],
            write: &["update", "insert", "rmw_txn"],
            scan: &["scan"],
            co: &["co_fetch"],
        },
    }
}

fn run_op(
    cfg: &YcsbConfig,
    op: &YcsbOp,
    s: &Session<'_>,
    cx: &mut Cx,
) -> Result<&'static str, XnfError> {
    let records = cfg.records as i64;
    match op {
        YcsbOp::Read { key } => {
            let r = query(
                cx,
                s,
                "SELECT f0, f1, payload FROM USERTABLE WHERE yk = ?",
                &[Value::Int(*key)],
            )?;
            let rows = &r.try_table()?.rows;
            cx.unclocked(|cx| {
                if *key < records {
                    cx.check(rows.len() == 1, || {
                        format!("read({key}): initial row missing ({} rows)", rows.len())
                    });
                }
                if let Some(row) = rows.first() {
                    let ok = row[1] == Value::Int(derived_f1(*key))
                        && row[2] == Value::Str(derived_payload(*key));
                    cx.check(ok, || {
                        format!("read({key}): derived columns wrong: {row:?}")
                    });
                }
            });
            Ok("read")
        }
        YcsbOp::Update { key, delta } => {
            autocommit_write(
                cx,
                s,
                "UPDATE USERTABLE SET f0 = f0 + ? WHERE yk = ?",
                &[Value::Int(*delta), Value::Int(*key)],
            )?;
            Ok("update")
        }
        YcsbOp::Insert { key } => {
            autocommit_write(
                cx,
                s,
                "INSERT INTO USERTABLE VALUES (?, ?, ?, ?)",
                &[
                    Value::Int(*key),
                    Value::Int(0),
                    Value::Int(derived_f1(*key)),
                    Value::Str(derived_payload(*key)),
                ],
            )?;
            Ok("insert")
        }
        YcsbOp::Scan { lo, len } => {
            let r = query(
                cx,
                s,
                "SELECT yk, f0 FROM USERTABLE WHERE yk >= ? AND yk < ? ORDER BY yk",
                &[Value::Int(*lo), Value::Int(lo + len)],
            )?;
            let rows = &r.try_table()?.rows;
            cx.unclocked(|cx| {
                let keys: Vec<i64> = rows.iter().filter_map(|r| r[0].as_int().ok()).collect();
                let ordered = keys.windows(2).all(|w| w[0] < w[1]);
                let in_range = keys.iter().all(|k| *k >= *lo && *k < lo + len);
                // Initial keys are never deleted: the immutable part of the
                // range is complete in any snapshot.
                let initial = keys.iter().filter(|k| **k < records).count() as i64;
                let want = ((lo + len).min(records) - lo).max(0);
                cx.check(
                    keys.len() == rows.len() && ordered && in_range && initial == want,
                    || format!("scan({lo},{len}): bad range result {keys:?}"),
                );
            });
            Ok("scan")
        }
        YcsbOp::Rmw { key, delta } => {
            let sql_read = "SELECT f0 FROM USERTABLE WHERE yk = ?";
            write_txn(cx, s, false, |cx| {
                let read = |cx: &mut Cx| -> Result<Option<i64>, XnfError> {
                    let r = query(cx, s, sql_read, &[Value::Int(*key)])?;
                    r.try_table()?
                        .rows
                        .first()
                        .map(|row| int(&row[0]))
                        .transpose()
                };
                let v1 = read(cx)?;
                let v2 = read(cx)?;
                statement(
                    cx,
                    s,
                    "UPDATE USERTABLE SET f0 = f0 + ? WHERE yk = ?",
                    &[Value::Int(*delta), Value::Int(*key)],
                )?;
                let v3 = read(cx)?;
                cx.unclocked(|cx| {
                    cx.check(v1 == v2, || format!("rmw({key}): repeatable read broken"));
                    cx.check(v3 == v1.map(|b| b + delta), || {
                        format!("rmw({key}): read-your-writes broken")
                    });
                });
                Ok(())
            })?;
            Ok("rmw_txn")
        }
        YcsbOp::CoFetch { dept } => {
            let co = co_point(cx, s.database(), "hot_deps", *dept)?;
            cx.unclocked(|cx| {
                let roots = co
                    .workspace
                    .component("xdept")
                    .map_or(usize::MAX, |c| c.len());
                cx.check(roots <= 1, || format!("co_fetch({dept}): {roots} roots"));
            });
            Ok("co_fetch")
        }
    }
}

/// The on-demand extraction of one department's `deps_ARC` subtree.
fn expected_co(db: &Database, dept: i64) -> (u64, usize) {
    let restricted = DEPS_ARC.replace("TAKE *", &format!("TAKE * WHERE xdept.dno = {dept}"));
    match db.fetch_co(&restricted) {
        Ok(co) => {
            let ws = &co.workspace;
            let edges = navigate(ws).unwrap_or_default();
            (digest(&edge_set(ws, &edges)), ws.tuple_count())
        }
        Err(_) => (0, usize::MAX),
    }
}

/// Final state: `USERTABLE` equals the replayed model, the selection view
/// equals the model and a `REFRESH`, the stored CO view equals on-demand
/// extraction.
fn final_checks(db: &Database, model: &YcsbModel, v: &Violations) {
    v.check_eq(
        rows_of(db, "SELECT yk, f0, f1, payload FROM USERTABLE"),
        model.canonical_rows(),
        || "USERTABLE differs from the replayed model".to_string(),
    );
    let incremental = rows_of(db, "SELECT * FROM rich_users");
    v.check_eq(incremental.clone(), model.canonical_rich(), || {
        "rich_users differs from the replayed model".to_string()
    });
    db.execute("REFRESH MATERIALIZED VIEW rich_users")
        .expect("refresh rich_users");
    v.check_eq(incremental, rows_of(db, "SELECT * FROM rich_users"), || {
        "rich_users differs from REFRESH".to_string()
    });
    let stored = db.fetch_co("hot_deps").expect("stored hot_deps");
    let fresh = db.fetch_co(DEPS_ARC).expect("on-demand deps_ARC");
    v.check_eq(canon_co(&stored), canon_co(&fresh), || {
        "hot_deps differs from on-demand extraction".to_string()
    });
}
