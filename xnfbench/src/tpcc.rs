//! `tpcc_durable`: TPC-C-lite write transactions on a WAL-backed data
//! directory.
//!
//! `TpccConfig` defaults (2 warehouses × 4 districts × 25 customers,
//! Zipfian 0.8 customers, 5% deliberate rollbacks) with the `ord_sum`
//! grouped-aggregate view and the `dist_co` CO view. WAL with group commit
//! and the double-write buffer; `wal_fsync = false`; the checkpoint
//! interval is lowered so every run completes several checkpoints. Every
//! write commit re-derives a `dist_co` subtree, hot district rows produce
//! conflict retries, and WAL append, group commit, checkpoints and
//! double-write sit on the same path.

use std::collections::BTreeMap;

use xnf_core::{Database, DbConfig, Session, Value, XnfError};
use xnf_workload::oracle::{canon_co, rows_of};
use xnf_workload::tpcc::{generate_stream, TpccConfig, TpccModel, TpccTxn, DIST_CO};
use xnf_workload::Violations;

use crate::{
    co_point, commit, drive, end_checks, int, pool_size, query, statement, timed_setups, write_txn,
    Classes, Cx, DataDir, DbCounters, Inject, Options, Outcome,
};

/// Two clients, one per core of the 2-vCPU reference host: hot district
/// rows give write conflicts and commits group in the WAL.
const CLIENTS: usize = 2;

/// Upper bound on the op rate the stream is sized for (ops/s).
const MAX_RATE: f64 = 5_000.0;

/// Log bytes between automatic checkpoints. The default (4 MiB) gives no
/// checkpoint at all in a run of a few thousand ≈435-byte commits.
const CHECKPOINT_INTERVAL: u64 = 256 << 10;

const INITIAL_BALANCE: i64 = 1_000;

fn config(opts: &Options) -> TpccConfig {
    let seconds = opts.seconds + opts.warmup.as_secs_f64();
    let mut cfg = TpccConfig {
        txns: (MAX_RATE * seconds).ceil() as u64,
        clients: CLIENTS,
        seed: opts.seed,
        durable: true,
        ..TpccConfig::default()
    };
    if opts.is_tiny() {
        cfg.warehouses = 1;
        cfg.districts_per_w = 2;
        cfg.customers_per_d = 5;
    }
    cfg
}

fn db_config(dir: &DataDir) -> DbConfig {
    DbConfig {
        data_dir: Some(dir.path().to_path_buf()),
        wal_fsync: false,
        checkpoint_interval: CHECKPOINT_INTERVAL,
        ..DbConfig::default()
    }
}

/// The TPC-C-lite schema, load and views, on a data directory of its own.
fn build(cfg: &TpccConfig, dir: &DataDir) -> Database {
    let db = Database::open_with_config(db_config(dir)).expect("open tpcc data directory");
    db.execute_batch(
        "CREATE TABLE WAREHOUSE (w_id INT NOT NULL, w_name VARCHAR(16));
         CREATE TABLE DISTRICT (d_id INT NOT NULL, d_w_id INT, d_ytd INT, d_next_o_id INT);
         CREATE TABLE CUSTOMER (c_id INT NOT NULL, c_d_id INT, c_w_id INT, c_balance INT);
         CREATE TABLE ORDERS (o_id INT NOT NULL, o_c_id INT, o_d_id INT, o_w_id INT, o_amount INT);
         CREATE INDEX district_id ON DISTRICT (d_id);
         CREATE INDEX customer_id ON CUSTOMER (c_id);
         CREATE INDEX customer_district ON CUSTOMER (c_d_id);
         CREATE INDEX orders_id ON ORDERS (o_id);
         CREATE INDEX orders_customer ON ORDERS (o_c_id);
         CREATE INDEX orders_district ON ORDERS (o_d_id);",
    )
    .expect("tpcc schema");
    let s = db.session();
    s.begin().expect("begin load");
    for w in 0..cfg.warehouses as i64 {
        s.execute(
            "INSERT INTO WAREHOUSE VALUES (?, ?)",
            &[Value::Int(w), Value::Str(format!("wh-{w}"))],
        )
        .expect("load warehouse");
    }
    let per_w = cfg.districts_per_w as i64;
    for d in 0..cfg.districts() as i64 {
        s.execute(
            "INSERT INTO DISTRICT VALUES (?, ?, 0, 1)",
            &[Value::Int(d), Value::Int(d / per_w)],
        )
        .expect("load district");
    }
    for c in 0..cfg.customers() as i64 {
        let d = c / cfg.customers_per_d as i64;
        s.execute(
            "INSERT INTO CUSTOMER VALUES (?, ?, ?, ?)",
            &[
                Value::Int(c),
                Value::Int(d),
                Value::Int(d / per_w),
                Value::Int(INITIAL_BALANCE),
            ],
        )
        .expect("load customer");
    }
    s.commit().expect("commit load");
    db.execute(
        "CREATE MATERIALIZED VIEW ord_sum AS \
         SELECT o_d_id AS d, COUNT(*) AS n, SUM(o_amount) AS total FROM ORDERS GROUP BY o_d_id",
    )
    .expect("ord_sum");
    db.execute(&format!("CREATE MATERIALIZED VIEW dist_co AS {DIST_CO}"))
        .expect("dist_co");
    db
}

/// Per-client memory of the `ord_sum` rows it saw (they only grow).
type LastSummary = BTreeMap<i64, (i64, i64)>;

pub fn run(opts: &Options) -> Outcome {
    let cfg = config(opts);
    let mut setup = || {
        let dir = DataDir::new(opts);
        (build(&cfg, &dir), dir)
    };
    let ((db, dir), mut setup_secs) = timed_setups(opts, &mut setup);
    let stream = generate_stream(&cfg);
    // Per-district order summary after the whole stream: an upper bound
    // on anything `ord_sum` can show mid-run.
    let final_summary = summary_of(&TpccModel::replay(&cfg, &stream));
    let violations = Violations::new();
    let before = DbCounters::read(&db);
    let loop_out = drive(
        &db,
        opts,
        CLIENTS,
        stream.len(),
        &violations,
        |i, s, cx, last: &mut LastSummary| run_txn(&cfg, &final_summary, &stream[i], s, cx, last),
    );
    let after = DbCounters::read(&db);
    let (buffer_frames, db_pages) = pool_size(&db);

    let executed: Vec<TpccTxn> = loop_out
        .executed()
        .into_iter()
        .map(|i| stream[i].clone())
        .collect();
    let mut model = TpccModel::replay(&cfg, &executed);
    if opts.inject == Some(Inject::Model) {
        *model.balances.values_mut().next().expect("customers") += 1;
    }
    let (end_failures, check_secs) = end_checks(&violations, |v| {
        final_checks(&db, &cfg, &model, opts.inject, v)
    });
    drop((db, dir));
    setup_secs.extend(timed_setups(opts, &mut setup).1);
    let config = vec![
        (
            "flush_policy",
            "WAL + group commit + double-write, wal_fsync=false".to_string(),
        ),
        (
            "checkpoint_interval",
            format!("{CHECKPOINT_INTERVAL} bytes"),
        ),
        (
            "size",
            format!(
                "{} warehouses x {} districts x {} customers",
                cfg.warehouses, cfg.districts_per_w, cfg.customers_per_d
            ),
        ),
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
            main: &["transfer", "new_order"],
            read: &["order_status", "summary"],
            write: &["transfer", "new_order"],
            scan: &[],
            co: &["co_fetch"],
        },
    }
}

fn summary_of(model: &TpccModel) -> BTreeMap<i64, (i64, i64)> {
    let mut per_district = BTreeMap::new();
    for (_, d, _, a) in model.orders.values() {
        let e: &mut (i64, i64) = per_district.entry(*d).or_default();
        e.0 += 1;
        e.1 += a;
    }
    per_district
}

fn one_int(cx: &mut Cx, s: &Session<'_>, sql: &str, param: i64) -> Result<i64, XnfError> {
    let r = query(cx, s, sql, &[Value::Int(param)])?;
    let rows = &r.try_table()?.rows;
    match rows.first() {
        Some(row) if rows.len() == 1 => int(&row[0]),
        _ => Err(XnfError::Api(format!(
            "`{sql}` ({param}) returned {} rows",
            rows.len()
        ))),
    }
}

fn run_txn(
    cfg: &TpccConfig,
    final_summary: &BTreeMap<i64, (i64, i64)>,
    txn: &TpccTxn,
    s: &Session<'_>,
    cx: &mut Cx,
    last_summary: &mut LastSummary,
) -> Result<&'static str, XnfError> {
    match txn {
        TpccTxn::Transfer {
            from,
            to,
            amount,
            district,
            rollback,
        } => {
            write_txn(cx, s, *rollback, |cx| {
                statement(
                    cx,
                    s,
                    "UPDATE CUSTOMER SET c_balance = c_balance - ? WHERE c_id = ?",
                    &[Value::Int(*amount), Value::Int(*from)],
                )?;
                statement(
                    cx,
                    s,
                    "UPDATE CUSTOMER SET c_balance = c_balance + ? WHERE c_id = ?",
                    &[Value::Int(*amount), Value::Int(*to)],
                )?;
                statement(
                    cx,
                    s,
                    "UPDATE DISTRICT SET d_ytd = d_ytd + ? WHERE d_id = ?",
                    &[Value::Int(*amount), Value::Int(*district)],
                )?;
                Ok(())
            })?;
            Ok("transfer")
        }
        TpccTxn::NewOrder {
            customer,
            district,
            warehouse,
            o_id,
            amount,
            rollback,
        } => {
            let next_sql = "SELECT d_next_o_id FROM DISTRICT WHERE d_id = ?";
            write_txn(cx, s, *rollback, |cx| {
                let before = one_int(cx, s, next_sql, *district)?;
                statement(
                    cx,
                    s,
                    "UPDATE DISTRICT SET d_next_o_id = d_next_o_id + 1 WHERE d_id = ?",
                    &[Value::Int(*district)],
                )?;
                let after = one_int(cx, s, next_sql, *district)?;
                statement(
                    cx,
                    s,
                    "INSERT INTO ORDERS VALUES (?, ?, ?, ?, ?)",
                    &[
                        Value::Int(*o_id),
                        Value::Int(*customer),
                        Value::Int(*district),
                        Value::Int(*warehouse),
                        Value::Int(*amount),
                    ],
                )?;
                statement(
                    cx,
                    s,
                    "UPDATE CUSTOMER SET c_balance = c_balance - ? WHERE c_id = ?",
                    &[Value::Int(*amount), Value::Int(*customer)],
                )?;
                let got = one_int(cx, s, "SELECT o_amount FROM ORDERS WHERE o_id = ?", *o_id)?;
                cx.unclocked(|cx| {
                    cx.check(after == before + 1 && got == *amount, || {
                        format!("new_order({o_id}): read-your-writes broken")
                    });
                });
                Ok(())
            })?;
            Ok("new_order")
        }
        TpccTxn::OrderStatus { customer } => {
            let bal_sql = "SELECT c_balance FROM CUSTOMER WHERE c_id = ?";
            s.begin()?;
            let b1 = one_int(cx, s, bal_sql, *customer)?;
            let agg = query(
                cx,
                s,
                "SELECT COUNT(*), SUM(o_amount) FROM ORDERS WHERE o_c_id = ?",
                &[Value::Int(*customer)],
            )?;
            let n_orders = int(&agg.try_table()?.rows[0][0])?;
            let b2 = one_int(cx, s, bal_sql, *customer)?;
            commit(cx, s)?;
            cx.unclocked(|cx| {
                cx.check(b1 == b2 && n_orders >= 0, || {
                    format!("order_status({customer}): repeatable read broken")
                });
            });
            Ok("order_status")
        }
        TpccTxn::Summary { district } => {
            s.begin()?;
            let r = query(
                cx,
                s,
                "SELECT n, total FROM ord_sum WHERE d = ?",
                &[Value::Int(*district)],
            )?;
            let row = r.try_table()?.rows.first().cloned();
            commit(cx, s)?;
            cx.unclocked(|cx| {
                if let Some(row) = row {
                    // Mid-run the view may trail or lead its base tables;
                    // what must hold is that each observation is a state on
                    // the district's append-only history: consistent, never
                    // past the stream's final value, never going backwards.
                    let (n, total) = (row[0].as_int().unwrap_or(-1), row[1].as_int().unwrap_or(-1));
                    let (fin_n, fin_total) =
                        final_summary.get(district).copied().unwrap_or_default();
                    let (last_n, last_total) =
                        last_summary.get(district).copied().unwrap_or_default();
                    cx.check(
                        n >= 1 && total >= n && n <= fin_n && total <= fin_total,
                        || format!("summary(d{district}): ({n}, {total}) is not a valid state"),
                    );
                    cx.check(n >= last_n && total >= last_total, || {
                        format!("summary(d{district}): went backwards")
                    });
                    last_summary.insert(*district, (n, total));
                }
            });
            Ok("summary")
        }
        TpccTxn::CoFetch { district } => {
            let co = co_point(cx, s.database(), "dist_co", *district)?;
            cx.unclocked(|cx| {
                // A concurrent splice can be caught half-applied, but a
                // subtree never holds more than one district and its
                // customers.
                let len = |c: &str| co.workspace.component(c).map_or(usize::MAX, |c| c.len());
                let (roots, custs) = (len("xdist"), len("xcust"));
                cx.check(roots <= 1 && custs as u64 <= cfg.customers_per_d, || {
                    format!("co_fetch(d{district}): {roots} roots, {custs} customers")
                });
            });
            Ok("co_fetch")
        }
    }
}

fn final_checks(
    db: &Database,
    cfg: &TpccConfig,
    model: &TpccModel,
    inject: Option<Inject>,
    v: &Violations,
) {
    let int_rows = |rows: Vec<Vec<i64>>| -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = rows
            .into_iter()
            .map(|r| {
                r.into_iter()
                    .map(|x| format!("{:?}", Value::Int(x)))
                    .collect()
            })
            .collect();
        out.sort();
        out
    };
    v.check_eq(
        rows_of(db, "SELECT c_id, c_balance FROM CUSTOMER"),
        int_rows(model.balances.iter().map(|(c, b)| vec![*c, *b]).collect()),
        || "CUSTOMER differs from the replayed model".to_string(),
    );
    v.check_eq(
        rows_of(db, "SELECT d_id, d_ytd, d_next_o_id FROM DISTRICT"),
        int_rows(
            model
                .districts
                .iter()
                .map(|(d, (ytd, next))| vec![*d, *ytd, *next])
                .collect(),
        ),
        || "DISTRICT differs from the replayed model".to_string(),
    );
    v.check_eq(
        rows_of(
            db,
            "SELECT o_id, o_c_id, o_d_id, o_w_id, o_amount FROM ORDERS",
        ),
        int_rows(
            model
                .orders
                .iter()
                .map(|(o, (c, d, w, a))| vec![*o, *c, *d, *w, *a])
                .collect(),
        ),
        || "ORDERS differs from the replayed model".to_string(),
    );
    let balances: i64 = model.balances.values().sum();
    let orders: i64 = model.orders.values().map(|o| o.3).sum();
    v.check_eq(
        balances + orders,
        cfg.customers() as i64 * INITIAL_BALANCE,
        || "model broke conservation".to_string(),
    );
    let incremental = rows_of(db, "SELECT * FROM ord_sum");
    v.check_eq(
        incremental.clone(),
        int_rows(
            summary_of(model)
                .iter()
                .map(|(d, (n, t))| vec![*d, *n, *t])
                .collect(),
        ),
        || "ord_sum differs from the replayed model".to_string(),
    );
    db.execute("REFRESH MATERIALIZED VIEW ord_sum")
        .expect("refresh ord_sum");
    v.check_eq(incremental, rows_of(db, "SELECT * FROM ord_sum"), || {
        "ord_sum differs from REFRESH".to_string()
    });
    let stored = db.fetch_co("dist_co").expect("stored dist_co");
    let fresh = db.fetch_co(DIST_CO).expect("on-demand dist_co");
    let mut stored = canon_co(&stored);
    if inject == Some(Inject::Co) {
        if let Some((_, pairs)) = stored.1.first_mut() {
            pairs.pop();
        }
    }
    v.check_eq(stored, canon_co(&fresh), || {
        "dist_co differs from on-demand extraction".to_string()
    });
}
