//! Unit tests for relational materialized views: DDL, planner
//! substitution, direct / keyed / full maintenance, refresh, guards — plus
//! the commit pipeline's stale-precomputation path, which needs the
//! crate-private `prepare_maintenance` / `maintain` steps. (The fixture
//! driven CO matview suites live in `tests/matview_equivalence.rs`.)

use std::sync::Arc;

use parking_lot::Mutex;
use xnf_exec::Params;

use crate::co::CoCache;
use crate::db::Database;
use crate::matview::{maintain, prepare_maintenance};
use crate::session::{ActiveTxn, TxnSlot};

fn items_db() -> Database {
    let db = Database::new();
    db.execute_batch(
        "CREATE TABLE ITEMS (id INT NOT NULL, grp INT, val INT);
         CREATE TABLE GROUPS (gid INT NOT NULL, flag INT);
         CREATE UNIQUE INDEX items_id ON ITEMS (id);
         CREATE INDEX items_grp ON ITEMS (grp);
         CREATE UNIQUE INDEX groups_gid ON GROUPS (gid);",
    )
    .unwrap();
    for g in 0..10 {
        db.execute(&format!("INSERT INTO GROUPS VALUES ({g}, {})", g % 2))
            .unwrap();
    }
    for i in 0..100 {
        db.execute(&format!(
            "INSERT INTO ITEMS VALUES ({i}, {}, {})",
            i % 10,
            i * 7 % 50
        ))
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db
}

/// Sorted bag of a query's rows (for content comparison).
fn rows_of(db: &Database, sql: &str) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = db
        .query(sql)
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.iter().map(|v| format!("{v:?}")).collect())
        .collect();
    rows.sort();
    rows
}

#[test]
fn direct_matview_tracks_dml() {
    let db = items_db();
    db.execute("CREATE MATERIALIZED VIEW small AS SELECT id, val FROM ITEMS WHERE val < 20")
        .unwrap();
    let fresh = "SELECT id, val FROM ITEMS WHERE val < 20";
    assert_eq!(rows_of(&db, "SELECT * FROM small"), rows_of(&db, fresh));

    // Inserts in and out of the selection.
    db.execute("INSERT INTO ITEMS VALUES (200, 1, 5), (201, 1, 45)")
        .unwrap();
    // Update moving a row across the predicate boundary both ways.
    db.execute("UPDATE ITEMS SET val = 49 WHERE id = 200")
        .unwrap();
    db.execute("UPDATE ITEMS SET val = 3 WHERE id = 201")
        .unwrap();
    // Delete.
    db.execute("DELETE FROM ITEMS WHERE id = 201").unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM small"), rows_of(&db, fresh));

    let epoch = db.catalog().matview("small").unwrap().epoch();
    assert!(epoch >= 3, "maintenance bumped the epoch, got {epoch}");
}

#[test]
fn matview_scan_appears_in_explain_and_uses_indexes() {
    let db = items_db();
    db.execute(
        "CREATE MATERIALIZED VIEW by_grp AS \
         SELECT i.grp, i.id, i.val, g.flag FROM ITEMS i, GROUPS g WHERE i.grp = g.gid",
    )
    .unwrap();
    let plan = db.explain("SELECT * FROM by_grp WHERE val > 10").unwrap();
    assert!(plan.contains("matview scan(by_grp)"), "got plan:\n{plan}");

    // The keyed maintenance index doubles as a point-query access path.
    let point = db.explain("SELECT * FROM by_grp WHERE grp = 3").unwrap();
    assert!(
        point.contains("IndexEq(by_grp.mv_key)"),
        "got plan:\n{point}"
    );
}

#[test]
fn keyed_join_matview_tracks_dml_on_both_legs() {
    let db = items_db();
    db.execute(
        "CREATE MATERIALIZED VIEW by_grp AS \
         SELECT i.grp, i.id, i.val, g.flag FROM ITEMS i, GROUPS g WHERE i.grp = g.gid",
    )
    .unwrap();
    let fresh = "SELECT i.grp, i.id, i.val, g.flag FROM ITEMS i, GROUPS g WHERE i.grp = g.gid";
    assert_eq!(rows_of(&db, "SELECT * FROM by_grp"), rows_of(&db, fresh));

    // Fact-side churn.
    db.execute("INSERT INTO ITEMS VALUES (300, 4, 9)").unwrap();
    db.execute("UPDATE ITEMS SET grp = 5 WHERE id = 300")
        .unwrap();
    db.execute("DELETE FROM ITEMS WHERE id = 17").unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM by_grp"), rows_of(&db, fresh));

    // Dimension-side churn (affects every row of the group).
    db.execute("UPDATE GROUPS SET flag = 7 WHERE gid = 3")
        .unwrap();
    db.execute("DELETE FROM GROUPS WHERE gid = 9").unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM by_grp"), rows_of(&db, fresh));
}

#[test]
fn aggregate_matview_falls_back_to_full_recompute() {
    let db = items_db();
    db.execute(
        "CREATE MATERIALIZED VIEW grp_counts AS \
         SELECT grp, COUNT(*) AS n FROM ITEMS GROUP BY grp",
    )
    .unwrap();
    let fresh = "SELECT grp, COUNT(*) AS n FROM ITEMS GROUP BY grp";
    assert_eq!(
        rows_of(&db, "SELECT * FROM grp_counts"),
        rows_of(&db, fresh)
    );
    db.execute("INSERT INTO ITEMS VALUES (400, 2, 1)").unwrap();
    db.execute("DELETE FROM ITEMS WHERE grp = 7").unwrap();
    assert_eq!(
        rows_of(&db, "SELECT * FROM grp_counts"),
        rows_of(&db, fresh)
    );
}

#[test]
fn refresh_and_drop_matview() {
    let db = items_db();
    db.execute("CREATE MATERIALIZED VIEW small AS SELECT id FROM ITEMS WHERE val < 10")
        .unwrap();
    let before = db.catalog().matview("small").unwrap().epoch();
    db.execute("REFRESH MATERIALIZED VIEW small").unwrap();
    assert!(db.catalog().matview("small").unwrap().epoch() > before);
    assert_eq!(
        rows_of(&db, "SELECT * FROM small"),
        rows_of(&db, "SELECT id FROM ITEMS WHERE val < 10")
    );
    db.execute("DROP MATERIALIZED VIEW small").unwrap();
    assert!(db.catalog().matview("small").is_none());
    assert!(db.query("SELECT * FROM small").is_err());
    assert!(db.execute("REFRESH MATERIALIZED VIEW small").is_err());
}

#[test]
fn dml_against_matview_is_rejected() {
    let db = items_db();
    db.execute("CREATE MATERIALIZED VIEW small AS SELECT id FROM ITEMS WHERE val < 10")
        .unwrap();
    for stmt in [
        "INSERT INTO small VALUES (1)",
        "UPDATE small SET id = 2",
        "DELETE FROM small",
    ] {
        let err = db.execute(stmt).unwrap_err().to_string();
        assert!(err.contains("cannot run DML against view"), "{stmt}: {err}");
    }
}

#[test]
fn create_matview_invalidates_cached_plans() {
    let db = items_db();
    let session = db.session();
    let mut q = session.prepare("SELECT COUNT(*) FROM ITEMS").unwrap();
    q.query().unwrap();
    let gen_before = db.catalog().generation();
    db.execute("CREATE MATERIALIZED VIEW small AS SELECT id FROM ITEMS WHERE val < 10")
        .unwrap();
    assert!(db.catalog().generation() > gen_before);
    // Re-executing revalidates against the new generation without error.
    q.query().unwrap();
}

#[test]
fn matviews_maintain_from_committed_deltas_only() {
    let db = items_db();
    db.execute("CREATE MATERIALIZED VIEW small AS SELECT id, val FROM ITEMS WHERE val < 20")
        .unwrap();
    let before = rows_of(&db, "SELECT * FROM small");

    // Uncommitted DML must not reach the view: maintenance runs at COMMIT.
    let session = db.session();
    session.begin().unwrap();
    session
        .execute("INSERT INTO ITEMS VALUES (500, 0, 1)", &[])
        .unwrap();
    session
        .execute("DELETE FROM ITEMS WHERE val < 5", &[])
        .unwrap();
    assert_eq!(
        rows_of(&db, "SELECT * FROM small"),
        before,
        "view must not see uncommitted deltas"
    );
    session.rollback().unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM small"), before);

    // The same work committed does reach the view, matching a full refresh.
    session.begin().unwrap();
    session
        .execute("INSERT INTO ITEMS VALUES (500, 0, 1)", &[])
        .unwrap();
    session
        .execute("DELETE FROM ITEMS WHERE val < 5", &[])
        .unwrap();
    session.commit().unwrap();
    let incremental = rows_of(&db, "SELECT * FROM small");
    assert_ne!(incremental, before);
    db.execute("REFRESH MATERIALIZED VIEW small").unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM small"), incremental);
}

#[test]
fn matview_created_mid_transaction_sees_the_commit() {
    // The view is created while a transaction holds uncommitted writes:
    // population cannot see them (they are uncommitted), but the deltas
    // captured before the view existed must still maintain it at COMMIT.
    let db = items_db();
    let session = db.session();
    session.begin().unwrap();
    session
        .execute("INSERT INTO ITEMS VALUES (600, 0, 1)", &[])
        .unwrap();
    db.execute("CREATE MATERIALIZED VIEW small AS SELECT id, val FROM ITEMS WHERE val < 20")
        .unwrap();
    let new_row = vec!["Int(600)".to_string(), "Int(1)".to_string()];
    assert!(
        !rows_of(&db, "SELECT * FROM small").contains(&new_row),
        "population must not see uncommitted rows"
    );
    session.commit().unwrap();
    let committed = rows_of(&db, "SELECT * FROM small");
    assert!(
        committed.contains(&new_row),
        "commit-time maintenance must cover writes made before the view existed"
    );
    db.execute("REFRESH MATERIALIZED VIEW small").unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM small"), committed);
}

#[test]
fn drop_table_with_dependent_matview_is_rejected() {
    let db = items_db();
    db.execute("CREATE MATERIALIZED VIEW small AS SELECT id FROM ITEMS WHERE val < 10")
        .unwrap();
    let err = db.execute("DROP TABLE ITEMS").unwrap_err().to_string();
    assert!(
        err.contains("materialized view 'small' depends on it"),
        "{err}"
    );
    // GROUPS is not a dependency; dropping it is fine.
    db.execute("DROP TABLE GROUPS").unwrap();
    // After dropping the view the table goes too.
    db.execute("DROP MATERIALIZED VIEW small").unwrap();
    db.execute("DROP TABLE ITEMS").unwrap();
}

#[test]
fn dml_equality_with_null_matches_nothing_even_with_index() {
    let db = items_db();
    db.execute("INSERT INTO ITEMS (id, val) VALUES (700, 1)")
        .unwrap();
    // grp is NULL for row 700 and ITEMS.grp is indexed: `grp = NULL` must
    // not take the index's NULL postings (three-valued logic).
    assert_eq!(
        db.execute("UPDATE ITEMS SET val = 9 WHERE grp = NULL")
            .unwrap()
            .affected(),
        0
    );
    assert_eq!(
        db.execute("DELETE FROM ITEMS WHERE grp = NULL")
            .unwrap()
            .affected(),
        0
    );
    let n = db
        .query("SELECT COUNT(*) FROM ITEMS WHERE id = 700")
        .unwrap()
        .try_table()
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(n, 1, "the NULL-grp row survived");
}

#[test]
fn failed_multi_row_dml_still_maintains_applied_prefix() {
    let db = items_db();
    db.execute("CREATE MATERIALIZED VIEW small AS SELECT id, val FROM ITEMS WHERE val < 20")
        .unwrap();
    // Second row violates the unique index on id: the first row applies,
    // the statement errors, and the view must still reflect the first row.
    let err = db.execute("INSERT INTO ITEMS VALUES (800, 1, 5), (800, 1, 6)");
    assert!(err.is_err());
    assert_eq!(
        rows_of(&db, "SELECT * FROM small"),
        rows_of(&db, "SELECT id, val FROM ITEMS WHERE val < 20"),
        "view tracks the partially applied statement"
    );
}

// ---------------------------------------------------------------------------
// stale precomputation: a commit interposed between prepare and apply
// ---------------------------------------------------------------------------

/// Commit transaction A (running `a_sql`) step by step the way
/// `Database::commit_active` does, with transaction B (`b_sql`, same view
/// key, different row) committing in between: A precomputes its keyed
/// maintenance against its own snapshot, B commits and maintains the view,
/// then A takes the maintenance lock, stamps and applies. A's precomputed
/// contents predate B, so the apply must see them as stale and re-derive
/// the key; applying them would silently drop B's change from the view.
fn commit_around_interposed(db: &Database, a_sql: &str, b_sql: &str) {
    let slot: TxnSlot = Arc::new(Mutex::new(Some(ActiveTxn::begin(db))));
    let stmt = xnf_sql::parse_statement(a_sql).unwrap();
    db.execute_stmt_scoped(&stmt, &Params::default(), Some(&slot))
        .unwrap();
    let active = slot.lock().take().unwrap();
    let delta = active.delta.coalesce();
    let pre = prepare_maintenance(db, &delta);
    assert!(pre.is_some(), "A's keyed maintenance was not precomputed");

    db.execute(b_sql).unwrap();

    let _m = db.maintenance_lock().lock();
    let stamp = active.txn.commit();
    maintain(db, &delta, pre.as_ref(), stamp).unwrap();
}

#[test]
fn sql_keyed_view_rederives_precomputation_outrun_by_interposed_commit() {
    let db = items_db();
    let fresh = "SELECT i.grp, i.id, i.val, g.flag FROM ITEMS i, GROUPS g WHERE i.grp = g.gid";
    db.execute(&format!("CREATE MATERIALIZED VIEW by_grp AS {fresh}"))
        .unwrap();
    // Items 3 and 13 share partition key grp = 3.
    commit_around_interposed(
        &db,
        "UPDATE ITEMS SET val = 1000 WHERE id = 3",
        "UPDATE ITEMS SET val = 2000 WHERE id = 13",
    );
    let stored = rows_of(&db, "SELECT * FROM by_grp");
    assert_eq!(stored, rows_of(&db, fresh), "view diverged from definition");
    assert!(stored
        .iter()
        .any(|r| r[1] == "Int(13)" && r[2] == "Int(2000)"));
    db.execute("REFRESH MATERIALIZED VIEW by_grp").unwrap();
    assert_eq!(
        stored,
        rows_of(&db, "SELECT * FROM by_grp"),
        "view != REFRESH"
    );
}

/// Value-identity form of a CO: sorted per-component row sets and
/// per-relationship (parent row, child row) pairs.
fn co_canon(co: &CoCache) -> Vec<Vec<String>> {
    let ws = &co.workspace;
    let mut out: Vec<Vec<String>> = Vec::new();
    for c in &ws.components {
        let mut rows: Vec<String> = ws
            .independent(&c.name)
            .unwrap()
            .map(|t| format!("{:?}", t.values()))
            .collect();
        rows.sort();
        rows.dedup();
        out.push(rows);
    }
    for r in &ws.relationships {
        let mut pairs: Vec<String> = r
            .connections()
            .iter()
            .map(|conn| {
                format!(
                    "{:?}->{:?}",
                    ws.components[r.parent].row(conn[0]),
                    ws.components[r.children[0]].row(conn[1])
                )
            })
            .collect();
        pairs.sort();
        pairs.dedup();
        out.push(pairs);
    }
    out
}

#[test]
fn co_keyed_view_rederives_precomputation_outrun_by_interposed_commit() {
    let db = Database::new();
    db.execute_batch(
        "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(20));
         CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(20), edno INT);
         CREATE UNIQUE INDEX dept_dno ON DEPT (dno);
         CREATE UNIQUE INDEX emp_eno ON EMP (eno);
         CREATE INDEX emp_edno ON EMP (edno);",
    )
    .unwrap();
    for d in 0..4 {
        db.execute(&format!("INSERT INTO DEPT VALUES ({d}, 'd{d}')"))
            .unwrap();
    }
    for e in 0..12 {
        db.execute(&format!("INSERT INTO EMP VALUES ({e}, 'e{e}', {})", e % 4))
            .unwrap();
    }
    let definition = "OUT OF xdept AS DEPT, xemp AS EMP, \
         employs AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno) \
         TAKE *";
    db.execute(&format!("CREATE MATERIALIZED VIEW dept_co AS {definition}"))
        .unwrap();
    // Employees 1 and 5 share root key dno = 1.
    commit_around_interposed(
        &db,
        "UPDATE EMP SET ename = 'a-new' WHERE eno = 1",
        "UPDATE EMP SET ename = 'b-new' WHERE eno = 5",
    );
    let stored = co_canon(&db.fetch_co("dept_co").unwrap());
    assert_eq!(
        stored,
        co_canon(&db.fetch_co(definition).unwrap()),
        "view diverged from definition"
    );
    assert!(stored.iter().flatten().any(|r| r.contains("b-new")));
    db.execute("REFRESH MATERIALIZED VIEW dept_co").unwrap();
    assert_eq!(
        stored,
        co_canon(&db.fetch_co("dept_co").unwrap()),
        "view != REFRESH"
    );
}
