//! Statement-path equivalence: every public way of running a query goes
//! through the same compile front end and runner, so a SELECT, the
//! paper's `deps_ARC` composite object and a recursive CO must come back
//! identical (stream names, columns, rows in order) from `execute`,
//! `execute_batch`, `execute_stmt`, `query`, `query_parallel`,
//! `Session::query` and a bound `Prepared` — inside an open session
//! transaction too, where the session-scoped entry points must see the
//! transaction's own uncommitted insert and the autocommit ones must not.
//! Parameter misuse (an unbound `?`, parameters on a recursive query) must
//! fail the same way wherever it can be expressed.

use xnf_core::{Database, QueryResult, Session, Value};
use xnf_fixtures::{build_paper_db, PaperScale, DEPS_ARC};

const SELECT: &str = "SELECT e.eno, e.ename, d.loc FROM EMP e, DEPT d \
                      WHERE e.edno = d.dno AND d.loc = 'ARC' ORDER BY e.eno";

const RECURSIVE: &str = "\
OUT OF ROOT asm AS (SELECT * FROM PARTS WHERE pid = 1),
       part AS PARTS,
       top_uses AS (RELATE asm VIA uses, part USING BOM b
                    WHERE asm.pid = b.parent AND b.child = part.pid),
       sub_uses AS (RELATE part VIA uses, part USING BOM b2
                    WHERE part.pid = b2.parent AND b2.child = uses.pid)
TAKE *";

/// Stream names, columns and rows of a result, in delivery order.
type Streams = Vec<(String, Vec<String>, Vec<Vec<Value>>)>;

fn streams(r: QueryResult) -> Streams {
    r.streams
        .into_iter()
        .map(|s| (s.name, s.columns, s.rows))
        .collect()
}

fn fixture() -> Database {
    let db = build_paper_db(PaperScale {
        departments: 10,
        employees_per_dept: 4,
        projects_per_dept: 2,
        skills: 20,
        ..PaperScale::default()
    });
    db.execute_batch(
        "CREATE TABLE PARTS (pid INT NOT NULL, pname VARCHAR(20));
         CREATE TABLE BOM (parent INT, child INT);
         INSERT INTO PARTS VALUES (1, 'engine'), (2, 'piston'), (3, 'ring'),
                                  (4, 'bolt'), (5, 'wheel'), (6, 'rim');
         INSERT INTO BOM VALUES (1, 2), (2, 3), (2, 4), (3, 4), (5, 6), (6, 4);",
    )
    .unwrap();
    db
}

/// Run `text` through every facade (autocommit) entry point.
fn facade_entry_points(db: &Database, text: &str) -> Vec<(&'static str, Streams)> {
    let stmt = xnf_sql::parse_statement(text).unwrap();
    vec![
        (
            "execute",
            streams(db.execute(text).unwrap().try_rows().unwrap()),
        ),
        (
            "execute_batch",
            streams(db.execute_batch(text).unwrap().try_rows().unwrap()),
        ),
        (
            "execute_stmt",
            streams(db.execute_stmt(&stmt).unwrap().try_rows().unwrap()),
        ),
        ("query", streams(db.query(text).unwrap())),
        ("query_parallel", streams(db.query_parallel(text).unwrap())),
    ]
}

/// Run `text` through every session-scoped entry point of `session`.
fn session_entry_points(session: &Session<'_>, text: &str) -> Vec<(&'static str, Streams)> {
    let mut prepared = session.prepare(text).unwrap();
    prepared.bind(&[]).unwrap();
    vec![
        (
            "Session::execute",
            streams(session.execute(text, &[]).unwrap().try_rows().unwrap()),
        ),
        ("Session::query", streams(session.query(text, &[]).unwrap())),
        ("Prepared::query", streams(prepared.query().unwrap())),
    ]
}

fn assert_all_equal(label: &str, runs: &[(&'static str, Streams)]) {
    let (first, expected) = &runs[0];
    assert!(
        expected.iter().any(|(_, _, rows)| !rows.is_empty()),
        "{label}: {first} returned no rows; the comparison would be vacuous"
    );
    for (entry, got) in &runs[1..] {
        assert_eq!(got, expected, "{label}: {entry} diverged from {first}");
    }
}

#[test]
fn every_entry_point_returns_the_same_streams() {
    let db = fixture();
    let session = db.session();
    for (label, text) in [
        ("select", SELECT),
        ("deps_ARC", DEPS_ARC),
        ("recursive", RECURSIVE),
    ] {
        let mut runs = facade_entry_points(&db, text);
        runs.extend(session_entry_points(&session, text));
        assert_all_equal(label, &runs);
    }
}

#[test]
fn bound_parameters_match_the_literal_statement() {
    let db = fixture();
    let session = db.session();
    let mut prepared = session.prepare(&SELECT.replace("'ARC'", "?")).unwrap();
    prepared.bind(&[Value::Str("ARC".into())]).unwrap();
    assert_eq!(
        streams(prepared.query().unwrap()),
        streams(db.query(SELECT).unwrap())
    );
    let mut prepared = session.prepare(&DEPS_ARC.replace("'ARC'", "?")).unwrap();
    prepared.bind(&[Value::Str("ARC".into())]).unwrap();
    assert_eq!(
        streams(prepared.query().unwrap()),
        streams(db.query(DEPS_ARC).unwrap())
    );
}

#[test]
fn session_entry_points_see_their_own_uncommitted_insert() {
    let db = fixture();
    let session = db.session();
    // An ARC department with one employee, a new root part 7 using part 2.
    let inserts = [
        "INSERT INTO DEPT VALUES (900, 'lab', 'ARC')",
        "INSERT INTO EMP VALUES (9000, 'zed', 900, 1.0)",
        "INSERT INTO PARTS VALUES (7, 'gearbox')",
        "INSERT INTO BOM VALUES (7, 2)",
    ];
    let recursive_7 = RECURSIVE.replace("pid = 1", "pid = 7");
    let before: Vec<Streams> = [SELECT, DEPS_ARC, recursive_7.as_str()]
        .iter()
        .map(|t| streams(db.query(t).unwrap()))
        .collect();

    session.begin().unwrap();
    for ins in inserts {
        session.execute(ins, &[]).unwrap();
    }
    for (text, before) in [SELECT, DEPS_ARC, recursive_7.as_str()].iter().zip(&before) {
        // Inside the transaction: every session-scoped entry point sees
        // the insert, and they all agree.
        let runs = session_entry_points(&session, text);
        assert_all_equal(text, &runs);
        assert_ne!(&runs[0].1, before, "session missed its own insert: {text}");
        // Autocommit entry points read the latest committed state.
        for (entry, got) in facade_entry_points(&db, text) {
            assert_eq!(&got, before, "{entry} saw an uncommitted insert: {text}");
        }
    }
    session.rollback().unwrap();
    assert_eq!(streams(db.query(SELECT).unwrap()), before[0]);
}

fn err_text<T>(r: xnf_core::Result<T>) -> String {
    match r {
        Err(e) => e.to_string(),
        Ok(_) => panic!("expected an error"),
    }
}

#[test]
fn parameter_misuse_fails_the_same_way_everywhere() {
    let db = fixture();
    let session = db.session();
    let unbound = SELECT.replace("'ARC'", "?");

    // Unbound `?` through the one-shot text entry points: one error.
    let facade = [
        err_text(db.execute(&unbound)),
        err_text(db.query(&unbound)),
        err_text(db.query_parallel(&unbound)),
    ];
    assert!(facade[0].contains("unbound parameter"), "{}", facade[0]);
    assert!(facade.iter().all(|e| e == &facade[0]), "{facade:?}");
    // Session / prepared without bindings refuse too.
    for e in [
        err_text(session.query(&unbound, &[])),
        err_text(session.prepare(&unbound).unwrap().query()),
    ] {
        assert!(e.contains("parameter"), "{e}");
    }
    // A parsed statement carries no parameter signature; executing one
    // with an unbound `?` still fails rather than guessing a value.
    let stmt = xnf_sql::parse_statement(&unbound).unwrap();
    assert!(db.execute_stmt(&stmt).is_err());
    assert!(db.execute_batch(&unbound).is_err());

    // Parameters on a recursive CO: every entry point that can bind one
    // gives the same error.
    let recursive = RECURSIVE.replace("pid = 1", "pid = ?");
    let one = [Value::Int(1)];
    let mut prepared = session.prepare(&recursive).unwrap();
    prepared.bind(&one).unwrap();
    let bound = [
        err_text(session.query(&recursive, &one)),
        err_text(session.execute(&recursive, &one)),
        err_text(prepared.query()),
        err_text(prepared.fetch_co()),
    ];
    assert!(
        bound[0].contains("parameters are not supported in recursive CO queries"),
        "{}",
        bound[0]
    );
    assert!(bound.iter().all(|e| e == &bound[0]), "{bound:?}");
    // Without bindings the one-shot text entry points stop at the unbound
    // check first.
    assert!(err_text(db.query(&recursive)).contains("unbound parameter"));
    assert!(err_text(db.query_parallel(&recursive)).contains("unbound parameter"));
}

#[test]
fn unbound_parameters_give_one_error_wherever_a_signature_is_known() {
    let db = fixture();
    let session = db.session();
    let unbound = SELECT.replace("'ARC'", "?");
    let expected = err_text(db.query(&unbound));
    let mut prepared = session.prepare(&unbound).unwrap();
    for got in [
        err_text(db.execute(&unbound)),
        err_text(db.query_parallel(&unbound)),
        err_text(session.query(&unbound, &[])),
        err_text(session.execute(&unbound, &[])),
        err_text(prepared.query()),
        err_text(db.fetch_co(&DEPS_ARC.replace("'ARC'", "?"))),
        err_text(db.execute("DELETE FROM EMP WHERE eno = ?")),
        err_text(session.execute("DELETE FROM EMP WHERE eno = ?", &[])),
    ] {
        assert_eq!(got, expected);
    }
}
