//! `co_extract`: the paper's path, read-only.
//!
//! The Fig. 1 schema at 400 departments (≈240 pages) on a data directory
//! with a 64-frame buffer pool, so the data is about 4× the pool. Each op
//! issues an ad-hoc `OUT OF xdept AS DEPT, … TAKE * WHERE xdept.dno = <k>`
//! for a seeded root key, loads the result into a `Workspace` and
//! navigates every dept→emp→skills and dept→proj→skills path. Root keys
//! cycle through seeded permutations of all departments, so a key recurs
//! only after every other one has: each op misses the 128-entry plan cache
//! and runs sql → qgm → rewrite → plan, and the buffer pool misses and
//! the disk reads and verifies pages.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xnf_core::{Database, DbConfig, Session, Workspace, XnfError};
use xnf_fixtures::{build_paper_db_with, PaperScale, DEPS_ARC};
use xnf_workload::Violations;

use crate::{
    check_co_log, digest, drive, end_checks, log_co, navigate, pool_size, probe_compile,
    timed_setups, Classes, Cx, DataDir, DbCounters, Inject, Options, Outcome,
};

/// One client: each op's parallel scans already fan out over both cores of
/// the 2-vCPU reference host.
const CLIENTS: usize = 1;

/// Buffer-pool frames (0.5 MiB of 8 KiB pages).
const BUFFER_PAGES: usize = 64;

/// Upper bound on the op rate the key stream is sized for (ops/s).
const MAX_RATE: f64 = 500.0;

fn scale(opts: &Options) -> PaperScale {
    PaperScale {
        departments: if opts.is_tiny() { 120 } else { 400 },
        ..PaperScale::default()
    }
}

fn db_config(dir: &DataDir) -> DbConfig {
    DbConfig {
        data_dir: Some(dir.path().to_path_buf()),
        wal_fsync: false,
        buffer_pages: BUFFER_PAGES,
        ..DbConfig::default()
    }
}

/// The ad-hoc CO query for root key `dno`: `deps_ARC` over all of DEPT,
/// restricted to one department.
fn query_text(dno: i64) -> String {
    DEPS_ARC
        .replace("(SELECT * FROM DEPT WHERE loc = 'ARC')", "DEPT")
        .replace("TAKE *", &format!("TAKE * WHERE xdept.dno = {dno}"))
}

/// Root keys: seeded permutations of `0..departments`, back to back.
fn key_stream(seed: u64, departments: usize, len: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::with_capacity(len + departments);
    while keys.len() < len {
        let mut perm: Vec<i64> = (0..departments as i64).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        keys.extend(perm);
    }
    keys.truncate(len);
    keys
}

pub fn run(opts: &Options) -> Outcome {
    let scale = scale(opts);
    let mut setup = || {
        let dir = DataDir::new(opts);
        (build_paper_db_with(scale, db_config(&dir)), dir)
    };
    let ((db, dir), mut setup_secs) = timed_setups(opts, &mut setup);
    let seconds = opts.seconds + opts.warmup.as_secs_f64();
    let keys = key_stream(
        opts.seed,
        scale.departments,
        (MAX_RATE * seconds).ceil() as usize,
    );
    let violations = Violations::new();
    let before = DbCounters::read(&db);
    let loop_out = drive(
        &db,
        opts,
        CLIENTS,
        keys.len(),
        &violations,
        |i, s, cx, _: &mut ()| extract(s, cx, keys[i], &query_text(keys[i])),
    );
    let after = DbCounters::read(&db);
    let (buffer_frames, db_pages) = pool_size(&db);

    let co_log = loop_out.co_log();
    let (end_failures, check_secs) = end_checks(&violations, |v| {
        let base = BaseTables::read(&db);
        check_co_log(v, &co_log, opts.inject, |dno| {
            base.expected(&scale, dno, opts.inject, v)
        });
    });
    drop((db, dir));
    setup_secs.extend(timed_setups(opts, &mut setup).1);
    let config = vec![
        (
            "flush_policy",
            "WAL, wal_fsync=false (read-only run)".to_string(),
        ),
        ("checkpoint_interval", "default (no commits)".to_string()),
        ("departments", scale.departments.to_string()),
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
            main: &["co_extract"],
            read: &[],
            write: &[],
            scan: &[],
            co: &["co_extract"],
        },
    }
}

/// One op: compile and run the ad-hoc CO query, swizzle the result into a
/// workspace, navigate it.
fn extract(s: &Session<'_>, cx: &mut Cx, dno: i64, text: &str) -> Result<&'static str, XnfError> {
    probe_compile(cx, s.database(), text)?;
    let result = cx.call("session.statement", |cx| {
        let mut p = cx.call("session.prepare", |_| s.prepare(text))?;
        let r = cx.call("exec.query", |_| p.query())?;
        cx.n.rows_scanned += r.stats.rows_scanned;
        cx.n.rows_emitted += r.stats.rows_emitted;
        Ok::<_, XnfError>(r)
    })?;
    let ws = cx.call("cache.swizzle", |_| Workspace::from_result(&result))?;
    let edges = cx.call("cache.navigate", |_| navigate(&ws))?;
    cx.unclocked(|cx| log_co(cx, &ws, dno, &edges));
    Ok("co_extract")
}

/// The base tables, read once with plain SQL: the oracle the extracted
/// COs are checked against.
struct BaseTables {
    /// dno → employees; dno → projects.
    emps: BTreeMap<i64, Vec<i64>>,
    projs: BTreeMap<i64, Vec<i64>>,
    /// eno → skills; pno → skills (only skills present in SKILLS).
    emp_skills: BTreeMap<i64, Vec<i64>>,
    proj_skills: BTreeMap<i64, Vec<i64>>,
}

impl BaseTables {
    fn read(db: &Database) -> BaseTables {
        let pairs = |sql: &str| -> Vec<(i64, i64)> {
            db.query(sql)
                .expect("oracle query")
                .try_table()
                .expect("one stream")
                .rows
                .iter()
                .map(|r| (r[0].as_int().expect("int"), r[1].as_int().expect("int")))
                .collect()
        };
        let group = |rows: Vec<(i64, i64)>| {
            let mut m: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
            for (k, v) in rows {
                m.entry(k).or_default().push(v);
            }
            m
        };
        let skills: BTreeSet<i64> = pairs("SELECT sno, sno FROM SKILLS")
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let known = |rows: Vec<(i64, i64)>| -> Vec<(i64, i64)> {
            rows.into_iter()
                .filter(|(_, s)| skills.contains(s))
                .collect()
        };
        BaseTables {
            emps: group(pairs("SELECT edno, eno FROM EMP")),
            projs: group(pairs("SELECT pdno, pno FROM PROJ")),
            emp_skills: group(known(pairs("SELECT eseno, essno FROM EMPSKILLS"))),
            proj_skills: group(known(pairs("SELECT pspno, pssno FROM PROJSKILLS"))),
        }
    }

    /// Department `dno`'s CO: its employees and projects, their skills;
    /// returned as (edge-set digest, distinct tuples). Also checks the
    /// fixture's per-department counts.
    fn expected(
        &self,
        scale: &PaperScale,
        dno: i64,
        inject: Option<Inject>,
        v: &Violations,
    ) -> (u64, usize) {
        let none = Vec::new();
        let emps = self.emps.get(&dno).unwrap_or(&none);
        let projs = self.projs.get(&dno).unwrap_or(&none);
        v.check_eq(
            (emps.len(), projs.len()),
            (scale.employees_per_dept, scale.projects_per_dept),
            || format!("department {dno}: fixture shape (employees, projects)"),
        );
        let mut set: Vec<(String, i64, i64)> = Vec::new();
        let mut skills = BTreeSet::new();
        for (rel, prop, parents, children) in [
            ("employment", "empproperty", emps, &self.emp_skills),
            ("ownership", "projproperty", projs, &self.proj_skills),
        ] {
            for p in parents {
                set.push((rel.to_string(), dno, *p));
                for s in children.get(p).unwrap_or(&none) {
                    set.push((prop.to_string(), *p, *s));
                    skills.insert(*s);
                }
            }
        }
        set.sort();
        set.dedup();
        if inject == Some(Inject::Model) {
            set.pop();
        }
        (digest(&set), 1 + emps.len() + projs.len() + skills.len())
    }
}
