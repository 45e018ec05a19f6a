//! Commit-time materialized-view maintenance microbenches for the
//! batched, off-critical-path pipeline:
//!
//! 1. **diff splice**: a single-row base UPDATE re-splices one root
//!    subtree, reusing every value-identical stored node (only the
//!    changed branch is written);
//! 2. **coalesce**: a transaction hammering the same hot row N times
//!    commits one net delta — the root re-extracts once, not N times;
//! 3. **multi-root**: a commit touching many independent root keys
//!    re-extracts each of them before the maintenance lock, serially on
//!    the committing thread;
//! 4. **refresh baseline**: `REFRESH MATERIALIZED VIEW` at the same
//!    scale, for context on what the incremental path avoids.
//!
//! CI's bench smoke builds this target; run it locally with
//! `cargo bench -p xnf-bench --bench bench_matview_maint`.

use criterion::{criterion_group, criterion_main, Criterion};

use xnf_core::{Database, DbConfig};
use xnf_fixtures::{build_paper_db_with, PaperScale, DEPS_ARC};
use xnf_plan::PlanOptions;

const EMPS_PER_DEPT: usize = 8;

/// Paper fixture with *every* department in the CO view (worst-case
/// maintenance fan-in). Queries run serially (dop 1), so the refresh
/// baseline does not vary with the host's core count.
fn maint_db(departments: usize) -> Database {
    let db = build_paper_db_with(
        PaperScale {
            departments,
            arc_fraction: 1.0,
            employees_per_dept: EMPS_PER_DEPT,
            projects_per_dept: 2,
            skills: 50,
            skills_per_employee: 2,
            skills_per_project: 1,
            seed: 17,
        },
        DbConfig {
            plan: PlanOptions {
                dop: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    db.execute(&format!("CREATE MATERIALIZED VIEW hot_deps AS {DEPS_ARC}"))
        .expect("materialize CO view");
    db
}

/// Employee `k` of department `d` (the fixture numbers enos densely).
fn eno(d: usize, k: usize) -> usize {
    d * EMPS_PER_DEPT + k
}

fn bench_diff_splice(c: &mut Criterion) {
    let db = maint_db(64);
    let mut g = c.benchmark_group("maint");
    let mut i = 0u64;
    g.bench_function("single_row_update", |b| {
        b.iter(|| {
            i += 1;
            db.execute(&format!(
                "UPDATE EMP SET ename = 'b-{i}' WHERE eno = {}",
                eno(3, 1)
            ))
            .unwrap();
        })
    });
    g.finish();
}

fn bench_coalesce(c: &mut Criterion) {
    let db = maint_db(64);
    let session = db.session();
    let mut g = c.benchmark_group("maint");
    let mut i = 0u64;
    g.bench_function("hot_row_x16_coalesced", |b| {
        b.iter(|| {
            session.begin().unwrap();
            for _ in 0..16 {
                i += 1;
                session
                    .execute(
                        &format!("UPDATE EMP SET ename = 'c-{i}' WHERE eno = {}", eno(5, 2)),
                        &[],
                    )
                    .unwrap();
            }
            session.commit().unwrap();
        })
    });
    g.finish();
}

fn bench_multi_root(c: &mut Criterion) {
    let db = maint_db(64);
    let session = db.session();
    let mut g = c.benchmark_group("maint");
    let mut i = 0u64;
    g.bench_function("multi_root_x8", |b| {
        b.iter(|| {
            session.begin().unwrap();
            for d in 0..8 {
                i += 1;
                session
                    .execute(
                        &format!(
                            "UPDATE EMP SET ename = 'p-{i}' WHERE eno = {}",
                            eno(d * 8, 3)
                        ),
                        &[],
                    )
                    .unwrap();
            }
            session.commit().unwrap();
        })
    });
    g.finish();
}

fn bench_refresh_baseline(c: &mut Criterion) {
    let db = maint_db(64);
    let mut g = c.benchmark_group("maint");
    g.sample_size(10);
    g.bench_function("refresh_baseline", |b| {
        b.iter(|| {
            db.execute("REFRESH MATERIALIZED VIEW hot_deps").unwrap();
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_diff_splice,
    bench_coalesce,
    bench_multi_root,
    bench_refresh_baseline
);
criterion_main!(benches);
