//! Turning a run's [`Outcome`] into metrics, the printed report, the
//! result line and the span file.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::probe::self_times;
use crate::{Options, Outcome};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the number, where it is a latency quantile.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples: None,
    }
}

/// Nearest-rank quantile of sorted nanosecond samples, in µs.
fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1_000.0
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Facts about the machine and build, recorded with every result.
pub fn environment() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "commit",
            git_commit(Path::new(env!("CARGO_MANIFEST_DIR")).join("..")),
        ),
        ("build", profile.to_string()),
    ]
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository reports `unknown`.
fn git_commit(root: PathBuf) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Ops that failed: ops that errored or failed a check, plus failed checks
/// of the final state.
pub fn failed(o: &Outcome) -> u64 {
    let ops: u64 = o.loop_out.clients.iter().map(|c| c.failed_ops).sum();
    ops + o.end_failures
}

pub fn attempted(o: &Outcome) -> u64 {
    o.loop_out.clients.iter().map(|c| c.executed as u64).sum()
}

pub fn correct(o: &Outcome) -> bool {
    failed(o) == 0 && o.violations.count() == 0
}

/// The bounded metrics. Throughput and the p50s are medians over the
/// window's one-second slices (see [`crate::LoopOut::slice_rates`] and
/// [`crate::LoopOut::slice_p50`]); `setup_s` is the median set-up.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let lo = &o.loop_out;
    let p50_us = |classes| lo.slice_p50(classes) / 1_000.0;
    vec![
        metric("throughput_ops_s", median(&lo.slice_rates()), "ops/s"),
        Metric {
            samples: Some(lo.samples(o.classes.main).len()),
            ..metric("main_p50_us", p50_us(o.classes.main), "us")
        },
        Metric {
            samples: Some(lo.samples(o.classes.co).len()),
            ..metric("co_p50_us", p50_us(o.classes.co), "us")
        },
        Metric {
            samples: Some(o.setup_secs.len()),
            ..metric("setup_s", median(&o.setup_secs), "s")
        },
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The issue-level per-class table: every latency class the workload has,
/// with sample counts; a p99 only where at least 1000 samples back it.
pub fn class_lines(o: &Outcome) -> Vec<String> {
    let lo = &o.loop_out;
    let mut lines = Vec::new();
    let mut line = |name: &str, value: String, unit: &str, n: Option<usize>| {
        let n = n.map(|n| format!("  (n={n})")).unwrap_or_default();
        lines.push(format!("{name:<26} {value:>14} {unit:<6}{n}"));
    };
    for (class, classes) in [
        ("read", o.classes.read),
        ("write", o.classes.write),
        ("scan", o.classes.scan),
        ("co", o.classes.co),
        ("op", &[][..]),
    ] {
        if class != "op" && classes.is_empty() {
            continue;
        }
        let s = lo.samples(classes);
        line(
            &format!("{class}_p50_us"),
            format!("{:.1}", quantile_us(&s, 0.5)),
            "us",
            Some(s.len()),
        );
        if s.len() >= 1000 && class != "scan" {
            line(
                &format!("{class}_p99_us"),
                format!("{:.1}", quantile_us(&s, 0.99)),
                "us",
                Some(s.len()),
            );
        }
    }
    let failed = failed(o) as f64;
    line(
        "failed_share",
        format!("{:.6}", ratio(failed, attempted(o) as f64)),
        "share",
        Some(attempted(o) as usize),
    );
    let commits = lo.counters().commits as f64;
    if let (Some(b), Some(a), true) = (&o.before.wal, &o.after.wal, commits > 0.0) {
        let bytes = (a.bytes_logged - b.bytes_logged) as f64
            + ((o.after.disk.writes - o.before.disk.writes) * 8192) as f64;
        line(
            "bytes_written_per_commit",
            format!("{:.1}", ratio(bytes, commits)),
            "bytes",
            Some(commits as usize),
        );
    }
    lines
}

/// Self time and calls per span name over every client, plus the total
/// duration of the op (root) spans.
fn layer_times(lo: &crate::LoopOut) -> (Vec<(&'static str, u64, u64)>, u64) {
    let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
    let mut root_ns = 0u64;
    for c in &lo.clients {
        for (name, ns, calls) in self_times(&c.spans) {
            match by_name.iter_mut().find(|e| e.0 == name) {
                Some(e) => {
                    e.1 += ns;
                    e.2 += calls;
                }
                None => by_name.push((name, ns, calls)),
            }
        }
        root_ns += c
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns())
            .sum::<u64>();
    }
    (by_name, root_ns)
}

/// Per-layer metrics of a traced run. Times are self times (a span minus
/// its child spans) from the traced ops: `_us` per op for layers every
/// workload enters, `_share` of the ops' time for layers only some enter.
/// The compile stages are probed per statement text (`_us` per call).
/// Counters come from the engine's stats over the whole loop.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let lo = &o.loop_out;
    let (times, root_ns) = layer_times(lo);
    let self_ns = |name: &str| times.iter().find(|e| e.0 == name).map_or(0, |e| e.1) as f64;
    let per_call_us = |name: &str| {
        times
            .iter()
            .find(|e| e.0 == name)
            .map_or(0.0, |e| e.1 as f64 / e.2 as f64 / 1_000.0)
    };
    let probes = ["sql.parse", "probe.compile_to_qgm", "probe.compile"];
    // Time on the ops' own path: op spans minus oracle checks and probes.
    let path_ns =
        root_ns as f64 - self_ns("oracle") - probes.iter().map(|p| self_ns(p)).sum::<f64>();
    let share = |name: &str| ratio(self_ns(name), path_ns);
    let traced_ops: u64 = lo.clients.iter().map(|c| c.traced_ops).sum();
    let untraced_ops: u64 = lo.clients.iter().map(|c| c.untraced_ops).sum();
    let per_op_us = |ns: f64| ratio(ns / 1_000.0, traced_ops as f64);
    let root_self_ns = times
        .iter()
        .filter(|e| lo.clients.iter().any(|c| c.samples.contains_key(e.0)))
        .map(|e| e.1)
        .sum::<u64>() as f64;
    let all_ops = attempted(o) as f64;
    let busy_ns: u64 = lo.clients.iter().map(|c| c.busy_ns).sum();
    let n = lo.counters();
    let commits = n.commits as f64;
    let (b, a) = (&o.before, &o.after);
    let d = |after: u64, before: u64| after.saturating_sub(before) as f64;
    let wal = |f: fn(&xnf_core::WalStats) -> u64| match (&b.wal, &a.wal) {
        (Some(wb), Some(wa)) => d(f(wa), f(wb)),
        _ => 0.0,
    };
    let hits = d(a.buffer.hits, b.buffer.hits);
    let misses = d(a.buffer.misses, b.buffer.misses);
    let plan_hits = d(a.plan.hits, b.plan.hits);
    let plan_misses = d(a.plan.misses, b.plan.misses);
    let traced_window = lo.traced_window();
    let untraced_window = lo.window.saturating_sub(traced_window);
    let traced_tput = ratio(traced_ops as f64, secs(traced_window));
    let untraced_tput = ratio(untraced_ops as f64, secs(untraced_window));
    let disk_writes = d(a.disk.writes, b.disk.writes);
    vec![
        metric("sql.parse_us", per_call_us("sql.parse"), "us"),
        metric(
            "rewrite.to_qgm_us",
            per_call_us("probe.compile_to_qgm") - per_call_us("sql.parse"),
            "us",
        ),
        metric(
            "plan.plan_us",
            per_call_us("probe.compile") - per_call_us("probe.compile_to_qgm"),
            "us",
        ),
        metric(
            "session.plan_cache_hit_ratio",
            ratio(plan_hits, plan_hits + plan_misses),
            "ratio",
        ),
        metric(
            "session.prepare_us",
            per_op_us(self_ns("session.prepare")),
            "us",
        ),
        metric(
            "session.statement_us",
            per_op_us(self_ns("session.statement")),
            "us",
        ),
        metric("exec.query_us", per_op_us(self_ns("exec.query")), "us"),
        metric(
            "exec.rows_scanned_per_row",
            ratio(n.rows_scanned as f64, n.rows_emitted as f64),
            "ratio",
        ),
        metric("cache.swizzle_share", share("cache.swizzle"), "share"),
        metric(
            "cache.navigate_us",
            per_op_us(self_ns("cache.navigate")),
            "us",
        ),
        metric(
            "cache.tuples_per_co",
            ratio(n.co_tuples as f64, n.co_ops as f64),
            "count",
        ),
        metric(
            "matview.fetch_co_point_share",
            share("matview.fetch_co_point"),
            "share",
        ),
        metric(
            "matview.maint_share",
            ratio(
                d(a.maint.mv_maint_us, b.maint.mv_maint_us) * 1_000.0,
                busy_ns as f64,
            ),
            "share",
        ),
        metric(
            "matview.roots_respliced_per_commit",
            ratio(
                d(a.maint.mv_roots_respliced, b.maint.mv_roots_respliced),
                commits,
            ),
            "count",
        ),
        metric(
            "matview.nodes_reused_per_commit",
            ratio(d(a.maint.mv_nodes_reused, b.maint.mv_nodes_reused), commits),
            "count",
        ),
        metric("txn.commit_share", share("txn.commit"), "share"),
        metric(
            "txn.retries_per_commit",
            ratio(n.conflicts as f64, commits),
            "count",
        ),
        metric(
            "txn.conflict_abort_share",
            ratio(n.conflicts as f64, n.write_attempts as f64),
            "share",
        ),
        metric(
            "wal.bytes_per_commit",
            ratio(wal(|w| w.bytes_logged), commits),
            "bytes",
        ),
        metric(
            "wal.commits_per_flush",
            ratio(
                wal(|w| w.group_commit_commits),
                wal(|w| w.group_commit_batches),
            ),
            "count",
        ),
        metric("wal.checkpoints", wal(|w| w.checkpoints), "count"),
        metric("buffer.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "buffer.evictions_per_op",
            ratio(d(a.buffer.evictions, b.buffer.evictions), all_ops),
            "count",
        ),
        metric(
            "buffer.dirty_writebacks",
            d(a.buffer.dirty_writebacks, b.buffer.dirty_writebacks),
            "count",
        ),
        metric(
            "buffer.db_pages_per_frame",
            ratio(o.db_pages as f64, o.buffer_frames as f64),
            "ratio",
        ),
        metric(
            "disk.reads_per_op",
            ratio(d(a.disk.reads, b.disk.reads), all_ops),
            "count",
        ),
        metric("disk.writes", disk_writes, "count"),
        metric(
            "disk.dw_batches",
            d(a.disk.dw_batches, b.disk.dw_batches),
            "count",
        ),
        metric(
            "vacuum.runs",
            d(a.gc.vacuum_runs, b.gc.vacuum_runs),
            "count",
        ),
        metric(
            "vacuum.versions_reclaimed",
            d(a.gc.versions_reclaimed, b.gc.versions_reclaimed),
            "count",
        ),
        metric(
            "storage.bytes_written_per_commit",
            ratio(wal(|w| w.bytes_logged) + disk_writes * 8192.0, commits),
            "bytes",
        ),
        metric("client.self_us", per_op_us(root_self_ns), "us"),
        metric("trace.untraced_throughput_ops_s", untraced_tput, "ops/s"),
        metric("trace.traced_throughput_ops_s", traced_tput, "ops/s"),
        metric(
            "trace.overhead_share",
            1.0 - ratio(traced_tput, untraced_tput),
            "share",
        ),
        metric(
            "trace.spans",
            lo.clients.iter().map(|c| c.spans.len()).sum::<usize>() as f64,
            "count",
        ),
    ]
}

/// The machine-read last line of a run.
pub fn result_line(o: &Outcome, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        correct(o),
        attempted(o),
        failed(o)
    )
}

/// The human-readable report printed above the result line.
pub fn report_lines(o: &Outcome, opts: &Options, metrics: &[Metric]) -> Vec<String> {
    let mut lines = Vec::new();
    let kv = |facts: &[(&str, String)]| {
        facts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    lines.push(format!(
        "# xnfbench workload={} seed={} seconds={} trace={} clients={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        o.loop_out.clients.len()
    ));
    lines.push(format!("# env     {}", kv(&environment())));
    lines.push(format!(
        "# config  {}  buffer_frames={}  db_pages={}",
        kv(&o.config),
        o.buffer_frames,
        o.db_pages
    ));
    let lo = &o.loop_out;
    lines.push(format!(
        "# loop    ops={} measured_ops={} window_s={:.3} setups={} setup_s_min={:.6} \
         setup_s_max={:.6} checks_s={:.3} stream_exhausted={}",
        attempted(o),
        lo.measured_ops(),
        secs(lo.window),
        o.setup_secs.len(),
        o.setup_secs.iter().copied().fold(f64::INFINITY, f64::min),
        o.setup_secs.iter().copied().fold(0.0, f64::max),
        o.check_secs,
        lo.stream_exhausted
    ));
    let rates: Vec<String> = lo.slice_rates().iter().map(|r| format!("{r:.1}")).collect();
    lines.push(format!("# slices  ops/s {}", rates.join(" ")));

    if !opts.trace {
        lines.extend(class_lines(o));
    }
    for m in metrics {
        let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        lines.push(format!("{:<34} {:>14.4} {:<6}{n}", m.name, m.value, m.unit));
    }
    for s in o.violations.samples() {
        lines.push(format!("# FAILED  {s}"));
    }
    lines
}

/// Write every span of a traced run, one per line, to
/// `<trace_dir>/<workload>.spans.tsv`.
pub fn write_spans(o: &Outcome, opts: &Options) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&opts.trace_dir)?;
    let path = opts.trace_dir.join(format!("{}.spans.tsv", opts.workload));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "# workload={} seed={}", opts.workload, opts.seed)?;
    for (k, v) in environment().iter().chain(&o.config) {
        writeln!(out, "# {k}={v}")?;
    }
    writeln!(out, "# buffer_frames={}", o.buffer_frames)?;
    writeln!(out, "# db_pages={}", o.db_pages)?;
    writeln!(out, "client\top\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (c, client) in o.loop_out.clients.iter().enumerate() {
        for (i, s) in client.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{c}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()?;
    Ok(path)
}
