//! `svcbench`: Algorithm 1 queries served by the `dlra-runtime` `Service`,
//! measured end to end (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload cold_prepare --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `cold_prepare`, `warm_hit`, `socket_reload` (see
//! `workload.rs`). The last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A wrong output, a failed
//! sample query or an invalid run exits non-zero without it.

mod calib;
mod check;
mod heap;
mod host;
mod replay;
mod service_run;
mod stats;
mod trace;
mod workload;

use stats::percentile;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Kind, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// A run that starts with more TIME_WAIT sockets than this (half of the
/// 28,232-port ephemeral range) may be slowed by port reuse; it is invalid.
const TIME_WAIT_LIMIT: u64 = 14_116;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The service's defaults read these; a stray one would change what is
    // measured.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DLRA_"))
        .collect();
    if !set.is_empty() {
        eprintln!("svcbench: refusing to run with {} set", set.join(", "));
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("svcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

type Metric = replay::Metric;

fn run(args: &Args) -> Result<(), String> {
    let w = Workload::new(args.kind, args.seed);
    println!(
        "provenance {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"git_commit\":{},\"rustc\":{}}}",
        json_str(w.kind.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        json_str(&host::git_commit()),
        json_str(&host::rustc_version()),
    );
    let run = service_run::run(&w, args.seconds)?;
    steadiness(&run)?;
    let checked = check::check(&w, &run);
    if !checked.mismatches.is_empty() {
        for m in &checked.mismatches {
            eprintln!("mismatch: {m}");
        }
        return Err(format!(
            "{} of {} sampled outputs are wrong",
            checked.mismatches.len(),
            w.check_sample.len()
        ));
    }
    let e2e = end_to_end(&w, &run, &checked)?;
    let metrics = if args.trace {
        traced(&w, &run, &checked, args.seed)?
    } else {
        e2e
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let failed = run
        .records
        .iter()
        .filter(|r| r.status == service_run::Status::Failed)
        .count();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.records.len(),
        body.join(", ")
    );
    Ok(())
}

/// The validity guard: prints the host's TIME_WAIT table at the start and
/// end of the window, and refuses a run that started with one large
/// enough to slow the socket substrate's connections.
fn steadiness(run: &service_run::ServiceRun) -> Result<(), String> {
    println!(
        "steadiness time_wait_start={} time_wait_end={}",
        run.time_wait_start, run.time_wait_end
    );
    if run.time_wait_start > TIME_WAIT_LIMIT {
        return Err(format!(
            "invalid run: {} TIME_WAIT sockets at start (limit {TIME_WAIT_LIMIT})",
            run.time_wait_start
        ));
    }
    Ok(())
}

/// Computes and prints the end-to-end metrics of the untraced run.
fn end_to_end(
    w: &Workload,
    run: &service_run::ServiceRun,
    checked: &check::CheckResult,
) -> Result<Vec<Metric>, String> {
    let ok: Vec<&service_run::Record> = run
        .records
        .iter()
        .filter(|r| r.status != service_run::Status::Failed)
        .collect();
    let failed = run.records.len() - ok.len();
    if let Some(e) = &run.first_error {
        eprintln!("svcbench: {failed} queries failed, the first with: {e}");
    }
    let prefix_words: Vec<u64> = ok
        .iter()
        .filter(|r| (r.idx as usize) < w.prefix)
        .map(|r| u64::from(r.wire_words))
        .collect();
    if prefix_words.len() < w.prefix {
        return Err(format!(
            "only {} of the first {} queries completed; the run is too short",
            prefix_words.len(),
            w.prefix
        ));
    }
    let wire_words = prefix_words.iter().sum::<u64>() as f64 / w.prefix as f64;

    // Latencies at the reference host speed (see `calib.rs`).
    let factor = calib::speed_factor(&run.calib_ms);
    let measured: Vec<f64> = ok.iter().map(|r| f64::from(r.latency_ms)).collect();
    let scaled: Vec<f64> = measured.iter().map(|l| l * factor).collect();
    let pct = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    let e2e: Vec<Metric> = vec![
        ("setup_s".into(), run.setup_s, "s"),
        ("latency_p50_ms".into(), pct(&scaled, 0.5), "ms"),
        ("wire_words_per_query".into(), wire_words, "words"),
        (
            "comm_ratio".into(),
            wire_words / w.ship_everything_words() as f64,
            "ratio",
        ),
        ("peak_heap_mb".into(), pct(&run.heap_peaks_mb, 0.5), "MB"),
    ];
    println!(
        "end-to-end ({} queries, {} checked; latencies at the reference speed):",
        ok.len(),
        checked.checked
    );
    for (name, value, unit) in &e2e {
        println!("  {name:<22} {value:>14.6} {unit}");
    }
    // Printed, not gated: the tail and the throughput, which move with
    // contention bursts the calibration does not see; the measured
    // latencies; the error rate (the result line's failed / attempted);
    // the additive error (fixed by the seed and far apart between seeds,
    // so the traced run reports it); and the peak RSS.
    println!("  {:<22} {:>14.6} ms", "latency_p90_ms", pct(&scaled, 0.9));
    if scaled.len() >= 1000 {
        println!("  {:<22} {:>14.6} ms", "latency_p99_ms", pct(&scaled, 0.99));
    }
    // Closed loop: by Little's law, clients over the mean latency.
    let qps = w.clients as f64 * scaled.len() as f64 / (scaled.iter().sum::<f64>() / 1e3);
    println!("  {:<22} {:>14.6} queries/s", "throughput_qps", qps);
    let error_rate = failed as f64 / run.records.len().max(1) as f64;
    println!("  {:<22} {:>14.6} ratio", "error_rate", error_rate);
    println!(
        "  {:<22} {:>14.6} ratio",
        "additive_error", checked.additive_error
    );
    println!("  {:<22} {:>14.6} MB", "peak_rss_mb", run.peak_rss_mb);
    let deciles: Vec<String> = (1..=10)
        .map(|d| format!("{:.3}", pct(&measured, d as f64 / 10.0)))
        .collect();
    println!("  measured latency deciles (ms): {}", deciles.join(" "));
    println!(
        "  calibration kernel: median {:.3} ms over {} passes, reference {} ms, speed factor {factor:.4}; host steal {:.1}% over the window",
        pct(&run.calib_ms, 0.5),
        run.calib_ms.len(),
        calib::REFERENCE_MS,
        run.steal_pct,
    );
    Ok(e2e)
}

/// Replays the run traced, prints the per-layer metrics and writes the
/// span file.
fn traced(
    w: &Workload,
    run: &service_run::ServiceRun,
    checked: &check::CheckResult,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let mut rep = replay::replay(w, run);
    if !rep.mismatches.is_empty() {
        for m in &rep.mismatches {
            eprintln!("mismatch: {m}");
        }
        return Err("the traced replay disagrees with the served outputs".into());
    }
    rep.metrics.push((
        "core.additive_error".into(),
        checked.additive_error,
        "ratio",
    ));
    let (accounted, named) = replay::prepare_accounting(&rep.tracer.spans());
    let path =
        PathBuf::from(".svcbench_out").join(format!("spans-{}-seed{seed}.json", w.kind.name()));
    rep.tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "per-layer ({} replayed queries; spans in {}):",
        w.prefix,
        path.display()
    );
    println!(
        "  core.prepare wall accounted by span self times: {accounted:.4}; by sketch max + coordinator: {named:.4}"
    );
    for (name, value, unit) in &rep.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    Ok(rep.metrics)
}
