//! The traced run: the workload's fixed query prefix replayed one query at
//! a time through the public `dlra-core` / `dlra-sampler` / `dlra-comm` /
//! `dlra-net` functions, on the workload's substrate wrapped in the timing
//! [`Timed`] collectives. Per-layer figures come from the spans and from
//! exact ledger and wire counts; nothing is timed inside the crates.

use crate::check::{config, same_output};
use crate::service_run::{ServiceRun, Status};
use crate::stats::{covered, median, self_time};
use crate::trace::{Span, Timed, Tracer};
use crate::workload::{mix, Kind, QuerySpec, Workload, D};
use dlra_comm::Collectives;
use dlra_core::{
    build_b_matrix, fetch_global_rows, fkv_projection, prepare_z_plan, run_algorithm1_with_plan,
    Algorithm1Output, MatrixServer, PartitionModel, PreparedZPlan,
};
use dlra_linalg::Matrix;
use dlra_net::{SocketCluster, WireCounters};
use dlra_runtime::{Substrate, ThreadedCluster};
use dlra_sampler::{SketchBundle, ZSamplerParams};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub struct Replay {
    pub metrics: Vec<Metric>,
    pub mismatches: Vec<String>,
    pub tracer: Arc<Tracer>,
}

/// Ledger labels reported one by one.
const LABELS: [&str; 5] = [
    "zest.seed",
    "zest.sketch",
    "zest.lookup",
    "zsamp.inject",
    "alg1.fetch_rows",
];

#[derive(Default)]
struct Counts {
    words_by_label: BTreeMap<&'static str, u64>,
    words: u64,
    messages: u64,
    root_inbox_words: u64,
    prepares: u64,
}

type PlanKey = (usize, usize, String, u64);

/// The replay's plan cache key: what the service's key varies with here.
fn plan_key(q: &QuerySpec, version: usize) -> PlanKey {
    (q.tenant, version, format!("{:?}", q.f), q.seed)
}

struct Ctx {
    tracer: Arc<Tracer>,
    counters: Arc<WireCounters>,
    params: ZSamplerParams,
    plans: BTreeMap<PlanKey, PreparedZPlan>,
    counts: Counts,
}

/// What one replayed query produced.
struct Replayed {
    output: Algorithm1Output,
    plan: PreparedZPlan,
    span: usize,
    core_ms: f64,
}

impl Ctx {
    /// Boots the substrate, prepares on a plan miss, executes, and tears
    /// the substrate down, all inside one `query` span.
    fn query<C: Collectives<MatrixServer> + 'static>(
        &mut self,
        q: &QuerySpec,
        (version, locals): (usize, Vec<Matrix>),
        boot: impl FnOnce(Vec<MatrixServer>) -> C,
    ) -> Result<Replayed, String> {
        let tracer = Arc::clone(&self.tracer);
        tracer.set_query(q.idx as u64);
        let qspan = tracer.open("query");
        let t0 = Instant::now();
        let mut model = tracer
            .scope("runtime.substrate_boot", || {
                PartitionModel::with_substrate(locals, q.f, |servers| {
                    Timed::new(boot(servers), Arc::clone(&tracer))
                })
            })
            .map_err(|e| format!("boot failed: {e}"))?;
        model.cluster().ledger().set_record_events(true);
        let key = plan_key(q, version);
        let plan = match self.plans.get(&key) {
            Some(plan) => plan.clone(),
            None => {
                let plan = tracer
                    .scope("core.prepare", || {
                        prepare_z_plan(&mut model, &self.params, q.seed)
                    })
                    .map_err(|e| format!("prepare failed: {e}"))?;
                self.counts.prepares += 1;
                self.plans.insert(key, plan.clone());
                plan
            }
        };
        let mut output = tracer
            .scope("core.execute", || {
                run_algorithm1_with_plan(&mut model, &config(q), &plan)
            })
            .map_err(|e| format!("execute failed: {e}"))?;
        // Per-query accounting as the service reports it: the plan's
        // preparation folded in, hit or miss.
        output.comm = plan.prepare_comm + output.comm;
        let core_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ledger = model.cluster().ledger();
        for (label, words, _) in ledger.by_label() {
            *self.counts.words_by_label.entry(label).or_default() += words;
        }
        let snap = model.cluster().comm();
        self.counts.words += snap.total_words();
        self.counts.messages += snap.messages;
        self.counts.root_inbox_words += snap.root_inbox_words;
        drop(model);
        tracer.close(qspan);
        Ok(Replayed {
            output,
            plan,
            span: qspan,
            core_ms,
        })
    }
}

/// Re-runs the query's FKV step (`build_b_matrix` + `fkv_projection`) on
/// the same `B` and checks it reproduces the query's projection. The rows
/// are re-fetched untimed on a sequential model, which sums server parts
/// in the same canonical order as every substrate.
fn fkv_step(
    q: &QuerySpec,
    locals: Vec<Matrix>,
    r: &Replayed,
    tracer: &Tracer,
) -> Result<(), String> {
    let mut seq = PartitionModel::new(locals, q.f).map_err(|e| e.to_string())?;
    let zfn = q.f.z_fn().ok_or("f has no z")?;
    let z_hat = r.plan.sampler().z_hat();
    let rows: Vec<_> = fetch_global_rows(&mut seq, &r.output.rows)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|g| {
            let zmass: f64 = g.raw.iter().map(|&x| zfn.z(x)).sum();
            g.into_sampled((zmass / z_hat).min(1.0))
        })
        .collect();
    let start = tracer.now();
    let b = build_b_matrix(&rows).map_err(|e| e.to_string())?;
    let (p, _) = fkv_projection(&b, q.k).map_err(|e| e.to_string())?;
    tracer.record("core.fkv".to_string(), start, tracer.now(), r.span);
    let same = p.basis().shape() == r.output.projection.basis().shape()
        && p.basis()
            .as_slice()
            .iter()
            .zip(r.output.projection.basis().as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("query {}: re-run FKV step differs", q.idx))
    }
}

pub fn replay(w: &Workload, run: &ServiceRun) -> Replay {
    let tracer = Tracer::new();
    let mut ctx = Ctx {
        tracer: Arc::clone(&tracer),
        counters: WireCounters::shared(),
        params: ZSamplerParams::default(),
        plans: BTreeMap::new(),
        counts: Counts::default(),
    };
    let mut mismatches = Vec::new();
    // Each tenant's current data version and its locals.
    let mut data: Vec<(usize, Vec<Matrix>)> =
        (0..w.tenants.len()).map(|t| (0, w.locals(t, 0))).collect();
    let mut query_ms = Vec::new();
    let mut core_ms = Vec::new();
    let topology = w.topology;
    if w.kind == Kind::WarmHit {
        // The service primed its one plan before the timed window; so does
        // the replay, untraced. Plans are bit-identical across substrates.
        let q = w.query(0);
        let mut seq = PartitionModel::new(data[0].1.clone(), q.f).expect("generated data is valid");
        let plan = prepare_z_plan(&mut seq, &ctx.params, q.seed).expect("priming prepare");
        ctx.plans.insert(plan_key(&q, 0), plan);
    }
    let wire0 = ctx.counters.snapshot();
    for i in 0..w.prefix {
        let q = w.query(i);
        let version = w.version_at(q.tenant, i);
        if data[q.tenant].0 != version {
            data[q.tenant] = (version, w.locals(q.tenant, version));
        }
        let v = data[q.tenant].clone();
        let counters = Arc::clone(&ctx.counters);
        let res = match w.substrate {
            Substrate::Socket => ctx.query(&q, v, move |servers| {
                SocketCluster::with_options(servers, topology, counters)
            }),
            _ => ctx.query(&q, v, move |servers| {
                ThreadedCluster::with_topology(servers, topology)
            }),
        };
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                // Fatal: the run reports no metrics, so stop here.
                mismatches.push(format!("replayed query {i}: {e}"));
                break;
            }
        };
        core_ms.push(r.core_ms);
        if let Some(Ok(served)) = run.sampled.get(&i) {
            if !same_output(served, &r.output) {
                mismatches.push(format!("replayed query {i} differs from the served one"));
            }
        }
        if let Err(e) = fkv_step(&q, data[q.tenant].1.clone(), &r, &tracer) {
            mismatches.push(e);
        }
    }
    let wire = ctx.counters.snapshot().since(&wire0);
    let spans = tracer.spans();
    for s in spans.iter().filter(|s| s.name == "query") {
        query_ms.push((s.end - s.start) as f64 / 1e6);
    }
    let nq = w.prefix.max(1) as f64;
    let counts = &ctx.counts;
    let mut m: Vec<Metric> = Vec::new();
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.into(), value + 0.0, unit));

    // runtime
    let served: Vec<_> = run
        .records
        .iter()
        .filter(|r| (r.idx as usize) < w.prefix)
        .collect();
    let hits = served.iter().filter(|r| r.status == Status::Hit).count();
    let served_prepares = served.len() - hits;
    if served_prepares as u64 != counts.prepares {
        eprintln!(
            "note: the service prepared {served_prepares} plans over the prefix, the replay {}",
            counts.prepares
        );
    }
    let served_ms: Vec<f64> = served.iter().map(|r| f64::from(r.latency_ms)).collect();
    put(
        "runtime.substrate_boot_ms",
        sum_ms(&spans, "runtime.substrate_boot") / nq,
        "ms",
    );
    put(
        "runtime.dispatch_ms",
        median(&served_ms).unwrap_or(0.0) - median(&core_ms).unwrap_or(0.0),
        "ms",
    );
    put(
        "runtime.plan_hit_ratio",
        hits as f64 / served.len().max(1) as f64,
        "ratio",
    );
    put("runtime.prepares", served_prepares as f64, "count");

    // core
    put("core.prepare_ms", sum_ms(&spans, "core.prepare") / nq, "ms");
    put("core.execute_ms", sum_ms(&spans, "core.execute") / nq, "ms");
    put("core.fkv_ms", sum_ms(&spans, "core.fkv") / nq, "ms");

    // sampler
    let sketch = collective_times(&spans, "comm.zest.sketch");
    put("sampler.sketch_server_max_ms", sketch.server_max / nq, "ms");
    put("sampler.sketch_server_sum_ms", sketch.server_sum / nq, "ms");
    put(
        "sampler.coordinator_ms",
        self_ms(&spans, "core.prepare") / nq,
        "ms",
    );
    put(
        "sampler.lookup_ms",
        sum_ms(&spans, "comm.zest.lookup") / nq,
        "ms",
    );

    // sketch
    for (name, value, unit) in sketch_layer(w) {
        put(&name, value, unit);
    }

    // comm
    for label in LABELS {
        let words = counts.words_by_label.get(label).copied().unwrap_or(0);
        put(&format!("comm.words.{label}"), words as f64 / nq, "words");
    }
    put("comm.messages", counts.messages as f64 / nq, "count");
    put(
        "comm.root_inbox_words",
        counts.root_inbox_words as f64 / nq,
        "words",
    );
    put("comm.wait_ms.zest.sketch", sketch.wait / nq, "ms");
    let fetch = collective_times(&spans, "comm.alg1.fetch_rows");
    put("comm.wait_ms.alg1.fetch_rows", fetch.wait / nq, "ms");

    // net
    let bytes = wire.total_bytes();
    put("net.bytes_per_query", bytes as f64 / nq, "bytes");
    put(
        "net.frames_per_query",
        (wire.data_frames + wire.control_frames) as f64 / nq,
        "count",
    );
    put(
        "net.bytes_per_word",
        bytes as f64 / counts.words.max(1) as f64,
        "bytes/word",
    );
    put(
        "net.time_wait_per_query",
        run.time_wait_end.saturating_sub(run.time_wait_start) as f64
            / run.records.len().max(1) as f64,
        "count",
    );

    // process and tracing overhead
    put("process.cpu_util", run.cpu_util, "ratio");
    put("process.peak_rss_mb", run.peak_rss_mb, "MB");
    put(
        "host.calibration_ms",
        median(&run.calib_ms).unwrap_or(0.0),
        "ms",
    );
    put("trace.query_p50_ms", median(&query_ms).unwrap_or(0.0), "ms");
    Replay {
        metrics: m,
        mismatches,
        tracer,
    }
}

fn children(spans: &[Span], parent: usize) -> impl Iterator<Item = &Span> {
    spans.iter().filter(move |s| s.parent == Some(parent))
}

fn dur_ms(s: &Span) -> f64 {
    (s.end - s.start) as f64 / 1e6
}

/// Total duration of every span named `name`, in ms.
fn sum_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(dur_ms).sum()
}

/// Total self time of every span named `name`, in ms.
fn self_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let kids: Vec<(u64, u64)> = children(spans, s.id).map(|c| (c.start, c.end)).collect();
            self_time(s.start, s.end, &kids) as f64 / 1e6
        })
        .sum()
}

#[derive(Default)]
struct CollectiveTimes {
    /// Σ over collectives of the slowest server closure.
    server_max: f64,
    /// Σ over collectives of all server closures.
    server_sum: f64,
    /// Σ over collectives of wall minus the slowest closure: transport and
    /// scheduling.
    wait: f64,
}

fn collective_times(spans: &[Span], name: &str) -> CollectiveTimes {
    let mut out = CollectiveTimes::default();
    for s in spans.iter().filter(|s| s.name == name) {
        let kids: Vec<f64> = children(spans, s.id).map(dur_ms).collect();
        let max = kids.iter().copied().fold(0.0, f64::max);
        out.server_max += max;
        out.server_sum += kids.iter().sum::<f64>();
        out.wait += (dur_ms(s) - max).max(0.0);
    }
    out
}

/// How the spans under `core.prepare` account for its wall time, as two
/// shares of it: the self times of the subtree (with each collective's
/// parallel server closures counted once, as their union), which is 1 when
/// the spans nest properly; and the coordinator's own work plus the
/// slowest sketch closure of each `zest.sketch` collective.
pub fn prepare_accounting(spans: &[Span]) -> (f64, f64) {
    let intervals =
        |id: usize| -> Vec<(u64, u64)> { children(spans, id).map(|c| (c.start, c.end)).collect() };
    let (mut wall, mut accounted, mut named) = (0u64, 0u64, 0u64);
    for p in spans.iter().filter(|s| s.name == "core.prepare") {
        wall += p.end - p.start;
        let coordinator = self_time(p.start, p.end, &intervals(p.id));
        accounted += coordinator;
        named += coordinator;
        for c in children(spans, p.id) {
            let servers = intervals(c.id);
            accounted += self_time(c.start, c.end, &servers) + covered(c.start, c.end, &servers);
            if c.name == "comm.zest.sketch" {
                named += servers.iter().map(|&(a, b)| b - a).max().unwrap_or(0);
            }
        }
    }
    let wall = wall.max(1) as f64;
    (accounted as f64 / wall, named as f64 / wall)
}

/// Direct calls into `SketchBundle` on the workload's own server vectors
/// and the default sampler parameters.
fn sketch_layer(w: &Workload) -> Vec<Metric> {
    let params = ZSamplerParams::default();
    let seed = mix(w.seed, 7);
    let dim = (w.n * D) as u64;
    let locals = w.locals(0, 0);
    let entries: usize = locals
        .iter()
        .map(|m| m.as_slice().iter().filter(|&&x| x != 0.0).count())
        .sum();
    let servers: Vec<MatrixServer> = locals.into_iter().map(MatrixServer::new).collect();
    let t0 = Instant::now();
    let bundles: Vec<SketchBundle> = servers
        .iter()
        .map(|s| {
            let mut b = SketchBundle::new(&params, seed, dim);
            b.absorb(s);
            b
        })
        .collect();
    let absorb_ns = t0.elapsed().as_nanos() as f64;
    let mut merged = bundles[0].clone();
    let t1 = Instant::now();
    for b in &bundles[1..] {
        merged.merge(black_box(b));
    }
    let merge_ms = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    black_box(merged.recover(dim));
    let recover_us = t2.elapsed().as_secs_f64() * 1e6;
    vec![
        (
            "sketch.absorb_ns_per_entry".into(),
            absorb_ns / entries.max(1) as f64,
            "ns",
        ),
        ("sketch.merge_ms".into(), merge_ms, "ms"),
        (
            "sketch.recover_us_per_coord".into(),
            recover_us / dim as f64,
            "us",
        ),
    ]
}
