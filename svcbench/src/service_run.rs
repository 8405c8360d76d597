//! The untraced run: the workload's queries offered to a `Service` built
//! field by field, with nothing of the benchmark's own inside the timed
//! path but the submit, the wait, two clock reads and the heap counter's
//! two relaxed atomic updates on each allocation (`heap.rs`).

use crate::workload::{Kind, QuerySpec, Workload};
use crate::{calib, heap, host};
use dlra_core::Algorithm1Output;
use dlra_runtime::{DatasetHandle, Query, QueryOutcome, Service, ServiceConfig, ServiceError};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Service set-ups are timed in batches of `SETUP_REPS`, `SETUP_GAP` apart,
/// half of the `SETUP_BATCHES` before the timed window and half after it.
/// One set-up takes tens of microseconds, and a batch's median moves
/// threefold with the host's contention from one moment to the next, so
/// the reading samples many moments; the median of all is reported.
const SETUP_BATCHES: usize = 8;
const SETUP_REPS: usize = 50;
const SETUP_GAP: Duration = Duration::from_millis(250);
/// A client times the calibration kernel after a query only when this long
/// has passed since its last pass: after every preparing query, but not
/// after every ~1 ms plan hit, where the kernel would fill the window.
const CALIB_EVERY: Duration = Duration::from_millis(100);

/// How a query resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Status {
    #[default]
    Failed,
    /// Served from a plan this query prepared.
    Prepared,
    /// Served from a cached plan.
    Hit,
    /// Served without a plan.
    Unplanned,
}

/// One finished query of the timed window, kept small.
#[derive(Debug, Clone, Copy, Default)]
pub struct Record {
    pub idx: u32,
    /// From submit to the result.
    pub latency_ms: f32,
    /// Words this query physically charged: a plan hit does not re-pay the
    /// preparation that `output.comm` folds in.
    pub wire_words: u32,
    pub status: Status,
}

/// A check-sample query's output, kept whole.
pub type Sampled = Result<Algorithm1Output, String>;

pub struct ServiceRun {
    pub setup_s: f64,
    /// Sorted by query index.
    pub records: Vec<Record>,
    pub sampled: BTreeMap<usize, Sampled>,
    /// The first error message, when any query failed.
    pub first_error: Option<String>,
    /// Times of the calibration kernel (see `calib.rs`), in ms.
    pub calib_ms: Vec<f64>,
    pub cpu_util: f64,
    /// Share of host CPU time stolen by the hypervisor during the window.
    pub steal_pct: f64,
    pub peak_rss_mb: f64,
    /// The most heap bytes live at once while a query ran, one reading
    /// per query.
    pub heap_peaks_mb: Vec<f64>,
    pub time_wait_start: u64,
    pub time_wait_end: u64,
}

/// The service configuration, every field written out: `Default` would
/// read `DLRA_*` environment overrides. The values are the defaults'.
fn config(w: &Workload) -> ServiceConfig {
    ServiceConfig {
        executors: host::nproc().clamp(1, 8),
        substrate: w.substrate,
        plan_cache: 16,
        metrics: true,
        topology: w.topology,
        max_queue_depth: None,
        memory_budget: None,
    }
}

pub fn build_query(q: &QuerySpec) -> Query {
    Query::rank(q.k)
        .samples(q.r)
        .function(q.f)
        .seed(q.seed)
        .build()
        .expect("generated queries are valid")
}

/// What one client gathers. Its vectors grow between queries, never
/// inside one, and stay small (32 bytes a query), so they hardly move the
/// heap peaks.
#[derive(Default)]
struct Collected {
    records: Vec<Record>,
    calib_ms: Vec<f64>,
    heap_peaks_mb: Vec<f64>,
    sampled: BTreeMap<usize, Sampled>,
    first_error: Option<String>,
}

/// When one query was started and answered.
struct Times {
    start: Instant,
    done: Instant,
}

impl Collected {
    fn push(
        &mut self,
        w: &Workload,
        idx: usize,
        t: Times,
        res: Result<QueryOutcome, ServiceError>,
    ) {
        let (wire_words, status) = match &res {
            Ok(outcome) => {
                let total = outcome.output.comm.total_words();
                match outcome.plan {
                    Some(p) if p.cache_hit => (total - p.prepare_comm.total_words(), Status::Hit),
                    Some(_) => (total, Status::Prepared),
                    None => (total, Status::Unplanned),
                }
            }
            Err(e) => {
                self.first_error.get_or_insert_with(|| e.to_string());
                (0, Status::Failed)
            }
        };
        self.records.push(Record {
            idx: idx as u32,
            latency_ms: (t.done.duration_since(t.start).as_secs_f64() * 1e3) as f32,
            wire_words: u32::try_from(wire_words).unwrap_or(u32::MAX),
            status,
        });
        if w.check_sample.contains(&idx) {
            let output = res.map(|o| o.output).map_err(|e| e.to_string());
            self.sampled.insert(idx, output);
        }
    }

    fn absorb(&mut self, other: Collected) {
        self.records.extend(other.records);
        self.calib_ms.extend(other.calib_ms);
        self.heap_peaks_mb.extend(other.heap_peaks_mb);
        self.sampled.extend(other.sampled);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Starts the service and loads every tenant's first data version, in
/// `batches` batches of `SETUP_REPS`, pushing each time to `times`; keeps
/// the last service.
fn set_up(
    w: &Workload,
    batches: usize,
    times: &mut Vec<f64>,
) -> Result<(Service, Vec<DatasetHandle>), String> {
    let first: Vec<_> = (0..w.tenants.len()).map(|t| w.locals(t, 0)).collect();
    let mut last = None;
    for rep in 0..batches * SETUP_REPS {
        if rep > 0 && rep % SETUP_REPS == 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let locals = first.clone();
        let t0 = Instant::now();
        let svc = Service::new(config(w));
        let handles = w
            .tenants
            .iter()
            .zip(locals)
            .map(|(t, l)| svc.load(t.name, l))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("load failed: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some((svc, handles));
    }
    last.ok_or_else(|| "no set-up ran".into())
}

pub fn run(w: &Workload, seconds: u64) -> Result<ServiceRun, String> {
    let mut setup_times = Vec::with_capacity(SETUP_BATCHES * SETUP_REPS);
    let (svc, handles) = set_up(w, SETUP_BATCHES / 2, &mut setup_times)?;
    if w.kind == Kind::WarmHit {
        // Prime the one shared plan before the timed window.
        handles[0]
            .submit(&build_query(&w.query(0)))
            .wait()
            .map_err(|e| format!("priming query failed: {e}"))?;
    }
    let tw0 = host::time_wait_sockets();
    let cpu0 = host::cpu_seconds();
    let steal0 = host::steal_ticks();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs(seconds);
    let parts = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..w.clients)
            .map(|c| {
                let (svc, handles) = (&svc, &handles);
                sc.spawn(move || client(w, (svc, handles), c, end))
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_util = (host::cpu_seconds() - cpu0) / wall_s / host::nproc() as f64;
    let peak_rss_mb = host::peak_rss_mb();
    let steal_pct = host::stolen_pct(steal0, host::steal_ticks());
    let time_wait_end = host::time_wait_sockets();
    drop(handles);
    drop(svc);
    set_up(w, SETUP_BATCHES - SETUP_BATCHES / 2, &mut setup_times)?;
    let mut parts = parts.into_iter();
    let mut all = parts.next().expect("at least one client");
    parts.for_each(|p| all.absorb(p));
    all.records.sort_by_key(|r| r.idx);
    Ok(ServiceRun {
        setup_s: crate::stats::median(&setup_times).unwrap_or(0.0),
        records: all.records,
        sampled: all.sampled,
        first_error: all.first_error,
        calib_ms: all.calib_ms,
        cpu_util,
        steal_pct,
        peak_rss_mb,
        heap_peaks_mb: all.heap_peaks_mb,
        time_wait_start: tw0,
        time_wait_end,
    })
}

/// One closed-loop client: submit, wait, time the calibration kernel (see
/// [`CALIB_EVERY`]), repeat until the window ends. Client `c` of the workload's clients
/// runs query indices `c, c + clients, …`. A workload with reloads has one
/// client, which reloads its tenant before the query that calls for it,
/// so no query is in flight during a reload and the data version of every
/// query is fixed by its index. Each reload's data is generated from the
/// seed right before it, outside the timed submit.
fn client(
    w: &Workload,
    (svc, handles): (&Service, &[DatasetHandle]),
    c: usize,
    end: Instant,
) -> Collected {
    let mut out = Collected::default();
    let mut cal = calib::Calibrator::new();
    let mut last_pass: Option<Instant> = None;
    let mut i = c;
    while Instant::now() < end {
        if let Some(t) = w.reload_before(i) {
            let locals = w.locals(t, w.version_at(t, i));
            svc.reload(w.tenants[t].name, locals)
                .expect("reload a resident tenant");
        }
        let q = w.query(i);
        let query = build_query(&q);
        heap::take_peak_mb();
        let start = Instant::now();
        let res = handles[q.tenant].submit(&query).wait();
        let done = Instant::now();
        out.heap_peaks_mb.push(heap::take_peak_mb());
        out.push(w, i, Times { start, done }, res);
        if last_pass.is_none_or(|t| t.elapsed() >= CALIB_EVERY) {
            out.calib_ms.push(cal.pass_ms());
            last_pass = Some(Instant::now());
        }
        i += w.clients;
    }
    out
}
