//! In-memory spans and the timing [`Collectives`] wrapper.
//!
//! The wrapper forwards every collective to the substrate it wraps with
//! the same label, payload and merge, so the ledger transcript and the
//! outputs are unchanged; it only adds a `comm.<label>` span around the
//! collective and a `server.<label>[t]` span around each per-server
//! closure. Spans stay in memory and are written out when the run ends.

use dlra_comm::{Collectives, Ledger, LedgerSnapshot, Topology, Wire};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub qid: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans of the coordinator thread, innermost last.
    stack: Vec<usize>,
    qid: u64,
}

/// Collects spans from the coordinator thread (nested through a stack)
/// and from server threads (parented explicitly to their collective).
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sets the query id stamped on spans opened from now on.
    pub fn set_query(&self, qid: u64) {
        self.state().qid = qid;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&self, name: impl Into<String>) -> usize {
        let start = self.now();
        let mut st = self.state();
        let id = st.spans.len();
        let parent = st.stack.last().copied();
        let qid = st.qid;
        st.spans.push(Span {
            id,
            name: name.into(),
            start,
            end: start,
            parent,
            qid,
        });
        st.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&self, id: usize) {
        let end = self.now();
        let mut st = self.state();
        assert_eq!(st.stack.pop(), Some(id), "spans must close innermost first");
        st.spans[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records a finished span under an explicit parent (server threads).
    pub fn record(&self, name: String, start: u64, end: u64, parent: usize) {
        let mut st = self.state();
        let id = st.spans.len();
        let qid = st.spans[parent].qid;
        st.spans.push(Span {
            id,
            name,
            start,
            end,
            parent: Some(parent),
            qid,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"qid\":{}}}{sep}",
                s.id, s.name, s.start, s.end, parent, s.qid
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// A [`Collectives`] substrate whose collectives are timed.
pub struct Timed<C> {
    inner: C,
    tracer: Arc<Tracer>,
}

impl<C> Timed<C> {
    pub fn new(inner: C, tracer: Arc<Tracer>) -> Self {
        Timed { inner, tracer }
    }

    /// Wraps a per-server closure so each call records a server span.
    fn server<L, R>(
        &self,
        label: &'static str,
        parent: usize,
        f: impl Fn(usize, &mut L) -> R + Send + Sync + 'static,
    ) -> impl Fn(usize, &mut L) -> R + Send + Sync + 'static {
        let tracer = Arc::clone(&self.tracer);
        move |t, l| {
            let start = tracer.now();
            let out = f(t, l);
            tracer.record(format!("server.{label}[{t}]"), start, tracer.now(), parent);
            out
        }
    }

    /// [`Timed::server`] for closures that also receive the request.
    fn server_req<L, Q, R>(
        &self,
        label: &'static str,
        parent: usize,
        f: impl Fn(usize, &mut L, &Q) -> R + Send + Sync + 'static,
    ) -> impl Fn(usize, &mut L, &Q) -> R + Send + Sync + 'static {
        let tracer = Arc::clone(&self.tracer);
        move |t, l, q| {
            let start = tracer.now();
            let out = f(t, l, q);
            tracer.record(format!("server.{label}[{t}]"), start, tracer.now(), parent);
            out
        }
    }
}

impl<L: 'static, C: Collectives<L> + 'static> Collectives<L> for Timed<C> {
    fn num_servers(&self) -> usize {
        self.inner.num_servers()
    }

    fn ledger(&self) -> &Ledger {
        self.inner.ledger()
    }

    fn comm(&self) -> LedgerSnapshot {
        self.inner.comm()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    fn with_local<R>(&self, t: usize, f: impl FnOnce(&L) -> R) -> R {
        self.inner.with_local(t, f)
    }

    fn with_local_mut<R>(&mut self, t: usize, f: impl FnOnce(&mut L) -> R) -> R {
        self.inner.with_local_mut(t, f)
    }

    fn broadcast<T, F>(&mut self, msg: &T, label: &'static str, on_receive: F)
    where
        T: Wire + Clone + Send + 'static,
        F: Fn(usize, &mut L, &T) + Send + Sync + 'static,
    {
        let span = self.tracer.open(format!("comm.{label}"));
        let f = self.server_req(label, span, on_receive);
        self.inner.broadcast(msg, label, f);
        self.tracer.close(span);
    }

    fn gather<T, F>(&mut self, label: &'static str, compute: F) -> Vec<T>
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
    {
        let span = self.tracer.open(format!("comm.{label}"));
        let f = self.server(label, span, compute);
        let out = self.inner.gather(label, f);
        self.tracer.close(span);
        out
    }

    fn aggregate<T, F, M>(&mut self, label: &'static str, compute: F, merge: M) -> T
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
        M: FnMut(&mut T, T),
    {
        let span = self.tracer.open(format!("comm.{label}"));
        let f = self.server(label, span, compute);
        let out = self.inner.aggregate(label, f, merge);
        self.tracer.close(span);
        out
    }

    fn aggregate_topo<T, F, M>(&mut self, label: &'static str, compute: F, merge: M) -> T
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
        M: Fn(&mut T, T) + Send + Sync + 'static,
    {
        let span = self.tracer.open(format!("comm.{label}"));
        let f = self.server(label, span, compute);
        let out = self.inner.aggregate_topo(label, f, merge);
        self.tracer.close(span);
        out
    }

    fn query_aggregate<Q, T, F, M>(
        &mut self,
        request: &Q,
        label: &'static str,
        compute: F,
        merge: M,
    ) -> T
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
        M: Fn(&mut T, T) + Send + Sync + 'static,
    {
        let span = self.tracer.open(format!("comm.{label}"));
        let f = self.server_req(label, span, compute);
        let out = self.inner.query_aggregate(request, label, f, merge);
        self.tracer.close(span);
        out
    }

    fn query_server<Q, T, F>(&mut self, t: usize, request: &Q, label: &'static str, compute: F) -> T
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: FnOnce(&mut L, &Q) -> T + Send + 'static,
    {
        let span = self.tracer.open(format!("comm.{label}"));
        let tracer = Arc::clone(&self.tracer);
        let out = self.inner.query_server(t, request, label, move |l, q| {
            let start = tracer.now();
            let out = compute(l, q);
            tracer.record(format!("server.{label}[{t}]"), start, tracer.now(), span);
            out
        });
        self.tracer.close(span);
        out
    }

    fn query_all<Q, T, F>(&mut self, request: &Q, label: &'static str, compute: F) -> Vec<T>
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
    {
        let span = self.tracer.open(format!("comm.{label}"));
        let f = self.server_req(label, span, compute);
        let out = self.inner.query_all(request, label, f);
        self.tracer.close(span);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra_core::{run_algorithm1, Algorithm1Config, Algorithm1Output, EntryFunction};
    use dlra_core::{MatrixServer, PartitionModel};
    use dlra_linalg::Matrix;
    use dlra_net::SocketCluster;
    use dlra_runtime::ThreadedCluster;

    fn locals() -> Vec<Matrix> {
        let mut rng = dlra_util::Rng::new(17);
        let a = dlra_data::noisy_low_rank(256, 12, 3, 0.1, &mut rng);
        dlra_data::split_with_noise_shares(&a, 4, 0.4, &mut rng)
    }

    fn one_query<C: Collectives<MatrixServer>>(model: &mut PartitionModel<C>) -> Algorithm1Output {
        let cfg = Algorithm1Config {
            k: 3,
            r: 30,
            seed: 7,
            ..Algorithm1Config::default()
        };
        run_algorithm1(model, &cfg).expect("query runs")
    }

    fn assert_identical(a: &Algorithm1Output, b: &Algorithm1Output) {
        let (pa, pb) = (a.projection.basis(), b.projection.basis());
        assert_eq!(pa.shape(), pb.shape());
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.comm, b.comm);
    }

    /// Spans nest as the replay reads them: every server span sits under a
    /// collective span, and the sketch collective has one per server.
    fn assert_spans(tracer: &Tracer, s: usize) {
        let spans = tracer.spans();
        let sketch: Vec<&Span> = spans
            .iter()
            .filter(|x| x.name == "comm.zest.sketch")
            .collect();
        assert!(!sketch.is_empty());
        for c in sketch {
            let servers = spans.iter().filter(|x| x.parent == Some(c.id)).count();
            assert_eq!(servers, s);
        }
        for x in spans.iter().filter(|x| x.name.starts_with("server.")) {
            let parent = &spans[x.parent.expect("server spans have a parent")];
            assert!(parent.name.starts_with("comm."));
        }
    }

    #[test]
    fn wrapper_is_non_perturbing_on_threaded() {
        let topology = Topology::Star;
        let mut plain = PartitionModel::with_substrate(locals(), EntryFunction::Identity, |l| {
            ThreadedCluster::with_topology(l, topology)
        })
        .expect("model");
        let tracer = Tracer::new();
        let mut timed = PartitionModel::with_substrate(locals(), EntryFunction::Identity, |l| {
            Timed::new(
                ThreadedCluster::with_topology(l, topology),
                Arc::clone(&tracer),
            )
        })
        .expect("model");
        assert_identical(&one_query(&mut plain), &one_query(&mut timed));
        assert_spans(&tracer, 4);
    }

    #[test]
    fn wrapper_is_non_perturbing_on_socket() {
        let topology = Topology::Tree { fanout: 2 };
        let mut plain = PartitionModel::with_substrate(locals(), EntryFunction::Identity, |l| {
            SocketCluster::with_topology(l, topology)
        })
        .expect("model");
        let tracer = Tracer::new();
        let mut timed = PartitionModel::with_substrate(locals(), EntryFunction::Identity, |l| {
            Timed::new(
                SocketCluster::with_topology(l, topology),
                Arc::clone(&tracer),
            )
        })
        .expect("model");
        assert_identical(&one_query(&mut plain), &one_query(&mut timed));
        assert_spans(&tracer, 4);
    }

    #[test]
    fn spans_nest_through_the_stack() {
        let tracer = Tracer::new();
        tracer.set_query(5);
        let outer = tracer.open("query");
        let inner = tracer.open("core.prepare");
        tracer.record("server.x[1]".into(), 1, 2, inner);
        tracer.close(inner);
        tracer.close(outer);
        let spans = tracer.spans();
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(inner));
        assert!(spans.iter().all(|s| s.qid == 5 && s.start <= s.end));
    }
}
