//! The output check: a fixed sample of each run's outputs against
//! `run_algorithm1` on a sequential `PartitionModel::new`, bit for bit, on
//! the data version the query's index fixes.

use crate::service_run::ServiceRun;
use crate::workload::{QuerySpec, Workload};
use dlra_core::{
    evaluate_projection, run_algorithm1, Algorithm1Config, Algorithm1Output, EntryFunction,
    PartitionModel, SamplerKind,
};
use dlra_linalg::Matrix;
use dlra_sampler::ZSamplerParams;
use std::collections::BTreeMap;

pub struct CheckResult {
    pub checked: usize,
    pub mismatches: Vec<String>,
    /// Mean additive error `(‖A−AP‖² − ‖A−[A]_k‖²)/‖A‖²_F` over the sample.
    pub additive_error: f64,
}

/// The query's Algorithm 1 configuration (no boosting, default Z-sampler).
pub fn config(q: &QuerySpec) -> Algorithm1Config {
    Algorithm1Config {
        k: q.k,
        r: q.r,
        boost: 1,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: q.seed,
    }
}

/// Bit-level equality of the checked fields: the projection basis, the
/// sampled rows and the ledger total.
pub fn same_output(a: &Algorithm1Output, b: &Algorithm1Output) -> bool {
    let (pa, pb) = (a.projection.basis(), b.projection.basis());
    pa.shape() == pb.shape()
        && pa
            .as_slice()
            .iter()
            .zip(pb.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.rows == b.rows
        && a.comm.total_words() == b.comm.total_words()
}

/// A memo key for an entry function (its fields are floats).
fn f_key(f: &EntryFunction) -> String {
    format!("{f:?}")
}

pub fn check(w: &Workload, run: &ServiceRun) -> CheckResult {
    let mut globals: BTreeMap<(usize, usize, String), Matrix> = BTreeMap::new();
    let mut mismatches = Vec::new();
    let mut errors = Vec::new();
    for &idx in &w.check_sample {
        let Some(served) = run.sampled.get(&idx) else {
            mismatches.push(format!("query {idx} did not complete in the timed window"));
            continue;
        };
        let out = match served {
            Ok(out) => out,
            Err(e) => {
                mismatches.push(format!("query {idx} failed: {e}"));
                continue;
            }
        };
        let q = w.query(idx);
        let v = w.version_at(q.tenant, idx);
        let mut model =
            PartitionModel::new(w.locals(q.tenant, v), q.f).expect("generated data is valid");
        let reference = run_algorithm1(&mut model, &config(&q)).expect("reference run");
        if !same_output(out, &reference) {
            mismatches.push(format!(
                "query {idx} ({} version {v} f={:?} k={} r={}) differs from the reference",
                w.tenants[q.tenant].name, q.f, q.k, q.r
            ));
            continue;
        }
        let a = globals
            .entry((q.tenant, v, f_key(&q.f)))
            .or_insert_with(|| model.global_matrix());
        match evaluate_projection(a, &out.projection, q.k) {
            Ok(report) => errors.push(report.additive_error),
            Err(e) => mismatches.push(format!("query {idx}: evaluation failed: {e}")),
        }
    }
    let additive_error = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    CheckResult {
        checked: errors.len(),
        mismatches,
        additive_error,
    }
}
