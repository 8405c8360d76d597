//! The three workloads: their datasets, query sequences, load shapes and
//! reload schedules, all generated from the benchmark seed. The program
//! under test only ever receives the generated matrices and queries.

use dlra_core::EntryFunction;
use dlra_data::{noisy_low_rank, split_with_noise_shares};
use dlra_linalg::Matrix;
use dlra_runtime::{Substrate, Topology};
use dlra_util::Rng;

/// Columns of every dataset.
pub const D: usize = 16;
const SIGNAL_RANK: usize = 3;
const NOISE: f64 = 0.1;
const SHARE_SCALE: f64 = 0.4;
const HUBER: EntryFunction = EntryFunction::Huber { k: 1.0 };
const FAIR: EntryFunction = EntryFunction::Fair { c: 1.0 };
const SOFTMAX: EntryFunction = EntryFunction::GmRoot { p: 4.0 };
const SAMPLES: [usize; 4] = [24, 32, 40, 48];

/// Query slots of the socket workload: (tenant, f) pairs in turn.
const SLOTS: usize = 3;
/// Queries between two reloads of the socket workload; the tenants
/// alternate, so one reload cycle is twice this. At 2, three queries in
/// four re-prepare their plan, which puts p50 in the preparation mode: the
/// hit mode (~2 ms of thread wake-ups and loopback round trips) moves two-
/// to threefold between runs on a shared host, preparation time far less.
const RELOAD_EVERY: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdPrepare,
    WarmHit,
    SocketReload,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "cold_prepare" => Some(Kind::ColdPrepare),
            "warm_hit" => Some(Kind::WarmHit),
            "socket_reload" => Some(Kind::SocketReload),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdPrepare => "cold_prepare",
            Kind::WarmHit => "warm_hit",
            Kind::SocketReload => "socket_reload",
        }
    }
}

/// One resident dataset. Its data versions are generated from the seed
/// when they are needed (see [`Workload::locals`]), never all held at once,
/// so the benchmark's own data stays out of the peak RSS.
pub struct Tenant {
    pub name: &'static str,
    /// Data version `v` is generated from `mix(seed, base + v)`.
    base: u64,
    /// Locals pre-powered for the softmax `f`.
    powered: bool,
}

/// One generated query.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec {
    pub idx: usize,
    pub tenant: usize,
    pub f: EntryFunction,
    pub k: usize,
    pub r: usize,
    pub seed: u64,
}

pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub s: usize,
    pub n: usize,
    pub substrate: Substrate,
    pub topology: Topology,
    pub tenants: Vec<Tenant>,
    /// Closed-loop clients: each submits its next query when the previous
    /// one returns; client `c` owns query indices `c, c + clients, …`.
    pub clients: usize,
    /// With one client: a tenant is reloaded before every
    /// `reload_every`-th query, so no query is in flight during a reload.
    pub reload_every: Option<usize>,
    /// Query indices whose outputs are compared bit for bit with the
    /// sequential reference; they also feed `additive_error`.
    pub check_sample: Vec<usize>,
    /// The fixed query prefix that word counts are averaged over and that
    /// the traced run replays, so counts repeat exactly for a seed.
    pub prefix: usize,
}

/// SplitMix64 finaliser: derives independent seeds from `(a, b)`.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A noisy rank-3 signal split into additive noise shares over `s` servers.
fn shares(seed: u64, s: usize, n: usize) -> Vec<Matrix> {
    let mut rng = Rng::new(seed);
    let a = noisy_low_rank(n, D, SIGNAL_RANK, NOISE, &mut rng);
    split_with_noise_shares(&a, s, SHARE_SCALE, &mut rng)
}

/// Locals pre-powered as `|Mᵗ|ᵖ/s` for the softmax (generalised-mean) `f`.
fn pre_powered(raw: Vec<Matrix>) -> Vec<Matrix> {
    let s = raw.len();
    raw.iter()
        .map(|m| m.map(|x| SOFTMAX.local_transform(x, s)))
        .collect()
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::ColdPrepare | Kind::WarmHit => {
                let (s, n) = (8, 1024);
                let data = Tenant {
                    name: "data",
                    base: 1,
                    powered: false,
                };
                let (clients, check_sample, prefix) = if kind == Kind::ColdPrepare {
                    (1, (0..12).collect(), 12)
                } else {
                    (2, (0..16).map(|i| i * 61).collect(), 1000)
                };
                Workload {
                    kind,
                    seed,
                    s,
                    n,
                    substrate: Substrate::Threaded,
                    topology: Topology::Star,
                    tenants: vec![data],
                    clients,
                    reload_every: None,
                    check_sample,
                    prefix,
                }
            }
            Kind::SocketReload => {
                let (s, n) = (8, 512);
                Workload {
                    kind,
                    seed,
                    s,
                    n,
                    substrate: Substrate::Socket,
                    topology: Topology::Tree { fanout: 2 },
                    tenants: vec![
                        Tenant {
                            name: "robust",
                            base: 100,
                            powered: false,
                        },
                        Tenant {
                            name: "pooling",
                            base: 200,
                            powered: true,
                        },
                    ],
                    clients: 1,
                    reload_every: Some(RELOAD_EVERY),
                    // Four reload cycles: hits and re-prepares of every
                    // slot, on eight data versions of each tenant.
                    check_sample: (0..48).step_by(3).collect(),
                    prefix: 48,
                }
            }
        }
    }

    /// Data version `v` of tenant `t`: version 0 is loaded at set-up and
    /// each reload installs the next, never a repeat.
    pub fn locals(&self, t: usize, v: usize) -> Vec<Matrix> {
        let tenant = &self.tenants[t];
        let raw = shares(mix(self.seed, tenant.base + v as u64), self.s, self.n);
        if tenant.powered {
            pre_powered(raw)
        } else {
            raw
        }
    }

    /// The data version tenant `t` holds when query `i` is submitted: the
    /// version query `i` runs against when it is `t`'s.
    pub fn version_at(&self, t: usize, i: usize) -> usize {
        (0..=i)
            .filter(|&j| self.reload_before(j) == Some(t))
            .count()
    }

    /// Query `i` of the workload's fixed sequence.
    pub fn query(&self, i: usize) -> QuerySpec {
        let seed = self.seed;
        match self.kind {
            // A fresh seed and a rotating f: every query misses the cache.
            Kind::ColdPrepare => QuerySpec {
                idx: i,
                tenant: 0,
                f: [EntryFunction::Identity, HUBER, FAIR][i % 3],
                k: 3,
                r: 40,
                seed: mix(seed, 1_000_000 + i as u64),
            },
            // One shared plan (same f, parameters and seed); k and r vary.
            Kind::WarmHit => QuerySpec {
                idx: i,
                tenant: 0,
                f: EntryFunction::Identity,
                k: 1 + i % 5,
                r: SAMPLES[(i / 5) % SAMPLES.len()],
                seed: mix(seed, 2),
            },
            // Three (tenant, f) slots, each with its own plan seed.
            Kind::SocketReload => {
                let slot = i % SLOTS;
                let (tenant, f) = [(0, EntryFunction::Identity), (1, SOFTMAX), (0, HUBER)][slot];
                QuerySpec {
                    idx: i,
                    tenant,
                    f,
                    k: 1 + (i / 3) % 5,
                    r: SAMPLES[(i / 15) % SAMPLES.len()],
                    seed: mix(seed, 10 + slot as u64),
                }
            }
        }
    }

    /// The tenant reloaded just before query `i`, if any: `pooling` before
    /// query 0, `robust` before `reload_every`, and so on alternately, so
    /// every cycle of `2·reload_every` queries has the same shape.
    pub fn reload_before(&self, i: usize) -> Option<usize> {
        match self.reload_every {
            Some(every) if i.is_multiple_of(every) => Some((i / every + 1) % 2),
            _ => None,
        }
    }

    /// Words to ship every non-coordinator local matrix to the coordinator.
    pub fn ship_everything_words(&self) -> u64 {
        ((self.s - 1) * self.n * D) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_at_counts_the_reloads_of_the_tenant() {
        let w = Workload::new(Kind::SocketReload, 3);
        let mut versions = [0, 0];
        for i in 0..30 {
            if let Some(t) = w.reload_before(i) {
                versions[t] += 1;
            }
            assert_eq!(
                [w.version_at(0, i), w.version_at(1, i)],
                versions,
                "query {i}"
            );
        }
        let cold = Workload::new(Kind::ColdPrepare, 3);
        assert!((0..30).all(|i| cold.version_at(0, i) == 0));
    }

    #[test]
    fn data_versions_regenerate_identically_and_never_repeat() {
        let w = Workload::new(Kind::SocketReload, 3);
        let bits = |t, v| -> Vec<u64> {
            w.locals(t, v)
                .iter()
                .flat_map(|m| m.as_slice().iter().map(|x| x.to_bits()))
                .collect()
        };
        assert_eq!(bits(0, 1), bits(0, 1));
        assert_ne!(bits(0, 1), bits(0, 2));
        assert_ne!(bits(0, 1), bits(1, 1));
    }
}
