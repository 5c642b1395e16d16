//! The three traffic mixes and their seeded generators.
//!
//! A workload's *shape* — tenants, tree size, requests per job, and the
//! kind of every request position — is fixed by the workload and the
//! job index alone. The seed picks only the trees and the vertex ids,
//! so two seeds load the service identically and every count metric
//! (sessions, rebuilds, commits, checkpoints) depends on the seed only
//! through the trees.

use rand::prelude::*;
use spatial_bench::workload as tree_workload;
use spatial_session::Request;
use spatial_tree::generators::TreeFamily;
use spatial_tree::Tree;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Queries only, non-durable: the engines and model charging.
    ReadHot,
    /// Queries plus ~10% inserts, durable: rebuilds, rebinds, commits.
    MixedDurable,
    /// Inserts only, durable: the journal and checkpoints.
    IngestDurable,
}

/// Tenants per workload; with one outstanding job each they are the
/// closed loop's concurrency.
pub const TENANTS: u32 = 4;
/// Requests in every job.
pub const REQUESTS_PER_JOB: usize = 16;

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [
        Workload::ReadHot,
        Workload::MixedDurable,
        Workload::IngestDurable,
    ];
    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::MixedDurable => "mixed_durable",
            Workload::IngestDurable => "ingest_durable",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Vertices in each tenant's seed tree.
    pub fn tree_n(self) -> u32 {
        match self {
            Workload::ReadHot | Workload::MixedDurable => 1 << 13,
            Workload::IngestDurable => 1 << 14,
        }
    }

    /// Whether the service journals and checkpoints on the local disk.
    pub fn durable(self) -> bool {
        self != Workload::ReadHot
    }

    /// Timed jobs per unit of `--seconds`. The run length is a job
    /// count, not a deadline, so every run of a seed executes the same
    /// sessions and the count metrics repeat exactly. On a 2-vCPU
    /// x86-64 host, `--seconds 15` times about 25 s of `read_hot` (long
    /// enough to average the host's speed drift) and 10 s of
    /// `ingest_durable`; `mixed_durable` sits on the 1,000-job floor,
    /// about 33 s.
    pub fn jobs_per_second(self) -> u64 {
        match self {
            Workload::ReadHot => 120,
            Workload::MixedDurable => 30,
            Workload::IngestDurable => 600,
        }
    }

    /// The kinds of the requests of job `k`, by position — the
    /// seed-independent shape.
    pub fn job_shape(self, k: u64) -> [Kind; REQUESTS_PER_JOB] {
        let mut shape = [Kind::Lca; REQUESTS_PER_JOB];
        for (i, s) in shape.iter_mut().enumerate() {
            *s = Kind::query(i as u64 + k);
        }
        match self {
            Workload::ReadHot => {}
            Workload::MixedDurable => {
                // 1.6 inserts per job on average (exactly 10%), side by
                // side, so a job splits into at most two query sessions.
                let first = (k * 7 % (REQUESTS_PER_JOB as u64 - 1)) as usize;
                shape[first] = Kind::Insert;
                if k % 5 < 3 {
                    shape[first + 1] = Kind::Insert;
                }
            }
            Workload::IngestDurable => shape = [Kind::Insert; REQUESTS_PER_JOB],
        }
        shape
    }
}

/// The kind of one request position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Request::Lca`.
    Lca,
    /// `Request::SubtreeSum`.
    Sum,
    /// `Request::Rank`.
    Rank,
    /// `Request::InsertLeaf`.
    Insert,
}

impl Kind {
    /// LCA, sum and rank in turn: 1:1:1 over every three positions.
    fn query(i: u64) -> Kind {
        [Kind::Lca, Kind::Sum, Kind::Rank][(i % 3) as usize]
    }
}

/// Mixes the run seed with a tenant id (splitmix-style, so nearby seeds
/// and tenants give unrelated streams).
fn mix(seed: u64, tenant: u32, salt: u64) -> u64 {
    let mut z = seed ^ salt ^ (u64::from(tenant) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The tenants' seed trees: seeded `uniform_random` trees.
pub fn trees(w: Workload, seed: u64) -> Vec<Tree> {
    (0..TENANTS)
        .map(|t| tree_workload(TreeFamily::UniformRandom, w.tree_n(), mix(seed, t, 0x7e3e)))
        .collect()
}

/// One tenant's job stream: job `k` of the stream is the tenant's
/// `k`-th submission. Vertex ids are drawn below the tenant's current
/// vertex count, which the generator tracks through its own inserts.
pub struct JobStream {
    workload: Workload,
    rng: StdRng,
    n: u32,
    next: u64,
}

impl JobStream {
    /// The stream of `tenant` under `seed`.
    pub fn new(w: Workload, seed: u64, tenant: u32) -> Self {
        JobStream {
            workload: w,
            rng: StdRng::seed_from_u64(mix(seed, tenant, 0x10b5)),
            n: w.tree_n(),
            next: 0,
        }
    }

    /// The next job's requests.
    pub fn next_job(&mut self) -> Vec<Request> {
        let shape = self.workload.job_shape(self.next);
        self.next += 1;
        shape
            .iter()
            .map(|kind| {
                let v = self.rng.gen_range(0..self.n);
                match kind {
                    Kind::Lca => Request::Lca(v, self.rng.gen_range(0..self.n)),
                    Kind::Sum => Request::SubtreeSum(v),
                    Kind::Rank => Request::Rank(v),
                    Kind::Insert => {
                        self.n += 1;
                        Request::InsertLeaf {
                            parent: v,
                            weight: self.rng.gen_range(1..10u64),
                        }
                    }
                }
            })
            .collect()
    }
}

/// Every tenant's first `jobs[t]` jobs.
pub fn jobs(w: Workload, seed: u64, jobs: &[u64]) -> Vec<Vec<Vec<Request>>> {
    (0..TENANTS)
        .map(|t| {
            let mut s = JobStream::new(w, seed, t);
            (0..jobs[t as usize]).map(|_| s.next_job()).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(r: &Request) -> Kind {
        match r {
            Request::Lca(..) => Kind::Lca,
            Request::SubtreeSum(_) => Kind::Sum,
            Request::Rank(_) => Kind::Rank,
            Request::InsertLeaf { .. } => Kind::Insert,
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        for w in Workload::ALL {
            let a = jobs(w, 7, &[20; TENANTS as usize]);
            let b = jobs(w, 7, &[20; TENANTS as usize]);
            assert_eq!(a, b, "{}", w.name());
            let ta: Vec<_> = trees(w, 7).iter().map(|t| t.parents().to_vec()).collect();
            let tb: Vec<_> = trees(w, 7).iter().map(|t| t.parents().to_vec()).collect();
            assert_eq!(ta, tb, "{}", w.name());
        }
    }

    #[test]
    fn a_second_seed_keeps_the_shape_and_changes_the_ids() {
        for w in Workload::ALL {
            let a = jobs(w, 1, &[30; TENANTS as usize]);
            let b = jobs(w, 2, &[30; TENANTS as usize]);
            assert_ne!(a, b, "{}: seeds must differ in ids", w.name());
            for (ja, jb) in a.iter().flatten().zip(b.iter().flatten()) {
                let ka: Vec<Kind> = ja.iter().map(kind).collect();
                let kb: Vec<Kind> = jb.iter().map(kind).collect();
                assert_eq!(ka, kb, "{}: shape must not depend on the seed", w.name());
            }
            let sizes = |s| trees(w, s).iter().map(|t| t.n()).collect::<Vec<_>>();
            assert_eq!(sizes(1), sizes(2));
        }
    }

    #[test]
    fn mixes_match_their_stated_ratios() {
        let count = |w: Workload, k: Kind| -> usize {
            (0..30)
                .map(|j| w.job_shape(j).iter().filter(|&&x| x == k).count())
                .sum()
        };
        let total = 30 * REQUESTS_PER_JOB;
        assert_eq!(count(Workload::ReadHot, Kind::Insert), 0);
        let (l, s, r) = (
            count(Workload::ReadHot, Kind::Lca),
            count(Workload::ReadHot, Kind::Sum),
            count(Workload::ReadHot, Kind::Rank),
        );
        assert_eq!((l, s, r), (total / 3, total / 3, total / 3));
        assert_eq!(count(Workload::MixedDurable, Kind::Insert) * 10, total);
        assert_eq!(count(Workload::IngestDurable, Kind::Insert), total);
    }

    #[test]
    fn ids_stay_below_the_growing_vertex_count() {
        for w in Workload::ALL {
            let mut n = w.tree_n();
            for job in &jobs(w, 3, &[50; TENANTS as usize])[0] {
                for r in job {
                    match *r {
                        Request::Lca(a, b) => assert!(a < n && b < n),
                        Request::SubtreeSum(v) | Request::Rank(v) => assert!(v < n),
                        Request::InsertLeaf { parent, .. } => {
                            assert!(parent < n);
                            n += 1;
                        }
                    }
                }
            }
        }
    }
}
