//! Outside-in per-layer tracing on the twin replay: every span is a
//! call into one layer's public functions, timed from this file.
//!
//! | layer    | span                                                    |
//! |----------|---------------------------------------------------------|
//! | session  | `SpatialForest::execute` per job                        |
//! | lca      | `LcaEngine::run_into`; `LcaEngine::bind` after mutation |
//! | treefix  | `ContractionEngine::bind_parts + contract + uncontract` |
//! | euler    | `RankingEngine::rank`                                   |
//! | store    | `JournalWriter::append + sync` of the session marker,   |
//! |          | `SpatialForest::checkpoint_to` every 8 sessions         |
//! | layout   | `Layout::light_first_par` on each seed tree             |
//! | sfc      | the SWAR Hilbert batch over each seed layout's points   |
//!
//! The engines run on their own instances, bound to the twin's layout,
//! with the job's queries; they replay only insert-free jobs, where the
//! layout they were bound to is the one the session ran on.

use crate::twin::Verdict;
use crate::workload::Workload;
use rand::prelude::*;
use spatial_euler::tour::{down, EulerTour};
use spatial_euler::RankingEngine;
use spatial_layout::Layout;
use spatial_lca::LcaEngine;
use spatial_model::{CostReport, CurveKind, Machine, Slot};
use spatial_serve::{tenant_seed, MIN_COALESCED_BATCH};
use spatial_session::{Request, Response, SpatialForest};
use spatial_store::{JournalWriter, Record};
use spatial_tree::{ChildrenCsr, NodeId, Tree};
use spatial_treefix::contraction::ContractionEngine;
use spatial_treefix::Add;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Sessions between checkpoints, as `DurabilityOptions::new` sets it.
const CHECKPOINT_INTERVAL: u64 = 8;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer spans and counts, summed over every traced tenant.
#[derive(Debug, Default)]
pub struct LayerTrace {
    pub jobs: u64,
    pub requests: u64,
    /// `SpatialForest::execute` wall time of every job.
    pub execute_ms: Vec<f64>,
    /// Sessions and the charges of every job, from `last_report`.
    pub sessions: u64,
    pub charges: CostReport,
    pub engine_rebinds: u64,
    pub rebuilds: u64,
    pub grows: u64,

    /// Engine replays of the insert-free jobs.
    pub engine_jobs: u64,
    /// Wall time the replayed jobs spent in `execute`, for closure.
    pub engine_jobs_execute_ms: f64,
    pub lca_ms: f64,
    pub treefix_ms: f64,
    pub rank_ms: f64,
    pub lca: (u64, CostReport),
    pub treefix: (u64, CostReport),
    pub rank: (u64, CostReport),

    /// `LcaEngine::bind` after each mutating job.
    pub binds: u64,
    pub bind_ms: f64,

    /// Store spans.
    pub commit_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_bytes: u64,
    pub incremental: u64,
    pub journal_bytes: u64,

    /// `Layout::light_first_par` per seed tree.
    pub light_first_ms: Vec<f64>,
    /// SWAR Hilbert encode, ns per point, per seed layout.
    pub hilbert_ns: Vec<f64>,
}

/// The engines a tenant's insert-free jobs replay on.
struct Engines {
    lca: LcaEngine,
    answers: Vec<NodeId>,
    treefix: ContractionEngine<Add>,
    parents: Vec<NodeId>,
    slots: Vec<Slot>,
    csr: ChildrenCsr,
    weights: Vec<Add>,
    ranking: RankingEngine,
    root: NodeId,
    machine: Machine,
    darts: Machine,
    rng: StdRng,
}

impl Engines {
    fn bind(twin: &mut SpatialForest, rng: StdRng) -> Self {
        let tree = twin.tree().clone();
        let layout = twin.layout().clone();
        let n = tree.n();
        let csr = ChildrenCsr::by_size(&tree, &tree.subtree_sizes());
        let tour = EulerTour::light_first_from_csr(&tree, &csr);
        Engines {
            lca: LcaEngine::new(&layout, &tree),
            answers: Vec::new(),
            treefix: ContractionEngine::with_capacity(n as usize),
            parents: tree.parents().to_vec(),
            slots: (0..n).map(|v| layout.slot(v)).collect(),
            weights: (0..n).map(|v| Add(twin.weight(v))).collect(),
            csr,
            ranking: RankingEngine::new(tour.next_darts(), tour.start()),
            root: tree.root(),
            machine: layout.machine(),
            darts: Machine::on_curve(CurveKind::Hilbert, 2 * n),
            rng,
        }
    }

    /// Replays one insert-free job's queries, one engine run per kind
    /// present, in the session's order: LCA, sums, ranks.
    fn run(&mut self, job: &[Request], want: &[Response], tr: &mut LayerTrace) -> bool {
        let mut lca_q = Vec::new();
        let mut sums = Vec::new();
        let mut ranks = Vec::new();
        for (i, r) in job.iter().enumerate() {
            match *r {
                Request::Lca(a, b) => lca_q.push(((a, b), i)),
                Request::SubtreeSum(v) => sums.push((v, i)),
                Request::Rank(v) => ranks.push((v, i)),
                Request::InsertLeaf { .. } => unreachable!("insert-free job"),
            }
        }
        let mut ok = true;
        if !lca_q.is_empty() {
            let q: Vec<(NodeId, NodeId)> = lca_q.iter().map(|&(q, _)| q).collect();
            self.machine.reset();
            let t0 = Instant::now();
            self.lca
                .run_into(&self.machine, &q, &mut self.answers, &mut self.rng);
            tr.lca_ms += ms(t0.elapsed());
            tr.lca.0 += q.len() as u64;
            tr.lca.1 = tr.lca.1 + self.machine.report();
            for (&(_, i), &a) in lca_q.iter().zip(&self.answers) {
                ok &= want[i] == Response::Lca(a);
            }
        }
        if !sums.is_empty() {
            self.machine.reset();
            let t0 = Instant::now();
            self.treefix
                .bind_parts(&self.parents, &self.slots, &self.csr, &self.weights, true);
            self.treefix.contract(&self.machine, &mut self.rng);
            let out = self.treefix.uncontract_bottom_up(&self.machine);
            tr.treefix_ms += ms(t0.elapsed());
            tr.treefix.0 += sums.len() as u64;
            tr.treefix.1 = tr.treefix.1 + self.machine.report();
            for &(v, i) in &sums {
                ok &= want[i] == Response::SubtreeSum(out[v as usize].0);
            }
        }
        if !ranks.is_empty() {
            self.darts.reset();
            let t0 = Instant::now();
            self.ranking.rank(&self.darts, &mut self.rng);
            tr.rank_ms += ms(t0.elapsed());
            tr.rank.0 += ranks.len() as u64;
            tr.rank.1 = tr.rank.1 + self.darts.report();
            for &(v, i) in &ranks {
                let r = if v == self.root {
                    0
                } else {
                    self.ranking.ranks()[down(v) as usize] + 1
                };
                ok &= want[i] == Response::Rank(r);
            }
        }
        ok
    }
}

/// The twin's durable files, mirroring the service's per-tenant
/// snapshot and journal generations.
struct Store {
    dir: PathBuf,
    tenant: u32,
    generation: u64,
    since_checkpoint: u64,
}

impl Store {
    fn journal(&self, generation: u64) -> PathBuf {
        self.dir
            .join(format!("tenant-{}.{generation}.journal", self.tenant))
    }

    fn snapshot(&self) -> PathBuf {
        self.dir.join(format!("tenant-{}.snapshot", self.tenant))
    }

    /// Checkpoints and switches to the next journal generation, as the
    /// service does; returns the bytes the old generation's journal
    /// held.
    fn checkpoint(&mut self, twin: &mut SpatialForest, tr: Option<&mut LayerTrace>) -> u64 {
        let old = self.journal(self.generation);
        let journal_bytes = std::fs::metadata(&old).map_or(0, |m| m.len());
        let next = self.generation + 1;
        let t0 = Instant::now();
        let writer = JournalWriter::create(self.journal(next)).expect("create twin journal");
        let stats = twin
            .checkpoint_to(self.snapshot(), next)
            .expect("write twin checkpoint");
        twin.detach_journal();
        twin.attach_journal(writer);
        let _ = std::fs::remove_file(&old);
        if let Some(tr) = tr {
            tr.checkpoint_ms.push(ms(t0.elapsed()));
            tr.checkpoint_bytes += stats.bytes_written;
            tr.incremental += u64::from(stats.incremental);
        }
        self.generation = next;
        self.since_checkpoint = 0;
        journal_bytes
    }
}

/// One tenant's tracing state during its replay.
pub struct TenantTracer<'a> {
    tr: &'a mut LayerTrace,
    /// Bound to the seed layout; dropped at the tenant's first mutation.
    engines: Option<Engines>,
    bind_lca: Option<LcaEngine>,
    store: Option<Store>,
    start_stats: (u32, u32, u32),
}

impl<'a> TenantTracer<'a> {
    /// Prepares the twin as the service prepares its tenant: durable
    /// tenants get a first checkpoint, a journal, and a warmstart.
    /// Also times the set-up layers on the seed tree.
    pub fn new(
        w: Workload,
        tenant: u32,
        tr: &'a mut LayerTrace,
        twin: &mut SpatialForest,
        data: &Path,
    ) -> Self {
        let tree = twin.tree().clone();
        layout_spans(&tree, tr);
        let store = w.durable().then(|| {
            let dir = data.join(format!("twin-{tenant}"));
            std::fs::create_dir_all(&dir).expect("create twin directory");
            let mut store = Store {
                dir,
                tenant,
                generation: 0,
                since_checkpoint: 0,
            };
            store.checkpoint(twin, None);
            twin.warmstart(MIN_COALESCED_BATCH);
            store
        });
        let d = twin.dynamic_stats();
        let engine_rng = StdRng::seed_from_u64(tenant_seed(0xe9_91e5, tenant));
        TenantTracer {
            tr,
            engines: Some(Engines::bind(twin, engine_rng)),
            bind_lca: None,
            store,
            start_stats: (d.rebuilds, d.grows, twin.pool().stats().rebinds),
        }
    }

    /// Records the spans of one replayed job (`execute` has run).
    pub fn after_job(
        &mut self,
        twin: &mut SpatialForest,
        rng: &StdRng,
        job: &[Request],
        want: &[Response],
        execute: Duration,
        verdict: &mut Verdict,
    ) {
        let tr = &mut *self.tr;
        let report = twin.last_report();
        tr.jobs += 1;
        tr.requests += job.len() as u64;
        tr.execute_ms.push(ms(execute));
        tr.sessions += u64::from(report.sessions);
        tr.charges = tr.charges + report.grid + report.ranking;

        let mutating = job.iter().any(|r| matches!(r, Request::InsertLeaf { .. }));
        if mutating {
            // The engines' layout no longer is the session's.
            self.engines = None;
        }
        if let Some(e) = self.engines.as_mut() {
            tr.engine_jobs += 1;
            tr.engine_jobs_execute_ms += ms(execute);
            let ok = e.run(job, want, tr);
            verdict.check(ok, || {
                "an engine replay answered differently from the session".into()
            });
        }
        // A mutating job with LCA queries is one whose session rebinds
        // the LCA engine.
        if mutating && job.iter().any(|r| matches!(r, Request::Lca(..))) {
            let tree = twin.tree().clone();
            let layout = Layout::light_first_par(&tree, CurveKind::Hilbert);
            let t0 = Instant::now();
            match self.bind_lca.as_mut() {
                Some(lca) => lca.bind(&layout, &tree),
                None => self.bind_lca = Some(LcaEngine::new(&layout, &tree)),
            }
            tr.bind_ms += ms(t0.elapsed());
            tr.binds += 1;
        }

        if let Some(store) = self.store.as_mut() {
            let t0 = Instant::now();
            let journal = twin.journal_mut().expect("twin journal attached");
            journal
                .append(Record::RngState(rng.state()))
                .expect("append twin session marker");
            journal.sync().expect("sync twin journal");
            tr.commit_ms.push(ms(t0.elapsed()));
            store.since_checkpoint += 1;
            if store.since_checkpoint >= CHECKPOINT_INTERVAL {
                tr.journal_bytes += store.checkpoint(twin, Some(&mut *tr));
            }
        }
    }

    /// Closes the tenant's counters.
    pub fn finish(self, twin: &SpatialForest) {
        let d = twin.dynamic_stats();
        let (rebuilds, grows, rebinds) = self.start_stats;
        self.tr.rebuilds += u64::from(d.rebuilds - rebuilds);
        self.tr.grows += u64::from(d.grows - grows);
        self.tr.engine_rebinds += u64::from(twin.pool().stats().rebinds - rebinds);
        if let Some(store) = self.store {
            let live = store.journal(store.generation);
            self.tr.journal_bytes += std::fs::metadata(live).map_or(0, |m| m.len());
        }
    }
}

/// Times the set-up layers on one seed tree: the parallel light-first
/// layout and the SWAR Hilbert encode of its grid points.
fn layout_spans(tree: &Tree, tr: &mut LayerTrace) {
    const REPS: usize = 5;
    let mut lf = Vec::with_capacity(REPS);
    let mut layout = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let l = Layout::light_first_par(tree, CurveKind::Hilbert);
        lf.push(ms(t0.elapsed()));
        layout = Some(std::hint::black_box(l));
    }
    tr.light_first_ms.push(crate::stats::median(&lf));

    let points = layout.expect("REPS >= 1").grid_points();
    let side = CurveKind::Hilbert.side_for_capacity(points.len() as u64);
    let mut out = vec![0u64; points.len()];
    let mut ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        // Enough passes that one sample lasts well over a millisecond.
        for _ in 0..64 {
            spatial_sfc::swar::hilbert_index_chunk(side, std::hint::black_box(&points), &mut out);
        }
        ns.push(t0.elapsed().as_nanos() as f64 / (64 * points.len()) as f64);
        std::hint::black_box(&out);
    }
    tr.hilbert_ns.push(crate::stats::median(&ns));
}
