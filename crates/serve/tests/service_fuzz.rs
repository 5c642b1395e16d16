//! Deterministic multi-threaded differential fuzz: random mixed
//! streams (including inserts) for 8 tenants sharded across 4
//! workers, with every executed stream recorded. After shutdown a
//! **single-threaded twin** [`SpatialForest`] per tenant replays the
//! recorded coalesced streams with the same derived seed — answers
//! and per-session [`SessionReport`]s must match **bit for bit**.
//! Concurrency must be a pure scheduling change: it may alter *which*
//! jobs coalesce into a session (that's what the recorded streams
//! capture), never what any session computes or charges.

mod common;

use rand::prelude::*;
use spatial_serve::{tenant_seed, ForestService, ServiceOptions};
use spatial_session::{QueryBatch, Request, Response, SessionReport, SpatialForest};
use spatial_tree::{generators, Tree};

/// Appends `len` random requests valid for a tenant currently holding
/// `n` vertices; returns the vertex count after the stream's inserts.
fn random_stream(
    batch: &mut QueryBatch,
    mut n: u32,
    len: usize,
    insert_pct: u32,
    rng: &mut StdRng,
) -> u32 {
    for _ in 0..len {
        let kind = rng.gen_range(0..100);
        if kind < insert_pct {
            batch.insert_leaf_weighted(rng.gen_range(0..n), rng.gen_range(1..5));
            n += 1;
        } else if kind < insert_pct + 30 {
            batch.lca(rng.gen_range(0..n), rng.gen_range(0..n));
        } else if kind < insert_pct + 65 {
            batch.subtree_sum(rng.gen_range(0..n));
        } else {
            batch.rank(rng.gen_range(0..n));
        }
    }
    n
}

/// Drives `tenants` tenants × `rounds` jobs through a service with the
/// given worker count, then pins every tenant's answers and session
/// reports against its single-threaded twin replaying the recorded
/// streams. A non-zero `head_len` first submits one bulky job of that
/// many requests for tenant 0, which keeps the worker busy while the
/// rounds queue behind it, so later cycles hold several tenants even
/// on one core. Returns the helper threads the shards spawned.
fn differential_run(
    workers: usize,
    tenants: u32,
    rounds: usize,
    seed: u64,
    head_len: usize,
) -> u64 {
    let mut tree_rng = StdRng::seed_from_u64(seed);
    let trees: Vec<Tree> = (0..tenants)
        .map(|_| generators::uniform_random(tree_rng.gen_range(120..260), &mut tree_rng))
        .collect();
    let mut opts = ServiceOptions::new(workers);
    opts.seed = seed ^ 0xab;
    opts.record_streams = true;

    let service = ForestService::start(&trees, opts);
    let mut stream_rng = StdRng::seed_from_u64(seed ^ 0xcd);
    let mut sizes: Vec<u32> = trees.iter().map(Tree::n).collect();
    let mut batch = QueryBatch::new();
    // Round-robin submission keeps every shard's queue mixed; per
    // tenant the jobs still arrive in order, which is the service's
    // ordering contract.
    let mut tickets: Vec<(u32, spatial_serve::Ticket)> = Vec::new();
    if head_len > 0 {
        sizes[0] = random_stream(&mut batch, sizes[0], head_len, 15, &mut stream_rng);
        tickets.push((0, service.submit(0, batch.requests())));
    }
    for _ in 0..rounds {
        for tenant in 0..tenants {
            batch.clear();
            sizes[tenant as usize] =
                random_stream(&mut batch, sizes[tenant as usize], 30, 15, &mut stream_rng);
            tickets.push((tenant, service.submit(tenant, batch.requests())));
        }
    }
    let mut service_answers: Vec<Vec<Response>> = vec![Vec::new(); tenants as usize];
    for (tenant, ticket) in tickets {
        service_answers[tenant as usize].extend(ticket.wait().expect("answered"));
    }
    let report = service.shutdown();
    assert_eq!(report.shards.len(), workers);
    let head_jobs = u64::from(head_len > 0);
    assert_eq!(
        report.total_jobs(),
        rounds as u64 * tenants as u64 + head_jobs
    );

    for tenant in 0..tenants {
        let log = report.tenant_log(tenant).expect("tenant served");
        assert_eq!(
            log.streams.iter().map(Vec::len).sum::<usize>(),
            rounds * 30 + if tenant == 0 { head_len } else { 0 },
            "tenant {tenant}: recorded streams cover every request"
        );
        let mut twin = SpatialForest::with_options(&trees[tenant as usize], opts.forest);
        let mut rng = StdRng::seed_from_u64(tenant_seed(opts.seed, tenant));
        let mut twin_answers: Vec<Response> = Vec::new();
        let mut twin_reports: Vec<SessionReport> = Vec::new();
        for stream in &log.streams {
            twin_answers.extend_from_slice(twin.execute(stream, &mut rng));
            twin_reports.push(twin.last_report());
        }
        assert_eq!(
            twin_answers, service_answers[tenant as usize],
            "tenant {tenant}: answers diverged from the single-threaded twin"
        );
        assert_eq!(
            twin_reports, log.reports,
            "tenant {tenant}: session charges diverged from the twin"
        );
        // The replayed streams really were mixed and mutating.
        let inserts: usize = log
            .streams
            .iter()
            .flatten()
            .filter(|r| matches!(r, Request::InsertLeaf { .. }))
            .count();
        assert!(inserts > 0, "tenant {tenant}: no inserts in the mix");
        assert!(
            log.reports.iter().any(|r| r.grid.energy > 0),
            "tenant {tenant}: queries were never priced"
        );
    }
    report.shards.iter().map(|s| s.helper_spawns).sum()
}

/// The headline configuration from the issue: 8 tenants on 4 workers,
/// three seeds.
#[test]
fn four_worker_service_matches_single_threaded_twins() {
    for seed in [1u64, 7, 4242] {
        differential_run(4, 8, 5, seed, 0);
    }
}

/// Worker counts that don't divide the tenant count evenly still pin.
#[test]
fn uneven_sharding_matches_twins() {
    differential_run(3, 7, 4, 99, 0);
}

/// Fixed-seed 2-worker / 2-tenant smoke for both CI legs: small,
/// fast, and exercises the full submit → coalesce → execute → reply →
/// shutdown cycle with debug assertions armed.
#[test]
fn fixed_seed_two_worker_smoke() {
    let mut tree_rng = StdRng::seed_from_u64(0x5140);
    let trees: Vec<Tree> = (0..2)
        .map(|_| generators::uniform_random(200, &mut tree_rng))
        .collect();
    let service = ForestService::start(&trees, ServiceOptions::new(2));
    let mut batch = QueryBatch::new();
    batch.lca(5, 190).subtree_sum(0).rank(17).insert_leaf(3);
    let t0 = service.submit(0, batch.requests());
    let t1 = service.submit(1, batch.requests());
    assert_eq!(t0.wait().expect("answered").len(), 4);
    let answers1 = t1.wait().expect("answered");
    assert_eq!(answers1[1], Response::SubtreeSum(200), "unit weights");
    assert_eq!(answers1[3], Response::InsertedLeaf(200));
    let report = service.shutdown();
    assert_eq!(report.total_requests(), 8);
    assert_eq!(report.shards.len(), 2);
    assert!(report.modeled_qps() > 0.0);
    assert!(report
        .shards
        .iter()
        .all(|s| s.tenants.len() == 1 && s.jobs == 1));
}

/// Forced fan-out: with `SPATIAL_THREADS=4`, a 1-worker × 4-tenant and
/// a 2-worker × 5-tenant service fan each cycle's tenant sessions out
/// across helper threads even on a 1-core host, and every answer and
/// per-session charge still matches the single-threaded twins. With
/// as many workers as cores (4 × 8) each shard's width is 1 and no
/// helper is spawned.
#[test]
fn forced_fanout_matches_single_threaded_twins() {
    if !common::under_spatial_threads("forced_fanout_matches_single_threaded_twins", 4) {
        return;
    }
    for seed in [3u64, 11] {
        let helpers = differential_run(1, 4, 5, seed, 2_000);
        assert!(
            helpers > 0,
            "seed {seed}: 1 worker x 4 tenants never fanned out"
        );
        let helpers = differential_run(2, 5, 5, seed, 2_000);
        assert!(
            helpers > 0,
            "seed {seed}: 2 workers x 5 tenants never fanned out"
        );
    }
    assert_eq!(
        differential_run(4, 8, 5, 5, 2_000),
        0,
        "workers >= cores must not spawn helpers"
    );
}

/// `SPATIAL_THREADS=1`: the worker runs every cycle inline, spawning
/// no helper thread, with the same twin-identical answers and charges.
#[test]
fn single_thread_runs_cycles_inline() {
    if !common::under_spatial_threads("single_thread_runs_cycles_inline", 1) {
        return;
    }
    assert_eq!(differential_run(1, 4, 5, 3, 2_000), 0);
}
