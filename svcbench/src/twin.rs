//! The correctness gate: a single-threaded `SpatialForest` twin per
//! tenant replays the tenant's jobs with the service's session seed
//! and must reproduce every answer and every `SessionReport` bit for
//! bit — including, for durable workloads, the probe answered after a
//! restart. With a [`LayerTrace`] attached, the same replay times each
//! layer's public calls from the outside.

use crate::client::Answer;
use crate::trace::{LayerTrace, TenantTracer};
use crate::workload::Workload;
use rand::prelude::*;
use spatial_serve::{tenant_seed, ServiceReport};
use spatial_session::{ForestOptions, Request, Response, SessionReport, SpatialForest};
use spatial_tree::Tree;
use std::path::Path;
use std::time::Instant;

/// One tenant's side of a run, as the service saw it.
pub struct TenantRun<'a> {
    pub tenant: u32,
    pub tree: &'a Tree,
    /// Every job the tenant submitted, warm-up first.
    pub jobs: &'a [Vec<Request>],
    /// The service's answer to each job.
    pub answers: Vec<&'a Answer>,
    /// The service's session reports, one per job.
    pub reports: &'a [SessionReport],
    /// Warm-up answers and reports of the discarded set-ups.
    pub warmups: Vec<(&'a Answer, Option<SessionReport>)>,
    /// The restart probe: batch, answer, and its session report.
    pub probe: Option<(Vec<Request>, &'a Answer, Option<SessionReport>)>,
}

/// What the replay of some tenants found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Jobs (and probes) compared against the twin.
    pub checked: u64,
    /// Those whose ticket errored or whose answers or report differed.
    pub failed: u64,
    /// The first few differences, for the error output.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Counts one check, and its failure with a description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(8);
    }
}

/// Whether a service answer equals the twin's.
fn same(answer: &Answer, want: &[Response]) -> bool {
    matches!(answer, Ok(got) if got.as_slice() == want)
}

/// Replays one tenant. `trace` attaches the per-layer tracer (its
/// durable files go under `data`).
pub fn replay(
    w: Workload,
    seed: u64,
    run: &TenantRun,
    trace: Option<&mut LayerTrace>,
    data: &Path,
) -> Verdict {
    let t = run.tenant;
    let mut v = Verdict::default();
    let mut twin = SpatialForest::with_options(run.tree, ForestOptions::default());
    let mut rng = StdRng::seed_from_u64(tenant_seed(seed, t));
    let mut tracer = trace.map(|tr| TenantTracer::new(w, t, tr, &mut twin, data));
    if run.reports.len() != run.jobs.len() {
        v.check(false, || {
            format!(
                "tenant {t}: {} sessions for {} jobs — a job was not its own session",
                run.reports.len(),
                run.jobs.len()
            )
        });
    }
    for (k, job) in run.jobs.iter().enumerate() {
        let t0 = Instant::now();
        let want = twin.execute(job, &mut rng).to_vec();
        let execute = t0.elapsed();
        let report = twin.last_report();
        if let Some(tr) = tracer.as_mut() {
            tr.after_job(&mut twin, &rng, job, &want, execute, &mut v);
        }
        let ok = same(run.answers[k], &want) && run.reports.get(k) == Some(&report);
        v.check(ok, || {
            format!("tenant {t} job {k}: answers or charges differ from the twin")
        });
        if k == 0 {
            for (i, (answer, rep)) in run.warmups.iter().enumerate() {
                let ok = same(answer, &want) && *rep == Some(report);
                v.check(ok, || {
                    format!("tenant {t} set-up {i}: warm-up differs from the twin")
                });
            }
        }
    }
    if let Some((batch, answer, rep)) = &run.probe {
        let want = twin.execute(batch, &mut rng).to_vec();
        let ok = same(answer, &want) && *rep == Some(twin.last_report());
        v.check(ok, || {
            format!("tenant {t}: restart probe differs from the twin")
        });
    }
    if let Some(tr) = tracer {
        tr.finish(&twin);
    }
    v
}

/// The session reports the service logged for `tenant`.
pub fn reports(report: &ServiceReport, tenant: u32) -> &[SessionReport] {
    report
        .tenant_log(tenant)
        .map_or(&[][..], |l| l.reports.as_slice())
}
