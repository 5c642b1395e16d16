//! The service side of a run: repeated set-ups, the timed closed loop,
//! and — for durable workloads — the restart probe.

use crate::client::{self, Answer, ClosedLoop, LoopOutcome};
use crate::workload::{JobStream, Workload};
use spatial_serve::{DurabilityOptions, ForestService, ServiceOptions, ServiceReport};
use spatial_session::Request;
use spatial_tree::Tree;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Service set-ups per run; the run reports their median and times
/// the loop on the last one.
pub const SETUPS: usize = 9;

/// Everything the service side of a run produced.
pub struct ServicePhase {
    /// Wall seconds of each set-up: start until every tenant answered
    /// its warm-up job.
    pub setup_s: Vec<f64>,
    /// Warm-up answers of every set-up, `[setup][tenant]`.
    pub warmups: Vec<Vec<Answer>>,
    /// Reports of the set-ups that were shut down before the loop.
    pub discarded: Vec<ServiceReport>,
    /// The timed loop over jobs `1..` of every tenant.
    pub timed: LoopOutcome,
    /// The kept service's report (warm-up + timed sessions).
    pub report: ServiceReport,
    /// Peak resident set of the process after the loop, in MB.
    pub peak_rss_mb: f64,
    /// Durable workloads: the probe's answers after a restart over the
    /// same directory, and the restarted service's report.
    pub probe: Option<(Vec<Answer>, ServiceReport)>,
}

/// The read-only batch every tenant answers after a restart.
pub fn probe_batch(seed: u64, tenant: u32) -> Vec<Request> {
    JobStream::new(Workload::ReadHot, seed ^ 0x9b0e_5eed, tenant).next_job()
}

fn options(seed: u64, record_streams: bool) -> ServiceOptions {
    ServiceOptions {
        seed,
        record_streams,
        ..ServiceOptions::new(1)
    }
}

fn start(w: Workload, trees: &[Tree], opts: ServiceOptions, dir: &Path) -> ForestService {
    if w.durable() {
        ForestService::start_durable(trees, opts, DurabilityOptions::new(dir))
    } else {
        ForestService::start(trees, opts)
    }
}

/// Submits one job per tenant and waits for all of them.
fn one_round(service: &ForestService, batch: impl Fn(u32) -> Vec<Request>) -> Vec<Answer> {
    let mut cl = ClosedLoop::new(service);
    for t in 0..service.tenants() as u32 {
        cl.submit(t, 0, &batch(t));
    }
    let mut answers = Vec::with_capacity(service.tenants());
    while let Some(c) = cl.next() {
        answers.push(c.answer);
    }
    answers
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the service side: `SETUPS` set-ups (each on a fresh directory
/// under `data`), the timed loop on the last, shutdown, and — with
/// `restart_probe` on a durable workload — the restart probe.
pub fn run(
    w: Workload,
    seed: u64,
    trees: &[Tree],
    jobs: &[Vec<Vec<Request>>],
    record_streams: bool,
    restart_probe: bool,
    data: &Path,
) -> ServicePhase {
    let opts = options(seed, record_streams);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut warmups = Vec::with_capacity(SETUPS);
    let mut discarded = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let dir: PathBuf = data.join(format!("service-{i}"));
        let t0 = Instant::now();
        let service = start(w, trees, opts, &dir);
        warmups.push(one_round(&service, |t| jobs[t as usize][0].clone()));
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            discarded.push(service.shutdown());
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some((service, dir));
        }
    }
    let (service, dir) = kept.expect("SETUPS >= 1");
    let timed = client::run(&service, jobs, 1);
    let peak_rss_mb = peak_rss_mb();
    let report = service.shutdown();
    let probe = (restart_probe && w.durable()).then(|| {
        let service = start(w, trees, opts, &dir);
        let answers = one_round(&service, |t| probe_batch(seed, t));
        (answers, service.shutdown())
    });
    ServicePhase {
        setup_s,
        warmups,
        discarded,
        timed,
        report,
        peak_rss_mb,
        probe,
    }
}
