//! The closed-loop client: every tenant is a caller with exactly one
//! outstanding job. It submits, waits for the ticket, and only then
//! submits its next job, so a slower service receives less load and no
//! queue builds beyond one job per tenant.

use spatial_serve::{ForestService, ServeError, Ticket};
use spatial_session::{Request, Response};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What one job came back with.
pub type Answer = Result<Vec<Response>, ServeError>;

struct InFlight {
    tenant: u32,
    job: usize,
    ticket: Ticket,
    submitted: Instant,
}

/// Drives one service from the calling thread.
pub struct ClosedLoop<'a> {
    service: &'a ForestService,
    /// Tickets in submission order. The single worker answers in that
    /// order, so waiting on the front never waits behind a later job.
    in_flight: VecDeque<InFlight>,
    outstanding: Vec<bool>,
}

/// One completed job.
pub struct Completion {
    pub tenant: u32,
    pub job: usize,
    pub answer: Answer,
    /// Submit to answered ticket.
    pub latency: Duration,
}

impl<'a> ClosedLoop<'a> {
    pub fn new(service: &'a ForestService) -> Self {
        ClosedLoop {
            service,
            in_flight: VecDeque::new(),
            outstanding: vec![false; service.tenants()],
        }
    }

    /// Submits job `job` of `tenant`.
    ///
    /// # Panics
    /// When the tenant already has a job outstanding — the closed
    /// loop's defining invariant.
    pub fn submit(&mut self, tenant: u32, job: usize, requests: &[Request]) {
        let busy = &mut self.outstanding[tenant as usize];
        assert!(!*busy, "tenant {tenant} already has a job outstanding");
        *busy = true;
        let submitted = Instant::now();
        let ticket = self.service.submit(tenant, requests);
        self.in_flight.push_back(InFlight {
            tenant,
            job,
            ticket,
            submitted,
        });
    }

    /// Waits for the oldest outstanding job; `None` when none is.
    pub fn next(&mut self) -> Option<Completion> {
        let f = self.in_flight.pop_front()?;
        let answer = f.ticket.wait();
        let latency = f.submitted.elapsed();
        self.outstanding[f.tenant as usize] = false;
        Some(Completion {
            tenant: f.tenant,
            job: f.job,
            answer,
            latency,
        })
    }
}

/// The outcome of driving every tenant through its jobs.
pub struct LoopOutcome {
    /// `answers[t][k]`: tenant `t`'s answer to its job `first + k`.
    pub answers: Vec<Vec<Answer>>,
    /// Submit-to-answer latency of every job, in completion order.
    pub latencies: Vec<Duration>,
    /// When each job was answered, from the first submit.
    pub completed: Vec<Duration>,
    /// From the first submit to the last answer.
    pub elapsed: Duration,
}

/// Runs jobs `first..` of every tenant's `jobs[t]` in a closed loop.
pub fn run(service: &ForestService, jobs: &[Vec<Vec<Request>>], first: usize) -> LoopOutcome {
    let mut cl = ClosedLoop::new(service);
    let mut answers: Vec<Vec<Answer>> = jobs.iter().map(|_| Vec::new()).collect();
    let mut latencies = Vec::new();
    let mut completed = Vec::new();
    let start = Instant::now();
    for (t, stream) in jobs.iter().enumerate() {
        if let Some(job) = stream.get(first) {
            cl.submit(t as u32, first, job);
        }
    }
    while let Some(c) = cl.next() {
        let t = c.tenant as usize;
        debug_assert_eq!(c.job, first + answers[t].len(), "answers arrive in order");
        answers[t].push(c.answer);
        latencies.push(c.latency);
        completed.push(start.elapsed());
        if let Some(job) = jobs[t].get(c.job + 1) {
            cl.submit(c.tenant, c.job + 1, job);
        }
    }
    LoopOutcome {
        answers,
        latencies,
        completed,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Workload};
    use rand::prelude::*;
    use spatial_serve::ServiceOptions;
    use spatial_tree::generators;

    fn small_service(tenants: usize) -> ForestService {
        let mut rng = StdRng::seed_from_u64(1);
        let trees: Vec<_> = (0..tenants)
            .map(|_| generators::uniform_random(64, &mut rng))
            .collect();
        ForestService::start(&trees, ServiceOptions::new(1))
    }

    #[test]
    #[should_panic(expected = "already has a job outstanding")]
    fn a_second_outstanding_job_is_refused() {
        let service = small_service(1);
        let mut cl = ClosedLoop::new(&service);
        cl.submit(0, 0, &[Request::Rank(1)]);
        cl.submit(0, 1, &[Request::Rank(2)]);
    }

    #[test]
    fn one_outstanding_job_per_tenant_gives_one_session_per_job() {
        let service = small_service(3);
        let mut jobs = workload::jobs(Workload::ReadHot, 5, &[12; 4]);
        jobs.truncate(3);
        // Keep ids inside the 64-vertex test trees.
        for r in jobs.iter_mut().flatten().flatten() {
            *r = match *r {
                Request::Lca(a, b) => Request::Lca(a % 64, b % 64),
                Request::SubtreeSum(v) => Request::SubtreeSum(v % 64),
                Request::Rank(v) => Request::Rank(v % 64),
                other => other,
            };
        }
        let out = run(&service, &jobs, 0);
        assert_eq!(out.latencies.len(), 36);
        assert!(out.answers.iter().flatten().all(|a| a.is_ok()));
        let report = service.shutdown();
        assert_eq!(report.total_jobs(), 36);
        // Coalescing never merged two jobs of one tenant into a session.
        assert_eq!(report.total_executes(), 36);
        for t in 0..3 {
            assert_eq!(report.tenant_log(t).expect("served").reports.len(), 12);
        }
    }
}
