//! In-process replays of a run's trace: the untraced oracle the
//! correctness gate compares against, and the traced replay that times
//! each layer's public functions from here (nothing inside the program
//! is instrumented).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use msoc_core::planner::PlannerOptions;
use msoc_core::{
    CoreEdit, Job, JobBuilder, JobOutcome, JobSpec, PlanService, Priority, ServiceSnapshot,
    SocHandle,
};
use msoc_net::wire::{checked_weights, WireEdit, WireResult};
use msoc_net::{
    execute_jobs, frame_request, frame_response, read_request, read_response, Request, Response,
    WireError, WireJob, WireOutcome, WireSocRef, WireSpec,
};

use crate::trace::Step;

/// One request of a run as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// What was sent.
    pub step: Step,
    /// The reply (`None` = transport error).
    pub reply: Option<Response>,
    /// Client-side round trip in microseconds.
    pub rtt_us: f64,
    /// When the reply arrived, in seconds from the start of the timed
    /// loop (0 for set-up traffic).
    pub done_s: f64,
}

/// Summed makespan of every completed plan in a reply.
pub fn makespans(reply: &Response) -> u64 {
    let Response::Outcomes(outcomes) = reply else { return 0 };
    outcomes
        .iter()
        .map(|o| match o {
            WireOutcome::Completed(WireResult::Plan { makespan, .. }) => *makespan,
            WireOutcome::Completed(WireResult::Table { winner_makespan, .. }) => *winner_makespan,
            WireOutcome::Completed(WireResult::BestWidth { makespan, .. }) => *makespan,
            _ => 0,
        })
        .sum()
}

/// Whether two replies to one request are the same: outcomes compared
/// by their canonical bytes ([`WireOutcome::encode_batch`]), every
/// other reply by its frame.
fn same_reply(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Outcomes(a), Response::Outcomes(b)) => {
            WireOutcome::encode_batch(a) == WireOutcome::encode_batch(b)
        }
        _ => frame_response(a) == frame_response(b),
    }
}

/// A tenant's in-process serving state: its service and SOC registry.
pub struct Tenant<'a> {
    service: &'a PlanService,
    registry: HashMap<u64, SocHandle>,
    /// Slot → the id the daemon returned for that registration.
    ids: Vec<u64>,
    /// Replies to `Submit` frames already replayed since the registry
    /// last changed (`None` when not memoizing).
    memo: Option<HashMap<Vec<u8>, Response>>,
}

impl<'a> Tenant<'a> {
    /// An empty registry over `service`.
    pub fn new(service: &'a PlanService) -> Self {
        Tenant { service, registry: HashMap::new(), ids: Vec::new(), memo: None }
    }

    /// Like [`Tenant::new`], but [`Tenant::oracle`] plans each distinct
    /// `Submit` frame once per registry state and reuses that reply for
    /// its repeats. Planning is deterministic, so the replies are the
    /// ones a full replay gives; warm-hot's repeated hot-set requests
    /// then cost the correctness gate nothing.
    pub fn memoized(service: &'a PlanService) -> Self {
        Tenant { memo: Some(HashMap::new()), ..Tenant::new(service) }
    }

    /// Serves one non-`Submit` request the way msocd's dispatch does.
    /// A registration is filed under the id the daemon returned.
    fn serve_other(&mut self, request: &Request, daemon_reply: &Response) -> Response {
        if let Some(memo) = &mut self.memo {
            memo.clear();
        }
        match request {
            Request::Register { soc, .. } => {
                let Response::Registered { soc_id } = daemon_reply else {
                    return Response::Error { message: String::from("the daemon refused it") };
                };
                match soc.to_soc() {
                    Ok(soc) => {
                        self.registry.insert(*soc_id, self.service.register(soc));
                        Response::Registered { soc_id: *soc_id }
                    }
                    Err(e) => Response::Error { message: e.to_string() },
                }
            }
            Request::Revise { soc_id, edits, .. } => {
                let mut core_edits = Vec::with_capacity(edits.len());
                for edit in edits {
                    core_edits.push(match edit {
                        WireEdit::ReplaceAnalog { index, core } => match core.to_core() {
                            Ok(core) => CoreEdit::ReplaceAnalog { index: *index as usize, core },
                            Err(e) => return Response::Error { message: e.to_string() },
                        },
                        WireEdit::ReplaceDigital { id, module } => {
                            CoreEdit::ReplaceDigital { id: *id, module: module.to_module() }
                        }
                    });
                }
                let Some(handle) = self.registry.get(soc_id) else {
                    return Response::Error {
                        message: format!("unknown registered soc id {soc_id}"),
                    };
                };
                match handle.revise(&core_edits) {
                    Ok(revised) => {
                        let revision = revised.revision();
                        self.registry.insert(*soc_id, revised);
                        Response::Revised { soc_id: *soc_id, revision }
                    }
                    Err(e) => Response::Error { message: e.to_string() },
                }
            }
            other => Response::Error { message: format!("not replayed: {other:?}") },
        }
    }

    /// Learns the slot a registration reply names (a refused one gets an
    /// id no registry holds, as on the daemon's side).
    fn learn(&mut self, step: &Step, reply: Option<&Response>) {
        if let Step::Register(_) = step {
            self.ids.push(match reply {
                Some(Response::Registered { soc_id }) => *soc_id,
                _ => u64::MAX,
            });
        }
    }

    /// Replays exchanges untraced through `execute_jobs` and the wire
    /// codec. Returns the wall time and how many replayed replies differ
    /// from the daemon's; each replayed reply is passed to `seen`.
    pub fn oracle(
        &mut self,
        tenant: &str,
        exchanges: &[Exchange],
        mut seen: impl FnMut(&Response),
    ) -> (Duration, usize) {
        let started = Instant::now();
        let mut mismatches = 0;
        for exchange in exchanges {
            let Some(reply) = &exchange.reply else {
                self.learn(&exchange.step, None);
                continue;
            };
            let framed = frame_request(&exchange.step.request(tenant, &self.ids));
            let remembered = self.memo.as_ref().and_then(|memo| memo.get(&framed)).cloned();
            let response = match remembered {
                Some(response) => response,
                None => {
                    let request = read_request(&mut &framed[..]).expect("own frames decode");
                    let response = match &request {
                        Request::Submit { jobs, .. } => {
                            Response::Outcomes(execute_jobs(self.service, &self.registry, jobs))
                        }
                        other => self.serve_other(other, reply),
                    };
                    let response = read_response(&mut &frame_response(&response)[..])
                        .expect("own frames decode");
                    if let (Request::Submit { .. }, Some(memo)) = (&request, &mut self.memo) {
                        memo.insert(framed, response.clone());
                    }
                    response
                }
            };
            if !same_reply(reply, &response) {
                mismatches += 1;
            }
            seen(&response);
            self.learn(&exchange.step, Some(reply));
        }
        (started.elapsed(), mismatches)
    }

    /// Replays exchanges with a timer around every layer call.
    pub fn traced(&mut self, tenant: &str, exchanges: &[Exchange]) -> Traced {
        let started = Instant::now();
        let mut out = Traced::default();
        for exchange in exchanges {
            let Some(reply) = &exchange.reply else {
                self.learn(&exchange.step, None);
                continue;
            };
            let request = exchange.step.request(tenant, &self.ids);
            let mut span = Span { rtt_us: exchange.rtt_us, ..Span::default() };
            let t0 = Instant::now();
            let framed = frame_request(&request);
            span.encode += t0.elapsed();
            let t = Instant::now();
            let request = read_request(&mut &framed[..]).expect("own frames decode");
            span.decode += t.elapsed();
            let t = Instant::now();
            let response = match &request {
                Request::Submit { jobs, .. } => {
                    span.submit = Some(Duration::ZERO);
                    Response::Outcomes(self.traced_submit(jobs, &mut span, &mut out))
                }
                other => self.serve_other(other, reply),
            };
            span.execute = t.elapsed();
            let t = Instant::now();
            let framed_reply = frame_response(&response);
            span.encode += t.elapsed();
            let t = Instant::now();
            let response = read_response(&mut &framed_reply[..]).expect("own frames decode");
            span.decode += t.elapsed();
            span.total = t0.elapsed();
            span.req_bytes = framed.len();
            span.resp_bytes = framed_reply.len();
            if !same_reply(reply, &response) {
                out.mismatches += 1;
            }
            out.spans.push(span);
            self.learn(&exchange.step, Some(reply));
        }
        out.wall = started.elapsed();
        out
    }

    /// `execute_jobs` taken apart at its public seams, so `submit` and
    /// each job's planner wall can be timed inside it. The traced
    /// replay's replies are checked against the daemon's like the
    /// oracle's, which keeps this in step with `execute_jobs`.
    fn traced_submit(
        &self,
        jobs: &[WireJob],
        span: &mut Span,
        out: &mut Traced,
    ) -> Vec<WireOutcome> {
        let mut outcomes: Vec<Option<WireOutcome>> = vec![None; jobs.len()];
        let mut built = Vec::with_capacity(jobs.len());
        let mut positions = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            match build_job(&self.registry, job) {
                Ok(job) => {
                    built.push(job);
                    positions.push(i);
                }
                Err(e) => outcomes[i] = Some(WireOutcome::Rejected { error: e.to_string() }),
            }
        }
        let t = Instant::now();
        let ran = self.service.submit(&built);
        span.submit = Some(t.elapsed());
        for ((position, outcome), job) in positions.into_iter().zip(&ran).zip(&built) {
            if let JobOutcome::Completed(report) = outcome {
                span.planner += report.wall;
                out.plan.add(&report.stats);
                let kind = match job.spec() {
                    JobSpec::Single { .. } => 0,
                    JobSpec::Table { .. } => 1,
                    _ => 2,
                };
                out.job_us[kind].push(report.wall.as_secs_f64() * 1e6);
            }
            outcomes[position] = Some(WireOutcome::from_outcome(outcome));
        }
        outcomes.into_iter().map(|o| o.expect("every job slot is filled")).collect()
    }
}

/// Builds a core job from its wire form as msocd's server does, for the
/// job surface the benchmark's traffic uses.
fn build_job(registry: &HashMap<u64, SocHandle>, job: &WireJob) -> Result<Job, WireError> {
    let builder = match &job.soc {
        WireSocRef::Registered(id) => JobBuilder::for_handle(
            registry
                .get(id)
                .ok_or_else(|| WireError::Corrupt(format!("unknown registered soc id {id}")))?,
        ),
        WireSocRef::Inline(soc) => JobBuilder::new(soc.to_soc()?),
    };
    let builder = match &job.spec {
        WireSpec::Single { width } => builder.single(*width),
        WireSpec::Table { widths } => builder.table(widths.clone()),
        WireSpec::BestWidth { widths } => builder.best_width(widths.clone()),
    };
    builder
        .weights(checked_weights(job.w_time, job.w_area)?)
        .cost_optimizer_delta(job.delta)
        .priority(match job.priority {
            0 => Priority::Low,
            2 => Priority::High,
            _ => Priority::Normal,
        })
        .opts(PlannerOptions { effort: job.effort, engine: job.engine, ..Default::default() })
        .build()
        .map_err(|e| WireError::Corrupt(e.to_string()))
}

/// One traced request's layer times.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// The daemon round trip the client measured for this request.
    pub rtt_us: f64,
    /// In-process wall from request encode to reply decode.
    pub total: Duration,
    /// `frame_request` + `frame_response`.
    pub encode: Duration,
    /// `read_request` + `read_response`.
    pub decode: Duration,
    /// The server's handling of the decoded request.
    pub execute: Duration,
    /// `PlanService::submit` (`Some` for `Submit` requests).
    pub submit: Option<Duration>,
    /// Summed `JobReport::wall` of the request's completed jobs.
    pub planner: Duration,
    /// Framed request size.
    pub req_bytes: usize,
    /// Framed reply size.
    pub resp_bytes: usize,
}

/// Summed `PlanStats` counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTotals {
    pub skeleton_hits: u64,
    pub skeleton_misses: u64,
    pub delta_packs: u64,
    pub pruned_passes: u64,
    pub prefix_jobs_restored: u64,
    pub width_bound_prunes: u64,
    pub cost_bound_prunes: u64,
}

impl PlanTotals {
    fn add(&mut self, s: &msoc_core::PlanStats) {
        self.skeleton_hits += s.skeleton_hits;
        self.skeleton_misses += s.skeleton_misses;
        self.delta_packs += s.delta_packs;
        self.pruned_passes += s.pruned_passes;
        self.prefix_jobs_restored += s.prefix_jobs_restored;
        self.width_bound_prunes += s.width_bound_prunes;
        self.cost_bound_prunes += s.cost_bound_prunes;
    }

    /// Adds another tenant's totals.
    pub fn merge(&mut self, o: &PlanTotals) {
        self.skeleton_hits += o.skeleton_hits;
        self.skeleton_misses += o.skeleton_misses;
        self.delta_packs += o.delta_packs;
        self.pruned_passes += o.pruned_passes;
        self.prefix_jobs_restored += o.prefix_jobs_restored;
        self.width_bound_prunes += o.width_bound_prunes;
        self.cost_bound_prunes += o.cost_bound_prunes;
    }
}

/// What a traced replay of one tenant's timed phase measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// One span per replayed request.
    pub spans: Vec<Span>,
    /// Completed jobs' planner walls in µs: single, table, best-width.
    pub job_us: [Vec<f64>; 3],
    /// Summed planner counters.
    pub plan: PlanTotals,
    /// Replies that differ from the daemon's.
    pub mismatches: usize,
    /// Wall of the whole traced replay.
    pub wall: Duration,
}

/// A snapshot round trip of one service through the public codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotTrip {
    pub export: Duration,
    pub encode: Duration,
    pub bytes: usize,
    pub decode: Duration,
    pub import: Duration,
    pub restored: u64,
    pub dropped: u64,
}

impl SnapshotTrip {
    /// Exports, encodes, decodes and imports `service`'s warm state.
    pub fn measure(service: &PlanService) -> Self {
        let t = Instant::now();
        let snapshot = service.export_snapshot();
        let export = t.elapsed();
        let t = Instant::now();
        let bytes = snapshot.to_bytes();
        let encode = t.elapsed();
        let t = Instant::now();
        let decoded = ServiceSnapshot::from_bytes(&bytes).expect("a fresh export decodes");
        let decode = t.elapsed();
        let t = Instant::now();
        let imported = PlanService::from_snapshot(&decoded).expect("a fresh export imports");
        let import = t.elapsed();
        let exported = snapshot.stats().schedules as u64;
        let restored = imported.stats().cached_schedules;
        SnapshotTrip {
            export,
            encode,
            bytes: bytes.len(),
            decode,
            import,
            restored,
            dropped: exported.saturating_sub(restored),
        }
    }

    /// Adds another tenant's round trip.
    pub fn merge(&mut self, o: &SnapshotTrip) {
        self.export += o.export;
        self.encode += o.encode;
        self.bytes += o.bytes;
        self.decode += o.decode;
        self.import += o.import;
        self.restored += o.restored;
        self.dropped += o.dropped;
    }
}
