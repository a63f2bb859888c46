//! Socket-to-socket benchmark of the `msocd` plan daemon.
//!
//! ```text
//! msoc-perfbench --msocd <path> --workload <cold-plan|warm-hot|revise-reboot>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives a release `msocd` child over loopback TCP from two
//! closed-loop clients, checks every reply against an in-process serial
//! replay of the same trace through `msoc_net::execute_jobs`, and prints
//! a report followed by one JSON result line. With `--trace 1` it also
//! replays the trace with a timer around each layer's public functions
//! and reports the per-layer breakdown instead of the end-to-end
//! metrics. See `perfbench/README.md`.

mod daemon;
mod replay;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use msoc_core::{
    recover, DaemonConfig, DirStore, ExportOutcome, PlanService, ServiceStats, SnapshotDaemon,
};
use msoc_net::{tenant_shard, Request, Response, WireOutcome, WireStats};

use daemon::{Conn, Daemon};
use replay::{makespans, Exchange, PlanTotals, SnapshotTrip, Span, Tenant, Traced};
use stats::{percentile, Slice, Tally};
use trace::{Step, Stream, Workload, CLIENTS, SHARDS};

/// Seed claims are checked on besides the ones they were developed on.
const HELD_OUT_SEED: u64 = 1_000_003;
/// Seconds of workload traffic before the measured phase. The first
/// seconds after set-up run up to a third slower while the daemon's
/// working set settles; they are served and checked but not measured.
const WARMUP_S: f64 = 3.0;
/// Equal slices the measured phase is cut into (see [`stats::sliced`]).
const SLICES: usize = 7;

struct Args {
    msocd: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut msocd = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--msocd" => msocd = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        msocd: msocd.ok_or("--msocd is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("msoc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result =
        std::fs::create_dir_all(&work).map_err(|e| e.to_string()).and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("msoc-perfbench: the correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("msoc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One client's requests over a run, in order.
#[derive(Default)]
struct ClientLog {
    seeding: Vec<Exchange>,
    setup: Vec<Exchange>,
    timed: Vec<Exchange>,
}

/// What the daemon-facing part of a run measured.
struct TcpRun {
    logs: Vec<ClientLog>,
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    daemon_stats: Vec<WireStats>,
}

/// Sends `steps` in order on one connection; set-up traffic must succeed.
fn exchange_all(
    conn: &mut Conn,
    tenant: &str,
    steps: Vec<Step>,
    ids: &mut Vec<u64>,
) -> Result<Vec<Exchange>, String> {
    let mut log = Vec::with_capacity(steps.len());
    for step in steps {
        let sent = Instant::now();
        let reply = conn
            .call(&step.request(tenant, ids))
            .map_err(|e| format!("set-up request failed: {e}"))?;
        let rtt_us = sent.elapsed().as_secs_f64() * 1e6;
        if !stats::succeeded(Some(&reply)) {
            return Err(format!("set-up request answered {reply:?}"));
        }
        if let Response::Registered { soc_id } = reply {
            ids.push(soc_id);
        }
        log.push(Exchange { step, reply: Some(reply), rtt_us, done_s: 0.0 });
    }
    Ok(log)
}

/// The closed loop: send the next request only after the last reply,
/// until `until` seconds from `epoch` have passed and the scored prefix
/// is complete. A transport error ends the client.
fn timed_loop(
    conn: &mut Conn,
    stream: &Stream,
    tenant: &str,
    ids: &mut Vec<u64>,
    epoch: Instant,
    until: f64,
) -> Vec<Exchange> {
    let mut log = Vec::new();
    for i in 0.. {
        if i >= stream.scored() && epoch.elapsed().as_secs_f64() >= until {
            break;
        }
        let step = stream.timed(i);
        let request = step.request(tenant, ids);
        let sent = Instant::now();
        let reply = conn.call(&request).ok();
        let done = Instant::now();
        let rtt_us = (done - sent).as_secs_f64() * 1e6;
        let done_s = (done - epoch).as_secs_f64();
        if let Step::Register(_) = step {
            ids.push(match reply {
                Some(Response::Registered { soc_id }) => soc_id,
                _ => u64::MAX,
            });
        }
        let broken = reply.is_none();
        log.push(Exchange { step, reply, rtt_us, done_s });
        if broken {
            break;
        }
    }
    log
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Plans the revise-reboot fixture into `store` through a seeding
/// daemon, which flushes it on shutdown.
fn seed_fixture(
    args: &Args,
    streams: &[Stream],
    tenants: &[String],
    store: &Path,
    logs: &mut [ClientLog],
) -> Result<(), String> {
    let daemon = Daemon::spawn(&args.msocd, Some(store))?;
    let addr = daemon.addr;
    let seeded = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(tenants)
            .map(|(stream, tenant)| {
                scope.spawn(move || {
                    let mut conn = Conn::open(addr)?;
                    exchange_all(&mut conn, tenant, stream.seeding(), &mut Vec::new())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seeding client does not panic"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    for (log, seeded) in logs.iter_mut().zip(seeded) {
        log.seeding = seeded;
    }
    daemon.shutdown()
}

/// Boots msocd [`Workload::setups`] times (over fresh fixture copies
/// for revise-reboot), sets each up, and runs the timed loop (warm-up,
/// then the measured phase) on the last. `setup_s` is the median set-up.
fn tcp_run(
    args: &Args,
    streams: &[Stream],
    tenants: &[String],
    work: &Path,
) -> Result<TcpRun, String> {
    let mut logs: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::default()).collect();
    let fixture = work.join("fixture");
    if args.workload == Workload::ReviseReboot {
        seed_fixture(args, streams, tenants, &fixture, &mut logs)?;
    }
    let setups = args.workload.setups();
    let mut setup_s = Vec::with_capacity(setups);
    for boot in 0..setups {
        let store =
            (args.workload == Workload::ReviseReboot).then(|| work.join(format!("boot-{boot}")));
        if let Some(store) = &store {
            copy_dir(&fixture, store)?;
        }
        let timed = boot + 1 == setups;
        let started = Instant::now();
        let daemon = Daemon::spawn(&args.msocd, store.as_deref())?;
        let addr = daemon.addr;
        let mut control = Conn::open(addr)?;
        match control.call(&Request::Stats { tenant: tenants[0].clone() }) {
            Ok(Response::Stats(_)) => {}
            other => return Err(format!("first request answered {other:?}")),
        }
        // Clients set up concurrently, then start the timed loop together.
        let set_up_done = Barrier::new(CLIENTS + 1);
        let epoch = OnceLock::new();
        let until = WARMUP_S + args.seconds;
        let (phases, set_up) = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .zip(tenants)
                .map(|(stream, tenant)| {
                    let (set_up_done, epoch) = (&set_up_done, &epoch);
                    scope.spawn(move || {
                        let set_up = Conn::open(addr).and_then(|mut conn| {
                            let mut ids = Vec::new();
                            let setup = exchange_all(&mut conn, tenant, stream.setup(), &mut ids)?;
                            Ok((conn, ids, setup))
                        });
                        set_up_done.wait();
                        let epoch = *epoch.get_or_init(Instant::now);
                        let (mut conn, mut ids, setup) = set_up?;
                        let timed_log = if timed {
                            timed_loop(&mut conn, stream, tenant, &mut ids, epoch, until)
                        } else {
                            Vec::new()
                        };
                        Ok::<_, String>((setup, timed_log))
                    })
                })
                .collect();
            set_up_done.wait();
            let set_up = started.elapsed();
            let phases: Vec<_> =
                handles.into_iter().map(|h| h.join().expect("client does not panic")).collect();
            (phases, set_up)
        });
        setup_s.push(set_up.as_secs_f64());
        let phases = phases.into_iter().collect::<Result<Vec<_>, _>>()?;
        if !timed {
            drop(control);
            daemon.shutdown()?;
            continue;
        }
        let mut daemon_stats = Vec::with_capacity(CLIENTS);
        for tenant in tenants {
            match control.call(&Request::Stats { tenant: tenant.clone() }) {
                Ok(Response::Stats(stats)) => daemon_stats.push(stats),
                other => return Err(format!("stats answered {other:?}")),
            }
        }
        let peak_rss_mb = daemon.peak_rss_mb()?;
        drop(control);
        daemon.shutdown()?;
        for (log, (setup, timed_log)) in logs.iter_mut().zip(phases) {
            log.setup = setup;
            log.timed = timed_log;
        }
        return Ok(TcpRun { logs, setup_s, peak_rss_mb, daemon_stats });
    }
    unreachable!("the last boot runs the timed phase")
}

/// The oracle's verdict on one client's log.
struct Checked {
    mismatches: usize,
    rebuild_wall: Duration,
    scored_cycles: u64,
}

/// Replays every client's log serially on a fresh service (per tenant,
/// as the daemon's shards are) through `execute_jobs`.
fn oracle(streams: &[Stream], tenants: &[String], logs: &[ClientLog]) -> Vec<Checked> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (stream, tenant, log) = (&streams[c], &tenants[c], &logs[c]);
                scope.spawn(move || {
                    let service = PlanService::new();
                    let mut replay = Tenant::memoized(&service);
                    let (seed_wall, seed_bad) = replay.oracle(tenant, &log.seeding, |_| {});
                    let (setup_wall, setup_bad) = replay.oracle(tenant, &log.setup, |_| {});
                    let mut scored_cycles = 0;
                    let mut seen = 0;
                    let (_, timed_bad) = replay.oracle(tenant, &log.timed, |reply| {
                        if seen < stream.scored() {
                            scored_cycles += makespans(reply);
                        }
                        seen += 1;
                    });
                    Checked {
                        mismatches: seed_bad + setup_bad + timed_bad,
                        rebuild_wall: seed_wall + setup_wall,
                        scored_cycles,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle does not panic")).collect()
    })
}

/// Service counters over the traced timed phase.
#[derive(Default, Clone, Copy)]
struct CacheDelta {
    schedule_lookups: u64,
    schedule_hits: u64,
    session_lookups: u64,
    session_hits: u64,
    session_evictions: u64,
    schedule_evictions: u64,
    lock_contentions: u64,
}

impl CacheDelta {
    fn between(a: &ServiceStats, b: &ServiceStats) -> Self {
        CacheDelta {
            schedule_lookups: b.schedule_lookups - a.schedule_lookups,
            schedule_hits: b.schedule_hits - a.schedule_hits,
            session_lookups: b.session_lookups - a.session_lookups,
            session_hits: b.session_hits - a.session_hits,
            session_evictions: b.session_evictions - a.session_evictions,
            schedule_evictions: b.schedule_evictions - a.schedule_evictions,
            lock_contentions: b.lock_contentions - a.lock_contentions,
        }
    }

    fn merge(&mut self, o: &CacheDelta) {
        self.schedule_lookups += o.schedule_lookups;
        self.schedule_hits += o.schedule_hits;
        self.session_lookups += o.session_lookups;
        self.session_hits += o.session_hits;
        self.session_evictions += o.session_evictions;
        self.schedule_evictions += o.schedule_evictions;
        self.lock_contentions += o.lock_contentions;
    }
}

/// What the traced replay measured, all tenants together.
#[derive(Default)]
struct Breakdown {
    spans: Vec<Span>,
    job_us: [Vec<f64>; 3],
    plan: PlanTotals,
    trip: SnapshotTrip,
    cache: CacheDelta,
    mismatches: usize,
    wall: Duration,
    recover: Duration,
    polls: Duration,
    bytes_written: u64,
    exports_persisted: u64,
    exports_unchanged: u64,
    put_retries: u64,
    pool: [u64; 3],
}

/// Replays the run in-process, with a timer around each layer call when
/// `traced`, else untraced through `execute_jobs` (the wall to compare
/// against). For revise-reboot the services boot from a copy of the
/// fixture and a snapshot daemon per tenant polls on msocd's cadence,
/// as in the run.
fn in_process_replay(
    workload: Workload,
    tenants: &[String],
    logs: &[ClientLog],
    work: &Path,
    traced: bool,
) -> Result<Breakdown, String> {
    let mut out = Breakdown::default();
    let mut services = Vec::with_capacity(CLIENTS);
    let mut stores = Vec::with_capacity(CLIENTS);
    for tenant in tenants {
        if workload == Workload::ReviseReboot {
            let shard = format!("shard-{}", tenant_shard(tenant, SHARDS));
            let copy = work.join(if traced { "traced" } else { "untraced" }).join(&shard);
            copy_dir(&work.join("fixture").join(&shard), &copy)?;
            let t = Instant::now();
            let report = recover(&DirStore::open(&copy).map_err(|e| e.to_string())?);
            out.recover += t.elapsed();
            services.push(report.service);
            stores.push(Some(DirStore::open(&copy).map_err(|e| e.to_string())?));
        } else {
            services.push(PlanService::new());
            stores.push(None);
        }
    }
    let daemons: Vec<Mutex<SnapshotDaemon<'_, DirStore>>> = services
        .iter()
        .zip(stores)
        .filter_map(|(service, store)| {
            store.map(|s| {
                Mutex::new(SnapshotDaemon::with_config(service, s, DaemonConfig::default()))
            })
        })
        .collect();
    let start = Barrier::new(CLIENTS + 2);
    let stop = AtomicBool::new(false);
    let (per_client, ticks, pool) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (service, tenant, log, start) = (&services[c], &tenants[c], &logs[c], &start);
                scope.spawn(move || {
                    let mut replay = Tenant::new(service);
                    replay.oracle(tenant, &log.setup, |_| {});
                    let trip = if traced {
                        SnapshotTrip::measure(service)
                    } else {
                        SnapshotTrip::default()
                    };
                    let before = service.stats();
                    start.wait();
                    let replayed = if traced {
                        replay.traced(tenant, &log.timed)
                    } else {
                        let (wall, mismatches) = replay.oracle(tenant, &log.timed, |_| {});
                        Traced { wall, mismatches, ..Traced::default() }
                    };
                    (replayed, trip, CacheDelta::between(&before, &service.stats()))
                })
            })
            .collect();
        let (daemons, stop, start) = (&daemons, &stop, &start);
        let ticker = scope.spawn(move || {
            let mut ticks = (Duration::ZERO, 0u64);
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
                for daemon in daemons {
                    let t = Instant::now();
                    let outcome = daemon.lock().expect("daemon lock").poll();
                    ticks.0 += t.elapsed();
                    if let ExportOutcome::Persisted { bytes, .. } = outcome {
                        ticks.1 += bytes as u64;
                    }
                }
            }
            ticks
        });
        start.wait();
        let pool0 = msoc_par::pool_stats();
        let per_client: Vec<(Traced, SnapshotTrip, CacheDelta)> =
            handles.into_iter().map(|h| h.join().expect("traced replay does not panic")).collect();
        let pool1 = msoc_par::pool_stats();
        stop.store(true, Ordering::Relaxed);
        let ticks = ticker.join().expect("ticker does not panic");
        (
            per_client,
            ticks,
            [
                pool1.dispatches - pool0.dispatches,
                pool1.steals - pool0.steals,
                pool1.parks - pool0.parks,
            ],
        )
    });
    for (traced, trip, cache) in per_client {
        out.spans.extend(traced.spans);
        for (all, some) in out.job_us.iter_mut().zip(traced.job_us) {
            all.extend(some);
        }
        out.plan.merge(&traced.plan);
        out.trip.merge(&trip);
        out.cache.merge(&cache);
        out.mismatches += traced.mismatches;
        out.wall += traced.wall;
    }
    (out.polls, out.bytes_written) = ticks;
    for daemon in &daemons {
        let stats = daemon.lock().expect("daemon lock").stats();
        out.exports_persisted += stats.exports_persisted;
        out.exports_unchanged += stats.unchanged_skips;
        out.put_retries += stats.put_retries;
    }
    out.pool = pool;
    Ok(out)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(part: u64, base: u64) -> f64 {
    part as f64 / base.max(1) as f64
}

fn run(args: &Args, work: &Path) -> Result<bool, String> {
    let tenants = trace::tenants();
    let streams: Vec<Stream> =
        (0..CLIENTS).map(|c| Stream::new(args.workload, args.seed, c)).collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} rustc=\"{}\" commit={}",
        std::env::var("BENCH_RUSTC").unwrap_or_else(|_| String::from("unknown")),
        std::env::var("BENCH_COMMIT").unwrap_or_else(|_| String::from("none")),
    );
    println!(
        "run: workload={} seed={} seconds={} warmup={WARMUP_S} slices={SLICES} trace={} clients={CLIENTS} shards={SHARDS} held-out-seed={HELD_OUT_SEED}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let tcp = tcp_run(args, &streams, &tenants, work)?;
    let checked = oracle(&streams, &tenants, &tcp.logs);

    // Correctness: every reply equals the oracle's, and the scored
    // prefix completed with the oracle's summed makespan. Every request
    // of the timed loop counts in the tally; the end-to-end figures come
    // from the replies that arrived in the measured phase, by slice.
    let mut tally = Tally::default();
    let slice_s = args.seconds / SLICES as f64;
    let mut slices = vec![Slice::default(); SLICES];
    let mut test_cycles = 0u64;
    let mut correct = true;
    for ((log, check), stream) in tcp.logs.iter().zip(&checked).zip(&streams) {
        for exchange in &log.timed {
            tally.record(exchange.reply.as_ref());
            let at = exchange.done_s - WARMUP_S;
            if !(0.0..args.seconds).contains(&at) {
                continue;
            }
            let slice = &mut slices[((at / slice_s) as usize).min(SLICES - 1)];
            slice.rtts_ms.push(exchange.rtt_us / 1e3);
            if let Some(Response::Outcomes(outcomes)) = &exchange.reply {
                slice.jobs +=
                    outcomes.iter().filter(|o| matches!(o, WireOutcome::Completed(_))).count()
                        as u64;
            }
        }
        let scored = &log.timed[..log.timed.len().min(stream.scored())];
        let complete = scored.len() == stream.scored()
            && scored.iter().all(|e| stats::succeeded(e.reply.as_ref()));
        let cycles: u64 = scored.iter().filter_map(|e| e.reply.as_ref()).map(makespans).sum();
        test_cycles += cycles;
        if check.mismatches > 0 || !complete || cycles != check.scored_cycles {
            println!(
                "correctness: {} replies differ from the oracle; scored prefix complete={complete}, \
                 test cycles {cycles} vs oracle {}",
                check.mismatches, check.scored_cycles
            );
            correct = false;
        }
    }
    let shed: u64 = tcp.daemon_stats.iter().map(|s| s.jobs_shed).sum();
    let daemon_failed: u64 = tcp.daemon_stats.iter().map(|s| s.jobs_failed).sum();
    println!(
        "requests: attempted={} failed={} failed_share={} daemon jobs_shed={shed} jobs_failed={daemon_failed}",
        tally.attempted,
        tally.failed,
        tally.failed_share()
    );
    let rtts: Vec<f64> = slices.iter().flat_map(|s| s.rtts_ms.iter().copied()).collect();
    let p99 =
        percentile(&rtts, 0.99).map_or_else(|e| format!("refused ({e})"), |v| format!("{v:.4}"));
    println!("client.latency_p99_ms = {p99} (ungated, over the whole measured phase)");
    for (k, slice) in slices.iter().enumerate() {
        println!(
            "slice {k}: {:.1} jobs/s over {} requests",
            slice.jobs as f64 / slice_s,
            slice.rtts_ms.len()
        );
    }

    if !args.trace {
        let (jobs_per_s, p50, p90) = stats::sliced(&slices, slice_s)?;
        let metrics = [
            metric("jobs_per_s", jobs_per_s, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p90_ms", p90, "ms"),
            metric("setup_s", stats::median(&tcp.setup_s), "s"),
            metric("completed_share", 1.0 - tally.failed_share(), "share"),
            metric("peak_rss_mb", tcp.peak_rss_mb, "MiB"),
            metric("test_cycles_sum", test_cycles as f64, "cycles"),
        ];
        for m in &metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        println!("{}", json_line(correct, tally, &metrics));
        return Ok(correct);
    }

    let b = in_process_replay(args.workload, &tenants, &tcp.logs, work, true)?;
    let untraced = in_process_replay(args.workload, &tenants, &tcp.logs, work, false)?;
    if b.mismatches + untraced.mismatches > 0 {
        println!(
            "correctness: {} replayed replies differ from the daemon's",
            b.mismatches + untraced.mismatches
        );
        correct = false;
    }
    let cold_rebuild: Duration = checked.iter().map(|c| c.rebuild_wall).sum();
    let spans = &b.spans;
    let submits: Vec<&Span> = spans.iter().filter(|s| s.submit.is_some()).collect();
    let submit_of = |s: &Span| s.submit.unwrap_or_default();
    let completed_jobs: u64 = b.job_us.iter().map(|v| v.len() as u64).sum();
    let residue = |s: &Span| us(s.total) - us(s.encode + s.decode + s.execute);

    // Each layer's self time per request; the shares of the client's
    // round trip sum to 1 with the residue.
    let rtt = mean(spans.iter().map(|s| s.rtt_us));
    let layers = [
        ("transport", mean(spans.iter().map(|s| s.rtt_us - us(s.total)))),
        ("net::wire", mean(spans.iter().map(|s| us(s.encode + s.decode)))),
        (
            "net::server",
            mean(spans.iter().map(|s| us(s.execute) - us(s.submit.unwrap_or_default()))),
        ),
        (
            "core::service",
            mean(spans.iter().map(|s| us(s.submit.unwrap_or_default()) - us(s.planner))),
        ),
        ("core::planner", mean(spans.iter().map(|s| us(s.planner)))),
        ("residue", mean(spans.iter().map(residue))),
    ];
    println!("layer breakdown over {} requests, mean client round trip {rtt:.1} us:", spans.len());
    for (layer, self_us) in &layers {
        println!(
            "  {layer:<14} self {self_us:>10.1} us/request  {:>6.1}% of wall",
            100.0 * self_us / rtt
        );
    }
    let overhead = ms(untraced.wall);
    let traced_ms = ms(b.wall);
    println!(
        "tracing overhead: traced {traced_ms:.1} ms - untraced {overhead:.1} ms = {:.1} ms",
        traced_ms - overhead
    );
    for (kind, samples) in ["single", "table", "best_width"].iter().zip(&b.job_us) {
        let p50 = percentile(samples, 0.5)
            .map_or_else(|e| format!("refused ({e})"), |v| format!("{v:.1} us"));
        println!("planner.job_us_p50.{kind} = {p50} over {} jobs", samples.len());
    }
    let plan = &b.plan;
    let metrics = [
        metric("wire.decode_us", mean(spans.iter().map(|s| us(s.decode))), "us"),
        metric("wire.encode_us", mean(spans.iter().map(|s| us(s.encode))), "us"),
        metric("wire.req_bytes", mean(spans.iter().map(|s| s.req_bytes as f64)), "bytes"),
        metric("wire.resp_bytes", mean(spans.iter().map(|s| s.resp_bytes as f64)), "bytes"),
        metric("server.execute_us", mean(spans.iter().map(|s| us(s.execute))), "us"),
        metric("transport.overhead_us", layers[0].1, "us"),
        metric("service.submit_us", mean(submits.iter().map(|s| us(submit_of(s)))), "us"),
        metric(
            "service.dispatch_overhead_us",
            mean(submits.iter().map(|s| us(submit_of(s)) - us(s.planner))),
            "us",
        ),
        metric("service.jobs_shed", shed as f64, "count"),
        metric("service.jobs_failed", daemon_failed as f64, "count"),
        metric(
            "cache.schedule_hit_share",
            ratio(b.cache.schedule_hits, b.cache.schedule_lookups),
            "share",
        ),
        metric("cache.schedule_lookups", b.cache.schedule_lookups as f64, "count"),
        metric(
            "cache.session_hit_share",
            ratio(b.cache.session_hits, b.cache.session_lookups),
            "share",
        ),
        metric("cache.session_lookups", b.cache.session_lookups as f64, "count"),
        metric(
            "cache.schedule_lookups_per_job",
            ratio(b.cache.schedule_lookups, completed_jobs),
            "count/job",
        ),
        metric("cache.lock_contentions", b.cache.lock_contentions as f64, "count"),
        metric("cache.session_evictions", b.cache.session_evictions as f64, "count"),
        metric("cache.schedule_evictions", b.cache.schedule_evictions as f64, "count"),
        metric("planner.single_us_p50", percentile(&b.job_us[0], 0.5)?, "us"),
        metric("planner.cost_bound_prunes", plan.cost_bound_prunes as f64, "count"),
        metric("planner.width_bound_prunes", plan.width_bound_prunes as f64, "count"),
        metric("tam.delta_packs", plan.delta_packs as f64, "count"),
        metric(
            "tam.skeleton_hit_share",
            ratio(plan.skeleton_hits, plan.skeleton_hits + plan.skeleton_misses),
            "share",
        ),
        metric("tam.pruned_passes", plan.pruned_passes as f64, "count"),
        metric("tam.prefix_jobs_restored", plan.prefix_jobs_restored as f64, "count"),
        metric("snapshot.export_ms", ms(b.trip.export), "ms"),
        metric("snapshot.encode_ms", ms(b.trip.encode), "ms"),
        metric("snapshot.bytes", b.trip.bytes as f64, "bytes"),
        metric("snapshot.decode_ms", ms(b.trip.decode), "ms"),
        metric("snapshot.import_ms", ms(b.trip.import), "ms"),
        metric("snapshot.import_restored", b.trip.restored as f64, "count"),
        metric("snapshot.import_dropped", b.trip.dropped as f64, "count"),
        metric("snapshot.cold_rebuild_ms", ms(cold_rebuild), "ms"),
        metric("daemon.recover_ms", ms(b.recover), "ms"),
        metric("daemon.poll_ms", ms(b.polls), "ms"),
        metric("daemon.exports_persisted", b.exports_persisted as f64, "count"),
        metric("daemon.exports_unchanged", b.exports_unchanged as f64, "count"),
        metric("daemon.put_retries", b.put_retries as f64, "count"),
        metric("daemon.bytes_written", b.bytes_written as f64, "bytes"),
        metric("pool.dispatches_per_job", ratio(b.pool[0], completed_jobs), "count/job"),
        metric("pool.steals_per_job", ratio(b.pool[1], completed_jobs), "count/job"),
        metric("pool.parks_per_job", ratio(b.pool[2], completed_jobs), "count/job"),
        metric("trace.residue_us", layers[5].1, "us"),
        metric("trace.residue_share", layers[5].1 / rtt, "share"),
        metric("trace.overhead_ms", traced_ms - overhead, "ms"),
    ];
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(correct, tally, &metrics));
    Ok(correct)
}
