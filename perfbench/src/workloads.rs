//! The three workloads, each driven through the library's public API.
//!
//! A *session* is one pass of a workload: set up (build the program,
//! establish the transport or service), run to exhaustion, check the result
//! against pinned values, tear down. Untraced sessions give the end-to-end
//! metrics; traced sessions run the same code over [`Timed`] endpoints.

use crate::layers::Traced;
use crate::measure::{path_set_digest, peak_rss_mb, reset_peak_rss};
use crate::timed::{NetTrace, Prebuilt, Timed};
use c9_core::{
    ClusterConfig, ClusterRunResult, ClusterSummary, InProcTransport, RunId, RunService,
    RunServiceConfig, RunState, RunSubmission, ServiceHandle, TcpTransport, Transport,
    WorkerService,
};
use c9_ir::Program;
use c9_net::EnvSpec;
use c9_posix::PosixEnvironment;
use c9_targets::{curl, memcached};
use c9_vm::Environment;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pinned outcomes. The digests are [`path_set_digest`] values; they do not
/// depend on the seed, the worker count or the transport.
const CURL_PATHS: u64 = 35_153;
const CURL_BUGS: usize = 26_181;
const CURL_BUG_DIGEST: u64 = 0x9bf4_0ce4_7f18_4aeb;
const MEMCACHED_4X5_PATHS: u64 = 11_644;
const MEMCACHED_4X5_DIGEST: u64 = 0x6429_7e81_9734_4b3b;
const MEMCACHED_3X5_PATHS: u64 = 1_098;

/// A run that has not exhausted by then counts as failed; keeps a hung
/// program from holding the benchmark past its exit deadline.
const RUN_LIMIT: Duration = Duration::from_secs(120);

/// How often the service client polls run status.
const POLL: Duration = Duration::from_micros(500);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Curl1w,
    Memcached2wTcp,
    ServiceMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Curl1w,
        Workload::Memcached2wTcp,
        Workload::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Curl1w => "curl-1w",
            Workload::Memcached2wTcp => "memcached-2w-tcp",
            Workload::ServiceMix => "service-mix",
        }
    }

    pub fn workers(self) -> usize {
        match self {
            Workload::Curl1w => 1,
            Workload::Memcached2wTcp | Workload::ServiceMix => 2,
        }
    }

    /// Runs one session; `traced` wraps every endpoint in [`Timed`].
    pub fn session(self, seed: u64, traced: bool) -> Session {
        let net = Arc::new(NetTrace::default());
        let mut session = match (self == Workload::Memcached2wTcp, traced) {
            (true, false) => self.session_over(seed, TcpTransport::loopback()),
            (true, true) => self.session_over(seed, Timed::new(TcpTransport::loopback(), &net)),
            (false, false) => self.session_over(seed, InProcTransport),
            (false, true) => self.session_over(seed, Timed::new(InProcTransport, &net)),
        };
        if let Some(layers) = session.traced.as_mut() {
            layers.net = net;
        }
        if !traced {
            session.traced = None;
        }
        session
    }

    fn session_over<T: Transport>(self, seed: u64, transport: T) -> Session
    where
        T::WorkerEnd: Send,
        T::CoordinatorEnd: Send,
    {
        match self {
            Workload::ServiceMix => service_mix(seed, transport),
            _ => batch(self, seed, transport),
        }
    }

    /// Set-up alone: build the program(s) and establish the fabric (and,
    /// on `service-mix`, the run service), then tear it all down unused.
    pub fn setup_only(self) -> Result<f64, String> {
        let start = Instant::now();
        match self {
            Workload::Curl1w => {
                let _setup = BatchSetup::new(self, InProcTransport)?;
                Ok(start.elapsed().as_secs_f64())
            }
            Workload::Memcached2wTcp => {
                let _setup = BatchSetup::new(self, TcpTransport::loopback())?;
                Ok(start.elapsed().as_secs_f64())
            }
            Workload::ServiceMix => {
                let programs = MixPrograms::build();
                let endpoints = InProcTransport
                    .establish(self.workers())
                    .map_err(|e| format!("establish: {e}"))?;
                let (service, handle) = new_service(endpoints.coordinator, self.workers());
                serve(service, endpoints.workers, || {
                    let setup_s = start.elapsed().as_secs_f64();
                    drop(programs);
                    handle.shutdown();
                    Ok(setup_s)
                })
            }
        }
    }

    fn program(self) -> Program {
        match self {
            Workload::Curl1w => curl::program(8),
            _ => memcached_program(4),
        }
    }

    fn check(self, result: &ClusterRunResult) -> Result<(), String> {
        match self {
            Workload::Curl1w => check_curl(result),
            _ => check_run(
                result,
                MEMCACHED_4X5_PATHS,
                0,
                Some(("test-case", &result.test_cases, MEMCACHED_4X5_DIGEST)),
            ),
        }
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// What one session measured.
#[derive(Default)]
pub struct Session {
    /// Program build plus transport (and service) establishment.
    pub setup_s: f64,
    /// From the call that starts the (bulk) run to its exhausted result.
    pub exhaust_s: f64,
    /// Per-run turnaround: on batch workloads the whole session (set-up,
    /// run, teardown); on `service-mix` each short run, submit to `Done`.
    pub turnarounds: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempts: u64,
    /// One line per failed attempt.
    pub failures: Vec<String>,
    pub traced: Option<Traced>,
}

impl Session {
    fn failed(attempts: u64, why: String) -> Session {
        Session {
            attempts,
            failures: vec![why],
            ..Session::default()
        }
    }

    /// Whether the session produced timings (its set-up and bulk run did
    /// not fail outright).
    pub fn measured(&self) -> bool {
        self.exhaust_s > 0.0
    }
}

pub(crate) fn memcached_program(packets: u32) -> Program {
    memcached::program(&memcached::MemcachedConfig {
        packets,
        packet_size: 5,
        ..memcached::MemcachedConfig::default()
    })
}

/// Library defaults, except one executor thread, the seed, and a time limit
/// far beyond any healthy run.
pub(crate) fn cluster_config(workers: usize, seed: u64, test_cases: bool) -> ClusterConfig {
    let mut config = ClusterConfig {
        num_workers: workers,
        time_limit: Some(RUN_LIMIT),
        ..ClusterConfig::default()
    };
    config.worker.threads = 1;
    config.worker.seed = seed;
    config.worker.generate_test_cases = test_cases;
    config
}

fn check_run(
    result: &ClusterRunResult,
    paths: u64,
    bugs: usize,
    digest: Option<(&str, &[c9_vm::TestCase], u64)>,
) -> Result<(), String> {
    let summary = &result.summary;
    if !summary.exhausted {
        return Err(format!(
            "did not exhaust ({} paths)",
            summary.paths_completed()
        ));
    }
    if summary.paths_completed() != paths {
        return Err(format!("{} paths, want {paths}", summary.paths_completed()));
    }
    if result.bugs.len() != bugs {
        return Err(format!("{} bug paths, want {bugs}", result.bugs.len()));
    }
    if summary.replay_divergences() != 0 {
        return Err(format!(
            "{} replay divergences",
            summary.replay_divergences()
        ));
    }
    if let Some((what, cases, want)) = digest {
        let got = path_set_digest(cases);
        if got != want {
            return Err(format!("{what} digest {got:016x}, want {want:016x}"));
        }
    }
    Ok(())
}

fn check_curl(result: &ClusterRunResult) -> Result<(), String> {
    check_run(
        result,
        CURL_PATHS,
        CURL_BUGS,
        Some(("bug-path", &result.bugs, CURL_BUG_DIGEST)),
    )
}

/// A batch workload's set-up: its program, environment and fabric.
struct BatchSetup<T: Transport> {
    program: Arc<Program>,
    env: Arc<dyn Environment>,
    fabric: Prebuilt<T::CoordinatorEnd, T::WorkerEnd>,
    build_s: f64,
}

impl<T: Transport> BatchSetup<T> {
    fn new(workload: Workload, transport: T) -> Result<BatchSetup<T>, String> {
        let start = Instant::now();
        let program = Arc::new(workload.program());
        let build_s = start.elapsed().as_secs_f64();
        let env: Arc<dyn Environment> = Arc::new(PosixEnvironment::new());
        let endpoints = transport
            .establish(workload.workers())
            .map_err(|e| format!("establish: {e}"))?;
        Ok(BatchSetup {
            program,
            env,
            fabric: Prebuilt(endpoints),
            build_s,
        })
    }
}

fn batch<T: Transport>(workload: Workload, seed: u64, transport: T) -> Session
where
    T::WorkerEnd: Send,
{
    reset_peak_rss();
    let start = Instant::now();
    let setup = match BatchSetup::new(workload, transport) {
        Ok(setup) => setup,
        Err(why) => return Session::failed(1, why),
    };
    let setup_s = start.elapsed().as_secs_f64();
    let workers = workload.workers();
    let cluster = c9_core::Cluster::new(
        setup.program,
        setup.env,
        cluster_config(workers, seed, workload == Workload::Memcached2wTcp),
    );
    let run_start = Instant::now();
    let result = cluster.run_with_transport(setup.fabric);
    let exhaust_s = run_start.elapsed().as_secs_f64();
    let failures: Vec<String> = workload
        .check(&result)
        .err()
        .map(|why| format!("{}: {why}", workload.name()))
        .into_iter()
        .collect();
    let traced = Traced {
        build_s: setup.build_s,
        window_s: exhaust_s,
        workers,
        paths_per_worker: paths_per_worker(&result.summary),
        jobs_transferred: result.summary.jobs_transferred(),
        stats: result.summary.worker_stats.clone(),
        ..Traced::default()
    };
    drop(result);
    drop(cluster);
    let turnaround = start.elapsed().as_secs_f64();
    Session {
        setup_s,
        exhaust_s,
        turnarounds: vec![turnaround],
        peak_rss_mb: peak_rss_mb(),
        attempts: 1,
        failures,
        traced: Some(traced),
    }
}

fn paths_per_worker(summary: &ClusterSummary) -> Vec<u64> {
    summary
        .worker_stats
        .iter()
        .map(|w| w.paths_completed)
        .collect()
}

struct MixPrograms {
    bulk: Arc<Program>,
    short: Arc<Program>,
}

impl MixPrograms {
    fn build() -> MixPrograms {
        MixPrograms {
            bulk: Arc::new(curl::program(8)),
            short: Arc::new(memcached_program(3)),
        }
    }
}

fn new_service<C: c9_core::CoordinatorEndpoint>(
    coordinator: C,
    workers: usize,
) -> (RunService<C>, ServiceHandle) {
    let mut service = RunService::new(coordinator, RunServiceConfig::default());
    for _ in 0..workers {
        service.add_worker(String::new());
    }
    let handle = service.handle();
    (service, handle)
}

/// Hosts `service` and one [`WorkerService`] per endpoint on scoped
/// threads, runs `client`, then joins everything. `client` must shut the
/// service down before it returns.
fn serve<C, W, R>(service: RunService<C>, workers: Vec<W>, client: impl FnOnce() -> R) -> R
where
    C: c9_core::CoordinatorEndpoint + Send,
    W: c9_core::WorkerEndpoint,
{
    std::thread::scope(|scope| {
        let joins: Vec<_> = workers
            .into_iter()
            .map(|mut endpoint| {
                scope.spawn(move || {
                    WorkerService::new(&mut endpoint, |_| {
                        Arc::new(PosixEnvironment::new()) as Arc<dyn Environment>
                    })
                    .serve()
                })
            })
            .collect();
        let service_thread = scope.spawn(move || service.run());
        let out = client();
        service_thread.join().expect("service thread panicked");
        for join in joins {
            join.join().expect("worker thread panicked");
        }
        out
    })
}

fn submission(name: &str, program: &Arc<Program>, seed: u64) -> RunSubmission {
    RunSubmission {
        name: name.to_string(),
        program: program.clone(),
        env: EnvSpec::Posix,
        config: cluster_config(2, seed, false),
    }
}

fn done(state: RunState) -> bool {
    matches!(state, RunState::Done | RunState::Failed)
}

/// One closed-loop short run in flight.
struct ShortRun {
    id: RunId,
    submitted: Instant,
    submit_s: f64,
    running: Option<Instant>,
}

/// `service-mix`: one bulk `curl` run submitted first, then a single
/// closed-loop client submitting `memcached-3x5` runs one after another
/// until the bulk run is done.
fn service_mix<T: Transport>(seed: u64, transport: T) -> Session
where
    T::WorkerEnd: Send,
    T::CoordinatorEnd: Send,
{
    reset_peak_rss();
    let start = Instant::now();
    let programs = MixPrograms::build();
    let build_s = start.elapsed().as_secs_f64();
    let endpoints = match transport.establish(Workload::ServiceMix.workers()) {
        Ok(endpoints) => endpoints,
        Err(e) => return Session::failed(1, format!("establish: {e}")),
    };
    let workers = endpoints.workers.len();
    let (service, handle) = new_service(endpoints.coordinator, workers);
    serve(service, endpoints.workers, || {
        let setup_s = start.elapsed().as_secs_f64();
        let mut session = Session {
            setup_s,
            ..Session::default()
        };
        let mut traced = Traced {
            build_s,
            workers,
            ..Traced::default()
        };
        let bulk_submitted = Instant::now();
        let Some(bulk) = handle.submit(submission("curl", &programs.bulk, seed)) else {
            handle.shutdown();
            return Session::failed(1, "service refused the bulk run".into());
        };
        session.attempts = 1;
        let submit_short = |handle: &ServiceHandle| {
            let submitted = Instant::now();
            let id = handle.submit(submission("memcached-3x5", &programs.short, seed))?;
            Some(ShortRun {
                id,
                submitted,
                submit_s: submitted.elapsed().as_secs_f64(),
                running: None,
            })
        };
        let mut bulk_done: Option<f64> = None;
        let mut short = submit_short(&handle);
        loop {
            std::thread::sleep(POLL);
            if bulk_done.is_none() {
                match handle.status(bulk) {
                    Some(info) if done(info.state) => {
                        bulk_done = Some(bulk_submitted.elapsed().as_secs_f64())
                    }
                    Some(_) => {}
                    None => break,
                }
            }
            if let Some(run) = short.as_mut() {
                let Some(info) = handle.status(run.id) else {
                    break;
                };
                let now = Instant::now();
                if info.state != RunState::Queued {
                    run.running.get_or_insert(now);
                }
                if done(info.state) {
                    session.attempts += 1;
                    let turnaround = (now - run.submitted).as_secs_f64();
                    let verdict = handle
                        .results(run.id)
                        .ok_or_else(|| format!("no results ({})", info.state))
                        .and_then(|result| {
                            traced
                                .stats
                                .extend(result.summary.worker_stats.iter().cloned());
                            check_run(&result, MEMCACHED_3X5_PATHS, 0, None)
                        });
                    match verdict {
                        Ok(()) => {
                            session.turnarounds.push(turnaround);
                            let running = run.running.expect("set above");
                            traced.submit_s.push(run.submit_s);
                            traced
                                .queue_wait_s
                                .push((running - run.submitted).as_secs_f64());
                            traced.run_s.push((now - running).as_secs_f64());
                        }
                        Err(why) => session
                            .failures
                            .push(format!("service-mix short run {}: {why}", run.id)),
                    }
                    short = None;
                }
            }
            if short.is_none() {
                if bulk_done.is_some() {
                    break;
                }
                short = submit_short(&handle);
            }
            if bulk_submitted.elapsed() > RUN_LIMIT + Duration::from_secs(5) {
                if let Some(run) = short {
                    session.attempts += 1;
                    session
                        .failures
                        .push(format!("service-mix short run {}: timed out", run.id));
                }
                break;
            }
        }
        traced.window_s = bulk_submitted.elapsed().as_secs_f64();
        match (bulk_done, handle.results(bulk)) {
            (Some(exhaust_s), Some(result)) => {
                if let Err(why) = check_curl(&result) {
                    session
                        .failures
                        .push(format!("service-mix bulk run: {why}"));
                }
                session.exhaust_s = exhaust_s;
                traced.paths_per_worker = paths_per_worker(&result.summary);
                traced.jobs_transferred = result.summary.jobs_transferred();
                traced
                    .stats
                    .extend(result.summary.worker_stats.iter().cloned());
            }
            _ => session
                .failures
                .push("service-mix bulk run: no result".into()),
        }
        handle.shutdown();
        session.peak_rss_mb = peak_rss_mb();
        session.traced = Some(traced);
        session
    })
}
