//! The cluster harness: workers coordinated by a load balancer over a
//! pluggable transport.
//!
//! This reproduces the deployment of §3.3 and §6 of the paper: every worker
//! is an independent symbolic execution engine with its own solver and state
//! store (shared-nothing); workers exchange jobs only as serialized path
//! encodings; the load balancer sees only queue lengths and coverage bit
//! vectors. The worker and balancer loops are written against the
//! [`WorkerEndpoint`] / [`CoordinatorEndpoint`] traits of `c9-net`, so the
//! same code runs over in-process channels ([`InProcTransport`], the
//! default for [`Cluster::run`]) or TCP sockets spanning OS processes
//! (`TcpTransport` with the `c9-worker` / `c9-coordinator` binaries) —
//! wall-clock speedups come from real parallelism in both cases.
//!
//! Membership is *elastic*: the coordinator loop admits workers that join a
//! running cluster (folding them into the next balancing round), runs a
//! missed-heartbeat failure detector, and — because jobs are replayable
//! path prefixes (§3.2) — recovers from a worker crash by re-injecting the
//! dead worker's ledger into the survivors. The same ledger, serialized
//! periodically, is the coordinator [`Checkpoint`] a restarted run resumes
//! from.

use crate::balancer::{BalancerConfig, LoadBalancer, TransferRequest};
use crate::membership::{Checkpoint, Membership};
use crate::portfolio::{derive_seed, Portfolio, PortfolioConfig};
use crate::stats::{ClusterSummary, IntervalSample};
use crate::worker::{Worker, WorkerConfig};
use c9_ir::Program;
use c9_net::{
    Control, CoordinatorEndpoint, EnvSpec, FinalReport, InProcTransport, Job, JobBatch, JobTree,
    MemberEvent, RunId, RunSpec, RunSpecBuilder, StatusReport, TransferEvent, Transport,
    WorkerEndpoint, WorkerId, COORDINATOR,
};
use c9_solver::CacheSlice;
use c9_trace::{error, info, warn, Span, SpanKind};
use c9_vm::{CoverageSet, Environment, StrategyKind, TestCase};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entry bound of the constraint-cache slices workers piggyback on job
/// batches and status-report gossip: enough to cover a transferred
/// frontier region's hot queries, small enough to stay a fraction of the
/// job payload itself.
pub(crate) const GOSSIP_SLICE_MAX: usize = 256;

/// Entry bound of the coordinator's merged "cluster hot set", rebroadcast
/// to every worker on balance rounds.
pub(crate) const HOT_SET_MAX: usize = 1024;

/// Gossip rides every k-th status report, bounding background traffic on
/// the report cadence (job-batch piggybacks are unaffected — they ship
/// with every transfer).
const GOSSIP_STATUS_EVERY: u32 = 4;

/// Status reports processed per coordinator round at most. Reports can
/// arrive faster than the drain processes them (tight status intervals,
/// many workers, recovery re-injection); without a bound the drain never
/// falls through to stopping conditions, gossip folds, or balancing, and
/// parked gossip slices pile up without limit.
pub(crate) const MAX_STATUS_DRAIN: usize = 256;

/// The gossip fold-and-rebroadcast runs every this-many balance
/// intervals. Folding is cheap but rebroadcasting serializes the hot-set
/// excerpt once per worker; at aggressive balance cadences (single-digit
/// milliseconds) doing that every interval costs more than the warmth it
/// spreads.
pub(crate) const GOSSIP_FOLD_EVERY: u32 = 8;

/// Bound on parked, not-yet-folded gossip slices; beyond it the oldest
/// slice is dropped. Gossip is opportunistic warmth — losing a stale
/// slice under pressure is always safe.
pub(crate) const PENDING_GOSSIP_MAX: usize = 128;

/// Configuration of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub num_workers: usize,
    /// Per-worker configuration.
    pub worker: WorkerConfig,
    /// Stop after this much wall-clock time (None = run to exhaustion).
    pub time_limit: Option<Duration>,
    /// Stop once global line coverage reaches this fraction.
    pub coverage_target: Option<f64>,
    /// Stop once this many paths have completed across the cluster.
    pub max_total_paths: Option<u64>,
    /// How often workers report status to the load balancer.
    pub status_interval: Duration,
    /// How often the load balancer runs the balancing algorithm.
    pub balance_interval: Duration,
    /// How often a timeline sample is recorded (the paper's "10-second
    /// buckets", scaled down).
    pub sample_interval: Duration,
    /// Balancing algorithm parameters.
    pub balancer: BalancerConfig,
    /// Disable load balancing after this much time (the Fig. 13 ablation).
    pub disable_lb_after: Option<Duration>,
    /// Only balance until every worker has received work once, then never
    /// again (static partitioning ablation, §2).
    pub static_partition: bool,
    /// Instructions per worker quantum between message-handling points.
    pub quantum: u64,
    /// Declare a worker dead after this much silence (no status report and
    /// no heartbeat) and re-inject its pending jobs into the survivors.
    /// None disables the failure detector — the right choice for
    /// transports whose workers cannot die independently.
    pub failure_timeout: Option<Duration>,
    /// How often worker transports send liveness heartbeats, independently
    /// of the worker loop (zero disables them).
    pub heartbeat_interval: Duration,
    /// Workers attach a frontier snapshot to every `snapshot_every`-th
    /// status report (zero = never). Snapshots are what make crash
    /// recovery and checkpoint/resume exact; 1 keeps the coordinator's
    /// ledger current to the latest report.
    pub snapshot_every: u32,
    /// Write a [`Checkpoint`] here periodically and at the end of the run.
    pub checkpoint_path: Option<PathBuf>,
    /// How often the periodic checkpoint is written.
    pub checkpoint_interval: Duration,
    /// Continue a previous run: its frontier is injected instead of the
    /// root job, and its stats are folded into the final summary.
    pub resume: Option<Checkpoint>,
    /// The strategy portfolio: when set, each worker is assigned a strategy
    /// from the mix (spread evenly, re-spread on churn) instead of everyone
    /// running [`WorkerConfig::strategy`]; with `adapt` on, per-strategy
    /// coverage yield rebalances the assignment every balancing round.
    pub portfolio: Option<PortfolioConfig>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            num_workers: 2,
            worker: WorkerConfig::default(),
            time_limit: None,
            coverage_target: None,
            max_total_paths: None,
            status_interval: Duration::from_millis(10),
            balance_interval: Duration::from_millis(20),
            sample_interval: Duration::from_millis(100),
            balancer: BalancerConfig::default(),
            disable_lb_after: None,
            static_partition: false,
            quantum: 20_000,
            failure_timeout: None,
            heartbeat_interval: Duration::from_millis(25),
            snapshot_every: 0,
            checkpoint_path: None,
            checkpoint_interval: Duration::from_secs(1),
            resume: None,
            portfolio: None,
        }
    }
}

impl ClusterConfig {
    /// Builds the wire run spec a remote worker needs to participate in a
    /// run of `program` under this configuration. `run` identifies the run
    /// among all runs the target worker daemons serve (never
    /// [`RunId::SERVICE`]); `worker_epoch` is the per-worker fencing epoch
    /// assigned by the coordinator's membership at join time; `strategy` is
    /// the portfolio's assignment for this worker. The searcher seed is
    /// derived deterministically from the base seed, the worker id, and the
    /// epoch. Specs are assembled through [`RunSpecBuilder`], so an invalid
    /// configuration (zero quantum, reserved run id, …) is caught here
    /// rather than on the wire.
    pub fn run_spec(
        &self,
        program: &Program,
        env: EnvSpec,
        worker: WorkerId,
        run: RunId,
        worker_epoch: u64,
        strategy: StrategyKind,
    ) -> RunSpec {
        RunSpecBuilder::new()
            .program(program.clone())
            .env(env)
            .executor(self.worker.executor)
            .seed(derive_seed(self.worker.seed, worker, worker_epoch))
            .strategy(strategy)
            .generate_test_cases(self.worker.generate_test_cases)
            .export_order(self.worker.export_order)
            .replay_cache(self.worker.replay_cache)
            .threads(self.worker.threads)
            .quantum(self.quantum)
            .status_interval(self.status_interval)
            .seed_root(worker.0 == 0 && self.resume.is_none())
            .run(run)
            .worker_epoch(worker_epoch)
            .heartbeat_interval(self.heartbeat_interval)
            .snapshot_every(self.snapshot_every)
            .solver_cache(self.worker.solver_cache)
            .solver_backend(self.worker.solver_backend)
            .cache_gossip(self.worker.cache_gossip)
            .build()
            .expect("cluster config produces a valid run spec")
    }

    fn loop_opts(&self, run: RunId, seed_root: bool, worker_epoch: u64) -> WorkerLoopOpts {
        WorkerLoopOpts {
            run,
            quantum: self.quantum,
            status_interval: self.status_interval,
            seed_root,
            worker_epoch,
            snapshot_every: self.snapshot_every,
            heartbeat_interval: self.heartbeat_interval,
        }
    }
}

/// Options of a coordinator-driven run over a remote transport.
#[derive(Clone, Debug)]
pub struct CoordinatorRunOpts {
    /// The environment model remote workers should instantiate.
    pub env: EnvSpec,
    /// The run identity stamped on every frame of this run. Must be unique
    /// among the runs the target worker daemons serve and never
    /// [`RunId::SERVICE`].
    pub run: RunId,
    /// Listen addresses of statically dialed workers, by worker id. The
    /// endpoint must already be connected to exactly these.
    pub initial_workers: Vec<String>,
    /// Wait for at least this many live members before starting the run
    /// (elastic deployments; statically dialed workers already count).
    pub min_workers: usize,
    /// How long to wait for `min_workers` before starting anyway.
    pub join_wait: Duration,
    /// Workload name recorded in checkpoints.
    pub target: String,
}

impl Default for CoordinatorRunOpts {
    fn default() -> CoordinatorRunOpts {
        CoordinatorRunOpts {
            env: EnvSpec::Null,
            run: RunId(1),
            initial_workers: Vec::new(),
            min_workers: 1,
            join_wait: Duration::from_secs(60),
            target: String::new(),
        }
    }
}

/// The outcome of a cluster run, including generated test cases.
#[derive(Clone, Debug, Default)]
pub struct ClusterRunResult {
    /// Aggregate statistics and timeline.
    pub summary: ClusterSummary,
    /// Test cases from all workers (when enabled in the worker config).
    pub test_cases: Vec<TestCase>,
    /// Bug-exposing test cases from all workers.
    pub bugs: Vec<TestCase>,
}

/// How long the coordinator waits for final reports after issuing `Stop`
/// when the workers are remote processes that may have died.
const REMOTE_FINAL_TIMEOUT: Duration = Duration::from_secs(30);

/// Final-report wait for locally hosted workers: effectively unbounded,
/// because a local worker always either sends its final report or drops its
/// endpoint (ending the wait via disconnect) — reports are never lost.
const LOCAL_FINAL_TIMEOUT: Duration = Duration::from_secs(60 * 60 * 24);

/// A Cloud9 cluster: one program, one environment model, N workers.
pub struct Cluster {
    program: Arc<Program>,
    env: Arc<dyn Environment>,
    config: ClusterConfig,
}

impl Cluster {
    /// Creates a cluster for `program` with the given environment model.
    pub fn new(program: Arc<Program>, env: Arc<dyn Environment>, config: ClusterConfig) -> Cluster {
        Cluster {
            program,
            env,
            config,
        }
    }

    /// Runs the cluster on in-process channels until a stopping condition is
    /// met and returns the aggregated results.
    pub fn run(&self) -> ClusterRunResult {
        self.run_with_transport(InProcTransport)
    }

    /// Builds this run's strategy portfolio: the configured mix, or the
    /// uniform single-strategy portfolio when none was configured, with the
    /// yield history of a resumed checkpoint restored.
    fn make_portfolio(&self) -> Portfolio {
        let config = self
            .config
            .portfolio
            .clone()
            .unwrap_or_else(|| PortfolioConfig::uniform(self.config.worker.strategy));
        let mut portfolio = Portfolio::new(config);
        if let Some(resume) = &self.config.resume {
            portfolio.restore(&resume.portfolio);
        }
        portfolio
    }

    /// Runs the cluster over any transport that hosts the worker endpoints
    /// locally (in-process channels, or loopback TCP where every byte
    /// crosses the kernel's network stack). One thread is spawned per
    /// worker; the coordinator runs on the calling thread.
    pub fn run_with_transport<T: Transport>(&self, transport: T) -> ClusterRunResult
    where
        T::WorkerEnd: Send,
    {
        let n = self.config.num_workers.max(1);
        let start = Instant::now();
        let endpoints = transport.establish(n).expect("transport establish failed");
        let mut coordinator = endpoints.coordinator;
        let workers = endpoints.workers;
        assert_eq!(
            workers.len(),
            n,
            "run_with_transport needs a transport with locally hosted workers; \
             use run_coordinator for remote daemons"
        );

        let mut membership = Membership::new(self.config.failure_timeout);
        let mut portfolio = self.make_portfolio();
        let mut epochs = Vec::with_capacity(n);
        for _ in 0..n {
            let (worker, epoch) = membership.add_static(String::new(), start);
            epochs.push(epoch);
            let strategy = portfolio.assign(worker);
            membership.set_strategy(worker, strategy);
        }
        if let Some(resume) = &self.config.resume {
            membership.seed_pool(resume.jobs());
        }

        let opts = CoordinatorRunOpts {
            target: self.program.name.clone(),
            min_workers: n,
            ..CoordinatorRunOpts::default()
        };
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (i, mut endpoint) in workers.into_iter().enumerate() {
                let program = self.program.clone();
                let env = self.env.clone();
                let config = self.config.clone();
                let loop_opts =
                    config.loop_opts(opts.run, i == 0 && config.resume.is_none(), epochs[i]);
                // Locally hosted workers get their portfolio assignment and
                // derived seed through their config (remote daemons get the
                // same through the run spec).
                let mut worker_config = config.worker;
                worker_config.strategy = portfolio
                    .assignment(WorkerId(i as u32))
                    .unwrap_or(config.worker.strategy);
                worker_config.seed = derive_seed(config.worker.seed, WorkerId(i as u32), epochs[i]);
                handles.push(scope.spawn(move || {
                    run_worker_loop(&mut endpoint, program, env, worker_config, loop_opts);
                }));
            }
            let result = self.drive(
                &mut coordinator,
                &mut membership,
                &mut portfolio,
                start,
                &opts,
                LOCAL_FINAL_TIMEOUT,
            );
            for handle in handles {
                handle.join().expect("worker thread panicked");
            }
            result
        })
    }

    /// Drives a cluster whose workers live in other processes: registers
    /// the statically dialed workers, waits for elastic joins up to
    /// `opts.min_workers`, ships every member its run spec, runs the
    /// balancing loop of §3.3 (with failure detection and crash recovery),
    /// and aggregates the results.
    pub fn run_coordinator<C: CoordinatorEndpoint>(
        &self,
        endpoint: &mut C,
        opts: CoordinatorRunOpts,
    ) -> ClusterRunResult {
        let start = Instant::now();
        let mut membership = Membership::new(self.config.failure_timeout);
        let mut portfolio = self.make_portfolio();
        for addr in &opts.initial_workers {
            let (worker, _) = membership.add_static(addr.clone(), start);
            let strategy = portfolio.assign(worker);
            membership.set_strategy(worker, strategy);
        }

        // Admit joiners until the requested quorum (statically dialed
        // workers already count towards it).
        let join_deadline = start + opts.join_wait;
        while membership.alive_count() < opts.min_workers.max(1) {
            if self.admit_joins(endpoint, &mut membership, &mut portfolio, &opts, false) == 0 {
                if Instant::now() >= join_deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        // Ship every member its run spec, carrying its portfolio strategy.
        for member in membership.members().to_vec() {
            if !member.is_alive() {
                continue;
            }
            let strategy = portfolio.assign(member.worker);
            membership.set_strategy(member.worker, strategy);
            let spec = self.config.run_spec(
                &self.program,
                opts.env,
                member.worker,
                opts.run,
                member.epoch,
                strategy,
            );
            if endpoint.send_start(member.worker, spec).is_err() {
                membership.mark_dead(member.worker);
                portfolio.remove(member.worker);
            }
        }
        // Re-announce the final pre-run membership after the starts, so
        // every member sees the peer table as of the moment the run began
        // (including any worker admitted while the specs were shipping).
        let infos = membership.peer_infos();
        for worker in membership.alive() {
            let _ = endpoint.send_control(worker, opts.run, Control::Membership(infos.clone()));
        }
        if let Some(resume) = &self.config.resume {
            membership.seed_pool(resume.jobs());
        }

        self.drive(
            endpoint,
            &mut membership,
            &mut portfolio,
            start,
            &opts,
            REMOTE_FINAL_TIMEOUT,
        )
    }

    /// Polls for joining workers and admits them: assigns identity, epoch,
    /// and a portfolio strategy, acknowledges, announces the new membership
    /// to everyone, and (when the run is underway) ships the run spec so
    /// the joiner is folded into the next balancing round. Returns how many
    /// were admitted.
    fn admit_joins<C: CoordinatorEndpoint>(
        &self,
        endpoint: &mut C,
        membership: &mut Membership,
        portfolio: &mut Portfolio,
        opts: &CoordinatorRunOpts,
        started: bool,
    ) -> usize {
        let mut admitted = 0;
        while let Some(request) = endpoint.try_recv_join() {
            let now = Instant::now();
            let (worker, epoch) =
                membership.join(request.listen_addr.clone(), request.previous, now);
            // A fenced previous incarnation gives its strategy slot back
            // before the new incarnation draws one, so a crash-rejoin cycle
            // keeps the portfolio spread stable. (A `previous` naming a
            // still-live member was not fenced and keeps its slot.)
            if let Some((old, _)) = request.previous {
                if membership.member(old).is_some_and(|m| !m.is_alive()) {
                    portfolio.remove(old);
                }
            }
            let strategy = portfolio.assign(worker);
            membership.set_strategy(worker, strategy);
            if endpoint
                .admit(
                    request.token,
                    worker,
                    epoch,
                    membership.peer_infos(),
                    strategy,
                )
                .is_err()
            {
                membership.mark_dead(worker);
                portfolio.remove(worker);
                continue;
            }
            if started {
                let spec = self.config.run_spec(
                    &self.program,
                    opts.env,
                    worker,
                    opts.run,
                    epoch,
                    strategy,
                );
                if endpoint.send_start(worker, spec).is_err() {
                    membership.mark_dead(worker);
                    portfolio.remove(worker);
                    continue;
                }
            }
            info!(
                "worker {worker} joined (epoch {epoch}, {}, strategy {strategy})",
                request.listen_addr
            );
            // Everyone learns the new peer table (and the fenced epochs of
            // any previous incarnation).
            let infos = membership.peer_infos();
            for peer in membership.alive() {
                if peer != worker {
                    let _ =
                        endpoint.send_control(peer, opts.run, Control::Membership(infos.clone()));
                }
            }
            admitted += 1;
        }
        admitted
    }

    /// The balancing loop plus final-report aggregation.
    fn drive<C: CoordinatorEndpoint>(
        &self,
        endpoint: &mut C,
        membership: &mut Membership,
        portfolio: &mut Portfolio,
        start: Instant,
        opts: &CoordinatorRunOpts,
        final_timeout: Duration,
    ) -> ClusterRunResult {
        let base_stats = self
            .config
            .resume
            .as_ref()
            .map(|c| c.base_stats.clone())
            .unwrap_or_default();
        let summary = self.balancer_loop(endpoint, membership, portfolio, start, opts);
        let mut result = ClusterRunResult {
            summary,
            ..ClusterRunResult::default()
        };

        // Collect final reports from every live member; the failure
        // detector keeps running so a worker that dies during shutdown
        // cannot stall the collection for the full timeout.
        let deadline = Instant::now() + final_timeout;
        loop {
            let outstanding = membership
                .members()
                .iter()
                .any(|m| m.is_alive() && !m.got_final);
            if !outstanding {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            while let Some(event) = endpoint.try_recv_event() {
                self.apply_member_event(membership, event);
            }
            for worker in membership.detect_failures(Instant::now()) {
                result.summary.workers_failed += 1;
                warn!("worker {worker} died during shutdown");
            }
            // Status reports still queued behind the Stop carry the last
            // transfer notices and acknowledgements; without them a batch
            // exported right before the shutdown would be missing from the
            // in-flight table — and from the final checkpoint.
            while let Some(report) = endpoint.recv_status(Duration::ZERO) {
                if report.run == opts.run {
                    membership.record_status(&report, Instant::now());
                }
            }
            let step = (deadline - now).min(Duration::from_millis(50));
            if let Some(report) = endpoint.recv_final(step) {
                if report.run == opts.run && membership.record_final(&report) {
                    result.summary.coverage.merge(&report.coverage);
                    result.summary.bugs_found += report.bugs.len() as u64;
                    result.test_cases.extend(report.test_cases);
                    result.bugs.extend(report.bugs);
                }
            }
        }
        // One more sweep for status reports buffered behind the last final
        // — their transfer notices would otherwise be lost, and with them
        // the jobs of any batch still on the wire at shutdown.
        while let Some(report) = endpoint.recv_status(Duration::ZERO) {
            if report.run == opts.run {
                membership.record_status(&report, Instant::now());
            }
        }

        // Every member contributes its exact share: final stats when the
        // report arrived, the last snapshot-consistent stats otherwise
        // (a dead member's post-snapshot work was re-executed elsewhere).
        // A member without a final also contributes the bugs it shipped
        // eagerly with its snapshots — the completed paths they sit on are
        // never re-explored, so this is the only surviving record.
        result.summary.worker_stats = base_stats;
        for member in membership.members() {
            result
                .summary
                .worker_stats
                .push(member.summary_stats().clone());
            if !member.got_final && !member.status_bugs.is_empty() {
                result.summary.bugs_found += member.status_bugs.len() as u64;
                result.bugs.extend(member.status_bugs.iter().cloned());
            }
        }
        if let Some(resume) = &self.config.resume {
            result.summary.coverage.merge(&resume.coverage);
        }
        result.summary.num_workers = membership.len().max(1);
        result.summary.elapsed = start.elapsed();

        // The final checkpoint reflects the finals' frontiers, so a run
        // stopped by a time or path limit resumes exactly where it left
        // off.
        if let Some(path) = &self.config.checkpoint_path {
            let mut span = Span::enter(SpanKind::Checkpoint);
            let checkpoint =
                self.build_checkpoint(membership, portfolio, &result.summary, opts, start);
            span.detail(checkpoint.jobs().len() as u64);
            info!(
                "final checkpoint: {} completed paths, {} pending jobs",
                checkpoint.base_paths(),
                checkpoint.jobs().len()
            );
            if let Err(e) = checkpoint.save(path) {
                error!("checkpoint write failed: {e}");
            }
        }
        result
    }

    fn build_checkpoint(
        &self,
        membership: &Membership,
        portfolio: &Portfolio,
        summary: &ClusterSummary,
        opts: &CoordinatorRunOpts,
        start: Instant,
    ) -> Checkpoint {
        let base_elapsed = self
            .config
            .resume
            .as_ref()
            .map(|c| c.elapsed)
            .unwrap_or_default();
        Checkpoint {
            run: opts.run,
            target: opts.target.clone(),
            base_stats: summary.worker_stats.clone(),
            frontier: JobTree::from_jobs(&membership.frontier_jobs()).encode(),
            coverage: summary.coverage.clone(),
            elapsed: base_elapsed + start.elapsed(),
            portfolio: portfolio.checkpoint(),
        }
    }

    fn apply_member_event(&self, membership: &mut Membership, event: MemberEvent) {
        match event {
            MemberEvent::Heartbeat { worker, epoch } => {
                membership.record_heartbeat(worker, epoch, Instant::now());
            }
            MemberEvent::Leave { worker, epoch } => {
                if membership.leave(worker, epoch) {
                    info!("worker {worker} left gracefully");
                }
            }
        }
    }

    /// Distributes the re-injection pool (reclaimed or resumed jobs) across
    /// the live workers, least-loaded first.
    fn reinject<C: CoordinatorEndpoint>(
        &self,
        endpoint: &mut C,
        membership: &mut Membership,
        run: RunId,
        jobs: Vec<Job>,
    ) -> u64 {
        if jobs.is_empty() {
            return 0;
        }
        let mut targets: Vec<(u64, WorkerId)> = membership
            .members()
            .iter()
            .filter(|m| m.is_alive())
            .map(|m| (m.queue_length, m.worker))
            .collect();
        if targets.is_empty() {
            // No survivors to hand the work to; keep it pooled (a joiner
            // may still arrive) and let the time limit end the run
            // otherwise.
            membership.seed_pool(jobs);
            return 0;
        }
        targets.sort();
        let total = jobs.len() as u64;
        let chunk_size = jobs.len().div_ceil(targets.len());
        let mut rest = jobs;
        let mut t = 0;
        while !rest.is_empty() {
            let chunk: Vec<Job> = rest.drain(..chunk_size.min(rest.len())).collect();
            let (_, destination) = targets[t % targets.len()];
            t += 1;
            let now = Instant::now();
            let encoded = JobTree::from_jobs(&chunk).encode();
            let seq = membership.record_inject(destination, chunk, now);
            if endpoint
                .send_control(destination, run, Control::Inject { seq, encoded })
                .is_err()
            {
                membership.cancel_inject(destination, seq);
            }
        }
        total
    }

    #[allow(clippy::too_many_lines)]
    fn balancer_loop<C: CoordinatorEndpoint>(
        &self,
        endpoint: &mut C,
        membership: &mut Membership,
        portfolio: &mut Portfolio,
        start: Instant,
        opts: &CoordinatorRunOpts,
    ) -> ClusterSummary {
        let base_paths = self
            .config
            .resume
            .as_ref()
            .map(|c| c.base_paths())
            .unwrap_or(0);
        let mut lb = LoadBalancer::new(membership.len(), self.program.loc(), self.config.balancer);
        if let Some(resume) = &self.config.resume {
            lb.merge_coverage(&resume.coverage);
        }
        let mut last_balance = Instant::now();
        let mut last_sample = Instant::now();
        let mut last_checkpoint = Instant::now();
        // The cluster hot set: the union of every worker's gossiped cache
        // slices, hotness-ranked and bounded. Received slices are parked in
        // `pending_gossip` and folded in on the balance cadence — merging
        // per report would starve the status drain at tight report
        // intervals — and the merged set is rebroadcast only when the fold
        // learned new entries.
        let mut hot_set = CacheSlice::default();
        let mut pending_gossip: Vec<CacheSlice> = Vec::new();
        let mut last_gossip = Instant::now();
        let mut transferred_at_last_sample = 0u64;
        let mut everyone_had_work = vec![false; membership.len()];
        let mut summary = ClusterSummary {
            num_workers: membership.len(),
            coverage: CoverageSet::new(self.program.loc()),
            ..ClusterSummary::default()
        };

        loop {
            // Fold joiners into the cluster; they enter the next balancing
            // round as empty (maximally underloaded) workers. Membership is
            // the source of truth for liveness — members can also die
            // outside the detector below (re-join fencing, failed admits),
            // so sync the balancer in both directions every round.
            let joined = self.admit_joins(endpoint, membership, portfolio, opts, true);
            summary.workers_joined += joined as u64;
            for member in membership.members() {
                if member.is_alive() {
                    lb.ensure_worker(member.worker);
                } else {
                    lb.set_alive(member.worker, false);
                    portfolio.remove(member.worker);
                }
            }

            // Liveness events.
            while let Some(event) = endpoint.try_recv_event() {
                if let MemberEvent::Leave { worker, .. } = &event {
                    lb.set_alive(*worker, false);
                    portfolio.remove(*worker);
                }
                self.apply_member_event(membership, event);
            }

            // Failure detection runs *before* the status drain and the
            // pool is re-injected *after* it: every acknowledgement or
            // transfer outcome already queued gets one full drain to
            // resolve its in-flight entry before reclaimed jobs are handed
            // out again — re-injecting a batch some survivor just
            // confirmed would double-count its paths.
            for worker in membership.detect_failures(Instant::now()) {
                lb.set_alive(worker, false);
                portfolio.remove(worker);
                summary.workers_failed += 1;
                warn!(
                    "worker {worker} declared dead (missed heartbeats); \
                     reclaiming its pending jobs"
                );
            }

            // Drain status reports (block briefly for the first one). The
            // drain is bounded per round: under a report flood (tight
            // status intervals, recovery re-injection) new frames can
            // arrive faster than they are processed, and an unbounded
            // drain would never fall through to the stopping conditions,
            // the gossip fold, or the balancing round below.
            let mut got_any = false;
            let mut drained = 0usize;
            while drained < MAX_STATUS_DRAIN {
                let Some(report) = (if got_any {
                    endpoint.recv_status(Duration::ZERO)
                } else {
                    endpoint.recv_status(Duration::from_millis(2))
                }) else {
                    break;
                };
                got_any = true;
                drained += 1;
                if report.run != opts.run {
                    continue; // a frame of some other (finished or future) run
                }
                let now = Instant::now();
                if !membership.record_status(&report, now) {
                    continue; // fenced-off epoch or dead member
                }
                let w = report.worker;
                if w.index() >= everyone_had_work.len() {
                    everyone_had_work.resize(w.index() + 1, false);
                }
                if report.queue_length > 0 {
                    everyone_had_work[w.index()] = true;
                }
                let (global, newly_covered) = lb.report(w, report.queue_length, &report.coverage);
                // Per-strategy yield: the lines this report added to the
                // global vector are credited to the strategy the worker
                // stamped on it.
                portfolio.record_yield(report.strategy, newly_covered);
                let _ = endpoint.send_control(w, opts.run, Control::GlobalCoverage(global));
                if let Some(gossip) = report.gossip {
                    if pending_gossip.len() >= PENDING_GOSSIP_MAX {
                        pending_gossip.remove(0);
                    }
                    pending_gossip.push(gossip);
                }
            }

            let pool = membership.take_pool();
            summary.jobs_reclaimed += self.reinject(endpoint, membership, opts.run, pool);

            let elapsed = start.elapsed();
            let members = membership.members();
            let total_paths: u64 = base_paths
                + members
                    .iter()
                    .map(|m| {
                        m.summary_stats().paths_completed.max(if m.is_alive() {
                            m.latest_stats.paths_completed
                        } else {
                            0
                        })
                    })
                    .sum::<u64>();

            // Stopping conditions.
            let mut goal_reached = false;
            let mut exhausted = false;
            if let Some(target) = self.config.coverage_target {
                if lb.global_coverage().ratio() >= target {
                    goal_reached = true;
                }
            }
            if let Some(max_paths) = self.config.max_total_paths {
                if total_paths >= max_paths {
                    goal_reached = true;
                }
            }
            let alive_count = membership.alive_count();
            let all_idle = alive_count > 0
                && members
                    .iter()
                    .filter(|m| m.is_alive())
                    .all(|m| m.idle && m.queue_length == 0);
            if all_idle && lb.all_idle() && membership.settled() {
                exhausted = true;
                goal_reached = true;
            }
            // Every worker died and nobody is left to take the reclaimed
            // jobs: the run cannot make progress.
            let cluster_lost = alive_count == 0 && !membership.is_empty();
            let timed_out = self
                .config
                .time_limit
                .map(|limit| elapsed >= limit)
                .unwrap_or(false);

            // Timeline sampling.
            if last_sample.elapsed() >= self.config.sample_interval
                || goal_reached
                || timed_out
                || cluster_lost
            {
                let transferred_now = lb.total_transferred();
                summary.timeline.push(IntervalSample {
                    elapsed,
                    states_transferred: transferred_now - transferred_at_last_sample,
                    total_states: lb.queue_lengths().iter().sum(),
                    useful_instructions: members
                        .iter()
                        .map(|m| m.latest_stats.useful_instructions)
                        .sum(),
                    coverage: lb.global_coverage().ratio(),
                });
                transferred_at_last_sample = transferred_now;
                last_sample = Instant::now();
            }

            // Periodic checkpoint: the ledger union is the global frontier.
            if let Some(path) = &self.config.checkpoint_path {
                if last_checkpoint.elapsed() >= self.config.checkpoint_interval {
                    let mut coverage = lb.global_coverage().clone();
                    coverage.merge(&summary.coverage);
                    let snapshot_summary = ClusterSummary {
                        worker_stats: {
                            let mut stats = self
                                .config
                                .resume
                                .as_ref()
                                .map(|c| c.base_stats.clone())
                                .unwrap_or_default();
                            stats.extend(members.iter().map(|m| m.summary_stats().clone()));
                            stats
                        },
                        coverage,
                        ..ClusterSummary::default()
                    };
                    let mut span = Span::enter(SpanKind::Checkpoint);
                    let checkpoint = self.build_checkpoint(
                        membership,
                        portfolio,
                        &snapshot_summary,
                        opts,
                        start,
                    );
                    span.detail(checkpoint.jobs().len() as u64);
                    if let Err(e) = checkpoint.save(path) {
                        error!("checkpoint write failed: {e}");
                    }
                    last_checkpoint = Instant::now();
                }
            }

            if goal_reached || timed_out || cluster_lost {
                summary.goal_reached = goal_reached;
                summary.exhausted = exhausted;
                break;
            }

            // Cache gossip: fold the slices received since the last fold
            // into the hot set in one batch, and rebroadcast only when the
            // fold actually learned new entries — hot-bit churn alone is
            // not worth a cluster-wide broadcast. The cadence is a
            // multiple of the balance interval and the broadcast ships
            // only the hottest excerpt: serializing the full hot set per
            // worker every few milliseconds would out-cost the warmth.
            // This runs even when load balancing is disabled (static
            // partitions still profit from shared cache warmth).
            if last_gossip.elapsed() >= self.config.balance_interval * GOSSIP_FOLD_EVERY
                && !pending_gossip.is_empty()
            {
                let mut added = 0;
                for slice in pending_gossip.drain(..) {
                    added += hot_set.merge(&slice);
                }
                hot_set.truncate_ranked(HOT_SET_MAX);
                if added > 0 && !hot_set.is_empty() {
                    let mut excerpt = hot_set.clone();
                    excerpt.truncate_ranked(GOSSIP_SLICE_MAX);
                    for worker in membership.alive() {
                        let _ = endpoint.send_control(
                            worker,
                            opts.run,
                            Control::HotSet(excerpt.clone()),
                        );
                    }
                }
                last_gossip = Instant::now();
            }

            // Load balancing.
            let lb_disabled_by_time = self
                .config
                .disable_lb_after
                .map(|d| elapsed >= d)
                .unwrap_or(false);
            let lb_disabled_static = self.config.static_partition
                && membership
                    .members()
                    .iter()
                    .filter(|m| m.is_alive())
                    .all(|m| {
                        everyone_had_work
                            .get(m.worker.index())
                            .copied()
                            .unwrap_or(false)
                    });
            if !lb_disabled_by_time
                && !lb_disabled_static
                && last_balance.elapsed() >= self.config.balance_interval
            {
                let mut round = Span::enter(SpanKind::BalanceRound);
                let requests = lb.balance();
                round.detail(requests.len() as u64);
                for TransferRequest {
                    source,
                    destination,
                    count,
                } in requests
                {
                    let _ = endpoint.send_control(
                        source,
                        opts.run,
                        Control::Balance { destination, count },
                    );
                }
                drop(round);
                // Portfolio adaptation rides the same cadence: strategies
                // that stopped yielding new coverage lose a worker to the
                // one currently yielding the most.
                for (worker, strategy) in portfolio.rebalance() {
                    let Some(member) = membership.member(worker) else {
                        continue;
                    };
                    let seed = derive_seed(self.config.worker.seed, worker, member.epoch)
                        ^ portfolio.rebalances();
                    membership.set_strategy(worker, strategy);
                    summary.strategy_rebalances += 1;
                    info!("portfolio rebalance: worker {worker} reassigned to strategy {strategy}");
                    let _ = endpoint.send_control(
                        worker,
                        opts.run,
                        Control::SetStrategy { strategy, seed },
                    );
                }
                last_balance = Instant::now();
            }
        }

        summary.coverage.merge(lb.global_coverage());
        for worker in membership.alive() {
            let _ = endpoint.send_control(worker, opts.run, Control::Stop);
        }
        summary
    }
}

/// Per-run options of the worker event loop.
#[derive(Clone, Copy, Debug)]
pub struct WorkerLoopOpts {
    /// The run this worker instance executes, stamped on every report and
    /// batch.
    pub run: RunId,
    /// Instructions per quantum between message-handling points.
    pub quantum: u64,
    /// How often status is reported to the coordinator.
    pub status_interval: Duration,
    /// Whether this worker seeds the root job (exactly one worker of a
    /// fresh — non-resumed — run).
    pub seed_root: bool,
    /// This worker's fencing epoch, stamped on every report and batch.
    pub worker_epoch: u64,
    /// Attach a frontier snapshot to every k-th status report (0 = never).
    pub snapshot_every: u32,
    /// Transport heartbeat cadence (zero disables).
    pub heartbeat_interval: Duration,
}

/// One run hosted by a [`WorkerService`]: an independent [`Worker`] engine
/// plus the per-run reporting state the event loop threads through it.
struct RunHost {
    opts: WorkerLoopOpts,
    worker: Worker,
    events: Vec<TransferEvent>,
    export_seq: u64,
    reports_sent: u32,
    // How many of this run's bugs the coordinator has already seen; new
    // ones ride the next snapshot-bearing report so they survive a crash
    // (the completed paths they sit on are never re-explored).
    bugs_reported: usize,
    last_status: Instant,
}

impl RunHost {
    fn new(
        id: WorkerId,
        program: Arc<Program>,
        env: Arc<dyn Environment>,
        config: WorkerConfig,
        opts: WorkerLoopOpts,
    ) -> RunHost {
        let mut worker = Worker::new(id, program, env, config);
        if opts.seed_root {
            worker.seed_root();
        }
        RunHost {
            opts,
            worker,
            events: Vec::new(),
            export_seq: 0,
            reports_sent: 0,
            bugs_reported: 0,
            last_status: Instant::now() - opts.status_interval,
        }
    }

    fn send_status<E: WorkerEndpoint>(&mut self, endpoint: &mut E) -> Result<(), ()> {
        let include_frontier = self.opts.snapshot_every > 0
            && self.reports_sent.is_multiple_of(self.opts.snapshot_every);
        // Gossip the hottest cache entries on a sparse report cadence; the
        // export is `None` when gossip is off for the run, the cache is
        // still cold, or nothing new was solved since the last export.
        let gossip = self
            .reports_sent
            .is_multiple_of(GOSSIP_STATUS_EVERY)
            .then(|| self.worker.export_gossip_slice(GOSSIP_SLICE_MAX))
            .flatten();
        self.reports_sent += 1;
        let frontier =
            include_frontier.then(|| JobTree::from_jobs(&self.worker.frontier_snapshot()).encode());
        let new_bugs = if include_frontier {
            let fresh = self.worker.bugs[self.bugs_reported..].to_vec();
            self.bugs_reported = self.worker.bugs.len();
            fresh
        } else {
            Vec::new()
        };
        let report = StatusReport {
            run: self.opts.run,
            worker: self.worker.id,
            epoch: self.opts.worker_epoch,
            queue_length: self.worker.queue_length(),
            coverage: self.worker.coverage_snapshot(),
            stats: self.worker.report_stats(),
            idle: !self.worker.has_work(),
            strategy: self.worker.strategy(),
            frontier,
            new_bugs,
            transfers: std::mem::take(&mut self.events),
            gossip,
        };
        endpoint.send_status(report).map_err(|_| ())
    }

    /// Handles one run-scoped control message. `Err` means the transport is
    /// gone and the service should shut down.
    fn handle_control<E: WorkerEndpoint>(
        &mut self,
        endpoint: &mut E,
        msg: Control,
    ) -> Result<(), ()> {
        match msg {
            // `Stop` is routed by the service before it gets here.
            Control::Stop => {}
            Control::GlobalCoverage(global) => self.worker.merge_global_coverage(&global),
            Control::Membership(peers) => endpoint.update_peers(&peers),
            Control::SetStrategy { strategy, seed } => self.worker.set_strategy(strategy, seed),
            // The coordinator's merged cluster hot set: warm the solver
            // cache with what the rest of the fleet already solved.
            Control::HotSet(slice) => self.worker.import_cache_slice(&slice),
            Control::Inject { seq, encoded } => {
                if let Some(tree) = JobTree::decode(&encoded) {
                    self.worker.import_job_tree(&tree);
                    self.events.push(TransferEvent::Imported {
                        source: COORDINATOR,
                        seq,
                        encoded,
                    });
                }
            }
            Control::Balance { destination, count } => {
                let mut transfer = Span::enter(SpanKind::JobTransfer);
                let jobs = self.worker.export_jobs(count);
                if jobs.is_empty() {
                    return Ok(());
                }
                // A harvest: the coordinator asked for the jobs *itself*
                // (federation pulls group work up through the sub-coordinator
                // this way). There is no socket to ship them over — the
                // Exported/Sent pair alone moves them: Exported parks the
                // payload in the coordinator's in-flight table, and Sent
                // towards the (never-alive) COORDINATOR id resolves the entry
                // straight into the reclaim pool.
                if destination == COORDINATOR {
                    let encoded = JobTree::from_jobs(&jobs).encode();
                    transfer.detail(encoded.len() as u64);
                    self.worker.record_transfer_bytes(encoded.len() as u64);
                    self.export_seq += 1;
                    let seq = self.export_seq;
                    self.events.push(TransferEvent::Exported {
                        destination,
                        seq,
                        encoded,
                    });
                    self.events.push(TransferEvent::Sent { destination, seq });
                    self.send_status(endpoint)?;
                    self.last_status = Instant::now();
                    return Ok(());
                }
                let encoded = JobTree::from_jobs(&jobs).encode();
                transfer.detail(encoded.len() as u64);
                self.worker.record_transfer_bytes(encoded.len() as u64);
                self.export_seq += 1;
                let seq = self.export_seq;
                // Tell the coordinator about the export *before* shipping
                // the batch: if this worker dies in between, the
                // coordinator holds the batch in its in-flight table and
                // can re-inject it — the batch can be lost on the wire,
                // but never forgotten.
                self.events.push(TransferEvent::Exported {
                    destination,
                    seq,
                    encoded: encoded.clone(),
                });
                self.send_status(endpoint)?;
                self.worker.stats.job_bytes_sent += encoded.len() as u64;
                // Piggyback the exporter's hottest cache entries: the
                // receiver replays these jobs through the very constraints
                // this worker just solved, so the slice is what spares its
                // first quantum the cold-cache re-solving of §6.
                let slice = self.worker.export_cache_slice(GOSSIP_SLICE_MAX);
                let batch = JobBatch {
                    source: self.worker.id,
                    run: self.opts.run,
                    source_epoch: self.opts.worker_epoch,
                    seq,
                    encoded,
                    slice,
                };
                // ... and report the outcome immediately afterwards, so the
                // coordinator always knows whether the batch is in wire
                // custody (`Sent`) or back in this frontier (`Requeued`)
                // before it could ever reclaim it.
                if endpoint.send_jobs(destination, batch).is_ok() {
                    self.events.push(TransferEvent::Sent { destination, seq });
                } else {
                    self.events
                        .push(TransferEvent::Requeued { destination, seq });
                    self.worker.requeue_jobs(jobs);
                }
                self.send_status(endpoint)?;
                self.last_status = Instant::now();
            }
        }
        Ok(())
    }

    /// Whether an import (peer batch or coordinator inject) awaits its
    /// acknowledgement on the next status report.
    fn has_unacknowledged_imports(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TransferEvent::Imported { .. }))
    }

    fn import_batch(&mut self, batch: JobBatch) {
        if let Some(slice) = &batch.slice {
            self.worker.import_cache_slice(slice);
        }
        if let Some(tree) = JobTree::decode(&batch.encoded) {
            self.worker.import_job_tree(&tree);
            self.events.push(TransferEvent::Imported {
                source: batch.source,
                seq: batch.seq,
                encoded: batch.encoded,
            });
        }
    }

    fn send_final<E: WorkerEndpoint>(&mut self, endpoint: &mut E) {
        let _ = endpoint.send_final(FinalReport {
            run: self.opts.run,
            worker: self.worker.id,
            epoch: self.opts.worker_epoch,
            stats: self.worker.report_stats(),
            coverage: self.worker.coverage_snapshot(),
            test_cases: std::mem::take(&mut self.worker.test_cases),
            bugs: std::mem::take(&mut self.worker.bugs),
            frontier: JobTree::from_jobs(&self.worker.frontier_snapshot()).encode(),
            transfers: std::mem::take(&mut self.events),
        });
    }
}

/// The worker-side run service: hosts any number of concurrent runs on one
/// endpoint, time-slicing execution quanta across them.
///
/// Every frame is scoped to a run: control messages and job batches are
/// routed to the hosted run they name (frames of unknown — finished or
/// never-admitted — runs are dropped), status and final reports carry the
/// run id back. New runs are admitted from `Start` frames
/// ([`WorkerEndpoint::try_recv_start`]); a `Stop` scoped to
/// [`RunId::SERVICE`] shuts the whole service down, finalizing every hosted
/// run.
///
/// The single-run entry points ([`run_worker_loop`],
/// [`run_worker_from_spec`]) are thin wrappers that host exactly one run
/// and exit when it completes, so every deployment — the in-process
/// harness included — exercises the same service loop.
pub struct WorkerService<'e, E: WorkerEndpoint> {
    endpoint: &'e mut E,
    env_factory: Box<dyn Fn(EnvSpec) -> Arc<dyn Environment> + 'e>,
    threads_override: Option<usize>,
    replay_cache_override: Option<c9_vm::ReplayCacheConfig>,
    solver_cache_override: Option<usize>,
    admit_starts: bool,
    exit_when_drained: bool,
    hosted: u64,
    runs: BTreeMap<u64, RunHost>,
}

impl<'e, E: WorkerEndpoint> WorkerService<'e, E> {
    /// Creates a service on `endpoint`. `env_factory` maps the environment
    /// spec of an admitted run to a concrete environment model (the trait
    /// object cannot cross the wire).
    pub fn new(
        endpoint: &'e mut E,
        env_factory: impl Fn(EnvSpec) -> Arc<dyn Environment> + 'e,
    ) -> WorkerService<'e, E> {
        WorkerService {
            endpoint,
            env_factory: Box::new(env_factory),
            threads_override: None,
            replay_cache_override: None,
            solver_cache_override: None,
            admit_starts: true,
            exit_when_drained: false,
            hosted: 0,
            runs: BTreeMap::new(),
        }
    }

    /// Local overrides of the executor thread count (the `c9-worker
    /// --threads` flag), the replay-cache budget (`--replay-cache`), and
    /// the solver query-cache capacity (`--solver-cache`): a daemon
    /// operator knows the machine's core and memory budget better than the
    /// coordinator does.
    pub fn with_overrides(
        mut self,
        threads: Option<usize>,
        replay_cache: Option<c9_vm::ReplayCacheConfig>,
        solver_cache: Option<usize>,
    ) -> Self {
        self.threads_override = threads;
        self.replay_cache_override = replay_cache;
        self.solver_cache_override = solver_cache;
        self
    }

    /// Makes [`WorkerService::serve`] return once at least one run was
    /// hosted and the last one finished (the `c9-worker --once` contract),
    /// instead of serving until a service-level `Stop` or disconnect.
    pub fn exit_when_drained(mut self, on: bool) -> Self {
        self.exit_when_drained = on;
        self
    }

    /// Hosts a run from its already-resolved parts (the in-process path,
    /// where program and environment never cross a wire).
    pub fn host(
        &mut self,
        program: Arc<Program>,
        env: Arc<dyn Environment>,
        config: WorkerConfig,
        opts: WorkerLoopOpts,
    ) {
        // Heartbeats first: engine setup below can take long enough on a
        // cold start that a silent worker would look dead to the
        // coordinator.
        self.endpoint.start_heartbeat(opts.heartbeat_interval);
        let host = RunHost::new(self.endpoint.id(), program, env, config, opts);
        self.runs.insert(opts.run.0, host);
        self.hosted += 1;
    }

    /// Admits a run from its wire spec, applying the service's local
    /// overrides.
    pub fn admit_spec(&mut self, spec: RunSpec) {
        let config = WorkerConfig {
            executor: spec.executor,
            seed: spec.seed,
            strategy: spec.strategy,
            generate_test_cases: spec.generate_test_cases,
            export_order: spec.export_order,
            replay_cache: self.replay_cache_override.unwrap_or(spec.replay_cache),
            threads: self.threads_override.unwrap_or(spec.threads).max(1),
            solver_cache: self.solver_cache_override.or(spec.solver_cache),
            solver_backend: spec.solver_backend,
            cache_gossip: spec.cache_gossip,
        };
        let opts = WorkerLoopOpts {
            run: spec.run,
            quantum: spec.quantum,
            status_interval: spec.status_interval,
            seed_root: spec.seed_root,
            worker_epoch: spec.worker_epoch,
            snapshot_every: spec.snapshot_every,
            heartbeat_interval: spec.heartbeat_interval,
        };
        let env = (self.env_factory)(spec.env);
        self.host(Arc::new(spec.program), env, config, opts);
    }

    /// The service event loop, shared by every transport: admit new runs,
    /// route control messages and job batches to the run they address,
    /// explore each run in quanta (round-robin across runs), report per-run
    /// status, and ship a final report for every run that stops.
    pub fn serve(mut self) {
        loop {
            if self.admit_starts {
                while let Some(spec) = self.endpoint.try_recv_start() {
                    self.admit_spec(*spec);
                }
            }

            // Control frames, routed by run id.
            let mut disconnected = false;
            while let Some((run, msg)) = self.endpoint.try_recv_control() {
                if run == RunId::SERVICE {
                    if matches!(msg, Control::Stop) {
                        // Daemon-level shutdown: finalize every hosted run.
                        self.finalize_all();
                        return;
                    }
                    continue;
                }
                if matches!(msg, Control::Stop) {
                    if let Some(mut host) = self.runs.remove(&run.0) {
                        host.send_final(self.endpoint);
                    }
                    continue;
                }
                let Some(host) = self.runs.get_mut(&run.0) else {
                    continue; // a frame of a finished (or never-admitted) run
                };
                if host.handle_control(self.endpoint, msg).is_err() {
                    disconnected = true;
                    break;
                }
            }
            if disconnected {
                break;
            }

            // Job batches, routed by run id.
            while let Some(batch) = self.endpoint.try_recv_jobs() {
                if let Some(host) = self.runs.get_mut(&batch.run.0) {
                    host.import_batch(batch);
                }
            }

            // Acknowledge imports before exploring. The next quantum can be
            // long (it replays the imported jobs), and until the
            // acknowledgement lands the coordinator holds the batch in flight
            // against this worker's last — idle — report.
            for host in self.runs.values_mut() {
                if host.has_unacknowledged_imports() {
                    if host.send_status(self.endpoint).is_err() {
                        disconnected = true;
                        break;
                    }
                    host.last_status = Instant::now();
                }
            }
            if disconnected {
                break;
            }

            // Explore: one quantum per run with pending work, so concurrent
            // runs share this worker fairly.
            let mut any_work = false;
            for host in self.runs.values_mut() {
                if host.worker.has_work() {
                    any_work = true;
                    host.worker.run_quantum(host.opts.quantum);
                }
            }

            // Per-run status cadence.
            for host in self.runs.values_mut() {
                if host.last_status.elapsed() >= host.opts.status_interval {
                    if host.send_status(self.endpoint).is_err() {
                        disconnected = true;
                        break;
                    }
                    host.last_status = Instant::now();
                }
            }
            if disconnected {
                break;
            }

            if self.exit_when_drained && self.hosted > 0 && self.runs.is_empty() {
                return;
            }
            if !any_work {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        // The transport died under us: make a best-effort attempt to flush
        // final reports (it usually fails too, but a half-open endpoint may
        // still accept them).
        self.finalize_all();
    }

    fn finalize_all(&mut self) {
        while let Some((_, mut host)) = self.runs.pop_first() {
            host.send_final(self.endpoint);
        }
    }
}

/// The single-run worker event loop: hosts exactly one run on a
/// [`WorkerService`] and returns when it stops. This is the entry point of
/// the in-process harness, where the coordinator hands every worker its
/// resolved program and environment directly.
pub fn run_worker_loop<E: WorkerEndpoint>(
    endpoint: &mut E,
    program: Arc<Program>,
    env: Arc<dyn Environment>,
    config: WorkerConfig,
    opts: WorkerLoopOpts,
) {
    let factory_env = env.clone();
    let mut service =
        WorkerService::new(endpoint, move |_| factory_env.clone()).exit_when_drained(true);
    service.admit_starts = false;
    service.host(program, env, config, opts);
    service.serve();
}

/// Runs the worker side of a run spec received over the wire. The caller
/// maps [`RunSpec::env`] to a concrete environment (the trait object cannot
/// cross the wire) and supplies the endpoint.
pub fn run_worker_from_spec<E: WorkerEndpoint>(
    endpoint: &mut E,
    spec: RunSpec,
    env: Arc<dyn Environment>,
) {
    run_worker_from_spec_with(endpoint, spec, env, None, None, None)
}

/// Like [`run_worker_from_spec`], with local overrides of the executor
/// thread count (the `c9-worker --threads` flag), the replay-cache budget
/// (`c9-worker --replay-cache`), and the solver query-cache capacity
/// (`c9-worker --solver-cache`): a daemon operator knows the machine's
/// core and memory budget better than the coordinator does.
pub fn run_worker_from_spec_with<E: WorkerEndpoint>(
    endpoint: &mut E,
    spec: RunSpec,
    env: Arc<dyn Environment>,
    threads_override: Option<usize>,
    replay_cache_override: Option<c9_vm::ReplayCacheConfig>,
    solver_cache_override: Option<usize>,
) {
    let mut service = WorkerService::new(endpoint, move |_| env.clone())
        .with_overrides(
            threads_override,
            replay_cache_override,
            solver_cache_override,
        )
        .exit_when_drained(true);
    service.admit_starts = false;
    service.admit_spec(spec);
    service.serve();
}
