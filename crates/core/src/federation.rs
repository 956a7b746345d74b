//! Federated coordination: sub-coordinators between the root and workers.
//!
//! A flat coordinator scales to a few dozen workers before its single
//! status-drain loop becomes the bottleneck (§6 of the paper evaluates up
//! to 48 nodes; the balancer handles every worker's report itself). The
//! federation layer removes that ceiling by *recursion over the existing
//! wire protocol*: the cluster is split into groups, each group is run by a
//! [`SubCoordinator`] that hosts the full membership / ledger / balancer /
//! portfolio machinery locally, and every sub-coordinator joins the root
//! coordinator **as a worker**. The root runs the unmodified
//! [`Cluster::run_coordinator`] loop over G sub-"workers"; no new frame
//! types exist and the wire version is unchanged.
//!
//! The mapping of worker-protocol concepts onto groups:
//!
//! * **Status reports** become *digests*: queue length is the sum over the
//!   group, coverage is the group's merged bit vector, stats are the
//!   snapshot-consistent sum over members, and the frontier snapshot — the
//!   union of the member ledgers, in-flight batches, and the reclaim pool —
//!   rides on *every* digest, so the root's ledger for the group is always
//!   a consistent cut of the group's pending work.
//! * **`Balance` towards the group** becomes an inter-group transfer: the
//!   sub-coordinator *harvests* jobs from a member (a `Balance` whose
//!   destination is [`COORDINATOR`] — the member's `Exported`/`Sent` pair
//!   resolves straight into the sub's reclaim pool), then ships them to the
//!   sibling group with the same announce-before-wire discipline a worker
//!   uses, so the root holds custody of the batch at every instant.
//! * **Failure of a sub-coordinator** is handled by the root exactly like a
//!   worker crash (PR 2's recovery lifted to groups): the dead group
//!   contributes its last snapshot-consistent digest stats, and the root
//!   re-injects the digest's frontier into the surviving groups. Work the
//!   group completed after its last digest is re-executed — path accounting
//!   stays exact through the loss of a whole group.
//!
//! Inter-group balancing is *depth-partitioned* by default (test-depth
//! partitioning): the donor member is the one holding the shallowest ledger
//! job — the root of the largest unexplored subtree — and the shallowest
//! harvested jobs are shipped first, so transfers move maximal exploration
//! potential per byte and sibling groups end up owning disjoint depth bands.
//!
//! [`FederatedCluster`] wires the whole tree up in-process (root, G
//! sub-coordinators, G×S workers on scoped threads) for tests and
//! single-machine runs; the `c9-coordinator --sub` binary mode does the
//! same over TCP.

use crate::balancer::{BalancerConfig, LoadBalancer, TransferRequest};
use crate::cluster::{
    Cluster, ClusterConfig, ClusterRunResult, CoordinatorRunOpts, WorkerService, GOSSIP_FOLD_EVERY,
    GOSSIP_SLICE_MAX, HOT_SET_MAX, MAX_STATUS_DRAIN, PENDING_GOSSIP_MAX,
};
use crate::membership::Membership;
use crate::portfolio::{derive_seed, Portfolio, PortfolioConfig};
use crate::worker::WorkerConfig;
use c9_ir::Program;
use c9_net::{
    Control, CoordinatorEndpoint, EnvSpec, FinalReport, InProcTransport, Job, JobBatch, JobTree,
    MemberEvent, RunId, RunSpec, StatusReport, TransferEvent, Transport, TransportError,
    WorkerEndpoint, WorkerId, WorkerStats, COORDINATOR,
};
use c9_solver::CacheSlice;
use c9_trace::{info, warn};
use c9_vm::{Environment, StrategyKind, TestCase};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Digests carry a gossip excerpt upward on every k-th report, mirroring
/// the worker-side cadence (`GOSSIP_STATUS_EVERY` in the cluster module).
const DIGEST_GOSSIP_EVERY: u64 = 4;

/// Configuration of one sub-coordinator.
#[derive(Clone, Debug)]
pub struct FederationConfig {
    /// Listen addresses of statically connected group members, by worker
    /// id (empty strings for transports without peer addressing, e.g. the
    /// in-process harness).
    pub static_members: Vec<String>,
    /// Wait for at least this many live group members before starting
    /// (static members already count).
    pub min_members: usize,
    /// How long to wait for `min_members` before starting anyway.
    pub join_wait: Duration,
    /// Declare a group member dead after this much silence and reclaim its
    /// ledger. `None` disables the group-level failure detector (the right
    /// choice when members are scoped threads that cannot die alone).
    pub failure_timeout: Option<Duration>,
    /// Cadence of the intra-group balancing rounds.
    pub balance_interval: Duration,
    /// Depth-partitioned inter-group balancing: harvest from the member
    /// holding the shallowest pending job and ship the shallowest harvest
    /// first. Off, the donor is simply the longest queue.
    pub depth_partition: bool,
    /// How long a root `Balance` request may wait for harvested jobs before
    /// whatever was gathered is shipped (or the request is dropped empty).
    pub export_timeout: Duration,
    /// How long to wait for member final reports after `Stop`.
    pub final_timeout: Duration,
    /// Intra-group balancing parameters.
    pub balancer: BalancerConfig,
    /// Group-local strategy portfolio; `None` runs every member on the
    /// strategy the root assigned to the group.
    pub portfolio: Option<PortfolioConfig>,
}

impl Default for FederationConfig {
    fn default() -> FederationConfig {
        FederationConfig {
            static_members: Vec::new(),
            min_members: 1,
            join_wait: Duration::from_secs(60),
            failure_timeout: None,
            balance_interval: Duration::from_millis(20),
            depth_partition: true,
            export_timeout: Duration::from_millis(500),
            final_timeout: Duration::from_secs(30),
            balancer: BalancerConfig::default(),
            portfolio: None,
        }
    }
}

/// Counters a sub-coordinator accumulates about its own group.
#[derive(Clone, Debug, Default)]
pub struct SubSummary {
    /// Group members ever seen.
    pub workers: usize,
    /// Members declared dead by the group failure detector.
    pub workers_failed: u64,
    /// Inter-group batches shipped to siblings.
    pub batches_exported: u64,
    /// Inter-group batches received from siblings.
    pub batches_imported: u64,
    /// Jobs re-injected into the group (reclaimed, injected by the root,
    /// or imported from siblings).
    pub jobs_reclaimed: u64,
    /// Digests sent to the root.
    pub digests_sent: u64,
}

/// An inter-group transfer the root requested, awaiting harvested jobs.
struct PendingExport {
    destination: WorkerId,
    count: u64,
    deadline: Instant,
    asked: bool,
}

/// Sub-coordinator state that feeds the upward (root-facing) protocol.
struct UpwardState {
    /// The strategy the root assigned to this group (stamped on digests).
    strategy: StrategyKind,
    /// Transfer events to ride the next digest.
    events: Vec<TransferEvent>,
    /// Sequence of inter-group exports (per sub, monotonically increasing).
    export_seq: u64,
    /// Digests sent so far (drives the upward gossip cadence).
    digests_sent: u64,
    last_digest: Instant,
    /// Jobs harvested from members, staged for an inter-group export.
    harvest: Vec<Job>,
    /// Inter-group transfers the root requested, one entry per sibling
    /// destination (a repeated request refreshes its entry), served in
    /// arrival order from the shared harvest pool.
    pending_exports: VecDeque<PendingExport>,
    /// The group hot set (union of member gossip slices).
    hot_set: CacheSlice,
    pending_gossip: Vec<CacheSlice>,
    /// Whether the hot set learned entries since the last upward export.
    gossip_dirty: bool,
    /// Per-member count of status bugs already forwarded upward.
    bugs_forwarded: Vec<usize>,
    /// Whether the last digest reported completed paths together with a
    /// non-empty frontier (the moment a crash provably strands work).
    strands_work: bool,
}

/// A coordinator for one worker group inside a federated cluster.
///
/// Downward (`C`) it *is* a coordinator: it admits group members, runs
/// membership with ledgers and failure detection, intra-group load
/// balancing, and a strategy portfolio. Upward (`U`) it *is* a worker: it
/// joins the root, receives the run spec, reports aggregated digests, and
/// honours `Balance` requests by harvesting jobs from its members.
pub struct SubCoordinator<U: WorkerEndpoint, C: CoordinatorEndpoint> {
    uplink: U,
    group: C,
    fed: FederationConfig,
    abort: Arc<AtomicBool>,
}

impl<U: WorkerEndpoint, C: CoordinatorEndpoint> SubCoordinator<U, C> {
    /// Creates a sub-coordinator over an established uplink (worker-side
    /// endpoint towards the root) and group endpoint (coordinator-side
    /// endpoint towards the members).
    pub fn new(uplink: U, group: C, fed: FederationConfig) -> SubCoordinator<U, C> {
        SubCoordinator {
            uplink,
            group,
            fed,
            abort: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A flag that simulates a crash of a *running* sub-coordinator: once
    /// set, the main loop returns without a word to anyone — endpoints
    /// drop, heartbeats stop, and both the root and the group members
    /// observe the silence exactly as they would a SIGKILL. The crash waits
    /// for progress: it lands right after the first digest that reports
    /// completed paths while the group still holds pending work, so it
    /// provably strands work the root must reclaim, however fast the group
    /// explores (a sub killed before that never admitted observable work).
    pub fn abort_flag(&self) -> Arc<AtomicBool> {
        self.abort.clone()
    }

    /// Waits for the root to ship the run spec, then runs the group.
    /// Group members that join while the spec is still pending are admitted
    /// immediately (their spec follows once the run starts).
    pub fn run(mut self) -> Result<SubSummary, TransportError> {
        let start = Instant::now();
        let mut membership = Membership::new(self.fed.failure_timeout);
        for addr in self.fed.static_members.clone() {
            membership.add_static(addr, start);
        }
        let spec = loop {
            if let Some(spec) = self.uplink.try_recv_start() {
                break *spec;
            }
            admit_group_joins(&mut self.group, &mut membership, None);
            std::thread::sleep(Duration::from_millis(2));
        };
        self.drive_group(spec, membership)
    }

    /// Runs the group for a spec already in hand (the TCP binary receives
    /// it through its own `wait_start` handshake before constructing the
    /// sub-coordinator).
    pub fn run_with_spec(self, spec: RunSpec) -> Result<SubSummary, TransportError> {
        let start = Instant::now();
        let mut membership = Membership::new(self.fed.failure_timeout);
        for addr in self.fed.static_members.clone() {
            membership.add_static(addr, start);
        }
        self.drive_group(spec, membership)
    }

    #[allow(clippy::too_many_lines)]
    fn drive_group(
        mut self,
        spec: RunSpec,
        mut membership: Membership,
    ) -> Result<SubSummary, TransportError> {
        let run = spec.run;
        let epoch = spec.worker_epoch;
        let my_id = self.uplink.id();
        self.uplink.start_heartbeat(spec.heartbeat_interval);
        let mut portfolio = Portfolio::new(
            self.fed
                .portfolio
                .clone()
                .unwrap_or_else(|| PortfolioConfig::uniform(spec.strategy)),
        );

        // Wait for the group quorum, then ship every member its spec.
        let join_deadline = Instant::now() + self.fed.join_wait;
        while membership.alive_count() < self.fed.min_members.max(1) {
            if admit_group_joins(&mut self.group, &mut membership, None) == 0 {
                if Instant::now() >= join_deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        for member in membership.members().to_vec() {
            if !member.is_alive() {
                continue;
            }
            let strategy = portfolio.assign(member.worker);
            membership.set_strategy(member.worker, strategy);
            let member_spec = member_spec(&spec, member.worker, member.epoch, strategy);
            if self.group.send_start(member.worker, member_spec).is_err() {
                membership.mark_dead(member.worker);
                portfolio.remove(member.worker);
            }
        }
        let infos = membership.peer_infos();
        for worker in membership.alive() {
            let _ = self
                .group
                .send_control(worker, run, Control::Membership(infos.clone()));
        }

        let mut lb = LoadBalancer::new(
            membership.len().max(1),
            spec.program.loc(),
            self.fed.balancer,
        );
        let mut summary = SubSummary {
            workers: membership.len(),
            ..SubSummary::default()
        };
        let mut up = UpwardState {
            strategy: spec.strategy,
            events: Vec::new(),
            export_seq: 0,
            digests_sent: 0,
            last_digest: Instant::now() - spec.status_interval,
            harvest: Vec::new(),
            pending_exports: VecDeque::new(),
            hot_set: CacheSlice::default(),
            pending_gossip: Vec::new(),
            gossip_dirty: false,
            bugs_forwarded: Vec::new(),
            strands_work: false,
        };
        let mut last_balance = Instant::now();
        let mut last_gossip = Instant::now();
        let mut harvest_idle_since: Option<Instant> = None;
        let mut stopping = false;

        loop {
            // A set abort flag is a simulated SIGKILL: vanish mid-loop,
            // once the last digest stranded work. Heartbeats stop and the
            // endpoints drop with `self`; the root detects the silence and
            // reclaims this group's last digest frontier, members detect
            // the dead group endpoint and exit.
            if up.strands_work && self.abort.load(Ordering::Relaxed) {
                return Ok(summary);
            }

            admit_group_joins(
                &mut self.group,
                &mut membership,
                Some((&mut portfolio, &spec)),
            );
            summary.workers = membership.len();
            for member in membership.members() {
                if member.is_alive() {
                    lb.ensure_worker(member.worker);
                } else {
                    lb.set_alive(member.worker, false);
                    portfolio.remove(member.worker);
                }
            }
            while let Some(event) = self.group.try_recv_event() {
                if let MemberEvent::Leave { worker, .. } = &event {
                    lb.set_alive(*worker, false);
                    portfolio.remove(*worker);
                }
                apply_member_event(&mut membership, event);
            }
            for worker in membership.detect_failures(Instant::now()) {
                lb.set_alive(worker, false);
                portfolio.remove(worker);
                summary.workers_failed += 1;
                warn!("group member {worker} declared dead; reclaiming its pending jobs");
            }

            // Drain member status reports (bounded, like the root's drain).
            let mut got_any = false;
            let mut drained = 0usize;
            while drained < MAX_STATUS_DRAIN {
                let Some(report) = (if got_any {
                    self.group.recv_status(Duration::ZERO)
                } else {
                    self.group.recv_status(Duration::from_millis(2))
                }) else {
                    break;
                };
                got_any = true;
                drained += 1;
                if report.run != run {
                    continue;
                }
                if !membership.record_status(&report, Instant::now()) {
                    continue;
                }
                let w = report.worker;
                let (global, newly_covered) = lb.report(w, report.queue_length, &report.coverage);
                portfolio.record_yield(report.strategy, newly_covered);
                let _ = self
                    .group
                    .send_control(w, run, Control::GlobalCoverage(global));
                if let Some(gossip) = report.gossip {
                    if up.pending_gossip.len() >= PENDING_GOSSIP_MAX {
                        up.pending_gossip.remove(0);
                    }
                    up.pending_gossip.push(gossip);
                }
            }

            // Root-facing inbox: the run-scoped controls a worker receives,
            // interpreted at group scope.
            while let Some((r, msg)) = self.uplink.try_recv_control() {
                if r != run && r != RunId::SERVICE {
                    continue;
                }
                match msg {
                    Control::Stop => stopping = true,
                    Control::GlobalCoverage(global) => lb.merge_coverage(&global),
                    Control::HotSet(slice) => {
                        for worker in membership.alive() {
                            let _ = self.group.send_control(
                                worker,
                                run,
                                Control::HotSet(slice.clone()),
                            );
                        }
                    }
                    Control::SetStrategy { strategy, seed } => {
                        up.strategy = strategy;
                        for member in membership.members().to_vec() {
                            if !member.is_alive() {
                                continue;
                            }
                            membership.set_strategy(member.worker, strategy);
                            let _ = self.group.send_control(
                                member.worker,
                                run,
                                Control::SetStrategy {
                                    strategy,
                                    seed: derive_seed(seed, member.worker, member.epoch),
                                },
                            );
                        }
                    }
                    Control::Inject { seq, encoded } => {
                        if let Some(tree) = JobTree::decode(&encoded) {
                            up.events.push(TransferEvent::Imported {
                                source: COORDINATOR,
                                seq,
                                encoded,
                            });
                            membership.seed_pool(tree.to_jobs());
                        }
                    }
                    Control::Balance { destination, count } => {
                        // The root asks for several destinations per
                        // balancing round; keep one entry per sibling so
                        // every destination is eventually served.
                        if let Some(pending) = up
                            .pending_exports
                            .iter_mut()
                            .find(|p| p.destination == destination)
                        {
                            pending.count = pending.count.max(count);
                        } else {
                            up.pending_exports.push_back(PendingExport {
                                destination,
                                count,
                                deadline: Instant::now() + self.fed.export_timeout,
                                asked: false,
                            });
                        }
                    }
                    // The root's peer table names the sibling groups;
                    // inter-group batches dial those addresses.
                    Control::Membership(peers) => self.uplink.update_peers(&peers),
                }
            }

            // Batches from sibling groups.
            while let Some(batch) = self.uplink.try_recv_jobs() {
                if batch.run != run {
                    continue;
                }
                let Some(tree) = JobTree::decode(&batch.encoded) else {
                    continue;
                };
                if let Some(slice) = &batch.slice {
                    // The sibling's piggybacked cache warmth benefits every
                    // member about to replay these jobs.
                    for worker in membership.alive() {
                        let _ =
                            self.group
                                .send_control(worker, run, Control::HotSet(slice.clone()));
                    }
                }
                up.events.push(TransferEvent::Imported {
                    source: batch.source,
                    seq: batch.seq,
                    encoded: batch.encoded,
                });
                summary.batches_imported += 1;
                membership.seed_pool(tree.to_jobs());
            }

            // Reclaimed and root-injected jobs go straight back to the
            // members; member exports addressed to this coordinator (the
            // harvest answers, however late they arrive) stage for the
            // inter-group transfers the root requested.
            let pool = membership.take_pool();
            if !pool.is_empty() {
                summary.jobs_reclaimed +=
                    reinject_into_group(&mut self.group, &mut membership, run, pool);
            }
            let harvested = membership.take_harvest();
            if !harvested.is_empty() {
                up.harvest.extend(harvested);
            }
            // A harvest no export wants (the root stopped asking — the
            // cluster balanced itself out underneath the request) returns
            // to the members rather than sitting in limbo.
            if up.pending_exports.is_empty() && !up.harvest.is_empty() {
                let idle_since = *harvest_idle_since.get_or_insert_with(Instant::now);
                if idle_since.elapsed() > self.fed.export_timeout {
                    let stale = std::mem::take(&mut up.harvest);
                    summary.jobs_reclaimed +=
                        reinject_into_group(&mut self.group, &mut membership, run, stale);
                    harvest_idle_since = None;
                }
            } else {
                harvest_idle_since = None;
            }

            // Progress the front pending inter-group export: ask a donor
            // once, ship when enough jobs are staged or the deadline
            // passes. One export flushes per loop turn; the rest of the
            // queue keeps its arrival order.
            let mut flush_export = false;
            if let Some(pending) = up.pending_exports.front_mut() {
                let now = Instant::now();
                let want = pending.count as usize;
                if up.harvest.len() < want && now < pending.deadline && !pending.asked {
                    if let Some(victim) = pick_harvest_victim(&membership, self.fed.depth_partition)
                    {
                        let need = (want - up.harvest.len()) as u64;
                        let _ = self.group.send_control(
                            victim,
                            run,
                            Control::Balance {
                                destination: COORDINATOR,
                                count: need,
                            },
                        );
                        pending.asked = true;
                    } else {
                        // Nobody has work to give; resolve the request now.
                        pending.deadline = now;
                    }
                }
                if up.harvest.len() >= want || now >= pending.deadline {
                    flush_export = true;
                }
            }
            if flush_export {
                let pending = up
                    .pending_exports
                    .pop_front()
                    .expect("flush without pending");
                let selected = select_export(
                    &mut up.harvest,
                    pending.count as usize,
                    self.fed.depth_partition,
                );
                if !selected.is_empty() {
                    up.export_seq += 1;
                    let seq = up.export_seq;
                    let encoded = JobTree::from_jobs(&selected).encode();
                    // Announce the export on a digest *before* the wire
                    // send: if this sub dies in between, the root holds the
                    // batch in its in-flight table and can re-inject it.
                    up.events.push(TransferEvent::Exported {
                        destination: pending.destination,
                        seq,
                        encoded: encoded.clone(),
                    });
                    self.send_digest(&membership, &lb, &mut up, run, my_id, epoch, &mut summary)?;
                    let slice = (!up.hot_set.is_empty()).then(|| {
                        let mut excerpt = up.hot_set.clone();
                        excerpt.truncate_ranked(GOSSIP_SLICE_MAX);
                        excerpt
                    });
                    let batch = JobBatch {
                        source: my_id,
                        run,
                        source_epoch: epoch,
                        seq,
                        encoded,
                        slice,
                    };
                    if self.uplink.send_jobs(pending.destination, batch).is_ok() {
                        up.events.push(TransferEvent::Sent {
                            destination: pending.destination,
                            seq,
                        });
                        summary.batches_exported += 1;
                    } else {
                        up.events.push(TransferEvent::Requeued {
                            destination: pending.destination,
                            seq,
                        });
                        membership.seed_pool(selected);
                    }
                    self.send_digest(&membership, &lb, &mut up, run, my_id, epoch, &mut summary)?;
                }
                // Leftover harvest stays staged for the next queued (or
                // soon re-issued) export; the idle sweep above returns it
                // to the members if no request follows.
            }

            // Fold parked gossip into the group hot set and rebroadcast the
            // excerpt when the fold learned anything (same cadence and
            // bounds as the flat coordinator).
            if last_gossip.elapsed() >= self.fed.balance_interval * GOSSIP_FOLD_EVERY
                && !up.pending_gossip.is_empty()
            {
                let mut added = 0;
                for slice in std::mem::take(&mut up.pending_gossip) {
                    added += up.hot_set.merge(&slice);
                }
                up.hot_set.truncate_ranked(HOT_SET_MAX);
                if added > 0 && !up.hot_set.is_empty() {
                    let mut excerpt = up.hot_set.clone();
                    excerpt.truncate_ranked(GOSSIP_SLICE_MAX);
                    for worker in membership.alive() {
                        let _ =
                            self.group
                                .send_control(worker, run, Control::HotSet(excerpt.clone()));
                    }
                    up.gossip_dirty = true;
                }
                last_gossip = Instant::now();
            }

            // Intra-group balancing and portfolio adaptation.
            if last_balance.elapsed() >= self.fed.balance_interval {
                for TransferRequest {
                    source,
                    destination,
                    count,
                } in lb.balance()
                {
                    let _ = self.group.send_control(
                        source,
                        run,
                        Control::Balance { destination, count },
                    );
                }
                for (worker, strategy) in portfolio.rebalance() {
                    let Some(member) = membership.member(worker) else {
                        continue;
                    };
                    let seed =
                        derive_seed(spec.seed, worker, member.epoch) ^ portfolio.rebalances();
                    membership.set_strategy(worker, strategy);
                    info!("group portfolio rebalance: member {worker} now runs {strategy}");
                    let _ = self.group.send_control(
                        worker,
                        run,
                        Control::SetStrategy { strategy, seed },
                    );
                }
                last_balance = Instant::now();
            }

            // The upward digest. An unreachable root ends the run: stop the
            // group (best effort) and report the transport failure.
            if up.last_digest.elapsed() >= spec.status_interval {
                if let Err(e) =
                    self.send_digest(&membership, &lb, &mut up, run, my_id, epoch, &mut summary)
                {
                    for worker in membership.alive() {
                        let _ = self.group.send_control(worker, run, Control::Stop);
                    }
                    return Err(e);
                }
            }

            if stopping {
                break;
            }
            if !got_any {
                std::thread::sleep(Duration::from_micros(500));
            }
        }

        self.shutdown_group(membership, lb, up, run, my_id, epoch, summary)
    }

    /// One aggregated status report towards the root: the whole group
    /// presented as a single worker. The frontier snapshot — member
    /// ledgers, in-flight batches, the reclaim pool, and the harvest
    /// staging buffer — rides on every digest, paired with the
    /// snapshot-consistent stats sum, so the root always holds a cut it
    /// can recover the group from.
    #[allow(clippy::too_many_arguments)]
    fn send_digest(
        &mut self,
        membership: &Membership,
        lb: &LoadBalancer,
        up: &mut UpwardState,
        run: RunId,
        worker: WorkerId,
        epoch: u64,
        summary: &mut SubSummary,
    ) -> Result<(), TransportError> {
        let mut stats = WorkerStats::default();
        let mut queue = up.harvest.len() as u64;
        let mut all_idle = true;
        let mut alive = 0usize;
        let mut new_bugs: Vec<TestCase> = Vec::new();
        for (i, member) in membership.members().iter().enumerate() {
            stats.merge(member.summary_stats());
            if member.is_alive() {
                alive += 1;
                queue += member.queue_length;
                if !member.idle || member.queue_length > 0 {
                    all_idle = false;
                }
            }
            if up.bugs_forwarded.len() <= i {
                up.bugs_forwarded.resize(i + 1, 0);
            }
            let seen = up.bugs_forwarded[i];
            if member.status_bugs.len() > seen {
                new_bugs.extend(member.status_bugs[seen..].iter().cloned());
                up.bugs_forwarded[i] = member.status_bugs.len();
            }
        }
        let idle = alive > 0
            && all_idle
            && queue == 0
            && membership.settled()
            && up.pending_exports.is_empty();
        let mut frontier_jobs = membership.frontier_jobs();
        frontier_jobs.extend(up.harvest.iter().cloned());
        let gossip = (up.digests_sent.is_multiple_of(DIGEST_GOSSIP_EVERY)
            && up.gossip_dirty
            && !up.hot_set.is_empty())
        .then(|| {
            let mut excerpt = up.hot_set.clone();
            excerpt.truncate_ranked(GOSSIP_SLICE_MAX);
            excerpt
        });
        if gossip.is_some() {
            up.gossip_dirty = false;
        }
        let report = StatusReport {
            run,
            worker,
            epoch,
            queue_length: queue,
            coverage: lb.global_coverage().clone(),
            stats,
            idle,
            strategy: up.strategy,
            frontier: Some(JobTree::from_jobs(&frontier_jobs).encode()),
            new_bugs,
            transfers: std::mem::take(&mut up.events),
            gossip,
        };
        up.strands_work = report.stats.paths_completed > 0 && !frontier_jobs.is_empty();
        up.digests_sent += 1;
        up.last_digest = Instant::now();
        summary.digests_sent += 1;
        self.uplink.send_status(report)
    }

    /// Stops the group, collects member finals, and sends the aggregated
    /// final report upward.
    #[allow(clippy::too_many_arguments)]
    fn shutdown_group(
        mut self,
        mut membership: Membership,
        lb: LoadBalancer,
        mut up: UpwardState,
        run: RunId,
        my_id: WorkerId,
        epoch: u64,
        mut summary: SubSummary,
    ) -> Result<SubSummary, TransportError> {
        for worker in membership.alive() {
            let _ = self.group.send_control(worker, run, Control::Stop);
        }
        let mut coverage = lb.global_coverage().clone();
        let mut test_cases: Vec<TestCase> = Vec::new();
        let mut bugs: Vec<TestCase> = Vec::new();
        let deadline = Instant::now() + self.fed.final_timeout;
        loop {
            if self.abort.load(Ordering::Relaxed) {
                return Ok(summary);
            }
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
            while let Some(event) = self.group.try_recv_event() {
                apply_member_event(&mut membership, event);
            }
            for worker in membership.detect_failures(Instant::now()) {
                summary.workers_failed += 1;
                warn!("group member {worker} died during shutdown");
            }
            // Status reports queued behind the Stop still carry transfer
            // notices that resolve in-flight batches into the frontier.
            while let Some(report) = self.group.recv_status(Duration::ZERO) {
                if report.run == run {
                    membership.record_status(&report, Instant::now());
                }
            }
            let step = (deadline - now).min(Duration::from_millis(50));
            if let Some(report) = self.group.recv_final(step) {
                if report.run == run && membership.record_final(&report) {
                    coverage.merge(&report.coverage);
                    test_cases.extend(report.test_cases);
                    bugs.extend(report.bugs);
                }
            }
        }
        while let Some(report) = self.group.recv_status(Duration::ZERO) {
            if report.run == run {
                membership.record_status(&report, Instant::now());
            }
        }

        // The group's exact contribution: final stats where the member
        // reported them, its last snapshot-consistent stats otherwise —
        // plus the bugs a member without a final shipped eagerly on its
        // snapshots (their paths are never re-explored).
        let mut stats = WorkerStats::default();
        for member in membership.members() {
            stats.merge(member.summary_stats());
            if !member.got_final {
                bugs.extend(member.status_bugs.iter().cloned());
            }
        }
        let mut frontier_jobs = membership.frontier_jobs();
        frontier_jobs.append(&mut up.harvest);
        let report = FinalReport {
            run,
            worker: my_id,
            epoch,
            stats,
            coverage,
            test_cases,
            bugs,
            frontier: JobTree::from_jobs(&frontier_jobs).encode(),
            transfers: std::mem::take(&mut up.events),
        };
        self.uplink.send_final(report)?;
        Ok(summary)
    }
}

/// Patches the group's run spec for one member: its own derived seed,
/// fencing epoch, and portfolio strategy. Snapshots are forced on (at
/// least every report) — the whole federation recovery story rests on the
/// sub-coordinator's ledgers being current.
fn member_spec(spec: &RunSpec, worker: WorkerId, epoch: u64, strategy: StrategyKind) -> RunSpec {
    let mut member = spec.clone();
    member.seed = derive_seed(spec.seed, worker, epoch);
    member.strategy = strategy;
    member.seed_root = spec.seed_root && worker == WorkerId(0);
    member.worker_epoch = epoch;
    member.snapshot_every = spec.snapshot_every.max(1);
    member
}

/// Admits pending group joins. Before the run starts (`started` is `None`)
/// members are registered and acknowledged with a placeholder strategy;
/// once started, the joiner draws a portfolio strategy, receives its run
/// spec, and the updated peer table is announced to everyone.
fn admit_group_joins<C: CoordinatorEndpoint>(
    group: &mut C,
    membership: &mut Membership,
    mut started: Option<(&mut Portfolio, &RunSpec)>,
) -> usize {
    let mut admitted = 0;
    while let Some(request) = group.try_recv_join() {
        let now = Instant::now();
        let (worker, epoch) = membership.join(request.listen_addr.clone(), request.previous, now);
        let strategy = match started.as_mut() {
            Some((portfolio, _)) => {
                if let Some((old, _)) = request.previous {
                    if membership.member(old).is_some_and(|m| !m.is_alive()) {
                        portfolio.remove(old);
                    }
                }
                let strategy = portfolio.assign(worker);
                membership.set_strategy(worker, strategy);
                strategy
            }
            None => WorkerConfig::default().strategy,
        };
        if group
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
            if let Some((portfolio, _)) = started.as_mut() {
                portfolio.remove(worker);
            }
            continue;
        }
        if let Some((portfolio, spec)) = started.as_mut() {
            let member_spec = member_spec(spec, worker, epoch, strategy);
            if group.send_start(worker, member_spec).is_err() {
                membership.mark_dead(worker);
                portfolio.remove(worker);
                continue;
            }
            let infos = membership.peer_infos();
            for peer in membership.alive() {
                if peer != worker {
                    let _ = group.send_control(peer, spec.run, Control::Membership(infos.clone()));
                }
            }
        }
        info!("group member {worker} joined (epoch {epoch})");
        admitted += 1;
    }
    admitted
}

fn apply_member_event(membership: &mut Membership, event: MemberEvent) {
    match event {
        MemberEvent::Heartbeat { worker, epoch } => {
            membership.record_heartbeat(worker, epoch, Instant::now());
        }
        MemberEvent::Leave { worker, epoch } => {
            if membership.leave(worker, epoch) {
                info!("group member {worker} left gracefully");
            }
        }
    }
}

/// Distributes pooled jobs across the live group members, least-loaded
/// first, through the exactly-once `Inject` protocol (the group-level twin
/// of the root coordinator's re-injection).
fn reinject_into_group<C: CoordinatorEndpoint>(
    group: &mut C,
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
        if group
            .send_control(destination, run, Control::Inject { seq, encoded })
            .is_err()
        {
            membership.cancel_inject(destination, seq);
        }
    }
    total
}

/// Picks the member to harvest an inter-group export from. Depth
/// partitioning selects the member whose ledger holds the shallowest
/// pending job — the root of the largest unexplored subtree, the most
/// exploration potential per transferred byte — with the longer queue as
/// the tie-breaker. Without it, the longest queue donates.
fn pick_harvest_victim(membership: &Membership, depth_partition: bool) -> Option<WorkerId> {
    let candidates = membership
        .members()
        .iter()
        .filter(|m| m.is_alive() && (m.queue_length > 0 || m.ledger_len() > 0));
    if depth_partition {
        candidates
            .min_by_key(|m| {
                (
                    m.ledger_min_depth().unwrap_or(usize::MAX),
                    std::cmp::Reverse(m.queue_length),
                )
            })
            .map(|m| m.worker)
    } else {
        candidates.max_by_key(|m| m.queue_length).map(|m| m.worker)
    }
}

/// Takes up to `count` jobs out of the harvest buffer for an inter-group
/// export. Depth partitioning ships the shallowest jobs first, so sibling
/// groups receive subtree roots and the donor keeps its deep, nearly
/// finished work.
fn select_export(harvest: &mut Vec<Job>, count: usize, depth_partition: bool) -> Vec<Job> {
    if depth_partition {
        harvest.sort_by_key(Job::depth);
    }
    let take = count.min(harvest.len());
    harvest.drain(..take).collect()
}

/// An in-process federated cluster: one root coordinator, `groups`
/// sub-coordinators, and `groups × group_size` workers, all on scoped
/// threads connected by channels. The root runs the unmodified
/// [`Cluster::run_coordinator`] loop and sees exactly `groups` "workers".
pub struct FederatedCluster {
    program: Arc<Program>,
    env: Arc<dyn Environment>,
    config: ClusterConfig,
    groups: usize,
    group_size: usize,
    fed: FederationConfig,
}

impl FederatedCluster {
    /// Creates a federated cluster of `groups × group_size` workers.
    /// `config` parameterizes the root coordinator (its `num_workers` is
    /// ignored; set `failure_timeout` to exercise sub-coordinator failure)
    /// and is the template for the run specs the groups receive.
    pub fn new(
        program: Arc<Program>,
        env: Arc<dyn Environment>,
        config: ClusterConfig,
        groups: usize,
        group_size: usize,
    ) -> FederatedCluster {
        FederatedCluster {
            program,
            env,
            config,
            groups: groups.max(1),
            group_size: group_size.max(1),
            fed: FederationConfig::default(),
        }
    }

    /// Overrides the per-group federation parameters (`static_members` and
    /// `min_members` are still forced to the group size).
    pub fn with_federation(mut self, fed: FederationConfig) -> FederatedCluster {
        self.fed = fed;
        self
    }

    /// Runs the federated cluster to completion.
    pub fn run(&self) -> ClusterRunResult {
        self.run_with_kill(None)
    }

    /// Runs the federated cluster, optionally killing sub-coordinator
    /// `victim` (abort-flag SIGKILL simulation) as soon as its group has
    /// made progress with work still pending (see
    /// [`SubCoordinator::abort_flag`]). The root's failure detector
    /// (`config.failure_timeout`) must be enabled for the cluster to
    /// recover from the kill.
    pub fn run_with_kill(&self, victim: Option<usize>) -> ClusterRunResult {
        let mut root_config = self.config.clone();
        root_config.num_workers = self.groups;
        // The recovery story needs the root's ledger current: digests carry
        // a frontier every time.
        root_config.snapshot_every = root_config.snapshot_every.max(1);
        let mut fed = self.fed.clone();
        fed.static_members = vec![String::new(); self.group_size];
        fed.min_members = self.group_size;
        fed.balance_interval = root_config.balance_interval;

        let root_fabric = InProcTransport
            .establish(self.groups)
            .expect("in-process transport cannot fail");
        let mut root_ep = root_fabric.coordinator;
        let sub_uplinks = root_fabric.workers;
        let opts = CoordinatorRunOpts {
            env: EnvSpec::Null,
            run: RunId(1),
            initial_workers: (0..self.groups).map(|g| format!("group-{g}")).collect(),
            min_workers: self.groups,
            join_wait: Duration::from_secs(5),
            target: self.program.name.clone(),
        };
        let root = Cluster::new(self.program.clone(), self.env.clone(), root_config);

        std::thread::scope(|scope| {
            for (group, uplink) in sub_uplinks.into_iter().enumerate() {
                let fabric = InProcTransport
                    .establish(self.group_size)
                    .expect("in-process transport cannot fail");
                for mut endpoint in fabric.workers {
                    let env = self.env.clone();
                    scope.spawn(move || {
                        WorkerService::new(&mut endpoint, move |_| env.clone())
                            .exit_when_drained(true)
                            .serve();
                    });
                }
                let sub = SubCoordinator::new(uplink, fabric.coordinator, fed.clone());
                if victim.map(|v| v.min(self.groups - 1)) == Some(group) {
                    sub.abort_flag().store(true, Ordering::Relaxed);
                }
                scope.spawn(move || {
                    let _ = sub.run();
                });
            }
            root.run_coordinator(&mut root_ep, opts)
        })
    }
}

#[cfg(test)]
mod federation_tests {
    use super::*;
    use crate::tests::branching_program;
    use c9_vm::{NullEnvironment, PathChoice};

    fn job(depth: usize) -> Job {
        Job::new(vec![PathChoice::Branch(true); depth])
    }

    #[test]
    fn select_export_ships_shallowest_first() {
        let mut harvest = vec![job(5), job(1), job(3), job(2)];
        let selected = select_export(&mut harvest, 2, true);
        assert_eq!(
            selected.iter().map(Job::depth).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(
            harvest.iter().map(Job::depth).collect::<Vec<_>>(),
            vec![3, 5]
        );
    }

    #[test]
    fn select_export_without_partitioning_keeps_order() {
        let mut harvest = vec![job(5), job(1), job(3)];
        let selected = select_export(&mut harvest, 2, false);
        assert_eq!(
            selected.iter().map(Job::depth).collect::<Vec<_>>(),
            vec![5, 1]
        );
        assert_eq!(harvest.len(), 1);
    }

    #[test]
    fn federated_run_matches_flat_path_count() {
        let program = Arc::new(branching_program(6));
        let config = ClusterConfig {
            num_workers: 4,
            status_interval: Duration::from_millis(5),
            balance_interval: Duration::from_millis(10),
            snapshot_every: 1,
            ..ClusterConfig::default()
        };
        let flat = Cluster::new(program.clone(), Arc::new(NullEnvironment), config.clone()).run();
        let federated =
            FederatedCluster::new(program, Arc::new(NullEnvironment), config, 2, 2).run();
        assert!(flat.summary.goal_reached);
        assert!(federated.summary.goal_reached);
        assert_eq!(
            federated.summary.paths_completed(),
            flat.summary.paths_completed(),
            "federated cluster must explore exactly the flat cluster's paths"
        );
    }
}
