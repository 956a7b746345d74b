//! Transports seen from the benchmark's side of the library boundary.
//!
//! [`Timed`] wraps any [`Transport`] and times and counts every endpoint
//! call in a shared [`NetTrace`], forwarding each message unchanged; it is
//! how the traced run measures the `net.*`, `coord.*` and idle figures
//! without spans inside the program. [`Prebuilt`] hands the cluster a
//! fabric that was established beforehand, so set-up time and run time are
//! measured by separate timers.

use c9_core::{
    Control, CoordinatorEndpoint, FinalReport, JobBatch, PeerInfo, RunId, RunSpec, StatusReport,
    StrategyKind, Transport, TransportError, WorkerEndpoint, WorkerId,
};
use c9_net::frame::encode_frame;
use c9_net::{Endpoints, JoinRequest, MemberEvent};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every endpoint call the wrapper forwards: the worker side first, then
/// the coordinator side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    TryRecvControl,
    TryRecvJobs,
    TryRecvStart,
    SendJobs,
    SendStatus,
    SendFinal,
    UpdatePeers,
    StartHeartbeat,
    Establish,
    SendControl,
    RecvStatus,
    RecvFinal,
    TryRecvEvent,
    TryRecvJoin,
    Admit,
    SendStart,
}

impl Call {
    pub const ALL: [Call; 16] = [
        Call::TryRecvControl,
        Call::TryRecvJobs,
        Call::TryRecvStart,
        Call::SendJobs,
        Call::SendStatus,
        Call::SendFinal,
        Call::UpdatePeers,
        Call::StartHeartbeat,
        Call::Establish,
        Call::SendControl,
        Call::RecvStatus,
        Call::RecvFinal,
        Call::TryRecvEvent,
        Call::TryRecvJoin,
        Call::Admit,
        Call::SendStart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::TryRecvControl => "worker.try_recv_control",
            Call::TryRecvJobs => "worker.try_recv_jobs",
            Call::TryRecvStart => "worker.try_recv_start",
            Call::SendJobs => "worker.send_jobs",
            Call::SendStatus => "worker.send_status",
            Call::SendFinal => "worker.send_final",
            Call::UpdatePeers => "worker.update_peers",
            Call::StartHeartbeat => "worker.start_heartbeat",
            Call::Establish => "establish",
            Call::SendControl => "coord.send_control",
            Call::RecvStatus => "coord.recv_status",
            Call::RecvFinal => "coord.recv_final",
            Call::TryRecvEvent => "coord.try_recv_event",
            Call::TryRecvJoin => "coord.try_recv_join",
            Call::Admit => "coord.admit",
            Call::SendStart => "coord.send_start",
        }
    }

    fn on_worker(self) -> bool {
        (self as usize) < (Call::Establish as usize)
    }
}

#[derive(Default)]
struct CallStat {
    count: AtomicU64,
    ns: AtomicU64,
}

/// Counters of one traced session. Times are nanoseconds; every field is a
/// statistic that publishes no other data, hence `Relaxed`.
#[derive(Default)]
pub struct NetTrace {
    calls: [CallStat; Call::ALL.len()],
    pub status_bytes: AtomicU64,
    pub job_batch_bytes: AtomicU64,
    pub final_bytes: AtomicU64,
    /// `send_control` calls by message kind.
    pub control_balance: AtomicU64,
    pub control_coverage: AtomicU64,
    pub control_hot_set: AtomicU64,
    pub control_inject: AtomicU64,
    /// Worker time from a report in which every run the worker hosts said
    /// `idle` until it receives work or reports again.
    pub idle_ns: AtomicU64,
    /// The part of `idle_ns` spent inside endpoint calls or the tracer,
    /// which the layer table charges to those rows instead.
    pub idle_call_ns: AtomicU64,
    /// Worker time spent encoding messages only to count their bytes: the
    /// tracer's own cost, kept apart so it does not pose as loop overhead.
    pub tracer_ns: AtomicU64,
}

impl NetTrace {
    pub fn count(&self, call: Call) -> u64 {
        load(&self.calls[call as usize].count)
    }

    pub fn secs(&self, call: Call) -> f64 {
        load_s(&self.calls[call as usize].ns)
    }

    fn record(&self, call: Call, ns: u64) {
        add(&self.calls[call as usize].count, 1);
        add(&self.calls[call as usize].ns, ns);
    }

    /// Worker-side time inside endpoint calls.
    pub fn worker_wire_s(&self) -> f64 {
        Call::ALL
            .iter()
            .filter(|c| c.on_worker())
            .map(|&c| self.secs(c))
            .sum()
    }
}

pub fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

pub fn load_s(counter: &AtomicU64) -> f64 {
    load(counter) as f64 / 1e9
}

fn add(counter: &AtomicU64, value: u64) {
    counter.fetch_add(value, Ordering::Relaxed);
}

/// Runs `f`, recording its count and time under `call`; returns the time
/// too.
fn timed<R>(trace: &NetTrace, call: Call, f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    trace.record(call, ns);
    (out, ns)
}

/// A transport whose endpoints time and count every call into `inner`.
pub struct Timed<T> {
    inner: T,
    trace: Arc<NetTrace>,
}

impl<T> Timed<T> {
    pub fn new(inner: T, trace: &Arc<NetTrace>) -> Timed<T> {
        Timed {
            inner,
            trace: trace.clone(),
        }
    }
}

impl<T: Transport> Transport for Timed<T> {
    type WorkerEnd = TimedWorker<T::WorkerEnd>;
    type CoordinatorEnd = TimedCoordinator<T::CoordinatorEnd>;

    fn establish(
        self,
        num_workers: usize,
    ) -> Result<Endpoints<Self::CoordinatorEnd, Self::WorkerEnd>, TransportError> {
        let inner = self.inner;
        let (endpoints, _) = timed(&self.trace, Call::Establish, || {
            inner.establish(num_workers)
        });
        let endpoints = endpoints?;
        Ok(Endpoints {
            coordinator: TimedCoordinator {
                inner: endpoints.coordinator,
                trace: self.trace.clone(),
            },
            workers: endpoints
                .workers
                .into_iter()
                .map(|inner| TimedWorker {
                    inner,
                    trace: self.trace.clone(),
                    runs: BTreeMap::new(),
                    since: Instant::now(),
                })
                .collect(),
        })
    }
}

pub struct TimedWorker<W> {
    inner: W,
    trace: Arc<NetTrace>,
    /// Idle flag of every run this worker hosts: as last reported, or
    /// cleared when the run received work since.
    runs: BTreeMap<u64, bool>,
    since: Instant,
}

impl<W> TimedWorker<W> {
    /// Whether every run this worker hosts is idle.
    fn idle(&self) -> bool {
        !self.runs.is_empty() && self.runs.values().all(|&idle| idle)
    }

    /// Closes the interval since the previous change (charging it to idle
    /// when the worker was idle), then applies `update`.
    fn observe(&mut self, update: impl FnOnce(&mut BTreeMap<u64, bool>)) {
        let now = Instant::now();
        if self.idle() {
            add(&self.trace.idle_ns, (now - self.since).as_nanos() as u64);
        }
        self.since = now;
        update(&mut self.runs);
    }

    /// A run received work (jobs, injected jobs, or its start): the worker
    /// stops being idle now, not at its next status report, which comes
    /// only after the quantum that work starts.
    fn got_work(&mut self, run: u64) {
        self.observe(|runs| {
            runs.insert(run, false);
        });
    }

    /// Keeps endpoint and tracer time spent while idle out of the idle row.
    fn charge_idle(&self, ns: u64) {
        if self.idle() {
            add(&self.trace.idle_call_ns, ns);
        }
    }

    /// Forwards one call to the inner endpoint, timed.
    fn call<R>(&mut self, call: Call, f: impl FnOnce(&mut W) -> R) -> R {
        let inner = &mut self.inner;
        let (out, ns) = timed(&self.trace, call, || f(inner));
        self.charge_idle(ns);
        out
    }

    /// Frame bytes the message takes on the TCP wire (bincode payload plus
    /// the 4-byte length prefix), adding them to `bytes`.
    fn count_bytes<T: serde::Serialize>(&self, msg: &T, bytes: fn(&NetTrace) -> &AtomicU64) {
        let start = Instant::now();
        let len = encode_frame(msg).map_or(0, |frame| frame.len() as u64);
        let ns = start.elapsed().as_nanos() as u64;
        add(&self.trace.tracer_ns, ns);
        self.charge_idle(ns);
        add(bytes(&self.trace), len);
    }
}

impl<W: WorkerEndpoint> WorkerEndpoint for TimedWorker<W> {
    fn id(&self) -> WorkerId {
        self.inner.id()
    }

    fn try_recv_control(&mut self) -> Option<(RunId, Control)> {
        let msg = self.call(Call::TryRecvControl, |w| w.try_recv_control());
        if let Some((run, Control::Inject { .. })) = &msg {
            self.got_work(run.0);
        }
        msg
    }

    fn try_recv_jobs(&mut self) -> Option<JobBatch> {
        let batch = self.call(Call::TryRecvJobs, |w| w.try_recv_jobs());
        if let Some(batch) = &batch {
            self.got_work(batch.run.0);
        }
        batch
    }

    fn try_recv_start(&mut self) -> Option<Box<RunSpec>> {
        let spec = self.call(Call::TryRecvStart, |w| w.try_recv_start());
        if let Some(spec) = &spec {
            self.got_work(spec.run.0);
        }
        spec
    }

    fn send_jobs(&mut self, destination: WorkerId, batch: JobBatch) -> Result<(), TransportError> {
        self.count_bytes(&batch, |t| &t.job_batch_bytes);
        self.call(Call::SendJobs, |w| w.send_jobs(destination, batch))
    }

    fn send_status(&mut self, report: StatusReport) -> Result<(), TransportError> {
        let (run, idle) = (report.run.0, report.idle);
        self.observe(|runs| {
            runs.insert(run, idle);
        });
        self.count_bytes(&report, |t| &t.status_bytes);
        self.call(Call::SendStatus, |w| w.send_status(report))
    }

    fn send_final(&mut self, report: FinalReport) -> Result<(), TransportError> {
        let run = report.run.0;
        self.observe(|runs| {
            runs.remove(&run);
        });
        self.count_bytes(&report, |t| &t.final_bytes);
        self.call(Call::SendFinal, |w| w.send_final(report))
    }

    fn update_peers(&mut self, peers: &[PeerInfo]) {
        self.call(Call::UpdatePeers, |w| w.update_peers(peers))
    }

    fn start_heartbeat(&mut self, interval: Duration) {
        self.call(Call::StartHeartbeat, |w| w.start_heartbeat(interval))
    }
}

pub struct TimedCoordinator<C> {
    inner: C,
    trace: Arc<NetTrace>,
}

impl<C> TimedCoordinator<C> {
    fn call<R>(&mut self, call: Call, f: impl FnOnce(&mut C) -> R) -> R {
        let inner = &mut self.inner;
        timed(&self.trace, call, || f(inner)).0
    }
}

impl<C: CoordinatorEndpoint> CoordinatorEndpoint for TimedCoordinator<C> {
    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn send_control(
        &mut self,
        destination: WorkerId,
        run: RunId,
        msg: Control,
    ) -> Result<(), TransportError> {
        match msg {
            Control::Balance { .. } => add(&self.trace.control_balance, 1),
            Control::GlobalCoverage(_) => add(&self.trace.control_coverage, 1),
            Control::HotSet(_) => add(&self.trace.control_hot_set, 1),
            Control::Inject { .. } => add(&self.trace.control_inject, 1),
            _ => {}
        }
        self.call(Call::SendControl, |c| c.send_control(destination, run, msg))
    }

    fn recv_status(&mut self, timeout: Duration) -> Option<StatusReport> {
        self.call(Call::RecvStatus, |c| c.recv_status(timeout))
    }

    fn recv_final(&mut self, timeout: Duration) -> Option<FinalReport> {
        self.call(Call::RecvFinal, |c| c.recv_final(timeout))
    }

    fn try_recv_event(&mut self) -> Option<MemberEvent> {
        self.call(Call::TryRecvEvent, |c| c.try_recv_event())
    }

    fn try_recv_join(&mut self) -> Option<JoinRequest> {
        self.call(Call::TryRecvJoin, |c| c.try_recv_join())
    }

    fn admit(
        &mut self,
        token: u64,
        worker: WorkerId,
        epoch: u64,
        peers: Vec<PeerInfo>,
        strategy: StrategyKind,
    ) -> Result<(), TransportError> {
        self.call(Call::Admit, |c| {
            c.admit(token, worker, epoch, peers, strategy)
        })
    }

    fn send_start(&mut self, destination: WorkerId, spec: RunSpec) -> Result<(), TransportError> {
        self.call(Call::SendStart, |c| c.send_start(destination, spec))
    }
}

/// A fabric established before the run: `establish` hands it over as is.
pub struct Prebuilt<C, W>(pub Endpoints<C, W>);

impl<C: CoordinatorEndpoint, W: WorkerEndpoint + 'static> Transport for Prebuilt<C, W> {
    type WorkerEnd = W;
    type CoordinatorEnd = C;

    fn establish(self, num_workers: usize) -> Result<Endpoints<C, W>, TransportError> {
        if self.0.workers.len() != num_workers {
            return Err(TransportError::Io(format!(
                "fabric has {} workers, run wants {num_workers}",
                self.0.workers.len()
            )));
        }
        Ok(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::path_set_digest;
    use crate::workloads::{cluster_config, memcached_program};
    use c9_core::{Cluster, InProcTransport, TcpTransport};
    use c9_posix::PosixEnvironment;

    /// Exhausts memcached-3x5 on 2 workers over `transport` and digests
    /// its test-case path set.
    fn digest<T: Transport>(transport: T) -> u64
    where
        T::WorkerEnd: Send,
    {
        let cluster = Cluster::new(
            Arc::new(memcached_program(3)),
            Arc::new(PosixEnvironment::new()),
            cluster_config(2, 7, true),
        );
        let result = cluster.run_with_transport(transport);
        assert!(result.summary.exhausted);
        assert_eq!(result.summary.paths_completed(), 1_098);
        path_set_digest(&result.test_cases)
    }

    #[test]
    fn timing_wrapper_leaves_the_path_set_unchanged() {
        let bare = digest(InProcTransport);
        for tcp in [false, true] {
            let trace = Arc::new(NetTrace::default());
            let wrapped = if tcp {
                assert_eq!(digest(TcpTransport::loopback()), bare);
                digest(Timed::new(TcpTransport::loopback(), &trace))
            } else {
                digest(Timed::new(InProcTransport, &trace))
            };
            assert_eq!(wrapped, bare, "wrapper changed the path set (tcp {tcp})");
            assert!(trace.count(Call::SendStatus) > 0);
            assert_eq!(trace.count(Call::SendFinal), 2);
            assert!(load(&trace.final_bytes) > 0);
        }
    }
}
