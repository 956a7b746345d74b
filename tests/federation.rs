//! Federation tests: a root coordinator driving sub-coordinators that each
//! run a worker group on its behalf (the two-level tree that takes the
//! paper's architecture past the flat-fleet scaling wall). The root speaks
//! the unmodified worker protocol to the subs, so every invariant the flat
//! cluster guarantees must survive the indirection — above all *exactness*:
//! the explored path set equals an uninterrupted flat run, even when a
//! sub-coordinator (and with it a whole group) dies mid-run.

mod common;

use cloud9::core::{Cluster, ClusterConfig, FederatedCluster, FederationConfig};
use cloud9::ir::{BinaryOp, Operand, Program, ProgramBuilder, Width};
use cloud9::posix::PosixEnvironment;
use cloud9::targets::named_workload;
use cloud9::vm::{sysno, NullEnvironment};
use common::{await_progress, progress_args, progress_checkpoint, remove_progress_checkpoint};
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStderr, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the tests of this file. The process-level SIGKILL test races
/// a kill against the end of a real run, and sharing two CPUs with the
/// in-process 256-worker fleet can starve its observer until the run is
/// over.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A program with `2^n` feasible paths: `n` independent branches on `n`
/// symbolic bytes. Every path is cheap, so the interesting load is the
/// coordination itself — job transfer, digests, and recovery.
fn branching_program(n: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.set_name("branching");
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(n as u32));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(buf), Operand::word(n as u32)],
    );
    let mut next = f.create_block();
    for i in 0..n {
        let addr = f.binary(BinaryOp::Add, Operand::Reg(buf), Operand::word(i as u32));
        let byte = f.load(Operand::Reg(addr), Width::W8);
        let cond = f.binary(
            BinaryOp::Ult,
            Operand::Reg(byte),
            Operand::byte(32 + i as u8),
        );
        let then_bb = f.create_block();
        f.branch(Operand::Reg(cond), then_bb, next);
        f.switch_to(then_bb);
        f.jump(next);
        f.switch_to(next);
        if i + 1 < n {
            next = f.create_block();
        }
    }
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);
    pb.finish()
}

/// The exhaustive path count from an uninterrupted flat run — the reference
/// every federated run must match exactly (path counts are
/// schedule-independent).
fn baseline_paths(program: &Arc<Program>) -> u64 {
    let result = Cluster::new(
        program.clone(),
        Arc::new(NullEnvironment),
        ClusterConfig {
            num_workers: 4,
            time_limit: Some(Duration::from_secs(300)),
            ..ClusterConfig::default()
        },
    )
    .run();
    assert!(result.summary.goal_reached, "baseline run must exhaust");
    result.summary.paths_completed()
}

/// The scale target of the federation work: 256 workers as 16 groups of
/// 16, one root that only ever sees 16 "workers". The path count must
/// match the flat baseline exactly — federation changes who coordinates,
/// never what is explored.
#[test]
fn federated_256_workers_preserve_the_exact_path_count() {
    let _exclusive = exclusive();
    let program = Arc::new(branching_program(8));
    let expected = baseline_paths(&program);

    let config = ClusterConfig {
        time_limit: Some(Duration::from_secs(300)),
        // Generous cadences: 256 workers' status traffic funnels through
        // 16 subs on however few cores the CI runner has.
        status_interval: Duration::from_millis(25),
        balance_interval: Duration::from_millis(50),
        snapshot_every: 1,
        // Small quanta: members poll their inbox between quanta, and on
        // this cheap-path program the default quantum would cover
        // thousands of paths before a Balance request is even seen.
        quantum: 200,
        ..ClusterConfig::default()
    };
    let result = FederatedCluster::new(
        program,
        Arc::new(NullEnvironment),
        config,
        16, // groups
        16, // workers per group
    )
    .run();

    assert!(
        result.summary.goal_reached,
        "federated cluster did not exhaust"
    );
    assert_eq!(
        result.summary.paths_completed(),
        expected,
        "federation lost or double-counted paths at 256 workers"
    );
}

/// Kill a sub-coordinator mid-run (abort-flag SIGKILL simulation: the sub
/// goes silent without a word; its whole group is orphaned). The root's
/// failure detector must declare the group dead, reclaim its ledger —
/// current to the latest digest, which carries a frontier every time — and
/// re-inject the frontier into the surviving groups. Path accounting stays
/// exact: completions after the last digest are never reported (the uplink
/// died with the sub), and exactly those jobs are re-executed elsewhere.
#[test]
fn sub_coordinator_death_mid_run_preserves_the_exact_path_count() {
    let _exclusive = exclusive();
    let program = Arc::new(branching_program(13));
    let expected = baseline_paths(&program);

    let config = ClusterConfig {
        time_limit: Some(Duration::from_secs(300)),
        status_interval: Duration::from_millis(10),
        balance_interval: Duration::from_millis(20),
        snapshot_every: 1,
        quantum: 200,
        // The root's failure detector watches the subs' digest cadence.
        failure_timeout: Some(Duration::from_millis(500)),
        ..ClusterConfig::default()
    };
    let fed = FederationConfig {
        depth_partition: true,
        // Quick harvest flushes so work spreads to every group well before
        // the kill lands.
        export_timeout: Duration::from_millis(50),
        ..FederationConfig::default()
    };
    let result = FederatedCluster::new(
        program,
        Arc::new(NullEnvironment),
        config,
        4, // groups
        4, // workers per group
    )
    .with_federation(fed)
    .run_with_kill(Some(2));

    eprintln!(
        "paths={} expected={expected} failed={} transferred={} reclaimed={} elapsed={:?}",
        result.summary.paths_completed(),
        result.summary.workers_failed,
        result.summary.jobs_transferred(),
        result.summary.jobs_reclaimed,
        result.summary.elapsed,
    );
    assert_eq!(
        result.summary.workers_failed, 1,
        "the root must observe exactly one dead group"
    );
    assert!(
        result.summary.goal_reached,
        "the surviving groups did not finish the exploration"
    );
    assert_eq!(
        result.summary.paths_completed(),
        expected,
        "sub-coordinator death lost or double-counted paths"
    );
    assert!(
        result.summary.jobs_reclaimed > 0,
        "recovery must have re-injected the dead group's frontier"
    );
}

/// Depth partitioning off is a supported configuration (the ablation arm):
/// inter-group transfers take whatever the longest queue holds. Exactness
/// must not depend on the partitioning policy.
#[test]
fn federation_without_depth_partitioning_stays_exact() {
    let _exclusive = exclusive();
    let program = Arc::new(branching_program(7));
    let expected = baseline_paths(&program);

    let config = ClusterConfig {
        time_limit: Some(Duration::from_secs(300)),
        status_interval: Duration::from_millis(10),
        balance_interval: Duration::from_millis(20),
        snapshot_every: 1,
        quantum: 200,
        ..ClusterConfig::default()
    };
    let fed = FederationConfig {
        depth_partition: false,
        ..FederationConfig::default()
    };
    let result = FederatedCluster::new(program, Arc::new(NullEnvironment), config, 2, 3)
        .with_federation(fed)
        .run();

    assert!(result.summary.goal_reached);
    assert_eq!(result.summary.paths_completed(), expected);
}

// ---------------------------------------------------------------------------
// Process-level federation: a real root coordinator, real `--sub`
// coordinator processes, real workers — and a real SIGKILL. The in-proc
// tests above prove the algorithm; this proves the deployment story: the
// processes find each other through the documented flags and banners, and
// the exactness guarantee holds when a sub dies the way operators actually
// lose machines.
// ---------------------------------------------------------------------------

const TARGET: &str = "memcached-3x5";

/// A child process killed on drop, so a failed assertion never leaks
/// workers into the host.
struct Proc {
    child: Child,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `--sub` coordinator process plus its group-listener address. Its
/// stdout stays open for the life of the struct: closing the pipe would
/// SIGPIPE the sub when it prints its final summary.
struct SubProc {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Drop for SubProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The exhaustive path count of the process-test target from an
/// uninterrupted in-process run.
fn target_baseline_paths() -> u64 {
    let workload = named_workload(TARGET).expect("registered target");
    let result = Cluster::new(
        Arc::new(workload.program),
        Arc::new(PosixEnvironment::new()),
        ClusterConfig {
            num_workers: 2,
            time_limit: Some(Duration::from_secs(300)),
            ..ClusterConfig::default()
        },
    )
    .run();
    assert!(result.summary.exhausted, "baseline run must exhaust");
    result.summary.paths_completed()
}

fn spawn_join_worker(addr: &str) -> Proc {
    let child = Command::new(env!("CARGO_BIN_EXE_c9-worker"))
        .args(["--join", addr, "--once", "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn c9-worker");
    Proc { child }
}

/// Spawns a sub-coordinator joined to `root_addr`, returning once it has
/// printed its group-listener banner.
fn spawn_sub(root_addr: &str) -> SubProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_c9-coordinator"))
        .args([
            "--sub",
            root_addr,
            "--listen",
            "127.0.0.1:0",
            "--min-workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn c9-coordinator --sub");
    let mut stdout = BufReader::new(child.stdout.take().expect("sub stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read sub banner");
    assert!(
        banner.contains("listening on"),
        "unexpected sub banner: {banner}"
    );
    let addr = banner.trim().rsplit(' ').next().unwrap().to_string();
    SubProc {
        child,
        addr,
        _stdout: stdout,
    }
}

/// Spawns the root coordinator with a drained stderr channel.
fn spawn_root(args: &[String]) -> (Child, mpsc::Receiver<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_c9-coordinator"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn c9-coordinator");
    let stderr: ChildStderr = child.stderr.take().expect("root stderr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    (child, rx)
}

/// Blocks until the root logs that the run is underway.
fn await_run_started(stderr: &mpsc::Receiver<String>) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while std::time::Instant::now() < deadline {
        match stderr.recv_timeout(Duration::from_millis(100)) {
            Ok(line) if line.contains("run started") => return,
            Ok(_) => continue,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    panic!("root coordinator never reported run start");
}

fn stdout_field(stdout: &str, field: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .unwrap_or_else(|| panic!("coordinator output missing {field:?}:\n{stdout}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("field {field:?} is not a number:\n{stdout}"))
}

/// The federated deployment under fire: a root with two sub-coordinator
/// processes (two workers each), one sub SIGKILLed mid-run. The root must
/// detect the silent group through its missed digests, reclaim the group's
/// frontier from the ledger, and finish on the surviving group with
/// exactly the uninterrupted path count.
#[test]
fn sigkill_sub_coordinator_process_mid_run_preserves_the_path_count() {
    let _exclusive = exclusive();
    let expected = target_baseline_paths();
    let checkpoint = progress_checkpoint("federation-sigkill");

    let root_args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--min-workers",
        "2",
        "--target",
        TARGET,
        "--time-limit",
        "180",
        // Small quanta so Balance requests and digests flow at millisecond
        // cadence on this cheap-path target; these settings reach the group
        // workers through the spec the subs forward.
        "--quantum",
        "100",
        "--status-interval-ms",
        "2",
        "--balance-interval-ms",
        "4",
        "--heartbeat-timeout",
        "1",
        "--heartbeat-interval-ms",
        "25",
        "--snapshot-every",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain(progress_args(&checkpoint))
    .collect();
    let (mut root, root_stderr) = spawn_root(&root_args);

    let mut root_stdout = BufReader::new(root.stdout.take().expect("root stdout"));
    let mut banner = String::new();
    root_stdout
        .read_line(&mut banner)
        .expect("read root banner");
    assert!(banner.contains("listening on"), "root banner: {banner}");
    let root_addr = banner.trim().rsplit(' ').next().unwrap().to_string();

    let mut subs: Vec<SubProc> = (0..2).map(|_| spawn_sub(&root_addr)).collect();
    let _workers: Vec<Proc> = subs
        .iter()
        .flat_map(|sub| {
            (0..2)
                .map(|_| spawn_join_worker(&sub.addr))
                .collect::<Vec<_>>()
        })
        .collect();

    await_run_started(&root_stderr);
    // Inter-group balancing may not reach every group before the end of
    // the run, so any group's progress is the signal here.
    await_progress(&checkpoint, 1);
    // SIGKILL one sub: its uplink heartbeats stop, its group is orphaned,
    // and its members exit on the dead endpoint. Everything it had not yet
    // reported exists only as replayable prefixes in the root's ledger.
    let victim = &mut subs[1];
    victim.child.kill().expect("kill sub-coordinator");
    victim.child.wait().expect("reap sub-coordinator");

    let mut stdout = String::new();
    std::io::Read::read_to_string(&mut root_stdout, &mut stdout).expect("read root stdout");
    let status = root.wait().expect("wait root coordinator");
    assert!(status.success(), "root coordinator failed:\n{stdout}");

    assert_eq!(
        stdout_field(&stdout, "workers failed:"),
        1,
        "the sub kill must be detected as exactly one dead group:\n{stdout}"
    );
    assert!(
        stdout.contains("exhausted:         true"),
        "the surviving group did not exhaust:\n{stdout}"
    );
    assert_eq!(
        stdout_field(&stdout, "total paths:"),
        expected,
        "sub-coordinator SIGKILL lost or double-counted paths:\n{stdout}"
    );
    remove_progress_checkpoint(&checkpoint);
}
