//! Chaos tests for elastic fault-tolerant membership: a cluster of real OS
//! processes must survive a SIGKILLed worker, fold late joiners into a
//! running run, and continue an interrupted run from a checkpoint — all
//! without ever losing or double-counting a path. Jobs are replayable path
//! prefixes (§3.2 of the paper), so every recovery is just a re-send of the
//! affected job tree; these tests assert the resulting *exactness*: the
//! final path count always equals an uninterrupted in-process run.

mod common;

use cloud9::core::{Cluster, ClusterConfig};
use cloud9::posix::PosixEnvironment;
use cloud9::targets::named_workload;
use common::{await_progress, progress_args, progress_checkpoint, remove_progress_checkpoint};
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const TARGET: &str = "memcached-3x5";

/// The exhaustive path count of the target, from an uninterrupted
/// in-process run (the count is schedule-independent, so any worker count
/// works as the reference).
fn baseline_paths() -> u64 {
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
    let paths = result.summary.paths_completed();
    assert!(paths > 0);
    paths
}

struct WorkerProc {
    child: Child,
    addr: String,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_worker(args: &[&str]) -> WorkerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_c9-worker"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn c9-worker");
    let addr = if args.contains(&"--join") {
        String::new() // join-mode workers print no banner on stdout
    } else {
        let stdout = child.stdout.take().expect("worker stdout");
        let banner = BufReader::new(stdout)
            .lines()
            .next()
            .expect("worker printed nothing")
            .expect("read worker banner");
        assert!(
            banner.contains("listening on"),
            "unexpected worker banner: {banner}"
        );
        banner.rsplit(' ').next().unwrap().to_string()
    };
    WorkerProc { child, addr }
}

/// Spawns the coordinator with piped stdio and a thread draining stderr;
/// returns the child, a receiver of stderr lines, and the stderr thread.
fn spawn_coordinator(args: &[String]) -> (Child, mpsc::Receiver<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_c9-coordinator"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn c9-coordinator");
    let stderr: ChildStderr = child.stderr.take().expect("coordinator stderr");
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

/// Blocks until the coordinator logs that the run is underway.
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
    panic!("coordinator never reported run start");
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

/// The acceptance-criteria test: SIGKILL one of four TCP workers mid-run.
/// The failure detector must declare it dead, reclaim its pending jobs
/// from the coordinator's ledger, re-inject them into the three survivors,
/// and the run must finish with exactly the uninterrupted path count.
#[test]
fn sigkill_one_of_four_workers_mid_run_preserves_the_path_count() {
    let expected = baseline_paths();
    let checkpoint = progress_checkpoint("chaos-sigkill");

    let mut workers: Vec<WorkerProc> = (0..4)
        .map(|_| spawn_worker(&["--listen", "127.0.0.1:0", "--once", "--quiet"]))
        .collect();
    let addr_list = workers
        .iter()
        .map(|w| w.addr.clone())
        .collect::<Vec<_>>()
        .join(",");

    let args: Vec<String> = [
        "--workers",
        &addr_list,
        "--target",
        TARGET,
        "--time-limit",
        "180",
        // Small quanta so the frontier spreads across all four workers
        // well before the kill lands.
        "--quantum",
        "100",
        "--status-interval-ms",
        "2",
        "--balance-interval-ms",
        "4",
        "--heartbeat-timeout",
        "0.75",
        "--heartbeat-interval-ms",
        "25",
        "--snapshot-every",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain(progress_args(&checkpoint))
    .collect();
    let (child, stderr) = spawn_coordinator(&args);

    await_run_started(&stderr);
    await_progress(&checkpoint, workers.len());
    // SIGKILL — no cleanup, no goodbye; its unsent results and its pending
    // jobs exist only as replayable path prefixes in the coordinator's
    // ledger now.
    let victim = &mut workers[1];
    victim.child.kill().expect("kill worker");
    victim.child.wait().expect("reap worker");

    let output = child.wait_with_output().expect("run c9-coordinator");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "coordinator failed:\n{stdout}");

    assert_eq!(
        stdout_field(&stdout, "workers failed:"),
        1,
        "the kill must be detected as exactly one failure:\n{stdout}"
    );
    assert!(
        stdout.contains("exhausted:         true"),
        "the surviving cluster did not exhaust:\n{stdout}"
    );
    assert_eq!(
        stdout_field(&stdout, "total paths:"),
        expected,
        "crash recovery lost or double-counted paths:\n{stdout}"
    );
    remove_progress_checkpoint(&checkpoint);
}

/// Elastic membership: a cluster formed purely by `Join` handshakes, with
/// one worker attaching after the run started. The late joiner is folded
/// into the next balancing round and the exploration stays exact.
#[test]
fn late_joiner_is_folded_into_a_running_elastic_cluster() {
    let expected = baseline_paths();
    let checkpoint = progress_checkpoint("chaos-late-joiner");

    let args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--min-workers",
        "2",
        "--target",
        TARGET,
        "--time-limit",
        "180",
        "--quantum",
        "100",
        "--status-interval-ms",
        "2",
        "--balance-interval-ms",
        "4",
        "--heartbeat-timeout",
        "2",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain(progress_args(&checkpoint))
    .collect();
    let (mut child, stderr) = spawn_coordinator(&args);

    // The coordinator prints its bound join address on stdout first.
    let mut stdout_reader = BufReader::new(child.stdout.take().expect("coordinator stdout"));
    let mut banner = String::new();
    stdout_reader
        .read_line(&mut banner)
        .expect("read coordinator banner");
    assert!(banner.contains("listening on"), "banner: {banner}");
    let coordinator_addr = banner.trim().rsplit(' ').next().unwrap().to_string();

    let join_args = ["--join", coordinator_addr.as_str(), "--once", "--quiet"];
    let _w1 = spawn_worker(&join_args);
    let _w2 = spawn_worker(&join_args);
    await_run_started(&stderr);
    // Join as soon as the run is under way, while plenty of work remains.
    await_progress(&checkpoint, 1);
    let _w3 = spawn_worker(&join_args);

    let mut stdout = String::new();
    std::io::Read::read_to_string(&mut stdout_reader, &mut stdout).expect("read stdout");
    let status = child.wait().expect("wait coordinator");
    assert!(status.success(), "coordinator failed:\n{stdout}");

    assert_eq!(
        stdout_field(&stdout, "workers:"),
        3,
        "the late joiner never became a member:\n{stdout}"
    );
    assert!(
        stdout.contains("exhausted:         true"),
        "elastic cluster did not exhaust:\n{stdout}"
    );
    assert_eq!(
        stdout_field(&stdout, "total paths:"),
        expected,
        "elastic membership changed the explored tree:\n{stdout}"
    );
    remove_progress_checkpoint(&checkpoint);
}

/// Strategy portfolios under chaos: a 4-worker elastic cluster running the
/// full `dfs,random-path,cov-opt,cupa` mix (with adaptive rebalancing on)
/// loses one worker to SIGKILL and gains a replacement joiner mid-run. The
/// coordinator must re-assign strategies across the churn — the four
/// initial joiners get the four distinct mix strategies, the replacement
/// draws from the freed slots — and the run must still finish with exactly
/// the uninterrupted path count.
#[test]
fn portfolio_strategy_assignments_survive_worker_crash_and_rejoin() {
    let expected = baseline_paths();
    let checkpoint = progress_checkpoint("chaos-portfolio");

    let args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--min-workers",
        "4",
        "--target",
        TARGET,
        "--time-limit",
        "180",
        "--quantum",
        "100",
        "--status-interval-ms",
        "2",
        "--balance-interval-ms",
        "4",
        "--heartbeat-timeout",
        "0.75",
        "--heartbeat-interval-ms",
        "25",
        "--snapshot-every",
        "1",
        "--portfolio",
        "dfs,random-path,cov-opt,cupa",
        "--portfolio-adapt",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain(progress_args(&checkpoint))
    .collect();
    let (mut child, stderr) = spawn_coordinator(&args);

    let mut stdout_reader = BufReader::new(child.stdout.take().expect("coordinator stdout"));
    let mut banner = String::new();
    stdout_reader
        .read_line(&mut banner)
        .expect("read coordinator banner");
    assert!(banner.contains("listening on"), "banner: {banner}");
    let coordinator_addr = banner.trim().rsplit(' ').next().unwrap().to_string();

    let join_args = ["--join", coordinator_addr.as_str(), "--once", "--quiet"];
    let mut workers: Vec<WorkerProc> = (0..4).map(|_| spawn_worker(&join_args)).collect();
    await_run_started(&stderr);
    await_progress(&checkpoint, workers.len());

    // SIGKILL one member and send in a replacement immediately: its join
    // lands within milliseconds, well before the failure detector (0.75s)
    // frees the victim's slot and re-injects its jobs — the survivors'
    // recovery work keeps the run alive long enough for both to matter.
    let victim = &mut workers[1];
    victim.child.kill().expect("kill worker");
    victim.child.wait().expect("reap worker");
    let _replacement = spawn_worker(&join_args);

    let mut stdout = String::new();
    std::io::Read::read_to_string(&mut stdout_reader, &mut stdout).expect("read stdout");
    let status = child.wait().expect("wait coordinator");
    assert!(status.success(), "coordinator failed:\n{stdout}");

    // Collect the coordinator's membership log: every join line names the
    // assigned strategy.
    let mut join_strategies = Vec::new();
    while let Ok(line) = stderr.try_recv() {
        if let Some((_, rest)) = line.split_once("strategy ") {
            if line.contains("joined") {
                join_strategies.push(rest.trim_end_matches(')').to_string());
            }
        }
    }
    assert_eq!(
        join_strategies.len(),
        5,
        "expected 4 initial joins + 1 replacement, got {join_strategies:?}"
    );
    let initial: std::collections::BTreeSet<&String> = join_strategies[..4].iter().collect();
    assert_eq!(
        initial.len(),
        4,
        "the 4-strategy mix must spread across the 4 initial workers: {join_strategies:?}"
    );

    assert_eq!(
        stdout_field(&stdout, "workers failed:"),
        1,
        "the kill must be detected as exactly one failure:\n{stdout}"
    );
    assert!(
        stdout.contains("exhausted:         true"),
        "the churned portfolio cluster did not exhaust:\n{stdout}"
    );
    assert_eq!(
        stdout_field(&stdout, "total paths:"),
        expected,
        "portfolio crash/rejoin lost or double-counted paths:\n{stdout}"
    );
    remove_progress_checkpoint(&checkpoint);
}

/// Checkpoint/resume: a run stopped by a path limit writes its final
/// checkpoint (completed stats + pending frontier); a second run with
/// fresh worker processes resumes it and must land on exactly the
/// uninterrupted total.
#[test]
fn checkpoint_resume_continues_an_interrupted_run_exactly() {
    let expected = baseline_paths();
    let dir = std::env::temp_dir().join(format!("c9-chaos-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let checkpoint = dir.join("run.ckpt");

    let phase = |extra: &[String]| -> String {
        let workers: Vec<WorkerProc> = (0..2)
            .map(|_| spawn_worker(&["--listen", "127.0.0.1:0", "--once", "--quiet"]))
            .collect();
        let addr_list = workers
            .iter()
            .map(|w| w.addr.clone())
            .collect::<Vec<_>>()
            .join(",");
        let mut args: Vec<String> = [
            "--workers",
            &addr_list,
            "--target",
            TARGET,
            "--quantum",
            "100",
            "--status-interval-ms",
            "2",
            "--balance-interval-ms",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend(extra.iter().cloned());
        let (child, _stderr) = spawn_coordinator(&args);
        let output = child.wait_with_output().expect("run c9-coordinator");
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(output.status.success(), "coordinator failed:\n{stdout}");
        stdout
    };

    // Phase 1: stop early, checkpointing the frontier.
    let limit = (expected / 3).max(1).to_string();
    let stdout = phase(&[
        "--max-paths".into(),
        limit,
        "--checkpoint".into(),
        checkpoint.display().to_string(),
    ]);
    let phase1_paths = stdout_field(&stdout, "total paths:");
    assert!(
        phase1_paths < expected,
        "phase 1 was supposed to stop early:\n{stdout}"
    );
    assert!(checkpoint.exists(), "no checkpoint written");

    // Phase 2: fresh workers, resumed run.
    let stdout = phase(&[
        "--time-limit".into(),
        "180".into(),
        "--resume".into(),
        checkpoint.display().to_string(),
    ]);
    assert!(
        stdout.contains("exhausted:         true"),
        "resumed run did not exhaust:\n{stdout}"
    );
    assert_eq!(
        stdout_field(&stdout, "total paths:"),
        expected,
        "resume lost or double-counted paths:\n{stdout}"
    );
    let phase2_paths = stdout_field(&stdout, "total paths:");
    assert!(phase2_paths > phase1_paths);

    std::fs::remove_dir_all(&dir).ok();
}
