//! Helpers shared by the process-level chaos and federation tests.

use cloud9::core::Checkpoint;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A fresh path for a coordinator's progress checkpoints.
pub fn progress_checkpoint(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("c9-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join("progress.ckpt")
}

/// Coordinator flags that checkpoint the run every couple of milliseconds
/// into `checkpoint`, which [`await_progress`] watches.
pub fn progress_args(checkpoint: &Path) -> [String; 4] {
    [
        "--checkpoint".into(),
        checkpoint.display().to_string(),
        "--checkpoint-interval".into(),
        "0.002".into(),
    ]
}

/// Blocks until the coordinator's periodic checkpoint shows the run in
/// full swing: at least `busy` members have completed paths, and the
/// pending frontier still holds several jobs per member. A process killed
/// now lands mid-run, however fast the engine explores — a fixed timer
/// would race the end of the run instead.
pub fn await_progress(checkpoint: &Path, busy: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last_seen = None;
    while Instant::now() < deadline {
        if let Ok(c) = Checkpoint::load(checkpoint) {
            let paths: Vec<u64> = c.base_stats.iter().map(|s| s.paths_completed).collect();
            let pending = c.jobs().len();
            let busy_now = paths.iter().filter(|p| **p > 0).count();
            if busy_now >= busy && pending >= 4 * paths.len() {
                return;
            }
            last_seen = Some((paths, pending));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!(
        "the run never showed progress with pending work; \
         last checkpoint (paths per member, pending jobs): {last_seen:?}"
    );
}

/// Removes the directory [`progress_checkpoint`] created.
pub fn remove_progress_checkpoint(checkpoint: &Path) {
    if let Some(dir) = checkpoint.parent() {
        std::fs::remove_dir_all(dir).ok();
    }
}
