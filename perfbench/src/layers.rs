//! Per-layer metrics of a traced session, taken only at public boundaries:
//! the [`NetTrace`] of the timing transport, the counters and histograms
//! the workers export in [`WorkerStats`], and the service calls the client
//! timed.

use crate::measure::median;
use crate::timed::{load, load_s, Call, NetTrace};
use c9_core::WorkerStats;
use std::sync::Arc;

/// Every per-layer metric, in report order, with its unit. `BENCHMARK.json`
/// lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("targets.build_s", "s"),
    ("net.establish_s", "s"),
    ("net.status_msgs", "count"),
    ("net.status_bytes", "B"),
    ("net.send_status_s", "s"),
    ("net.job_batches", "count"),
    ("net.job_batch_bytes", "B"),
    ("net.send_jobs_s", "s"),
    ("net.control_msgs", "count"),
    ("net.control_msgs.balance", "count"),
    ("net.control_msgs.coverage", "count"),
    ("net.control_msgs.hot_set", "count"),
    ("net.control_msgs.inject", "count"),
    ("net.final_bytes", "B"),
    ("coord.recv_wait_s", "s"),
    ("coord.balance_orders", "count"),
    ("coord.jobs_transferred", "count"),
    ("worker.busy_s", "s"),
    ("worker.quanta", "count"),
    ("worker.wire_s", "s"),
    ("worker.idle_s", "s"),
    ("worker.idle_frac", "ratio"),
    ("worker.imbalance", "ratio"),
    ("worker.loop_other_s", "s"),
    ("worker.replay_share", "ratio"),
    ("worker.materializations", "count"),
    ("worker.anchor_hit_rate", "ratio"),
    ("solver.time_s", "s"),
    ("solver.queries", "count"),
    ("solver.searches", "count"),
    ("solver.cache_hit_rate", "ratio"),
    ("solver.independence_slices", "count"),
    ("solver.gossip_bytes", "B"),
    ("solver.warm_hits", "count"),
    ("solver.imported_entries", "count"),
    ("vm.time_s", "s"),
    ("vm.instr_per_s", "1/s"),
    ("vm.paths", "count"),
    ("vm.bugs", "count"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.short_runs", "count"),
    ("trace.self_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What a session hands over for its per-layer numbers.
#[derive(Default)]
pub struct Traced {
    /// Time to build the program(s) under test.
    pub build_s: f64,
    /// Wall time every worker was part of the session: the run on batch
    /// workloads, bulk submit to the last short run's end on `service-mix`.
    pub window_s: f64,
    pub workers: usize,
    /// Paths per worker of the (bulk) run.
    pub paths_per_worker: Vec<u64>,
    pub jobs_transferred: u64,
    /// Final stats of every worker of every run in the session.
    pub stats: Vec<WorkerStats>,
    pub net: Arc<NetTrace>,
    /// Per short run on `service-mix`.
    pub submit_s: Vec<f64>,
    pub queue_wait_s: Vec<f64>,
    pub run_s: Vec<f64>,
}

/// Sums every worker's stats of every run into one.
fn total_stats(stats: &[WorkerStats]) -> WorkerStats {
    let mut total = WorkerStats::default();
    for s in stats {
        total.merge(s);
    }
    total
}

fn hist_sum_s(stats: &WorkerStats, name: &str) -> f64 {
    stats
        .metrics
        .histograms
        .get(name)
        .map_or(0.0, |h| h.sum as f64 / 1e6)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// How one session's worker time splits, in worker-seconds.
pub struct Split {
    pub wall: f64,
    pub solver: f64,
    pub vm: f64,
    pub wire: f64,
    pub idle: f64,
    pub tracer: f64,
}

impl Split {
    pub fn of(traced: &Traced) -> Split {
        let total = total_stats(&traced.stats);
        let busy = hist_sum_s(&total, "quantum_us");
        let solver = hist_sum_s(&total, "solver_query_us");
        let net = &traced.net;
        Split {
            wall: traced.window_s * traced.workers as f64,
            solver,
            vm: busy - solver,
            wire: net.worker_wire_s(),
            idle: load_s(&net.idle_ns) - load_s(&net.idle_call_ns),
            tracer: load_s(&net.tracer_ns),
        }
    }

    /// Worker time no layer accounts for: status building, frontier and
    /// gossip export, the loop itself.
    pub fn other(&self) -> f64 {
        self.wall - self.solver - self.vm - self.wire - self.idle - self.tracer
    }

    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("solver", self.solver),
            ("vm", self.vm),
            ("wire", self.wire),
            ("idle", self.idle),
            ("tracer", self.tracer),
            ("unattributed", self.other()),
        ]
    }
}

/// Every [`PER_LAYER`] metric of one traced session except
/// `trace.overhead_frac`, which compares sessions.
pub fn metrics(traced: &Traced) -> Vec<(&'static str, f64)> {
    let total = total_stats(&traced.stats);
    let solver = &total.solver;
    let net = &traced.net;
    let split = Split::of(traced);
    let instructions = total.total_instructions() as f64;
    let paths = &traced.paths_per_worker;
    let mean_paths = ratio(paths.iter().sum::<u64>() as f64, paths.len() as f64);
    let max_paths = paths.iter().copied().max().unwrap_or(0) as f64;
    let count = |c: &std::sync::atomic::AtomicU64| load(c) as f64;
    let calls = |c: Call| net.count(c) as f64;
    let quanta = total
        .metrics
        .histograms
        .get("quantum_us")
        .map_or(0, |h| h.count);
    vec![
        ("targets.build_s", traced.build_s),
        ("net.establish_s", net.secs(Call::Establish)),
        ("net.status_msgs", calls(Call::SendStatus)),
        ("net.status_bytes", count(&net.status_bytes)),
        ("net.send_status_s", net.secs(Call::SendStatus)),
        ("net.job_batches", calls(Call::SendJobs)),
        ("net.job_batch_bytes", count(&net.job_batch_bytes)),
        ("net.send_jobs_s", net.secs(Call::SendJobs)),
        ("net.control_msgs", calls(Call::SendControl)),
        ("net.control_msgs.balance", count(&net.control_balance)),
        ("net.control_msgs.coverage", count(&net.control_coverage)),
        ("net.control_msgs.hot_set", count(&net.control_hot_set)),
        ("net.control_msgs.inject", count(&net.control_inject)),
        ("net.final_bytes", count(&net.final_bytes)),
        ("coord.recv_wait_s", net.secs(Call::RecvStatus)),
        ("coord.balance_orders", count(&net.control_balance)),
        ("coord.jobs_transferred", traced.jobs_transferred as f64),
        ("worker.busy_s", split.solver + split.vm),
        ("worker.quanta", quanta as f64),
        ("worker.wire_s", split.wire),
        ("worker.idle_s", split.idle),
        ("worker.idle_frac", ratio(split.idle, split.wall)),
        ("worker.imbalance", ratio(max_paths, mean_paths)),
        ("worker.loop_other_s", split.other()),
        (
            "worker.replay_share",
            ratio(total.replay_instructions as f64, instructions),
        ),
        ("worker.materializations", total.materializations as f64),
        ("worker.anchor_hit_rate", total.anchor_hit_rate()),
        ("solver.time_s", split.solver),
        ("solver.queries", solver.queries as f64),
        ("solver.searches", solver.searches as f64),
        ("solver.cache_hit_rate", solver.cache_hit_rate()),
        (
            "solver.independence_slices",
            solver.independence_slices as f64,
        ),
        ("solver.gossip_bytes", total.gossip_bytes_sent as f64),
        ("solver.warm_hits", solver.warm_hits as f64),
        (
            "solver.imported_entries",
            solver.imported_cache_entries as f64,
        ),
        ("vm.time_s", split.vm),
        ("vm.instr_per_s", ratio(instructions, split.vm)),
        ("vm.paths", total.paths_completed as f64),
        ("vm.bugs", total.bugs_found as f64),
        ("service.submit_s", median_or_zero(&traced.submit_s)),
        ("service.queue_wait_s", median_or_zero(&traced.queue_wait_s)),
        ("service.run_s", median_or_zero(&traced.run_s)),
        ("service.short_runs", traced.run_s.len() as f64),
        ("trace.self_s", split.tracer),
        ("trace.unattributed_frac", ratio(split.other(), split.wall)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the per-layer metrics the traced
    /// run prints, with the same units.
    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        assert_eq!(per_layer.matches("\"name\":").count(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "{name} ({unit}) missing");
        }
        let traced = Traced::default();
        let names: Vec<&str> = metrics(&traced).iter().map(|&(n, _)| n).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected[..expected.len() - 1]);
    }
}
