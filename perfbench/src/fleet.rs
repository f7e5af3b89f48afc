//! The `fleet` workload's sweep: an in-process coordinator and two
//! worker threads leasing cells over loopback TCP.

use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use dsp_fleet::{
    query_results, query_status, run_worker_with, Coordinator, FleetConfig, FleetReport,
    WorkerConfig,
};

use crate::workloads::{fleet_plan, FLEET_EXPERIMENT, FLEET_SCALE};

/// Workers in the fleet (one sweep thread each).
pub const WORKERS: usize = 2;

/// How long a fleet may take before the round counts as failed.
const DEADLINE: Duration = Duration::from_secs(120);

/// One fleet sweep, as measured.
#[derive(Debug)]
pub struct FleetRound {
    /// Coordinator start to the reconciled report, in seconds.
    pub sweep_s: f64,
    /// Coordinator start until both workers held a lease: the
    /// coordinator's start-up plus both handshakes.
    pub join_s: f64,
    /// The coordinator's final report.
    pub report: FleetReport,
    /// `query_status` round trips during the sweep, in ms.
    pub status_ms: Vec<f64>,
    /// Bytes of every file the fleet left in its directory (journals,
    /// write-ahead log, coordinator log).
    pub journal_bytes: u64,
}

/// Runs the fleet over `fleet_plan(seed)` in `dir` (created fresh and
/// removed afterwards). With `watch`, polls `query_status` every 10 ms
/// until the sweep completes.
pub fn run(seed: u64, dir: &Path, watch: bool) -> Result<FleetRound, String> {
    let _ = std::fs::remove_dir_all(dir);
    let config = FleetConfig::new(FLEET_EXPERIMENT, FLEET_SCALE, dir);
    let start = Instant::now();
    let handle =
        Coordinator::start(fleet_plan(seed), config).map_err(|e| format!("fleet start: {e}"))?;
    let addr = handle.addr().to_string();
    let workers: Vec<_> = (0..WORKERS)
        .map(|i| {
            let config = WorkerConfig::new(&format!("worker{i}"), &addr, dir);
            thread::spawn(move || {
                run_worker_with(&config, |experiment, scale| {
                    (experiment == FLEET_EXPERIMENT && scale == FLEET_SCALE)
                        .then(|| fleet_plan(seed))
                })
            })
        })
        .collect();

    let mut status_ms = Vec::new();
    let joined = wait_for_workers(&addr, start);
    let join_s = start.elapsed().as_secs_f64();
    if watch {
        while joined.is_ok() && start.elapsed() < DEADLINE {
            let t = Instant::now();
            match query_status(&addr) {
                Ok(status) => {
                    status_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    if status.complete {
                        break;
                    }
                }
                Err(_) => break,
            }
            thread::sleep(Duration::from_millis(10));
        }
    }
    let report = joined.and_then(|()| handle.wait(DEADLINE));
    let sweep_s = start.elapsed().as_secs_f64();
    // Workers leave when the still-running coordinator answers their
    // next request with `Shutdown`; stopping it first would leave them
    // retrying a vanished coordinator until their reconnect budget ends.
    let mut worker_errors = Vec::new();
    for worker in workers {
        match worker.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => worker_errors.push(e),
            Err(_) => worker_errors.push("worker thread panicked".to_string()),
        }
    }
    handle.shutdown();
    let journal_bytes = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(dir);
    let report = report?;
    if let Some(e) = worker_errors.into_iter().next() {
        return Err(format!("fleet worker failed: {e}"));
    }
    Ok(FleetRound {
        sweep_s,
        join_s,
        report,
        status_ms,
        journal_bytes,
    })
}

/// Polls the coordinator until every worker has been granted a lease
/// (its name appears on a leased or completed cell).
fn wait_for_workers(addr: &str, start: Instant) -> Result<(), String> {
    loop {
        let page = query_results(addr, 0, 1_000)?;
        let mut seen: Vec<&str> = page
            .cells
            .iter()
            .filter_map(|c| c.worker.as_deref())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() >= WORKERS || page.completed == page.total {
            return Ok(());
        }
        if start.elapsed() > DEADLINE {
            return Err("fleet workers never joined".to_string());
        }
        thread::sleep(Duration::from_millis(1));
    }
}
