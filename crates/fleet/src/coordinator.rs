//! The fleet coordinator: a long-running service that owns an
//! `ExperimentPlan`, leases its cells to workers, and folds every
//! result back into one byte-identical table.
//!
//! # Threading model
//!
//! Plain `std::net` — a non-blocking accept loop on one service thread,
//! one thread per connection, shared state behind a single mutex. The
//! service thread doubles as the maintenance clock: every poll tick it
//! tails active lease journals (growth is liveness), expires leases
//! with no evidence of life within the timeout, **harvests the durable
//! prefix of a dead worker's journal before requeueing the rest**, and
//! checks for completion. Connection threads read with a short timeout
//! so everybody notices shutdown within a tick.
//!
//! # Result flow
//!
//! Every accepted cell completion (streamed over the wire, or harvested
//! from a dead worker's journal) is appended to a **master journal** —
//! a plain full-shard checkpoint journal, so the ordinary `repro merge`
//! and `--resume` machinery can read it. When the last cell lands, the
//! coordinator compacts the master plus every surviving lease journal
//! through `merge_journals`: identical duplicates (a cell journaled by
//! a worker presumed dead *and* re-run by its stealer) fold silently,
//! while a conflicting duplicate — impossible unless two incompatible
//! binaries joined one fleet — fails the run loudly.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsp_bench::engine::{
    harvest_journal, merge_journals, scan_journal, tail_journal, CellId, CellOutput, CellRecord,
    ExperimentPlan, JournalWriter, SessionError, ShardSpec,
};

use crate::auth::{fresh_nonce, mac64};
use crate::lease::{grant_size, CellReport, GrantOutcome, LeaseLedger};
use crate::protocol::{
    self, MessageReader, PlanIdentity, ProtocolError, Reply, Request, PROTOCOL_VERSION,
};
use crate::stats::{CellProgress, FleetCounters, ResultsPage, StatusReport};

/// Maintenance cadence (journal tailing, expiry, accept polling).
const POLL_MS: u64 = 50;

/// Coordinator tuning.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Experiment name workers use to rebuild the plan.
    pub experiment: String,
    /// Scale preset name workers feed to `Scale::parse`.
    pub scale_name: String,
    /// Fleet directory: master journal, lease journals, coordinator
    /// log. Workers on the same machine journal here too.
    pub dir: PathBuf,
    /// Cells per lease. Near the end of the sweep a grant holds at most
    /// half of the cells still queued, so the tail stays stealable.
    pub lease_cells: usize,
    /// Liveness timeout: a lease with no protocol message *and* no
    /// journal growth for this long is expired and its cells re-leased.
    /// Workers heartbeat four times per timeout while a cell runs.
    pub timeout_ms: u64,
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port.
    pub port: u16,
    /// Shared fleet token; clients must answer the handshake challenge
    /// with `mac64(token, nonce)`. Empty string = open fleet (the
    /// handshake still runs, the secret is just trivial).
    pub token: String,
}

impl FleetConfig {
    /// Defaults sized for a local fleet at quick scale.
    pub fn new(experiment: &str, scale_name: &str, dir: impl Into<PathBuf>) -> Self {
        FleetConfig {
            experiment: experiment.to_string(),
            scale_name: scale_name.to_string(),
            dir: dir.into(),
            lease_cells: 4,
            timeout_ms: 10_000,
            port: 0,
            token: String::new(),
        }
    }
}

/// What a finished fleet produced.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// The merged table as CSV — the bytes compared against a serial
    /// run.
    pub csv: String,
    /// The merged table, rendered for humans.
    pub rendered: String,
    /// Final churn counters.
    pub counters: FleetCounters,
    /// Whether the lease ledger reconciled (every cell completed
    /// exactly once, every grant accounted for).
    pub reconciled: bool,
    /// Cells in the plan.
    pub cells: usize,
    /// Wall-clock seconds from coordinator start to the final merge.
    pub wall_s: f64,
}

/// Mutable coordinator state, behind one mutex.
struct State {
    ledger: LeaseLedger,
    /// Master journal writer; taken (closed) at completion.
    master: Option<JournalWriter>,
    /// Journal path per active lease, for tailing and harvest.
    lease_journals: HashMap<u64, PathBuf>,
    /// Every lease journal path ever assigned (or found on disk at
    /// recovery), for the final compaction.
    journals: Vec<PathBuf>,
    /// Accepted-result attribution by plan index.
    worker_of_cell: Vec<Option<String>>,
    /// First unrecoverable failure (master-journal I/O, bad merge).
    failure: Option<String>,
    /// Set exactly once, when the sweep finishes (or fails).
    report: Option<Result<FleetReport, String>>,
}

struct Shared {
    plan: ExperimentPlan,
    ids: Vec<CellId>,
    identity: PlanIdentity,
    config: FleetConfig,
    master_path: PathBuf,
    epoch: Instant,
    state: Mutex<State>,
    done: Condvar,
    stop: AtomicBool,
    log: Mutex<BufWriter<File>>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Appends one timestamped line to the coordinator log (flushed:
    /// the log must survive a crash and is uploaded as a CI artifact).
    fn log(&self, line: &str) {
        let mut log = self.log.lock().expect("log lock poisoned");
        let _ = writeln!(log, "[{:>8}ms] {line}", self.now_ms());
        let _ = log.flush();
    }
}

/// Builder entry point for the fleet service.
pub struct Coordinator;

impl Coordinator {
    /// Starts a coordinator for `plan` and returns a handle to it. The
    /// service runs on background threads until the sweep completes
    /// and [`CoordinatorHandle::shutdown`] is called (or the handle is
    /// dropped).
    ///
    /// # Errors
    ///
    /// Filesystem failures creating the fleet directory, log, or
    /// master journal; failure to bind the listener.
    pub fn start(plan: ExperimentPlan, config: FleetConfig) -> io::Result<CoordinatorHandle> {
        std::fs::create_dir_all(&config.dir)?;
        let log_file = File::create(config.dir.join("coordinator.log"))?;
        let master = JournalWriter::create(&master_path(&config), &plan, &ShardSpec::full())
            .map_err(|e| io::Error::other(e.to_string()))?;
        let ledger = LeaseLedger::new(CellId::assign(&plan.cells));
        let durable = Durable {
            worker_of_cell: vec![None; ledger.total()],
            ledger,
            master,
            journals: Vec::new(),
        };
        serve(plan, config, durable, log_file, "up")
    }

    /// Rebuilds a crashed coordinator from its fleet directory alone
    /// and resumes the sweep. The master journal (whose header pins the
    /// plan) is reopened for appending; every
    /// `<experiment>.lease<N>.<worker>.jsonl` in the directory is
    /// harvested, and each of its cells the master journal lacks is
    /// appended to it. A fresh ledger adopts all of those cells as done
    /// and serves the rest of the plan through the usual grant, steal
    /// and expire path, with new lease ids above every one on disk so
    /// no grant truncates a journal of the crashed run. An old worker
    /// that reconnects re-handshakes like any other, and its reports for
    /// leases of the crashed run are answered `Stale` — which workers
    /// already treat as routine.
    ///
    /// # Errors
    ///
    /// A missing or corrupt master journal, a lease journal from a
    /// different plan (the error names the file), or the same
    /// filesystem/bind failures as [`start`](Self::start).
    pub fn recover(plan: ExperimentPlan, config: FleetConfig) -> io::Result<CoordinatorHandle> {
        let invalid = |e: SessionError| io::Error::new(ErrorKind::InvalidData, e.to_string());
        let log_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(config.dir.join("coordinator.log"))?;
        let master_path = master_path(&config);
        let (master_records, master_valid) = scan_journal(&plan, &master_path).map_err(invalid)?;
        let mut master = JournalWriter::append_to(&master_path, master_valid).map_err(invalid)?;
        let mut ledger = LeaseLedger::new(CellId::assign(&plan.cells));
        for (id, _, _) in &master_records {
            ledger.adopt(*id);
        }
        let mut worker_of_cell = vec![None; ledger.total()];
        let mut journals = Vec::new();
        for (lease, worker, path) in lease_journals_on_disk(&config)? {
            ledger.skip_leases_through(lease);
            // A worker killed while creating its journal leaves it
            // without a header; such a file holds no cells.
            if tail_journal(&path)?.lines == 0 {
                continue;
            }
            for (id, index, output) in harvest_journal(&plan, &path).map_err(invalid)? {
                if ledger.adopt(id) {
                    let record = CellRecord {
                        id,
                        index,
                        replayed: false,
                        output,
                    };
                    master.append(&record).map_err(invalid)?;
                }
                worker_of_cell[index].get_or_insert_with(|| worker.clone());
            }
            journals.push(path);
        }
        let how = format!(
            "recovered ({} cells adopted from the master and {} lease journals) and up",
            ledger.counters.cells_recovered,
            journals.len(),
        );
        let durable = Durable {
            ledger,
            master,
            journals,
            worker_of_cell,
        };
        serve(plan, config, durable, log_file, &how)
    }
}

/// The durable starting point of a coordinator: empty for
/// [`Coordinator::start`], rebuilt from the fleet directory by
/// [`Coordinator::recover`].
struct Durable {
    ledger: LeaseLedger,
    master: JournalWriter,
    journals: Vec<PathBuf>,
    worker_of_cell: Vec<Option<String>>,
}

/// How often workers heartbeat a running lease: four times per
/// liveness timeout, so one late heartbeat never expires a live lease.
fn heartbeat_ms(config: &FleetConfig) -> u64 {
    (config.timeout_ms / 4).max(1)
}

fn master_path(config: &FleetConfig) -> PathBuf {
    config
        .dir
        .join(format!("{}.master.jsonl", config.experiment))
}

/// Every `<experiment>.lease<N>.<worker>.jsonl` in the fleet directory
/// as `(N, worker, path)`, in lease order.
fn lease_journals_on_disk(config: &FleetConfig) -> io::Result<Vec<(u64, String, PathBuf)>> {
    let prefix = format!("{}.lease", config.experiment);
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&config.dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let parsed = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".jsonl"))
            .and_then(|rest| rest.split_once('.'))
            .and_then(|(lease, worker)| Some((lease.parse::<u64>().ok()?, worker.to_string())));
        if let Some((lease, worker)) = parsed {
            found.push((lease, worker, path));
        }
    }
    found.sort();
    Ok(found)
}

/// Builds the shared state, binds the listener and spawns the service
/// thread — the common tail of `start` and `recover`.
fn serve(
    plan: ExperimentPlan,
    config: FleetConfig,
    durable: Durable,
    log_file: File,
    how: &str,
) -> io::Result<CoordinatorHandle> {
    let state = State {
        ledger: durable.ledger,
        master: Some(durable.master),
        lease_journals: HashMap::new(),
        journals: durable.journals,
        worker_of_cell: durable.worker_of_cell,
        failure: None,
        report: None,
    };
    let shared = Arc::new(Shared {
        identity: PlanIdentity::of(&config.experiment, &plan),
        master_path: master_path(&config),
        config,
        epoch: Instant::now(),
        state: Mutex::new(state),
        done: Condvar::new(),
        stop: AtomicBool::new(false),
        log: Mutex::new(BufWriter::new(log_file)),
        ids: CellId::assign(&plan.cells),
        plan,
    });
    let listener = TcpListener::bind(("127.0.0.1", shared.config.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    shared.log(&format!(
        "coordinator {how} on {addr}: experiment {} ({} cells, manifest {}), scale {}, \
         lease_cells {}, timeout {}ms (heartbeat every {}ms), auth {}",
        shared.config.experiment,
        shared.plan.cells.len(),
        shared.identity.manifest,
        shared.config.scale_name,
        shared.config.lease_cells,
        shared.config.timeout_ms,
        heartbeat_ms(&shared.config),
        if shared.config.token.is_empty() {
            "open"
        } else {
            "token"
        },
    ));
    let service = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("fleet-coordinator".to_string())
            .spawn(move || service_loop(&shared, &listener))?
    };
    Ok(CoordinatorHandle {
        addr,
        shared,
        service: Some(service),
    })
}

/// A running coordinator.
pub struct CoordinatorHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    service: Option<JoinHandle<()>>,
}

impl CoordinatorHandle {
    /// The bound address workers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the sweep finishes (or `deadline` passes) and
    /// returns the final report. The service keeps running afterwards
    /// — it still answers `Status`/`Results` and tells late workers to
    /// shut down — until [`shutdown`](Self::shutdown).
    ///
    /// # Errors
    ///
    /// The coordinator's failure (master-journal I/O, merge conflict),
    /// or a timeout message when `deadline` elapses first.
    pub fn wait(&self, deadline: Duration) -> Result<FleetReport, String> {
        let started = Instant::now();
        let mut state = self.shared.state.lock().expect("state lock poisoned");
        loop {
            if let Some(report) = &state.report {
                return report.clone();
            }
            let left = deadline
                .checked_sub(started.elapsed())
                .ok_or_else(|| format!("fleet did not finish within {deadline:?}"))?;
            let (next, timeout) = self
                .shared
                .done
                .wait_timeout(state, left.min(Duration::from_millis(200)))
                .expect("state lock poisoned");
            state = next;
            let _ = timeout;
        }
    }

    /// Stops the service and joins its threads. Called automatically
    /// on drop; explicit calls just make the order visible.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(service) = self.service.take() {
            let _ = service.join();
        }
    }
}

impl Drop for CoordinatorHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accept loop + maintenance clock.
fn service_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(shared);
                    if let Ok(handle) = std::thread::Builder::new()
                        .name("fleet-conn".to_string())
                        .spawn(move || serve_connection(&shared, stream))
                    {
                        connections.push(handle);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    shared.log(&format!("accept failed: {e}"));
                    break;
                }
            }
        }
        maintain(shared);
        std::thread::sleep(Duration::from_millis(POLL_MS));
    }
    for handle in connections {
        let _ = handle.join();
    }
    shared.log("coordinator down");
}

/// One maintenance tick: journal liveness, expiry + harvest,
/// completion.
fn maintain(shared: &Shared) {
    let now = shared.now_ms();
    let mut state = shared.state.lock().expect("state lock poisoned");
    let state = &mut *state;

    // Journal growth is a heartbeat (and drop tails of dead leases).
    state
        .lease_journals
        .retain(|lease, _| state.ledger.lease(*lease).is_some());
    for (&lease, path) in &state.lease_journals {
        if let Ok(tail) = tail_journal(path) {
            state.ledger.observe_journal(lease, tail, now);
        }
    }

    // Expire silent leases — harvesting the durable prefix of each
    // one's journal first, so work a dead worker finished is kept.
    for lease in state.ledger.stale_leases(now, shared.config.timeout_ms) {
        let reason = format!("{}ms silence", shared.config.timeout_ms);
        harvest_and_expire(shared, state, lease, &reason);
    }

    maybe_finish(shared, state);
}

/// Kills one silent lease: harvest the durable prefix of its journal
/// (crediting completed cells), then expire it (requeueing the rest).
fn harvest_and_expire(shared: &Shared, state: &mut State, lease: u64, reason: &str) {
    let worker = state
        .ledger
        .lease(lease)
        .map(|l| l.worker.clone())
        .unwrap_or_default();
    let mut harvested = 0usize;
    if let Some(path) = state.lease_journals.get(&lease).cloned() {
        if path.exists() {
            match harvest_journal(&shared.plan, &path) {
                Ok(records) => {
                    let now = shared.now_ms();
                    for (id, index, output) in records {
                        if accept_cell(shared, state, lease, &worker, id, index, output, now)
                            == CellReport::Accepted
                        {
                            state.ledger.counters.cells_harvested += 1;
                            harvested += 1;
                        }
                    }
                }
                Err(e) => shared.log(&format!(
                    "harvest of lease {lease} journal failed (results will be re-run): {e}"
                )),
            }
        }
    }
    let requeued = state.ledger.expire(lease);
    shared.log(&format!(
        "lease {lease} ({worker}) expired after {reason}: {harvested} cells harvested from its \
         journal, {requeued} requeued",
    ));
}

/// Routes one accepted completion into the ledger and, when it is the
/// first for its cell, the master journal.
#[allow(clippy::too_many_arguments)]
fn accept_cell(
    shared: &Shared,
    state: &mut State,
    lease: u64,
    worker: &str,
    id: CellId,
    index: usize,
    output: CellOutput,
    now: u64,
) -> CellReport {
    let verdict = state.ledger.complete_cell(lease, id, now);
    if verdict == CellReport::Accepted {
        state.worker_of_cell[index] = Some(worker.to_string());
        if let Some(master) = state.master.as_mut() {
            let record = CellRecord {
                id,
                index,
                replayed: false,
                output,
            };
            if let Err(e) = master.append(&record) {
                let message = format!("master journal write failed: {e}");
                shared.log(&message);
                state.failure.get_or_insert(message);
            }
        }
    }
    verdict
}

/// Completion check: renders the final table exactly once.
fn maybe_finish(shared: &Shared, state: &mut State) {
    if state.report.is_some() || !state.ledger.is_complete() {
        return;
    }
    // Every cell is done, so any lease still active is empty: its
    // holder abandoned it after a Stale verdict, or its final Complete
    // has not arrived yet. Retire them so post-completion status never
    // shows ghost leases (the late Complete is answered Stale, which
    // the worker treats as routine).
    for info in state.ledger.lease_infos() {
        state.ledger.complete_lease(info.lease);
    }
    if let Some(master) = state.master.take() {
        if let Err(e) = master.finish() {
            state
                .failure
                .get_or_insert(format!("master journal failed: {e}"));
        }
    }
    // Compact: the master plus every surviving lease journal. Lease
    // journals hold identical duplicates of master records (and that
    // is asserted — a conflicting duplicate fails the merge).
    let mut paths = vec![shared.master_path.clone()];
    for path in &state.journals {
        if path.exists() && !paths.contains(path) {
            paths.push(path.clone());
        }
    }
    let counters = state.ledger.counters;
    let reconciled = counters.reconciled(state.ledger.total() as u64);
    let result = match (&state.failure, merge_journals(&shared.plan, &paths)) {
        (Some(failure), _) => Err(failure.clone()),
        (None, Err(e)) => Err(format!("final compaction failed: {e}")),
        (None, Ok(table)) => Ok(FleetReport {
            csv: table.to_csv(),
            rendered: table.to_string(),
            counters,
            reconciled,
            cells: state.ledger.total(),
            wall_s: shared.epoch.elapsed().as_secs_f64(),
        }),
    };
    shared.log(&format!(
        "sweep complete: {} cells | leases granted {} completed {} expired {} | cells granted {} \
         completed {} stolen {} harvested {} stale-rejected {} | cells recovered {} | \
         compacted {} journals | leases_reconciled: {reconciled}",
        state.ledger.total(),
        counters.leases_granted,
        counters.leases_completed,
        counters.leases_expired,
        counters.cells_granted,
        counters.cells_completed,
        counters.cells_stolen,
        counters.cells_harvested,
        counters.stale_reports,
        counters.cells_recovered,
        paths.len(),
    ));
    if let Err(e) = &result {
        shared.log(&format!("sweep FAILED: {e}"));
    }
    state.report = Some(result);
    shared.done.notify_all();
}

/// Where a connection stands in the v3 handshake.
enum ConnAuth {
    /// Nothing received yet (or the handshake was restarted).
    Fresh,
    /// `Hello` accepted; waiting for the `Auth` answer to this nonce.
    Challenged { worker: String, nonce: u64 },
    /// Authenticated; mutating requests allowed.
    Ready,
}

/// One connection: requests in, replies out, until EOF or shutdown.
///
/// A malformed frame (bad JSON, torn line, non-UTF-8) is answered with
/// a typed refusal when the socket still works, logged, and the
/// connection dropped — never a panic; the fuzz test in `fleet_e2e`
/// feeds this path random bytes.
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = MessageReader::new(read_half);
    let mut writer = stream;
    let mut auth = ConnAuth::Fresh;
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let request = match reader.recv::<Request>() {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                shared.log(&format!("malformed frame dropped: {e}"));
                let _ = protocol::send(
                    &mut writer,
                    &Reply::Refused {
                        error: ProtocolError::Malformed {
                            detail: e.to_string(),
                        },
                    },
                );
                return;
            }
            Err(e) => {
                shared.log(&format!("connection dropped: {e}"));
                return;
            }
        };
        let reply = handle(shared, request, &mut auth);
        if protocol::send(&mut writer, &reply).is_err() {
            return;
        }
    }
}

/// Refusal for a mutating request on a connection that never finished
/// the handshake.
fn unauthenticated(what: &str) -> Reply {
    Reply::Refused {
        error: ProtocolError::AuthFailure {
            detail: format!("{what} requires an authenticated connection (Hello then Auth first)"),
        },
    }
}

/// The request dispatcher.
fn handle(shared: &Shared, request: Request, auth: &mut ConnAuth) -> Reply {
    let now = shared.now_ms();
    match request {
        Request::Hello { worker, proto } => {
            if proto != PROTOCOL_VERSION {
                shared.log(&format!(
                    "refused {worker}: protocol v{proto} vs our v{PROTOCOL_VERSION}"
                ));
                return Reply::Refused {
                    error: ProtocolError::VersionSkew {
                        coordinator: PROTOCOL_VERSION,
                        client: proto,
                    },
                };
            }
            let nonce = fresh_nonce();
            *auth = ConnAuth::Challenged { worker, nonce };
            Reply::Challenge { nonce }
        }
        Request::Auth { worker, mac } => {
            let ConnAuth::Challenged {
                worker: hello_worker,
                nonce,
            } = &*auth
            else {
                return Reply::Refused {
                    error: ProtocolError::UnknownRequest {
                        detail: "Auth without a pending challenge".to_string(),
                    },
                };
            };
            if *hello_worker != worker {
                return Reply::Refused {
                    error: ProtocolError::AuthFailure {
                        detail: format!("Auth names {worker:?} but Hello named {hello_worker:?}"),
                    },
                };
            }
            if mac != mac64(&shared.config.token, *nonce) {
                shared.log(&format!("refused {worker}: bad challenge response"));
                *auth = ConnAuth::Fresh;
                return Reply::Refused {
                    error: ProtocolError::AuthFailure {
                        detail: "challenge response does not verify (wrong fleet token?)"
                            .to_string(),
                    },
                };
            }
            shared.log(&format!("worker {worker} authenticated"));
            *auth = ConnAuth::Ready;
            Reply::Welcome {
                proto: PROTOCOL_VERSION,
                scale: shared.config.scale_name.clone(),
                identity: shared.identity.clone(),
                heartbeat_ms: heartbeat_ms(&shared.config),
            }
        }
        Request::Lease { worker } => {
            if !matches!(*auth, ConnAuth::Ready) {
                return unauthenticated("Lease");
            }
            let mut state = shared.state.lock().expect("state lock poisoned");
            let state = &mut *state;
            let size = grant_size(shared.config.lease_cells, state.ledger.pending());
            match state.ledger.grant(&worker, now, size) {
                GrantOutcome::Granted {
                    lease,
                    cells,
                    stolen,
                } => {
                    let journal =
                        format!("{}.lease{lease}.{worker}.jsonl", shared.config.experiment);
                    let path = shared.config.dir.join(&journal);
                    state.lease_journals.insert(lease, path.clone());
                    state.journals.push(path);
                    shared.log(&format!(
                        "lease {lease} -> {worker}: {} cells{} -> {journal}",
                        cells.len(),
                        if stolen {
                            " (stolen from a straggler)"
                        } else {
                            ""
                        },
                    ));
                    Reply::Grant {
                        lease,
                        cells: cells.iter().map(|id| id.to_hex()).collect(),
                        journal,
                    }
                }
                GrantOutcome::Wait => Reply::Wait { poll_ms: 300 },
                GrantOutcome::Finished => Reply::Shutdown,
            }
        }
        Request::Heartbeat { lease, .. } => {
            if !matches!(*auth, ConnAuth::Ready) {
                return unauthenticated("Heartbeat");
            }
            let mut state = shared.state.lock().expect("state lock poisoned");
            if state.ledger.heartbeat(lease, now) {
                Reply::Ack
            } else {
                Reply::Stale { lease }
            }
        }
        Request::CellDone {
            worker,
            lease,
            cell,
            index,
            output,
        } => {
            if !matches!(*auth, ConnAuth::Ready) {
                return unauthenticated("CellDone");
            }
            let Some(id) = CellId::from_hex(&cell) else {
                return Reply::Refused {
                    error: ProtocolError::Malformed {
                        detail: format!("malformed cell id {cell:?}"),
                    },
                };
            };
            if shared.ids.get(index) != Some(&id) {
                return Reply::Refused {
                    error: ProtocolError::Malformed {
                        detail: format!("cell {id} is not at plan index {index}"),
                    },
                };
            }
            let mut state = shared.state.lock().expect("state lock poisoned");
            let verdict = accept_cell(shared, &mut state, lease, &worker, id, index, *output, now);
            maybe_finish(shared, &mut state);
            match verdict {
                CellReport::Accepted | CellReport::Duplicate => Reply::Ack,
                CellReport::Stale => {
                    shared.log(&format!(
                        "stale report from {worker}: cell {id} no longer held by lease {lease}"
                    ));
                    Reply::Stale { lease }
                }
            }
        }
        Request::Complete { worker, lease } => {
            if !matches!(*auth, ConnAuth::Ready) {
                return unauthenticated("Complete");
            }
            let mut state = shared.state.lock().expect("state lock poisoned");
            if state.ledger.complete_lease(lease) {
                shared.log(&format!("lease {lease} ({worker}) complete"));
                maybe_finish(shared, &mut state);
                Reply::Ack
            } else {
                Reply::Stale { lease }
            }
        }
        Request::Status => {
            let state = shared.state.lock().expect("state lock poisoned");
            Reply::Status(StatusReport {
                experiment: shared.config.experiment.clone(),
                total_cells: state.ledger.total(),
                completed_cells: state.ledger.completed(),
                complete: state.report.is_some(),
                counters: state.ledger.counters,
                leases: state.ledger.lease_infos(),
            })
        }
        Request::Results { start, limit } => {
            let state = shared.state.lock().expect("state lock poisoned");
            let total = state.ledger.total();
            let end = start.saturating_add(limit.min(1_000)).min(total);
            let mut cells = Vec::new();
            for index in start.min(total)..end {
                let (id, name, holder) = state.ledger.cell_view(index).expect("index in range");
                let worker = match name {
                    "done" => state.worker_of_cell[index].clone(),
                    "leased" => holder
                        .and_then(|lease| state.ledger.lease(lease))
                        .map(|l| l.worker.clone()),
                    _ => None,
                };
                cells.push(CellProgress {
                    index,
                    cell: id.to_hex(),
                    state: name.to_string(),
                    worker,
                });
            }
            Reply::Results(ResultsPage {
                total,
                completed: state.ledger.completed(),
                start: start.min(total),
                cells,
            })
        }
    }
}
