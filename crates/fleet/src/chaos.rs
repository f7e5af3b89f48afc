//! A seeded flaky-TCP proxy for chaos-testing the fleet control plane.
//!
//! Workers connect to the proxy instead of the coordinator; the proxy
//! forwards bytes both ways while injecting deterministic-per-seed
//! faults at the socket layer: delayed chunks, stalled reads, and
//! mid-message disconnects. This is PR 7's `ToxicSpec` idea moved down
//! the stack — the interconnect faults there perturb the simulated
//! protocol, these perturb the *real* TCP sessions the fleet runs on —
//! and it is what the reconnect/resume machinery is tested against:
//! a whole sweep pushed through the proxy must still reconcile and
//! stay byte-identical to the serial golden.
//!
//! Faults are drawn from a per-connection-per-direction stream seeded
//! by `mix64(seed ^ connection ^ direction)`, so a given seed replays
//! the same fault schedule for the same connection order. Disconnects
//! draw from a shared budget (`max_disconnects`) so a chaos run always
//! terminates: once the budget is spent the proxy degrades into a
//! plain relay.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dsp_types::hash::mix64;

/// Fault schedule knobs. Every `*_every` is "one fault per N chunks on
/// average" (0 disables that fault).
#[derive(Clone, Copy, Debug)]
pub struct ChaosSpec {
    /// Seed for the fault streams.
    pub seed: u64,
    /// One forwarded chunk in `delay_every` is delayed (0 = never).
    pub delay_every: u64,
    /// Upper bound on an injected delay, in milliseconds.
    pub delay_max_ms: u64,
    /// One forwarded chunk in `stall_every` stalls the pipe for
    /// `stall_ms` (0 = never). Stalls are long delays: they exercise
    /// read-timeout paths rather than reorderings.
    pub stall_every: u64,
    /// Duration of an injected stall, in milliseconds.
    pub stall_ms: u64,
    /// One forwarded chunk in `disconnect_every` tears the connection
    /// down mid-message (0 = never).
    pub disconnect_every: u64,
    /// Total disconnects across the proxy's lifetime; after the budget
    /// is spent the proxy forwards faithfully so runs terminate.
    pub max_disconnects: u64,
}

impl ChaosSpec {
    /// The schedule `repro fleet --chaos <seed>` and CI use: frequent
    /// small delays, occasional stalls, and enough disconnects to force
    /// every worker through at least one reconnect on a quick sweep.
    pub fn from_seed(seed: u64) -> Self {
        ChaosSpec {
            seed,
            delay_every: 3,
            delay_max_ms: 15,
            stall_every: 19,
            stall_ms: 120,
            disconnect_every: 23,
            max_disconnects: 6,
        }
    }
}

/// Counters the proxy accumulates, for logs and the `repro fleet` summary.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Connections accepted from workers.
    pub connections: AtomicU64,
    /// Injected mid-message disconnects.
    pub disconnects: AtomicU64,
    /// Injected delays (including stalls).
    pub delays: AtomicU64,
}

/// A running flaky proxy in front of `upstream`.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<ChaosCounters>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

/// Deterministic per-direction fault stream (an xorshift walk started
/// from the mixed seed).
struct FaultStream {
    state: u64,
}

impl FaultStream {
    fn new(seed: u64, connection: u64, direction: u64) -> Self {
        FaultStream {
            state: mix64(seed ^ mix64(connection.wrapping_mul(2) + direction)) | 1,
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        mix64(x)
    }

    /// True once per `every` draws on average.
    fn fires(&mut self, every: u64) -> bool {
        every != 0 && self.next().is_multiple_of(every)
    }
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts proxying to `upstream`.
    ///
    /// # Errors
    ///
    /// Socket failure binding the listener.
    pub fn start(upstream: SocketAddr, spec: ChaosSpec) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ChaosCounters::default());
        let disconnect_budget = Arc::new(AtomicU64::new(spec.max_disconnects));
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        let accept_thread = thread::Builder::new()
            .name("chaos-accept".into())
            .spawn(move || {
                let mut connection = 0u64;
                while !accept_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            accept_counters.connections.fetch_add(1, Ordering::Relaxed);
                            let id = connection;
                            connection += 1;
                            let counters = Arc::clone(&accept_counters);
                            let budget = Arc::clone(&disconnect_budget);
                            let stop = Arc::clone(&accept_stop);
                            thread::Builder::new()
                                .name(format!("chaos-conn-{id}"))
                                .spawn(move || {
                                    relay_connection(
                                        client, upstream, spec, id, counters, budget, stop,
                                    );
                                })
                                .expect("spawn chaos connection thread");
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn chaos accept thread");
        Ok(ChaosProxy {
            addr,
            stop,
            counters,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address workers should connect to instead of the
    /// coordinator.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Injected-disconnect count so far.
    pub fn disconnects(&self) -> u64 {
        self.counters.disconnects.load(Ordering::Relaxed)
    }

    /// Injected-delay count so far (stalls included).
    pub fn delays(&self) -> u64 {
        self.counters.delays.load(Ordering::Relaxed)
    }

    /// Accepted-connection count so far.
    pub fn connections(&self) -> u64 {
        self.counters.connections.load(Ordering::Relaxed)
    }

    /// Stops accepting; live relays die with their sockets.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pumps one accepted connection: client→upstream and upstream→client,
/// each through its own fault stream. Either pump dying (organically or
/// by injection) tears down both directions, like a real broken TCP
/// session.
fn relay_connection(
    client: TcpStream,
    upstream: SocketAddr,
    spec: ChaosSpec,
    connection: u64,
    counters: Arc<ChaosCounters>,
    budget: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) {
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let pump = |from: TcpStream, to: TcpStream, direction: u64| {
        let counters = Arc::clone(&counters);
        let budget = Arc::clone(&budget);
        let stop = Arc::clone(&stop);
        let mut faults = FaultStream::new(spec.seed, connection, direction);
        thread::Builder::new()
            .name(format!("chaos-pump-{connection}-{direction}"))
            .spawn(move || {
                pump_bytes(from, to, spec, &mut faults, &counters, &budget, &stop);
            })
            .expect("spawn chaos pump thread")
    };
    let c2s = pump(
        client.try_clone().expect("clone client socket"),
        server.try_clone().expect("clone upstream socket"),
        0,
    );
    let s2c = pump(server, client, 1);
    let _ = c2s.join();
    let _ = s2c.join();
}

fn pump_bytes(
    mut from: TcpStream,
    mut to: TcpStream,
    spec: ChaosSpec,
    faults: &mut FaultStream,
    counters: &ChaosCounters,
    budget: &AtomicU64,
    stop: &AtomicBool,
) {
    let mut buf = [0u8; 512];
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if faults.fires(spec.disconnect_every) {
            // Spend from the shared budget; a draw after the budget is
            // dry forwards normally, so chaos runs always terminate.
            let spent = budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_ok();
            if spent {
                counters.disconnects.fetch_add(1, Ordering::Relaxed);
                // Forward half the chunk first: the disconnect lands
                // mid-message, which is the interesting torn-frame case.
                let half = n / 2;
                if half > 0 {
                    let _ = to.write_all(&buf[..half]);
                    let _ = to.flush();
                }
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                break;
            }
        }
        if faults.fires(spec.stall_every) {
            counters.delays.fetch_add(1, Ordering::Relaxed);
            thread::sleep(Duration::from_millis(spec.stall_ms));
        } else if faults.fires(spec.delay_every) {
            counters.delays.fetch_add(1, Ordering::Relaxed);
            thread::sleep(Duration::from_millis(
                1 + faults.next() % spec.delay_max_ms.max(1),
            ));
        }
        if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A trivial line-echo server for exercising the proxy without the
    /// whole coordinator.
    fn echo_server() -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("addr");
        let handle = thread::spawn(move || {
            for stream in listener.incoming().take(4) {
                let Ok(stream) = stream else { break };
                thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut stream = stream;
                    let mut line = String::new();
                    while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                        if stream.write_all(line.as_bytes()).is_err() {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn relays_lines_without_faults() {
        let (addr, _server) = echo_server();
        let spec = ChaosSpec {
            seed: 1,
            delay_every: 0,
            delay_max_ms: 0,
            stall_every: 0,
            stall_ms: 0,
            disconnect_every: 0,
            max_disconnects: 0,
        };
        let proxy = ChaosProxy::start(addr, spec).expect("start proxy");
        let mut client = TcpStream::connect(proxy.addr()).expect("connect");
        client.write_all(b"hello fleet\n").expect("write");
        let mut reader = BufReader::new(client.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line, "hello fleet\n");
        assert_eq!(proxy.connections(), 1);
        assert_eq!(proxy.disconnects(), 0);
    }

    #[test]
    fn injected_disconnects_respect_the_budget() {
        let (addr, _server) = echo_server();
        let spec = ChaosSpec {
            seed: 7,
            delay_every: 0,
            delay_max_ms: 0,
            stall_every: 0,
            stall_ms: 0,
            disconnect_every: 1, // every chunk wants to disconnect
            max_disconnects: 2,
        };
        let proxy = ChaosProxy::start(addr, spec).expect("start proxy");
        let mut observed = 0u64;
        for _ in 0..3 {
            let mut client = TcpStream::connect(proxy.addr()).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_millis(500)))
                .expect("timeout");
            let _ = client.write_all(b"ping\n");
            let mut reader = BufReader::new(client.try_clone().expect("clone"));
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => observed += 1, // torn by the proxy
                Ok(_) => {}
            }
        }
        assert_eq!(proxy.disconnects(), 2, "budget caps injections");
        assert!(observed >= 2, "clients saw the torn sessions");
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let mut a = FaultStream::new(42, 3, 1);
        let mut b = FaultStream::new(42, 3, 1);
        let draws_a: Vec<u64> = (0..16).map(|_| a.next()).collect();
        let draws_b: Vec<u64> = (0..16).map(|_| b.next()).collect();
        assert_eq!(draws_a, draws_b);
        let mut c = FaultStream::new(42, 3, 0);
        let draws_c: Vec<u64> = (0..16).map(|_| c.next()).collect();
        assert_ne!(draws_a, draws_c, "directions get distinct streams");
    }
}
