//! The serve side: `Dsvd` and store shards on threads of this process,
//! a closed-loop client over loopback, and one round of its script.
//!
//! Untraced clients are plain `dsv_net::Client`s. Traced clients drive
//! their socket through the public codec — `Request::encode` →
//! `write_frame` → `read_frame` → `Response::decode` — so each step is
//! a span under one request id.

use crate::gen::{Inputs, Op};
use crate::sys;
use crate::trace::Recorder;
use dsv_net::{
    read_frame, write_frame, Client, NetError, Request, Response, Server, ServerOptions,
    StoreService, StoreServiceConfig, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use dsv_storage::{CacheStats, FileStore, ObjectStore};
use dsv_vcs::{persist, CommitId, Dsvd, DsvdConfig, RepoStore, Repository};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Server worker threads: one for the client, one for the second,
/// read-only client of the reader-stall round, and one for the control
/// connection that shuts the server down.
fn server_options() -> ServerOptions {
    ServerOptions {
        workers: 3,
        ..ServerOptions::default()
    }
}

/// Shuts the servers at these addresses down when dropped — also when
/// the code they serve panics, so that the scope joining their threads
/// ends and the process exits instead of hanging.
struct Shutdown<'a>(&'a [String]);

impl Drop for Shutdown<'_> {
    fn drop(&mut self) {
        for addr in self.0 {
            if let Ok(mut client) = Client::connect(addr) {
                let _ = client.shutdown();
            }
        }
    }
}

/// Serves `repo` (meta saved under `dir` after every mutation) on a
/// thread for the duration of `f`, which gets the address and the
/// served state; shuts the server down and joins it afterwards.
pub fn with_front<R>(
    repo: Repository<RepoStore>,
    dir: &Path,
    cache_bytes: u64,
    f: impl FnOnce(&str, &Dsvd<RepoStore>) -> R,
) -> R {
    let config = DsvdConfig {
        cache_bytes,
        ..DsvdConfig::default()
    };
    let dsvd = Dsvd::new(repo, config).with_save_root(dir.to_path_buf());
    let server = Server::bind_with("127.0.0.1:0", server_options()).expect("bind loopback");
    let addr = [server.local_addr().to_string()];
    std::thread::scope(|scope| {
        scope.spawn(|| dsvd.serve(&server));
        let _stop = Shutdown(&addr);
        f(&addr[0], &dsvd)
    })
}

/// Serves one `FileStore` per directory as a bare store shard for the
/// duration of `f`, which gets the shard addresses in shard order.
pub fn with_shards<R>(dirs: &[std::path::PathBuf], f: impl FnOnce(&[String]) -> R) -> R {
    let shards: Vec<(StoreService<FileStore>, Server)> = dirs
        .iter()
        .map(|dir| {
            let store = FileStore::open(dir, true).expect("open shard dir");
            let server = Server::bind_with("127.0.0.1:0", server_options()).expect("bind shard");
            (
                StoreService::new(store, StoreServiceConfig::default()),
                server,
            )
        })
        .collect();
    let addrs: Vec<String> = shards
        .iter()
        .map(|(_, s)| s.local_addr().to_string())
        .collect();
    std::thread::scope(|scope| {
        for (service, server) in &shards {
            scope.spawn(move || service.serve(server));
        }
        let _stop = Shutdown(&addrs);
        f(&addrs)
    })
}

/// A connection that records each codec step as a span.
struct TracedConn<'r> {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    tr: &'r Recorder,
}

impl<'r> TracedConn<'r> {
    fn connect(addr: &str, tr: &'r Recorder) -> Result<Self, NetError> {
        let _span = tr.span("net.connect");
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut conn = TracedConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            tr,
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        match conn.exchange(&hello)? {
            Response::HelloOk { version } if version == PROTOCOL_VERSION => Ok(conn),
            _ => Err(NetError::Handshake("unexpected handshake reply".into())),
        }
    }

    fn exchange(&mut self, req: &Request) -> Result<Response, NetError> {
        let frame = self.tr.time("net.req_encode", || req.encode());
        self.tr
            .time("net.frame_write", || write_frame(&mut self.writer, &frame))?;
        // Everything the server and the socket do is inside this read.
        let reply = self.tr.time("net.frame_read", || {
            read_frame(&mut self.reader, DEFAULT_MAX_FRAME)
        })?;
        self.tr.time("net.resp_decode", || Response::decode(&reply))
    }
}

/// A client connection, plain or traced.
enum Wire<'r> {
    Plain(Client),
    Traced(TracedConn<'r>),
}

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

impl<'r> Wire<'r> {
    fn connect(addr: &str, tr: &'r Recorder) -> Result<Self, NetError> {
        if tr.enabled() {
            TracedConn::connect(addr, tr).map(Wire::Traced)
        } else {
            Client::connect(addr).map(Wire::Plain)
        }
    }

    /// One request → one response; an error frame is an `Err`.
    fn call(&mut self, name: &'static str, req: &Request) -> Result<Response, NetError> {
        match self {
            Wire::Plain(client) => client.call(req),
            Wire::Traced(conn) => {
                let id = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
                let _request = conn.tr.request(name, id);
                match conn.exchange(req)? {
                    Response::Error { code, message } => Err(NetError::Remote { code, message }),
                    resp => Ok(resp),
                }
            }
        }
    }
}

/// What one client runs in one round.
pub struct ClientPlan<'a> {
    /// The branch this client commits on.
    pub branch: &'static str,
    pub ops: &'a [Op],
    /// Versions in the read window before the client's own commits.
    pub window: Vec<u32>,
}

/// What one round of all clients measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// From the common start to the last client's last reply.
    pub seconds: f64,
    /// Process CPU (user + system) spent over the round.
    pub cpu_us: f64,
    pub checkout_us: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub commit_online_ms: Vec<f64>,
    /// Acknowledged commits: `(version id, index into the client's ops)`.
    pub committed: Vec<(u32, usize)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Round {
    pub fn ops(&self) -> u64 {
        self.attempted
    }

    fn absorb(&mut self, other: Round) {
        self.seconds = self.seconds.max(other.seconds);
        self.checkout_us.extend(other.checkout_us);
        self.commit_ms.extend(other.commit_ms);
        self.commit_online_ms.extend(other.commit_online_ms);
        self.committed.extend(other.committed);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Runs `plan` over one connection; every checkout is compared
/// byte-for-byte with the model (golden versions) or with what this
/// client sent (its own commits).
fn drive(
    client: usize,
    round: usize,
    addr: &str,
    plan: &ClientPlan<'_>,
    inputs: &Inputs,
    start: &Barrier,
    tr: &Recorder,
) -> Round {
    let mut out = Round::default();
    let mut wire = Wire::connect(addr, tr).expect("client connects");
    // Read window: `(version id, expected bytes)`, own commits appended.
    let mut window: Vec<(u32, &[u8])> = plan
        .window
        .iter()
        .map(|&v| (v, inputs.contents[v as usize].as_slice()))
        .collect();
    start.wait();
    let started = Instant::now();
    for (index, op) in plan.ops.iter().enumerate() {
        let op_started = Instant::now();
        out.attempted += 1;
        let ok = match op {
            Op::Checkout(_) | Op::CheckoutSlot(_) => {
                let (version, want) = match *op {
                    Op::Checkout(v) => (v, inputs.contents[v as usize].as_slice()),
                    Op::CheckoutSlot(slot) => {
                        let recent =
                            &window[window.len().saturating_sub(inputs.scale.read_window)..];
                        recent[slot % recent.len()]
                    }
                    _ => unreachable!(),
                };
                let reply = wire.call("client.checkout", &Request::Checkout { version });
                out.checkout_us
                    .push(op_started.elapsed().as_secs_f64() * 1e6);
                match reply {
                    Ok(Response::CheckoutOk { data, .. }) => data == want,
                    _ => false,
                }
            }
            Op::Commit { online, data } => {
                let req = Request::Commit {
                    // Unique per server instance; the server's replay log
                    // only matters for retries, which never happen here.
                    token: ((round as u64 + 1) << 40) | ((client as u64) << 32) | index as u64,
                    branch: plan.branch.to_owned(),
                    message: format!("c{client} op{index}"),
                    online: *online,
                    hops: 2,
                    theta: None,
                    data: data.clone(),
                };
                let reply = wire.call(
                    if *online {
                        "client.commit_online"
                    } else {
                        "client.commit"
                    },
                    &req,
                );
                let ms = op_started.elapsed().as_secs_f64() * 1e3;
                if *online {
                    out.commit_online_ms.push(ms);
                } else {
                    out.commit_ms.push(ms);
                }
                match reply {
                    Ok(Response::CommitOk {
                        id,
                        bytes,
                        online: took_online,
                    }) if bytes == data.len() as u64 && took_online == *online => {
                        window.push((id, data.as_slice()));
                        out.committed.push((id, index));
                        true
                    }
                    _ => false,
                }
            }
            Op::Stats => matches!(
                wire.call("client.stats", &Request::Stats),
                Ok(Response::StatsOk(_))
            ),
        };
        out.failed += u64::from(!ok);
    }
    out.seconds = started.elapsed().as_secs_f64();
    out
}

/// One round: every client runs its plan concurrently from a common
/// start. A traced recorder makes the clients traced.
pub fn run_round(
    round: usize,
    addr: &str,
    plans: &[ClientPlan<'_>],
    inputs: &Inputs,
    tr: &Recorder,
) -> Round {
    let start = Barrier::new(plans.len());
    let cpu_before = sys::cpu_micros();
    let mut total = Round::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(client, plan)| {
                let start = &start;
                scope.spawn(move || drive(client, round, addr, plan, inputs, start, tr))
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().expect("client thread"));
        }
    });
    total.cpu_us = (sys::cpu_micros() - cpu_before) as f64;
    total
}

/// Cache counters of a served repository (zeros when the cache is off).
pub fn cache_stats(dsvd: &Dsvd<RepoStore>) -> CacheStats {
    dsvd.cache().map(|c| c.stats()).unwrap_or_default()
}

/// What a cold re-open of a repository directory found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reopened {
    pub attempted: u64,
    pub failed: u64,
    /// `store().total_bytes()` of the re-opened store.
    pub stored_bytes: u64,
    /// Σ version sizes.
    pub logical_bytes: u64,
    /// Σ `bytes_read` of one uncached checkout of every version.
    pub recreation_bytes: u64,
}

/// Re-opens the repository at `dir` from disk and checks what a later
/// process would find: fsck is clean and every version — the golden
/// ones against the model, the acknowledged commits against what their
/// client sent — reads back identical through an uncached checkout.
pub fn verify_reopened<'a>(dir: &Path, expect: impl Iterator<Item = (u32, &'a [u8])>) -> Reopened {
    let mut out = Reopened {
        attempted: 1,
        ..Reopened::default()
    };
    let Ok(repo) = persist::load(dir, true) else {
        out.failed = 1;
        return out;
    };
    if !dsv_vcs::fsck::fsck(&repo, Some(dir)).is_clean() {
        out.failed += 1;
    }
    let mut seen = 0;
    for (version, want) in expect {
        out.attempted += 1;
        seen += 1;
        match repo.checkout_measured(CommitId(version)) {
            Ok((got, work)) if got == want => out.recreation_bytes += work.bytes_read,
            _ => out.failed += 1,
        }
    }
    // Every version must have been expected by someone.
    if seen != repo.version_count() {
        out.failed += 1;
    }
    out.stored_bytes = repo.store().total_bytes();
    out.logical_bytes = repo.logical_bytes();
    out
}

/// `store().total_bytes()` and `version_count()` of the served
/// repository — what every round of a workload must leave equal.
pub fn footprint(dsvd: &Dsvd<RepoStore>) -> (u64, usize) {
    let repo = dsvd.repo().read();
    (repo.store().total_bytes(), repo.version_count())
}
