//! Multi-client serve benchmark: N concurrent `dsv-net` clients against
//! one `dsvd` instance over loopback TCP.
//!
//! The server opens a single [`dsv_vcs::Repository`] behind `dsvd`'s
//! commit queue (mutations serialized through a write lock, checkouts
//! concurrent under read locks) with one shared byte-budgeted
//! [`dsv_storage::CheckoutCache`] across every connection. Each client
//! replays a Zipf(2) checkout trace slice — the paper's workload-aware
//! access distribution (§6) — with online commits interleaved every few
//! operations, exactly the mixed read/write pattern a hosted dataset
//! version store serves.
//!
//! Correctness is asserted before any timing is reported:
//!
//! - every preseeded version checked out over the wire is byte-identical
//!   to a local mirror repository built from the same commits;
//! - every version committed over the wire reads back byte-identical to
//!   the payload the client sent;
//! - the server survives the whole run and answers a final stats/shutdown
//!   conversation.
//!
//! Each client-count row reports throughput, per-opcode p50/p99 latency,
//! the shared cache's hit rate, and the `serve` span subtree (serve →
//! conn → recv_wait/decode/handle/encode with per-opcode children)
//! captured by the dsv-obs recorder running on the server thread. A final
//! *remote-sharded topology* row replays the same workload at the
//! highest client count with the front end's objects living on two
//! bare-store shard servers (`StoreService` over loopback, the
//! `dsvd --store-server` tier) instead of local memory — the measured
//! cost of the distributed store under the hot serve path. Results land
//! in `target/experiments/BENCH_serve.json`.

use crate::experiments::perf::{flatten_phase, PhaseSpan};
use crate::report::Table;
use crate::{timed, Scale};
use dsv_net::{Client, Server, StoreService, StoreServiceConfig};
use dsv_obs as obs;
use dsv_storage::{MemStore, ObjectStore};
use dsv_vcs::serve::{Dsvd, DsvdConfig};
use dsv_vcs::{persist, CommitId, Repository};
use dsv_workloads::zipf_weights;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// One serve run: one client count against a fresh server.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Concurrent clients replaying the trace.
    pub clients: usize,
    /// Remote shard servers behind the front end (0 = local store: the
    /// front end holds its objects in memory; N > 0 = every object lives
    /// on one of N bare-store servers dialed over loopback).
    pub remote_shards: usize,
    /// Preseeded versions in the served repository.
    pub versions: usize,
    /// Total requests answered over the measured window (checkouts +
    /// commits; excludes the setup/verification conversations).
    pub requests: usize,
    /// Checkout requests across all clients.
    pub checkouts: usize,
    /// Online commit requests across all clients.
    pub commits: usize,
    /// Wall-clock milliseconds for the measured window.
    pub wall_ms: f64,
    /// Requests per second over the measured window.
    pub throughput_rps: f64,
    /// Checkout latency median, milliseconds.
    pub checkout_p50_ms: f64,
    /// Checkout latency 99th percentile, milliseconds.
    pub checkout_p99_ms: f64,
    /// Commit latency median, milliseconds.
    pub commit_p50_ms: f64,
    /// Commit latency 99th percentile, milliseconds.
    pub commit_p99_ms: f64,
    /// Shared-cache lookups observed by the server.
    pub cache_lookups: u64,
    /// Shared-cache hits observed by the server.
    pub cache_hits: u64,
    /// hits / lookups (0 when no lookups).
    pub cache_hit_rate: f64,
    /// The `serve` span subtree (serve → conn →
    /// recv_wait/decode/handle/encode) from the recorder running on the
    /// server thread.
    pub phases: Vec<PhaseSpan>,
}

/// Delta-friendly version contents: a growing row file where each
/// version appends rows and edits one earlier row.
fn version_contents(versions: usize, base_rows: usize) -> Vec<Vec<u8>> {
    let mut rows: Vec<String> = (0..base_rows)
        .map(|i| format!("row-{i},{},{}\n", i * 31, i % 7))
        .collect();
    let mut out = Vec::new();
    for v in 0..versions {
        for r in 0..4 {
            rows.push(format!("appended-{v}-{r},{}\n", v * 13 + r));
        }
        rows[v % base_rows] = format!("edited-{v},{}\n", v * 17);
        out.push(rows.concat().into_bytes());
    }
    out
}

/// A shuffled Zipf(2) access trace of roughly `accesses` checkouts over
/// `versions`, every version accessed at least once. Deterministic per
/// seed — the same trace drives every client count.
fn zipf_trace(versions: usize, accesses: usize, seed: u64) -> Vec<u32> {
    let weights = zipf_weights(versions, 2.0, seed);
    let total: f64 = weights.iter().sum();
    let mut trace = Vec::new();
    for (v, w) in weights.iter().enumerate() {
        let count = ((w / total) * accesses as f64).round() as usize;
        for _ in 0..count.max(1) {
            trace.push(v as u32);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e12);
    trace.shuffle(&mut rng);
    trace
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// What one client thread brings home: per-op latencies and the
/// versions it committed over the wire (id → payload, for read-back
/// verification).
struct ClientOutcome {
    checkout_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    committed: Vec<(u32, Vec<u8>)>,
}

/// Replays `trace` against `addr`, committing a fresh online version
/// every `commit_every` operations. Every checkout of a preseeded
/// version is verified byte-identical to `contents` in-line.
fn drive_client(
    addr: &str,
    trace: &[u32],
    contents: &[Vec<u8>],
    client_id: usize,
    commit_every: usize,
) -> ClientOutcome {
    let mut client = Client::connect(addr).expect("client connects");
    let mut out = ClientOutcome {
        checkout_ms: Vec::new(),
        commit_ms: Vec::new(),
        committed: Vec::new(),
    };
    for (i, &v) in trace.iter().enumerate() {
        if commit_every > 0 && i % commit_every == commit_every - 1 {
            let seq = out.committed.len();
            let mut data = contents[v as usize].clone();
            data.extend_from_slice(format!("client-{client_id}-commit-{seq}\n").as_bytes());
            let ((id, bytes, online), took) = timed(|| {
                client
                    .commit("main", "serve bench", true, 2, None, data.clone())
                    .expect("remote commit")
            });
            assert_eq!(bytes, data.len() as u64, "commit reported wrong size");
            assert!(online, "online commit must take the online path");
            out.commit_ms.push(took.as_secs_f64() * 1e3);
            out.committed.push((id, data));
        } else {
            let ((data, _work), took) = timed(|| client.checkout(v).expect("remote checkout"));
            assert_eq!(
                data, contents[v as usize],
                "client {client_id}: v{v} differs from committed content"
            );
            out.checkout_ms.push(took.as_secs_f64() * 1e3);
        }
    }
    out
}

/// One bare-store shard server over loopback, shut down and joined on
/// drop — the backend tier of the remote-sharded topology row.
struct ShardServer {
    addr: String,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ShardServer {
    fn spawn() -> Self {
        let server = Server::bind("127.0.0.1:0").expect("bind shard loopback");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || {
            StoreService::new(MemStore::new(false), StoreServiceConfig::default()).serve(&server);
        });
        ShardServer {
            addr,
            handle: Some(handle),
        }
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One run against a fresh server whose repository sits on `store` —
/// local memory or a remote-sharded tier; the serving path is identical
/// either way. Returns the row plus the server-side recorder snapshot.
fn run_one<S: ObjectStore + Sync + Send>(
    clients: usize,
    store: S,
    remote_shards: usize,
    contents: &[Vec<u8>],
    trace: &[u32],
    commit_every: usize,
) -> ServeRow {
    // Fresh server repo and local mirror built from the same commits:
    // the wire must not change what a checkout returns.
    let mut server_repo = Repository::init(store);
    let mut mirror: Repository<MemStore> = Repository::in_memory();
    for (i, data) in contents.iter().enumerate() {
        server_repo.commit("main", data, &format!("v{i}")).unwrap();
        mirror.commit("main", data, &format!("v{i}")).unwrap();
    }
    let logical: u64 = contents.iter().map(|c| c.len() as u64).sum();
    let dsvd = Dsvd::new(
        server_repo,
        DsvdConfig {
            // Half the logical corpus: the Zipf hot set fits, admission
            // and eviction still run.
            cache_bytes: (logical / 2).max(1),
            ..DsvdConfig::default()
        },
    );
    let server = Server::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let recorder = Arc::new(obs::Recorder::new());

    let (outcomes, cache, elapsed) = std::thread::scope(|scope| {
        let rec = Arc::clone(&recorder);
        let dsvd = &dsvd;
        let server = &server;
        scope.spawn(move || obs::with_recorder(&rec, || dsvd.serve(server)));

        // Slice the shared trace round-robin so the union of all client
        // traces is the same workload at every client count.
        let (handles, elapsed) = timed(|| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let addr = addr.clone();
                    let slice: Vec<u32> = trace.iter().copied().skip(c).step_by(clients).collect();
                    scope.spawn(move || drive_client(&addr, &slice, contents, c, commit_every))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        });

        // Post-run verification conversation, outside the timed window:
        // preseeded versions byte-identical to the mirror, wire-committed
        // versions byte-identical to what each client sent.
        let mut verifier = Client::connect(&addr).expect("verifier connects");
        for v in 0..contents.len() as u32 {
            let (remote, _) = verifier.checkout(v).expect("verify checkout");
            let local = mirror.checkout(CommitId(v)).expect("mirror checkout");
            assert_eq!(remote, local, "v{v}: remote differs from local mirror");
        }
        for outcome in &handles {
            for (id, data) in &outcome.committed {
                let (remote, _) = verifier.checkout(*id).expect("committed checkout");
                assert_eq!(&remote, data, "v{id}: wire commit did not round-trip");
            }
        }
        let stats = verifier.stats().expect("stats");
        let cache = stats.cache.expect("server cache enabled");
        verifier.shutdown().expect("shutdown");
        (handles, cache, elapsed)
    });

    let mut checkout_ms: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.checkout_ms.clone())
        .collect();
    let mut commit_ms: Vec<f64> = outcomes.iter().flat_map(|o| o.commit_ms.clone()).collect();
    checkout_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    commit_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let requests = checkout_ms.len() + commit_ms.len();
    let wall_ms = elapsed.as_secs_f64() * 1e3;

    ServeRow {
        clients,
        remote_shards,
        versions: contents.len(),
        requests,
        checkouts: checkout_ms.len(),
        commits: commit_ms.len(),
        wall_ms,
        throughput_rps: requests as f64 / (wall_ms / 1e3).max(1e-9),
        checkout_p50_ms: percentile(&checkout_ms, 0.50),
        checkout_p99_ms: percentile(&checkout_ms, 0.99),
        commit_p50_ms: percentile(&commit_ms, 0.50),
        commit_p99_ms: percentile(&commit_ms, 0.99),
        cache_lookups: cache.lookups,
        cache_hits: cache.hits,
        cache_hit_rate: if cache.lookups > 0 {
            cache.hits as f64 / cache.lookups as f64
        } else {
            0.0
        },
        phases: flatten_phase(&recorder.snapshot(), "serve"),
    }
}

/// Runs the client-count sweep. Panics if any checkout diverges from
/// the committed content — the wire protocol must be invisible to the
/// bytes a checkout returns.
pub fn run(scale: Scale) -> Vec<ServeRow> {
    let versions = scale.pick(24, 80);
    let accesses = scale.pick(120, 1200);
    let commit_every = 10;
    let contents = version_contents(versions, scale.pick(300, 1500));
    let trace = zipf_trace(versions, accesses, 2015);

    let client_counts: Vec<usize> = scale.pick(vec![1, 3], vec![1, 4, 8]);
    let mut rows: Vec<ServeRow> = client_counts
        .iter()
        .map(|&c| run_one(c, MemStore::new(false), 0, &contents, &trace, commit_every))
        .collect();

    // The distributed-topology row: the same workload at the highest
    // client count, but every object behind the front end lives on one
    // of two bare-store shard servers — what the remote tier costs
    // relative to the local-store row above it.
    let shard_servers: Vec<ShardServer> = (0..2).map(|_| ShardServer::spawn()).collect();
    let addrs: Vec<String> = shard_servers.iter().map(|s| s.addr.clone()).collect();
    let sharded = persist::connect_remote_shards(&addrs).expect("dial shard servers");
    let top_clients = *client_counts.last().unwrap();
    rows.push(run_one(
        top_clients,
        sharded,
        addrs.len(),
        &contents,
        &trace,
        commit_every,
    ));
    drop(shard_servers);

    let mut table = Table::new(
        "dsvd serve: N concurrent clients, Zipf(2) checkouts + interleaved online commits",
        &[
            "clients", "shards", "requests", "wall ms", "req/s", "co p50", "co p99", "ci p50",
            "ci p99", "hit rate",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.clients.to_string(),
            if r.remote_shards == 0 {
                "local".to_owned()
            } else {
                format!("{} remote", r.remote_shards)
            },
            r.requests.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.0}", r.throughput_rps),
            format!("{:.2}", r.checkout_p50_ms),
            format!("{:.2}", r.checkout_p99_ms),
            format!("{:.2}", r.commit_p50_ms),
            format!("{:.2}", r.commit_p99_ms),
            format!("{:.0}%", r.cache_hit_rate * 100.0),
        ]);
    }
    table.emit("serve");
    if let Err(e) = write_json(&rows) {
        eprintln!("warning: could not write BENCH_serve.json: {e}");
    }
    rows
}

/// Writes the rows as `target/experiments/BENCH_serve.json`.
pub fn write_json(rows: &[ServeRow]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_serve.json");
    let mut out = String::from("{\n  \"experiment\": \"serve\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let phases: Vec<String> = r
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\": \"{}\", \"wall_ms\": {:.3}, \"self_ms\": {:.3}, \"count\": {}}}",
                    p.name, p.wall_ms, p.self_ms, p.count
                )
            })
            .collect();
        let _ = write!(
            out,
            "    {{\"clients\": {}, \"remote_shards\": {}, \"versions\": {}, \"requests\": {}, \"checkouts\": {}, \"commits\": {}, \"wall_ms\": {:.3}, \"throughput_rps\": {:.2}, \"checkout_p50_ms\": {:.4}, \"checkout_p99_ms\": {:.4}, \"commit_p50_ms\": {:.4}, \"commit_p99_ms\": {:.4}, \"cache_lookups\": {}, \"cache_hits\": {}, \"cache_hit_rate\": {:.4}, \"phases\": [{}]}}",
            r.clients,
            r.remote_shards,
            r.versions,
            r.requests,
            r.checkouts,
            r.commits,
            r.wall_ms,
            r.throughput_rps,
            r.checkout_p50_ms,
            r.checkout_p99_ms,
            r.commit_p50_ms,
            r.commit_p99_ms,
            r.cache_lookups,
            r.cache_hits,
            r.cache_hit_rate,
            phases.join(", "),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_clients_get_identical_bytes_and_json_is_written() {
        // `run` itself asserts byte-identical checkouts (in-line per
        // client and in the post-run verification pass); here we check
        // the sweep's shape and the written artifact.
        let rows = run(Scale::Quick);
        assert!(
            rows.len() >= 3,
            "need single-, multi-client, and sharded rows"
        );
        assert!(rows.iter().any(|r| r.clients > 1), "no concurrent row");
        assert!(
            rows.iter().any(|r| r.remote_shards >= 2),
            "no remote-sharded topology row"
        );
        for r in &rows {
            assert!(r.requests > 0 && r.checkouts > 0 && r.commits > 0);
            assert!(
                r.throughput_rps > 0.0,
                "{} clients: no throughput",
                r.clients
            );
            assert!(
                r.checkout_p99_ms >= r.checkout_p50_ms && r.checkout_p50_ms > 0.0,
                "{} clients: checkout percentiles out of order",
                r.clients
            );
            assert!(r.commit_p99_ms >= r.commit_p50_ms && r.commit_p50_ms > 0.0);
            assert!(r.cache_lookups > 0, "checkouts must hit the shared cache");
            assert!(r.cache_hits > 0, "Zipf hot set must produce cache hits");
            // The span subtree starts at the server's `serve` root and
            // contains the per-connection pipeline.
            assert_eq!(r.phases.first().map(|p| p.name.as_str()), Some("serve"));
            let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
            for needle in ["serve/conn", "serve/conn/decode", "serve/conn/handle"] {
                assert!(
                    names.contains(&needle),
                    "{} clients: span {needle} missing from {names:?}",
                    r.clients
                );
            }
        }
        // Every client count answered the same workload.
        let reqs: Vec<usize> = rows.iter().map(|r| r.requests).collect();
        assert!(
            reqs.windows(2).all(|w| w[0] == w[1]),
            "uneven workloads: {reqs:?}"
        );
        let path = write_json(&rows).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"throughput_rps\""));
        assert!(text.contains("\"cache_hit_rate\""));
        assert!(text.contains("\"phases\": ["));
        assert!(text.contains("\"remote_shards\": 2"));
    }
}
