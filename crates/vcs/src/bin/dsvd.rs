//! `dsvd` — the dataset-versioning server daemon.
//!
//! Serves one on-disk repository over the `dsv-net` protocol:
//!
//! ```text
//! dsvd <repo-dir> [--addr <host:port>] [--workers <n>] [--cache-bytes <n>]
//!      [--max-frame <bytes>] [--read-timeout-ms <n>]
//!      [--threads <n>] [--trace] [--trace-json <path>]
//! dsvd <store-dir> --store-server [--addr <host:port>] [...]
//! ```
//!
//! The repository is opened once — after crash recovery: a pending
//! repack journal is rolled forward or back, the history is fsck'd, and
//! interrupted-commit orphans are collected, so a SIGKILL'd server
//! restarts clean. All connections share the repository. Commits and
//! optimizes serialize through a write lock (the commit queue) while
//! checkouts read concurrently, every checkout is served through one
//! shared checkout-cache arena (`--cache-bytes`, default 256 MiB), and
//! metadata is re-persisted after each mutation so a local `dsv` run on
//! the same directory sees remote commits once the server exits.
//!
//! `--addr` defaults to `127.0.0.1:7411`; port `0` picks a free port —
//! the bound address is printed either way (`dsvd: serving … at <addr>`)
//! so scripts can scrape it. `--workers` bounds concurrent connections
//! (default: the dsv-par thread count). The server runs until a client
//! sends the protocol `Shutdown` request (`dsv --remote <addr> shutdown`).
//!
//! `--store-server` serves a *bare object store* instead of a
//! repository: the directory holds content-addressed objects only (no
//! commit DAG, no plan), requests are the protocol-v3 `Store*` opcodes,
//! and repository opcodes are rejected with `BAD_REQUEST`. This is the
//! shard unit of the distributed storage tier — a front-end repository
//! initialized with `dsv init --remote-shards <addr,...>` routes each
//! object to one such server by id prefix. No crash recovery pass runs
//! (there is no history to verify); the store directory is created on
//! first start. `--cache-bytes` does not apply.
//!
//! `--trace` / `--trace-json` record the full serve span tree
//! (`serve → conn → recv_wait/decode/handle/encode/send`, with a
//! per-opcode child under each `handle`; `recv_wait` is the wait for the
//! next header, `decode` the body's transfer and parse, `encode` the
//! reply's head, `send` the one gathered write) exactly like the `dsv`
//! CLI's global flags, and the `net.requests` / `net.bytes_in` /
//! `net.bytes_out` counters land in the metrics registry.

use dsv_net::server::{Server, ServerOptions};
use dsv_net::{StoreService, StoreServiceConfig};
use dsv_obs as obs;
use dsv_storage::{FileStore, ObjectStore};
use dsv_vcs::{persist, Dsvd, DsvdConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dsvd: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Opts {
    root: PathBuf,
    addr: String,
    workers: usize,
    config: DsvdConfig,
    store_server: bool,
    trace: bool,
    trace_json: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut addr = "127.0.0.1:7411".to_owned();
    let mut workers = 0usize;
    let mut config = DsvdConfig::default();
    let mut store_server = false;
    let mut trace = false;
    let mut trace_json = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => addr = iter.next().ok_or("--addr needs host:port")?.clone(),
            "--workers" => {
                let v = iter.next().ok_or("--workers needs a value")?;
                workers = v.parse().map_err(|_| format!("invalid --workers '{v}'"))?;
            }
            "--cache-bytes" => {
                let v = iter.next().ok_or("--cache-bytes needs a value")?;
                config.cache_bytes = v
                    .parse()
                    .map_err(|_| format!("invalid --cache-bytes '{v}'"))?;
            }
            "--max-frame" => {
                let v = iter.next().ok_or("--max-frame needs a value (bytes)")?;
                config.max_frame = v
                    .parse()
                    .map_err(|_| format!("invalid --max-frame '{v}'"))?;
            }
            "--read-timeout-ms" => {
                let v = iter.next().ok_or("--read-timeout-ms needs a value")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --read-timeout-ms '{v}'"))?;
                config.read_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--threads" => {
                let v = iter.next().ok_or("--threads needs a value")?;
                let threads: usize = v.parse().map_err(|_| format!("invalid --threads '{v}'"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
                dsv_par::set_thread_count(Some(threads));
            }
            "--store-server" => store_server = true,
            "--trace" => trace = true,
            "--trace-json" => {
                trace_json = Some(PathBuf::from(
                    iter.next().ok_or("--trace-json needs a path")?,
                ));
            }
            a if a.starts_with("--") => return Err(format!("unknown flag '{arg}'")),
            _ => positional.push(arg.clone()),
        }
    }
    let root = positional
        .first()
        .map(PathBuf::from)
        .ok_or("usage: dsvd <repo-dir> [--addr <host:port>] [--workers <n>]")?;
    Ok(Opts {
        root,
        addr,
        workers,
        config,
        store_server,
        trace,
        trace_json,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    // Same deterministic fault shim as `dsv`: CI arms `DSV_FAULT` to
    // crash the daemon at an exact filesystem operation, then restarts
    // it to exercise the recovery path below.
    if std::env::var_os("DSV_FAULT").is_some() && dsv_storage::fault::install_from_env().is_none() {
        return Err(
            "invalid DSV_FAULT spec (want fail:N[:substr], tear:N:K[:substr], \
             or skipsync:N[:substr])"
                .into(),
        );
    }
    let opts = parse_opts(args)?;
    obs::set_metrics_enabled(true);
    let recorder = if opts.trace || opts.trace_json.is_some() {
        let r = Arc::new(obs::Recorder::new());
        obs::set_global_recorder(Some(Arc::clone(&r)));
        Some(r)
    } else {
        None
    };

    let server = Server::bind_with(
        &opts.addr,
        ServerOptions {
            workers: opts.workers,
            ..ServerOptions::default()
        },
    )
    .map_err(|e| format!("binding {}: {e}", opts.addr))?;
    if opts.store_server {
        // Bare store shard: content-addressed objects only, served via
        // the protocol-v3 `Store*` opcodes. There is no commit DAG here,
        // so no recovery pass — every stored object is self-verifying by
        // address, and puts are idempotent. What a crashed put can leave
        // is its staging file; this process now owns the directory, so
        // it drops them.
        let store = FileStore::open(&opts.root.join("objects"), true).map_err(|e| e.to_string())?;
        persist::sweep_unpublished(&opts.root).map_err(|e| e.to_string())?;
        // Enumerated rather than read off `stats`: a store that cannot
        // list its directory must not come up announcing 0 objects.
        let objects = store.object_ids().map_err(|e| e.to_string())?.len();
        let service = StoreService::new(
            store,
            StoreServiceConfig {
                max_frame: opts.config.max_frame,
                read_timeout: opts.config.read_timeout,
            },
        );
        println!(
            "dsvd: store server {} ({objects} objects) at {} ({} workers, protocol v{})",
            opts.root.display(),
            server.local_addr(),
            server.workers(),
            dsv_net::PROTOCOL_VERSION
        );
        // Scripts poll this line before connecting; make sure it is
        // visible even when stdout is a pipe.
        use std::io::Write;
        let _ = std::io::stdout().flush();

        service.serve(&server);
    } else {
        // Crash recovery before serving: resolve any repack journal a
        // killed predecessor left behind, verify the history, and GC
        // orphans — a SIGKILL'd dsvd restarts into a pristine repository
        // or refuses to serve a corrupt one.
        let (repo, report) =
            dsv_vcs::fsck::recover_at(&opts.root, true).map_err(|e| e.to_string())?;
        match &report.recovery {
            Some(dsv_vcs::Recovery::Clean) | None => {}
            Some(rec) => println!("dsvd: recovery: {rec:?}"),
        }
        if report.orphans_removed > 0 {
            println!("dsvd: recovery: {} orphans removed", report.orphans_removed);
        }
        if !report.is_clean() {
            return Err(format!("repository fails fsck after recovery: {report}"));
        }
        let versions = repo.version_count();
        let dsvd = Dsvd::new(repo, opts.config.clone()).with_save_root(opts.root.clone());
        println!(
            "dsvd: serving {} ({versions} versions) at {} ({} workers, protocol v{})",
            opts.root.display(),
            server.local_addr(),
            server.workers(),
            dsv_net::PROTOCOL_VERSION
        );
        // Scripts poll this line before connecting; make sure it is
        // visible even when stdout is a pipe.
        use std::io::Write;
        let _ = std::io::stdout().flush();

        dsvd.serve(&server);
    }
    println!("dsvd: shutdown requested, exiting");

    if let Some(recorder) = recorder {
        obs::set_global_recorder(None);
        let tree = recorder.snapshot();
        if opts.trace && !tree.is_empty() {
            eprint!("{}", tree.render());
        }
        if let Some(path) = &opts.trace_json {
            std::fs::write(path, tree.to_json())
                .map_err(|e| format!("writing trace to {}: {e}", path.display()))?;
        }
    }
    Ok(())
}
