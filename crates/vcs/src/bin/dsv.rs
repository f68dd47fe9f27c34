//! `dsv` — a command-line dataset version-control tool.
//!
//! The CLI face of the prototype system (the paper's §5 describes a
//! client/server variant; this is the single-machine equivalent):
//!
//! ```text
//! dsv init <repo-dir> [--shards <n> | --remote-shards <addr,...>]
//! dsv commit <repo-dir> <file> [-b branch] [-m message]
//!            [--online] [--online-hops <n>] [--theta <bytes>]
//! dsv checkout <repo-dir> <version>... [-o out-file] [--cache-bytes <n>]
//! dsv log <repo-dir> [branch]
//! dsv branch <repo-dir> <name> <version>
//! dsv branches <repo-dir>
//! dsv status <repo-dir>
//! dsv store <repo-dir> [--json]
//! dsv stats <repo-dir>
//! dsv solvers
//! dsv optimize <repo-dir> <p1|p2|p3|p4|p5|p6> [bound]
//!              [--solver <name>] [--portfolio] [--hybrid] [--binary]
//!              [--hops <n>] [--hop-bound <n>]
//! dsv fsck <repo-dir> [--repair]
//! dsv --threads <n> <any command ...>
//! dsv --trace [--trace-json <path>] <any command ...>
//! dsv --remote <host:port> <ping|commit|checkout|optimize|stats|store|fsck|shutdown> ...
//! ```
//!
//! `init --shards <n>` lays the object store out as `n` independent
//! shards (`objects/shard-<i>/…`) selected by object-id prefix; batch
//! writes (commit packs, optimize re-packs) then hit all shards
//! concurrently. The shard count is recorded in the repository metadata
//! (meta v3) and is a pure layout property — the stored bytes are
//! identical at every shard count. `init --remote-shards <addr,...>` is
//! the distributed variant: objects live on remote shard servers (`dsvd
//! --store-server`, one per address) instead of the local filesystem,
//! selected by the same id-prefix rule, and the topology is recorded in
//! the metadata (meta v4) so every later command redials the shards.
//! `store` prints the [`StoreStats`] snapshot: object/byte counts,
//! per-shard fill, dedup ratio, and the single-vs-batch operation
//! counters of this process.
//!
//! `commit --online` places the new version by bounded online
//! re-planning (the paper's online problem): the best delta base is
//! chosen from a `--online-hops` neighborhood of the parents instead of
//! the first parent alone, and no repack runs — under `--trace` the
//! commit shows an `online` span with `reveal`/`place` children and no
//! `pack`/`gc` phase. `--theta <bytes>` bounds the new version's
//! recreation cost (with or without `--online`); `dsv optimize` remains
//! the explicit slow path that revisits every placement.
//!
//! `checkout` accepts several versions at once; with `--cache-bytes <n>`
//! they are served through a bounded workload-aware checkout cache
//! (chain prefixes shared, per-version recreation work printed), the
//! serving configuration for hot Zipf-like read traffic.
//!
//! `optimize` bounds: p3/p4 take a storage budget in bytes; p5/p6 take a
//! recreation threshold in bytes. The solve goes through the planner:
//! `--solver` picks one registered solver by name (see `dsv solvers`),
//! `--portfolio` runs every capable solver and keeps the cheapest
//! feasible plan, and the default is the paper's Table-1 dispatch.
//! `--hybrid` forces the three-mode Full/Delta/Chunked model, `--binary`
//! forces the paper's binary model; with neither flag, a repository whose
//! placement policy is chunked is optimized hybrid automatically.
//! `--hops` widens/narrows how far around the commit DAG deltas are
//! revealed; `--hop-bound` is different — it caps the `hop` solver's
//! delta-chain length.
//!
//! `fsck` verifies the repository end to end: every stored object is
//! re-hashed against its content address, every version is materialized
//! through its recreation path, orphaned objects (debris from an
//! interrupted commit or repack) are detected, and a pending repack
//! journal is reported. `--repair` first resolves the journal (rolling
//! the interrupted repack forward or back), then collects orphans;
//! verification itself never mutates the store. The command exits
//! nonzero when the repository is not clean, so scripts can gate on it.
//!
//! `--threads <n>` (accepted anywhere on the command line) pins the
//! dsv-par runtime to `n` workers for every parallel phase
//! — reveal diffs, chunk estimation, portfolio solves, and packing.
//! Results are identical at any thread count; the default is the
//! `DSV_THREADS` environment variable, falling back to the machine's
//! available parallelism.
//!
//! `--remote <host:port>` (accepted anywhere on the command line) routes
//! `commit`, `checkout`, `optimize`, `stats`, `store` and `fsck` to a
//! running `dsvd` server over the `dsv-net` protocol instead of opening a
//! repository locally; the repo-dir positional is omitted since the
//! server owns its repository. These six commands are one code path: the
//! arguments are parsed once into a protocol request, the request is
//! executed by the same `Dsvd` handler either in-process or behind the
//! socket, and the response is rendered once — so flags, output and
//! errors cannot differ between the two. Only two epilogues are specific
//! to a backend, both local: a multi-version `checkout --cache-bytes`
//! ends with the cache's own line (remotely the cache is the server's,
//! `--cache-bytes` is rejected, and `stats` shows it as `server cache`),
//! and `stats` ends with this process's metrics. Operation counters
//! always describe the process that owns the store — this one locally,
//! the server remotely. `ping` and `shutdown` exist only with
//! `--remote`.
//!
//! `--trace` (or `DSV_TRACE=1`) installs a [`dsv_obs`] span recorder
//! around the whole command and prints the aggregated call tree — wall
//! and self time per phase — to stderr when the command finishes.
//! `--trace-json <path>` writes the same tree as JSON. Both are accepted
//! anywhere on the command line and compose with `--threads`; the span
//! tree's *shape* is identical at every thread count. `store --json`
//! emits the [`StoreStats`] snapshot plus this process's metrics as
//! JSON; `stats` prints both in human form.

use dsv_core::solvers::{registry, Support};
use dsv_core::{ChunkerParams, Problem};
use dsv_net::proto::{OptimizeSummary, Request, Response, WireMode, WireSolver};
use dsv_obs as obs;
use dsv_storage::{CacheStats, FileStore, ShardedStore, StoreStats, MAX_SHARDS};
use dsv_vcs::{persist, CommitId, Dsvd, DsvdConfig, RepoStore, Repository};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dsv: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    // Deterministic fault injection for crash-consistency testing: a
    // `DSV_FAULT=fail:N[:substr]` (or `tear:`/`skipsync:`) spec arms the
    // storage-layer fault shim so CI can kill this process at an exact
    // filesystem operation. No-op when the variable is unset.
    if std::env::var_os("DSV_FAULT").is_some() && dsv_storage::fault::install_from_env().is_none() {
        return Err(
            "invalid DSV_FAULT spec (want fail:N[:substr], tear:N:K[:substr], \
             or skipsync:N[:substr])"
                .into(),
        );
    }
    // `--threads` and the trace flags are global (any command may hit a
    // parallel phase), so they are extracted before dispatch: `--threads`
    // pins the dsv-par runtime, the trace flags wrap the whole command in
    // a span recorder.
    let args = extract_threads(args)?;
    let (args, trace) = extract_trace(&args)?;
    let (args, remote) = extract_remote(&args)?;
    // Metrics are a single branch per update; keep them on so that
    // `store --json` and `stats` can report what this process did.
    obs::set_metrics_enabled(true);
    let recorder = if trace.enabled() {
        let r = Arc::new(obs::Recorder::new());
        obs::set_global_recorder(Some(Arc::clone(&r)));
        Some(r)
    } else {
        None
    };
    let mut result = dispatch(&args, remote.as_deref());
    if let Some(recorder) = recorder {
        obs::set_global_recorder(None);
        let tree = recorder.snapshot();
        if trace.human && !tree.is_empty() {
            eprint!("{}", tree.render());
        }
        if let Some(path) = &trace.json {
            let write = std::fs::write(path, tree.to_json())
                .map_err(|e| format!("writing trace to {}: {e}", path.display()));
            result = result.and(write);
        }
    }
    result
}

fn dispatch(args: &[String], remote: Option<&str>) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match (cmd, remote) {
        // The commands a repository directory and a `dsvd` server both
        // answer. Each raises every argument error before it opens its
        // backend, so mistakes read the same with and without `--remote`.
        ("commit", _) => commit(args, remote),
        ("checkout", _) => checkout(args, remote),
        ("optimize", _) => optimize(args, remote),
        ("stats" | "store", _) => stats(cmd, args, remote),
        ("fsck", _) => fsck(args, remote),
        ("ping", Some(addr)) => {
            connect(addr)?.ping().map_err(stringify)?;
            println!("pong from {addr} (protocol v{})", dsv_net::PROTOCOL_VERSION);
            Ok(())
        }
        ("shutdown", Some(addr)) => {
            connect(addr)?.shutdown().map_err(stringify)?;
            println!("server at {addr} shutting down");
            Ok(())
        }
        (other, Some(_)) => Err(format!(
            "command '{other}' is not supported over --remote \
             (supported: ping, commit, checkout, optimize, stats, store, fsck, shutdown)"
        )),
        (_, None) => local_only(cmd, args),
    }
}

/// Where a served command executes: the repository directory opened
/// in-process, or a `dsvd` across the wire. Both answer a [`Request`]
/// with a [`Response`] through the same `Dsvd::handle`.
enum Backend {
    Local(Box<Dsvd<RepoStore>>),
    Remote(dsv_net::Client),
}

impl Backend {
    /// Opens the repository at `positional[1]`, or dials `remote`.
    /// `cache_bytes` sizes the local checkout cache (0 = none); a server
    /// brings its own.
    fn open(
        remote: Option<&str>,
        positional: &[String],
        cache_bytes: u64,
    ) -> Result<Backend, String> {
        match remote {
            Some(addr) => connect(addr).map(Backend::Remote),
            None => {
                let root = repo_dir(positional, 1)?;
                let repo = persist::load(&root, true).map_err(stringify)?;
                let config = DsvdConfig {
                    cache_bytes,
                    ..DsvdConfig::default()
                };
                // With the save root, mutations persist exactly as a
                // serving dsvd's do: commits re-save the metadata (and
                // roll back in memory if that fails), optimize runs the
                // journaled two-phase repack.
                let dsvd = Dsvd::new(repo, config).with_save_root(root);
                Ok(Backend::Local(Box::new(dsvd)))
            }
        }
    }

    /// One request, one response; an error response becomes `Err` with
    /// the server's message, whichever side of a socket it ran on.
    fn call(&mut self, req: Request) -> Result<Response, String> {
        match self {
            Backend::Local(dsvd) => match dsvd.handle(req) {
                Response::Error { message, .. } => Err(message),
                resp => Ok(resp),
            },
            Backend::Remote(client) => client.call(&req).map_err(stringify),
        }
    }
}

fn connect(addr: &str) -> Result<dsv_net::Client, String> {
    dsv_net::Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))
}

/// A response of the wrong kind for its request: the peer and this
/// binary disagree about the protocol.
fn unexpected(resp: &Response) -> String {
    format!("unexpected '{}' response", resp.name())
}

/// The arguments after the command and — locally — the repository
/// directory, which a server-owned repository does not take.
fn operands<'a>(positional: &'a [String], remote: Option<&str>) -> Result<&'a [String], String> {
    if remote.is_some() {
        return Ok(&positional[1..]);
    }
    repo_dir(positional, 1)?;
    Ok(&positional[2..])
}

/// `dsv commit`: one file becomes the next version on a branch.
fn commit(args: &[String], remote: Option<&str>) -> Result<(), String> {
    // Strip flags before resolving positionals so they may appear
    // anywhere: `dsv commit --online repo file` works.
    let mut positional: Vec<String> = Vec::new();
    let mut online = false;
    let mut hops: Option<u32> = None;
    let mut theta: Option<u64> = None;
    let mut branch = "main".to_owned();
    let mut message = "(no message)".to_owned();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--online" => online = true,
            "--online-hops" => {
                let v = iter.next().ok_or("--online-hops needs a value")?;
                hops = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --online-hops '{v}'"))?,
                );
            }
            "--theta" => {
                let v = iter.next().ok_or("--theta needs a value (bytes)")?;
                theta = Some(v.parse().map_err(|_| format!("invalid --theta '{v}'"))?);
            }
            "-b" => branch = iter.next().ok_or("-b needs a branch name")?.clone(),
            "-m" => message = iter.next().ok_or("-m needs a message")?.clone(),
            a if a.starts_with("--") => {
                return Err(format!("unknown commit flag '{arg}' (see: dsv help)"))
            }
            _ => positional.push(arg.clone()),
        }
    }
    if hops.is_some() && !online {
        return Err("--online-hops requires --online".into());
    }
    let file = operands(&positional, remote)?.first().ok_or(
        "usage: dsv commit <repo> <file> [--online] [--theta <bytes>] \
         (no <repo> with --remote)",
    )?;
    let data = std::fs::read(file).map_err(|e| format!("reading {file}: {e}"))?;
    let req = Request::Commit {
        token: dsv_net::client::next_token(),
        branch: branch.clone(),
        message,
        online,
        hops: hops.unwrap_or(dsv_vcs::OnlineOptions::default().hops as u32),
        theta,
        data,
    };
    match Backend::open(remote, &positional, 0)?.call(req)? {
        Response::CommitOk { id, bytes, online } => {
            let how = if online { ", online placement" } else { "" };
            println!(
                "committed {} on '{branch}' ({bytes} bytes{how})",
                CommitId(id)
            );
            Ok(())
        }
        other => Err(unexpected(&other)),
    }
}

/// `dsv checkout`: one version to a file or stdout, or a measured sweep
/// over several.
fn checkout(args: &[String], remote: Option<&str>) -> Result<(), String> {
    let mut positional: Vec<String> = Vec::new();
    let mut cache_bytes = 0u64;
    let mut out_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cache-bytes" if remote.is_some() => {
                return Err(
                    "--cache-bytes is server-side with --remote: every remote checkout \
                     is served through the dsvd shared cache (see: dsvd --cache-bytes)"
                        .into(),
                )
            }
            "--cache-bytes" => {
                let v = iter.next().ok_or("--cache-bytes needs a value")?;
                cache_bytes = v
                    .parse()
                    .map_err(|_| format!("invalid --cache-bytes '{v}'"))?;
            }
            "-o" => out_path = Some(iter.next().ok_or("-o needs a path")?.clone()),
            a if a.starts_with("--") => {
                return Err(format!("unknown checkout flag '{arg}' (see: dsv help)"))
            }
            _ => positional.push(arg.clone()),
        }
    }
    let versions: Vec<CommitId> = operands(&positional, remote)?
        .iter()
        .map(|s| parse_version(Some(s)))
        .collect::<Result<_, _>>()?;
    if versions.is_empty() {
        return Err(
            "usage: dsv checkout <repo> <version>... [-o out-file] [--cache-bytes <n>] \
             (no <repo> or --cache-bytes with --remote)"
                .into(),
        );
    }
    if versions.len() > 1 && out_path.is_some() {
        return Err("-o needs exactly one version".into());
    }
    let mut backend = Backend::open(remote, &positional, cache_bytes)?;
    let mut checkout =
        |version: CommitId| match backend.call(Request::Checkout { version: version.0 })? {
            Response::CheckoutOk { data, work } => Ok((data, work)),
            other => Err(unexpected(&other)),
        };
    if let [version] = versions[..] {
        let (data, _work) = checkout(version)?;
        match out_path {
            Some(path) => {
                std::fs::write(&path, &data).map_err(|e| e.to_string())?;
                println!("checked out {version} to {path} ({} bytes)", data.len());
            }
            None => {
                use std::io::Write;
                std::io::stdout()
                    .write_all(&data)
                    .map_err(|e| e.to_string())?;
            }
        }
        return Ok(());
    }
    // A multi-version sweep reports recreation work per version
    // instead of streaming contents — the mode that makes a
    // cache observable (prefix sharing, hits).
    let mut total = dsv_storage::RecreationWork::default();
    for &version in &versions {
        let (data, work) = checkout(version)?;
        total.add(work);
        println!(
            "{version}: {} bytes (read {}, cache hits {}, saved {})",
            data.len(),
            work.bytes_read,
            work.cache_hits,
            work.bytes_saved
        );
    }
    println!(
        "total: read {} bytes, {} cache hits, saved {} bytes",
        total.bytes_read, total.cache_hits, total.bytes_saved
    );
    // Local epilogue: this process owns the cache.
    if let Backend::Local(dsvd) = &backend {
        if let Some(cache) = dsvd.cache() {
            print_cache_stats("cache", &cache.stats());
        }
    }
    Ok(())
}

/// `dsv optimize`: re-plan and repack under one of the six problems.
fn optimize(args: &[String], remote: Option<&str>) -> Result<(), String> {
    let at = if remote.is_some() { 1 } else { 2 };
    let req = parse_optimize(args, parse_problem(args, at)?)?;
    match Backend::open(remote, args, 0)?.call(req)? {
        Response::OptimizeOk(summary) => {
            print_optimize_summary(&summary);
            // Local epilogue: the journal outlives an optimize only when
            // collecting the old plan's objects did not finish (the wire
            // summary has no field for it; `fsck` reports it either way).
            if remote.is_none() && !matches!(persist::read_journal(&repo_dir(args, 1)?), Ok(None)) {
                eprintln!(
                    "dsv: warning: the old layout was not fully collected; \
                     `dsv fsck {} --repair` will finish it",
                    args[1]
                );
            }
            Ok(())
        }
        other => Err(unexpected(&other)),
    }
}

/// `dsv stats` and `dsv store [--json]`: one `Stats` request, rendered three
/// ways.
fn stats(cmd: &str, args: &[String], remote: Option<&str>) -> Result<(), String> {
    let json = cmd == "store" && args.iter().any(|a| a == "--json");
    let positional: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    let mut backend = Backend::open(remote, &positional, 0)?;
    let summary = match backend.call(Request::Stats)? {
        Response::StatsOk(summary) => summary,
        other => return Err(unexpected(&other)),
    };
    if json {
        println!(
            "{}",
            store_stats_json(&summary.stats, summary.logical_bytes)
        );
        return Ok(());
    }
    print_store_stats(&summary.stats, summary.logical_bytes);
    if cmd == "stats" {
        if let Some(cache) = &summary.cache {
            print_cache_stats("server cache", cache);
        }
        // Local epilogue: the work was done in this process.
        let metrics = obs::metrics().snapshot();
        if matches!(backend, Backend::Local(_)) && !metrics.is_empty() {
            println!("metrics this process:");
            print!("{}", metrics.render());
        }
    }
    Ok(())
}

/// `dsv fsck [--repair]`: nonzero exit when the repository is not clean.
fn fsck(args: &[String], remote: Option<&str>) -> Result<(), String> {
    let repair = args.iter().any(|a| a == "--repair");
    let positional: Vec<String> = args.iter().filter(|a| *a != "--repair").cloned().collect();
    match Backend::open(remote, &positional, 0)?.call(Request::Fsck { repair })? {
        Response::FsckOk(summary) => {
            println!("{summary}");
            if summary.clean {
                Ok(())
            } else if repair {
                Err("repository is not clean after repair".into())
            } else {
                let target = match remote {
                    Some(addr) => format!("--remote {addr} fsck"),
                    None => format!("fsck {}", positional[1]),
                };
                Err(format!(
                    "repository is not clean (try: dsv {target} --repair)"
                ))
            }
        }
        other => Err(unexpected(&other)),
    }
}

/// The commands that only make sense on a repository directory.
fn local_only(cmd: &str, args: &[String]) -> Result<(), String> {
    match cmd {
        "init" => {
            // Parse and strip `--shards <n>` / `--remote-shards <addr,...>`
            // before resolving positionals, so `dsv init --shards 4 repo`
            // works and a missing value (or a flag swallowed as the repo
            // dir) cannot silently produce a flat layout — there is no
            // re-shard path later.
            let mut positional: Vec<String> = Vec::new();
            let mut shards: Option<usize> = None;
            let mut remote_shards: Option<Vec<String>> = None;
            let mut iter = args.iter();
            while let Some(arg) = iter.next() {
                if arg == "--shards" {
                    let v = iter.next().ok_or("--shards needs a value")?;
                    match v.parse::<usize>() {
                        Ok(n) if (1..=MAX_SHARDS).contains(&n) => shards = Some(n),
                        _ => {
                            return Err(format!(
                                "invalid --shards '{v}' (need an integer in 1..={MAX_SHARDS})"
                            ))
                        }
                    }
                } else if arg == "--remote-shards" {
                    let v = iter
                        .next()
                        .ok_or("--remote-shards needs a comma-separated host:port list")?;
                    let addrs: Vec<String> = v
                        .split(',')
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .map(str::to_owned)
                        .collect();
                    if addrs.is_empty() || addrs.len() > MAX_SHARDS {
                        return Err(format!(
                            "invalid --remote-shards '{v}' (need 1..={MAX_SHARDS} addresses)"
                        ));
                    }
                    remote_shards = Some(addrs);
                } else if arg.starts_with("--") {
                    return Err(format!("unknown init flag '{arg}' (see: dsv help)"));
                } else {
                    positional.push(arg.clone());
                }
            }
            if shards.is_some() && remote_shards.is_some() {
                return Err("--shards and --remote-shards are mutually exclusive".into());
            }
            let root = repo_dir(&positional, 1)?;
            if root.join("meta.dsv").exists() {
                return Err(format!("{} is already a repository", root.display()));
            }
            let objects = root.join("objects");
            let store = match (&shards, &remote_shards) {
                (None, None) => {
                    RepoStore::Flat(FileStore::open(&objects, true).map_err(stringify)?)
                }
                (Some(n), None) => RepoStore::Sharded(
                    ShardedStore::open_sharded(&objects, *n, true).map_err(stringify)?,
                ),
                // Dial every shard server up front: an unreachable address
                // fails init instead of the first commit.
                (None, Some(addrs)) => {
                    RepoStore::Remote(persist::connect_remote_shards(addrs).map_err(stringify)?)
                }
                (Some(_), Some(_)) => unreachable!("rejected above"),
            };
            let repo: Repository<RepoStore> = Repository::init(store);
            persist::save(&repo, &root).map_err(stringify)?;
            match (&shards, &remote_shards) {
                (None, None) => println!("initialized empty dsv repository at {}", root.display()),
                (Some(n), None) => println!(
                    "initialized empty dsv repository at {} ({n} object shards)",
                    root.display()
                ),
                (_, Some(addrs)) => println!(
                    "initialized empty dsv repository at {} ({} remote shards: {})",
                    root.display(),
                    addrs.len(),
                    addrs.join(", ")
                ),
            }
            Ok(())
        }
        "log" => {
            let root = repo_dir(args, 1)?;
            let branch = args.get(2).map(String::as_str).unwrap_or("main");
            let repo = persist::load(&root, true).map_err(stringify)?;
            for meta in repo.log(branch).map_err(stringify)? {
                let merge = if meta.is_merge() { " (merge)" } else { "" };
                println!("{}{merge}  {} bytes  {}", meta.id, meta.size, meta.message);
            }
            Ok(())
        }
        "branch" => {
            let root = repo_dir(args, 1)?;
            let name = args
                .get(2)
                .ok_or("usage: dsv branch <repo> <name> <version>")?;
            let from = parse_version(args.get(3))?;
            let mut repo = persist::load(&root, true).map_err(stringify)?;
            repo.branch(name, from).map_err(stringify)?;
            persist::save(&repo, &root).map_err(stringify)?;
            println!("branch '{name}' -> {from}");
            Ok(())
        }
        "branches" => {
            let root = repo_dir(args, 1)?;
            let repo = persist::load(&root, true).map_err(stringify)?;
            for (name, head) in repo.branches() {
                println!("{name} -> {head}");
            }
            Ok(())
        }
        "status" => {
            let root = repo_dir(args, 1)?;
            let repo = persist::load(&root, true).map_err(stringify)?;
            let plan = repo.current_plan();
            let materialized = plan
                .iter()
                .filter(|m| matches!(m, dsv_core::StorageMode::Materialized))
                .count();
            let chunked = plan.iter().filter(|m| m.is_chunked()).count();
            println!(
                "{} versions, {} branches, {} materialized, {} chunked, {} bytes on disk",
                repo.version_count(),
                repo.branches().count(),
                materialized,
                chunked,
                repo.storage_bytes()
            );
            Ok(())
        }
        "solvers" => {
            let (name_h, hybrid_h, problems_h) = ("name", "hybrid", "problems");
            println!("{name_h:<12} {hybrid_h:<8} {problems_h:<22} description");
            for solver in registry() {
                let mut problems = String::new();
                for (problem, label) in [
                    (Problem::MinStorage, "1"),
                    (Problem::MinRecreation, "2"),
                    (Problem::MinSumRecreationGivenStorage { beta: 0 }, "3"),
                    (Problem::MinMaxRecreationGivenStorage { beta: 0 }, "4"),
                    (Problem::MinStorageGivenSumRecreation { theta: 0 }, "5"),
                    (Problem::MinStorageGivenMaxRecreation { theta: 0 }, "6"),
                ] {
                    match solver.support(problem) {
                        Some(Support::Exact) => {
                            problems.push_str(label);
                            problems.push_str("(exact) ");
                        }
                        Some(Support::Heuristic) => {
                            problems.push_str(label);
                            problems.push(' ');
                        }
                        None => {}
                    }
                }
                println!(
                    "{:<12} {:<8} {:<22} {}",
                    solver.name(),
                    if solver.hybrid_capable() { "yes" } else { "no" },
                    problems.trim_end(),
                    solver.description()
                );
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!(
                "usage: dsv <init|commit|checkout|log|branch|branches|status|store|stats|solvers|optimize|fsck> ..."
            );
            println!("       dsv init <repo> [--shards <n>]  shard the object store n ways");
            println!(
                "       dsv init <repo> --remote-shards <addr,...>  store objects on remote \
                 shard servers (dsvd --store-server)"
            );
            println!(
                "       dsv commit <repo> <file> [--online] [--online-hops <n>] [--theta <bytes>]"
            );
            println!(
                "                    --online: place via bounded local re-planning (no repack)"
            );
            println!("                    --theta: cap the new version's recreation bytes");
            println!("       dsv checkout <repo> <version>... [-o out-file] [--cache-bytes <n>]");
            println!(
                "                    --cache-bytes: serve through a bounded workload-aware cache"
            );
            println!("       dsv store <repo> [--json]  print object-store stats (shard fill, dedup ratio)");
            println!("       dsv stats <repo>  store stats plus this process's metrics");
            println!("       dsv optimize <repo> <p1..p6> [bound] [--solver <name>] [--portfolio]");
            println!(
                "                    [--hybrid] [--binary] [--hops <reveal-n>] [--hop-bound <n>]"
            );
            println!(
                "       dsv fsck <repo> [--repair]  verify addresses, recreation paths, \
                 and journals; --repair resolves them"
            );
            println!(
                "       dsv --threads <n> ...  pin the parallel runtime's worker count \
                 (default: DSV_THREADS, then available cores)"
            );
            println!(
                "       dsv --trace ...  print a span tree of the command's phases to stderr \
                 (also: DSV_TRACE=1)"
            );
            println!("       dsv --trace-json <path> ...  write the span tree as JSON");
            println!(
                "       dsv --remote <host:port> ...  run commit, checkout, optimize, stats, \
                 store or fsck on a dsvd server: same flags and output, no <repo>, no \
                 --cache-bytes (the cache is the server's); also ping, shutdown"
            );
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try: dsv help)")),
    }
}

/// Renders an optimize outcome.
fn print_optimize_summary(s: &OptimizeSummary) {
    println!(
        "{}: {} -> {} bytes on disk, planned C {} ({} materialized, {} chunked, planned maxR {})",
        s.problem,
        s.storage_before,
        s.storage_after,
        s.planned_storage_cost,
        s.materialized,
        s.chunked,
        s.planned_max_recreation
    );
    if s.portfolio {
        println!(
            "portfolio: {} candidates, winner {}",
            s.candidates.len(),
            s.solver
        );
        for c in &s.candidates {
            match &c.outcome {
                Ok(n) => println!(
                    "  {:<12} objective {} (C {}, ΣR {}, maxR {}){}",
                    c.solver,
                    n.objective,
                    n.storage,
                    n.sum_recreation,
                    n.max_recreation,
                    if n.feasible { "" } else { "  [infeasible]" }
                ),
                Err(e) => println!("  {:<12} error: {e}", c.solver),
            }
        }
    } else {
        println!(
            "solver: {}{}",
            s.solver,
            if s.feasible { "" } else { "  [infeasible]" }
        );
    }
}

/// One line of checkout-cache fill and hit counters; `whose` says which
/// process owns the cache.
fn print_cache_stats(whose: &str, s: &CacheStats) {
    println!(
        "{whose}: {}/{} bytes used, {} entries, {} hits / {} misses, {} evictions",
        s.bytes, s.budget_bytes, s.entries, s.hits, s.misses, s.evictions
    );
}

/// Renders a [`StoreStats`] snapshot — works for any `ObjectStore`
/// (memory or file, flat or sharded); `logical_bytes` is the raw size of
/// all committed versions, giving the dedup/delta ratio.
fn print_store_stats(stats: &StoreStats, logical_bytes: u64) {
    let layout = if stats.shards.is_empty() {
        "flat".to_owned()
    } else {
        format!("{} shards", stats.shards.len())
    };
    println!(
        "{} objects, {} bytes on disk ({layout})",
        stats.objects, stats.bytes
    );
    if stats.bytes > 0 {
        println!(
            "dedup ratio: {:.2}x ({logical_bytes} logical bytes)",
            logical_bytes as f64 / stats.bytes as f64
        );
    }
    if !stats.shards.is_empty() {
        println!(
            "shard fill (imbalance {:.2}, 1.00 = even):",
            stats.shard_imbalance()
        );
        for (i, s) in stats.shards.iter().enumerate() {
            let pct = if stats.objects > 0 {
                100.0 * s.objects as f64 / stats.objects as f64
            } else {
                0.0
            };
            println!(
                "  shard-{i:<3} {:>8} objects {:>12} bytes  {pct:>5.1}%",
                s.objects, s.bytes
            );
        }
    }
    let ops = &stats.ops;
    println!(
        "ops this process: {} put / {} get single; {} put_batch ({} objects), \
         {} get_batch ({} objects), {} removes",
        ops.puts,
        ops.gets,
        ops.batch_puts,
        ops.batch_put_objects,
        ops.batch_gets,
        ops.batch_get_objects,
        ops.removes
    );
}

/// Strips a global `--threads <n>` flag from `args`, pinning the dsv-par
/// runtime's worker count when present (equivalent to `DSV_THREADS=<n>`).
fn extract_threads(args: &[String]) -> Result<Vec<String>, String> {
    let mut out = Vec::with_capacity(args.len());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threads" {
            let value = iter.next().ok_or("--threads needs a value")?;
            let threads: usize = value
                .parse()
                .map_err(|_| format!("invalid --threads '{value}'"))?;
            if threads == 0 {
                return Err("--threads must be at least 1".into());
            }
            dsv_par::set_thread_count(Some(threads));
        } else {
            out.push(arg.clone());
        }
    }
    Ok(out)
}

/// Strips a global `--remote <host:port>` flag. When present, the
/// command is routed to a `dsvd` server over the wire protocol instead
/// of opening a repository locally (see [`Backend`]).
fn extract_remote(args: &[String]) -> Result<(Vec<String>, Option<String>), String> {
    let mut out = Vec::with_capacity(args.len());
    let mut remote = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--remote" {
            let value = iter.next().ok_or("--remote needs host:port")?;
            if remote.is_some() {
                return Err("--remote given more than once".into());
            }
            remote = Some(value.clone());
        } else {
            out.push(arg.clone());
        }
    }
    Ok((out, remote))
}

/// Global tracing options stripped from the command line by
/// [`extract_trace`].
struct TraceOpts {
    /// Print the rendered span tree to stderr after the command.
    human: bool,
    /// Write the span tree as JSON to this path after the command.
    json: Option<PathBuf>,
}

impl TraceOpts {
    fn enabled(&self) -> bool {
        self.human || self.json.is_some()
    }
}

/// Strips the global `--trace` / `--trace-json <path>` flags from `args`.
/// `DSV_TRACE=1` (or `true`) in the environment is equivalent to
/// `--trace`, mirroring how `DSV_THREADS` backs `--threads`.
fn extract_trace(args: &[String]) -> Result<(Vec<String>, TraceOpts), String> {
    let mut out = Vec::with_capacity(args.len());
    let mut human = false;
    let mut json = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--trace" {
            human = true;
        } else if arg == "--trace-json" {
            let value = iter.next().ok_or("--trace-json needs a path")?;
            json = Some(PathBuf::from(value));
        } else {
            out.push(arg.clone());
        }
    }
    if !human {
        human = std::env::var("DSV_TRACE")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
    }
    Ok((out, TraceOpts { human, json }))
}

/// JSON form of [`print_store_stats`] plus the process's metrics
/// snapshot — everything is numeric except metric names, which
/// [`dsv_obs`] escapes itself.
fn store_stats_json(stats: &StoreStats, logical_bytes: u64) -> String {
    let shards: Vec<String> = stats
        .shards
        .iter()
        .map(|s| {
            format!(
                "{{\"objects\": {}, \"bytes\": {}, \"batch_ms\": {:.3}}}",
                s.objects,
                s.bytes,
                s.batch_ns as f64 / 1e6
            )
        })
        .collect();
    let ops = &stats.ops;
    format!(
        "{{\"objects\": {}, \"bytes\": {}, \"logical_bytes\": {logical_bytes}, \
         \"shards\": [{}], \
         \"ops\": {{\"puts\": {}, \"gets\": {}, \"batch_puts\": {}, \"batch_put_objects\": {}, \
         \"batch_gets\": {}, \"batch_get_objects\": {}, \"removes\": {}, \
         \"put_objects\": {}, \"get_objects\": {}}}, \
         \"metrics\": {}}}",
        stats.objects,
        stats.bytes,
        shards.join(", "),
        ops.puts,
        ops.gets,
        ops.batch_puts,
        ops.batch_put_objects,
        ops.batch_gets,
        ops.batch_get_objects,
        ops.removes,
        ops.put_objects(),
        ops.get_objects(),
        obs::metrics().snapshot().to_json()
    )
}

fn repo_dir(args: &[String], idx: usize) -> Result<PathBuf, String> {
    args.get(idx)
        .map(|s| Path::new(s).to_path_buf())
        .ok_or_else(|| "missing repository directory".to_owned())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_version(arg: Option<&String>) -> Result<CommitId, String> {
    let s = arg.ok_or("missing version (e.g. v3)")?;
    let digits = s.strip_prefix('v').unwrap_or(s);
    digits
        .parse::<u32>()
        .map(CommitId)
        .map_err(|_| format!("invalid version '{s}'"))
}

/// The `optimize` flags as the protocol request both backends execute.
/// Which chunker a `--hybrid` solve uses on a chunked-placement
/// repository is the handler's rule (`Dsvd`), not the command line's.
fn parse_optimize(args: &[String], problem: Problem) -> Result<Request, String> {
    // Reject misspelled/valueless flags outright: a typo silently falling
    // back to the default solve would misreport what was optimized.
    const VALUE_FLAGS: [&str; 3] = ["--solver", "--hops", "--hop-bound"];
    const BARE_FLAGS: [&str; 3] = ["--portfolio", "--hybrid", "--binary"];
    let mut skip_value = false;
    for arg in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if VALUE_FLAGS.contains(&arg.as_str()) {
            skip_value = true;
        } else if arg.starts_with("--") && !BARE_FLAGS.contains(&arg.as_str()) {
            return Err(format!("unknown optimize flag '{arg}' (see: dsv help)"));
        }
    }
    for flag in VALUE_FLAGS {
        match args.iter().filter(|a| *a == flag).count() {
            0 => {}
            1 => match flag_value(args, flag) {
                None => return Err(format!("{flag} needs a value")),
                Some(v) if v.starts_with("--") => {
                    return Err(format!("{flag} needs a value, got flag '{v}'"))
                }
                Some(_) => {}
            },
            _ => return Err(format!("{flag} given more than once")),
        }
    }
    let reveal_hops = match flag_value(args, "--hops") {
        Some(h) => h.parse().map_err(|_| format!("invalid --hops '{h}'"))?,
        None => 5,
    };
    let hop_bound = match flag_value(args, "--hop-bound") {
        Some(h) => Some(
            h.parse()
                .map_err(|_| format!("invalid --hop-bound '{h}'"))?,
        ),
        None => None,
    };
    let portfolio = args.iter().any(|a| a == "--portfolio");
    let named = flag_value(args, "--solver");
    if portfolio && named.is_some() {
        return Err("--portfolio and --solver are mutually exclusive".into());
    }
    let solver = if portfolio {
        WireSolver::Portfolio
    } else if let Some(name) = named {
        // Catch typos before the repository is loaded (or the network
        // crossed) and re-diffed.
        if dsv_core::solvers::by_name(name).is_none() {
            return Err(format!(
                "no solver named '{name}' in the registry (see: dsv solvers)"
            ));
        }
        WireSolver::Named(name.to_owned())
    } else {
        WireSolver::Auto
    };
    let hybrid = args.iter().any(|a| a == "--hybrid");
    let binary = args.iter().any(|a| a == "--binary");
    if hybrid && binary {
        return Err("--hybrid and --binary are mutually exclusive".into());
    }
    let mode = if hybrid {
        let c = ChunkerParams::default();
        WireMode::Hybrid {
            min_size: c.min_size() as u64,
            avg_size: c.avg_size() as u64,
            max_size: c.max_size() as u64,
        }
    } else if binary {
        WireMode::Binary
    } else {
        WireMode::Auto
    };
    Ok(Request::Optimize {
        problem,
        solver,
        mode,
        reveal_hops,
        hop_bound,
    })
}

fn parse_problem(args: &[String], idx: usize) -> Result<Problem, String> {
    let which = args.get(idx).map(String::as_str).unwrap_or("p1");
    let bound = || -> Result<u64, String> {
        args.get(idx + 1)
            .ok_or_else(|| format!("{which} needs a bound in bytes"))?
            .parse::<u64>()
            .map_err(|e| e.to_string())
    };
    Ok(match which {
        "p1" => Problem::MinStorage,
        "p2" => Problem::MinRecreation,
        "p3" => Problem::MinSumRecreationGivenStorage { beta: bound()? },
        "p4" => Problem::MinMaxRecreationGivenStorage { beta: bound()? },
        "p5" => Problem::MinStorageGivenSumRecreation { theta: bound()? },
        "p6" => Problem::MinStorageGivenMaxRecreation { theta: bound()? },
        other => return Err(format!("unknown problem '{other}' (p1..p6)")),
    })
}

fn stringify(e: impl std::fmt::Display) -> String {
    e.to_string()
}
