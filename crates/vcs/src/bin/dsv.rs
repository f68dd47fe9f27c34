//! `dsv` — a command-line dataset version-control tool.
//!
//! The CLI face of the prototype system (the paper's §5 describes a
//! client/server variant; this is the single-machine equivalent).
//! `dsv help` prints the synopsis of every command and flag; it is
//! rendered from [`COMMANDS`], the table the parser reads, so the two
//! cannot drift.
//!
//! One grammar holds for every command, applied by one walk over argv
//! ([`parse`]): `dsv <command> <operands and flags in any order>`. The
//! first token that names a command selects it (`--help` and `-h` name
//! `help`; no command at all is `help` too). A token starting with `-` is
//! a flag: one of the global flags (`--threads`, `--trace`,
//! `--trace-json`, `--remote`, accepted anywhere) or, after the command,
//! one of that command's own. A flag that takes a value takes the next
//! token verbatim. An unknown flag, a flag given twice, a flag missing
//! its value and a wrong number of operands are each an error, never a
//! default. Every other token is an operand. Values are checked by the
//! command that reads them.
//!
//! `init --shards <n>` lays the object store out as `n` independent
//! shards (`objects/shard-<i>/…`) selected by object-id prefix; batch
//! writes (commit packs, optimize re-packs) then hit all shards
//! concurrently. The shard count is recorded in the repository metadata
//! (meta v3) and is a pure layout property — the stored bytes are
//! identical at every shard count. `init --remote-shards <addr,...>` is
//! the distributed variant: objects live on remote shard servers (`dsv
//! serve --store-server`, one per address) instead of the local
//! filesystem, selected by the same id-prefix rule, and the topology is
//! recorded in the metadata (meta v4) so every later command redials the
//! shards. `stats` prints the [`StoreStats`] snapshot: object/byte
//! counts, per-shard fill, dedup ratio, and the single-vs-batch operation
//! counters of this process, then this process's metrics; `stats --json`
//! emits the same snapshot and metrics as one JSON object.
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
//! recreation threshold in bytes; p1 (the default) and p2 take none. The
//! solve goes through the planner: `--solver` picks one registered
//! solver by name (see `dsv solvers`), `--portfolio` runs every capable
//! solver and keeps the cheapest feasible plan, and the default is the
//! paper's Table-1 dispatch. `--hybrid` forces the three-mode
//! Full/Delta/Chunked model, `--binary` forces the paper's binary model;
//! with neither flag, a repository whose placement policy is chunked is
//! optimized hybrid automatically. `--hops` widens/narrows how far around
//! the commit DAG deltas are revealed; `--hop-bound` is different — it
//! caps the `hop` solver's delta-chain length.
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
//! `--threads <n>` pins the dsv-par runtime to `n` workers for every
//! parallel phase — reveal diffs, chunk estimation, portfolio solves, and
//! packing. Results are identical at any thread count; the default is the
//! `DSV_THREADS` environment variable, falling back to the machine's
//! available parallelism.
//!
//! `serve` opens one repository and serves it over the `dsv-net` protocol
//! until a client sends `Shutdown` (`dsv --remote <addr> shutdown`). It
//! recovers first: a pending repack journal is rolled forward or back,
//! the history is fsck'd and interrupted-commit orphans are collected, so
//! a SIGKILLed server restarts clean or refuses to serve a corrupt
//! repository. Commits and optimizes then serialize through the
//! repository's write lock while checkouts read concurrently through one
//! shared checkout cache (`--cache-bytes`, default 256 MiB), and metadata
//! is re-persisted after each mutation. `--addr` defaults to
//! `127.0.0.1:7411` and port `0` picks a free one; `--workers` bounds
//! concurrent connections (default: the dsv-par thread count);
//! `--read-timeout-ms` bounds an idle client (default 30 000, `0` = none);
//! `--max-frame` caps a request body (default 64 MiB, at least
//! [`MIN_MAX_FRAME`]). Once listening it prints `dsv: serving <dir> (<n>
//! versions) at <addr> (…)` and flushes, so scripts can scrape the bound
//! address.
//!
//! `serve --store-server` serves a *bare object store* instead: the
//! directory holds content-addressed objects only, requests are the
//! `Store*` opcodes, and repository opcodes are rejected. It is one shard
//! of the distributed storage tier (`init --remote-shards`). No recovery
//! pass runs — there is no history to verify — but staging files a
//! crashed put left are swept; the directory is created on first start,
//! `--cache-bytes` does not apply, and the banner reads `dsv: store
//! server <dir> (<n> objects) at <addr> (…)`. Under `--trace` /
//! `--trace-json` either server records the span tree
//! `serve → conn → recv_wait / decode / handle / encode / send`, with a
//! per-opcode child under each `handle`, and writes it at shutdown.
//!
//! `--remote <host:port>` routes `commit`, `checkout`, `optimize`,
//! `stats` and `fsck` to a running `dsv serve` over the `dsv-net`
//! protocol instead of opening a repository locally; the repo-dir operand
//! is omitted since the server owns its repository. These five commands
//! are one code path: the arguments are parsed once into a protocol
//! request, the request is executed by the same `Dsvd` handler either
//! in-process or behind the socket, and the response is rendered once —
//! so flags, output and errors cannot differ between the two. Only two
//! epilogues are specific to a backend, both local: a multi-version
//! `checkout --cache-bytes` ends with the cache's own line (remotely the
//! cache is the server's, `--cache-bytes` is rejected, and `stats` shows
//! it as `server cache`), and `stats` ends with this process's metrics.
//! Operation counters always describe the process that owns the store —
//! this one locally, the server remotely. `ping` and `shutdown` exist
//! only with `--remote`.
//!
//! `--trace` (or `DSV_TRACE=1`) installs a [`dsv_obs`] span recorder
//! around the whole command and prints the aggregated call tree — wall
//! and self time per phase — to stderr when the command finishes.
//! `--trace-json <path>` writes the same tree as JSON. Both compose with
//! `--threads`; the span tree's *shape* is identical at every thread
//! count.
//!
//! Everything `dsv` prints to stdout goes through one writer ([`emit`]):
//! when the reader has gone away (`dsv log R | head -1`) the command ends
//! there, silently and with exit 0.

use dsv_core::solvers::{Support, SOLVERS};
use dsv_core::{ChunkerParams, Problem, SolverChoice};
use dsv_net::proto::{OptimizeSummary, Request, Response, WireMode};
use dsv_net::server::{Server, ServerOptions};
use dsv_net::{StoreService, StoreServiceConfig, PROTOCOL_VERSION};
use dsv_obs as obs;
use dsv_storage::{CacheStats, FileStore, ObjectStore, ShardedStore, StoreStats, MAX_SHARDS};
use dsv_vcs::{persist, CommitId, Dsvd, DsvdConfig, RepoStore, Repository};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// `dsv`'s stdout, the one way anything reaches it: `writeln!(Out, …)?`
/// formats into [`emit`].
struct Out;

impl Out {
    fn write_fmt(self, args: std::fmt::Arguments) -> Result<(), String> {
        emit(args.to_string().as_bytes())
    }
}

/// A flag as `dsv help` shows it — `--name`, or `--name <value>` when it
/// takes a value — and its help text.
type Flag = (&'static str, &'static str);

/// A flag's spelling, and whether it takes a value.
fn flag_name(synopsis: &str) -> (&str, bool) {
    match synopsis.split_once(' ') {
        Some((name, _)) => (name, true),
        None => (synopsis, false),
    }
}

/// Which backends a command runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// A repository directory (or nothing) on this machine.
    Local,
    /// A repository directory, or a `dsv serve` with `--remote` (which
    /// drops the `<repo>` operand).
    Both,
    /// A `dsv serve`, only with `--remote`.
    Remote,
}

/// One row of [`COMMANDS`].
struct Command {
    name: &'static str,
    /// The operands' synopsis, `<repo>` first when the command opens one.
    operands: &'static str,
    /// How many operands it takes, `<repo>` included: at least, at most.
    arity: (usize, usize),
    reach: Reach,
    run: fn(&Args) -> Result<(), String>,
    /// Its line in `dsv help`.
    about: &'static str,
    flags: &'static [Flag],
}

/// The flags every command accepts.
#[rustfmt::skip]
const GLOBAL_FLAGS: &[Flag] = &[
    ("--threads <n>", "pin the parallel runtime's worker count (default: DSV_THREADS, then cores)"),
    ("--trace", "print a span tree of the command's phases to stderr (also: DSV_TRACE=1)"),
    ("--trace-json <path>", "write the span tree as JSON"),
    ("--remote <host:port>", "run the command on a `dsv serve`: same flags and output, no <repo>"),
];

/// Every command: the parser, `dsv help`, the `usage:` errors and the
/// `--remote` list all read this table. A `Reach::Both` command raises
/// every argument error before it opens its backend, so mistakes read
/// the same with and without `--remote`.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "init", operands: "<repo>", arity: (1, 1), reach: Reach::Local, run: init,
        about: "create an empty repository",
        flags: &[
            ("--shards <n>", "shard the object store n ways"),
            ("--remote-shards <addr,...>", "store objects on `dsv serve --store-server` shards"),
        ] },
    Command { name: "ping", operands: "", arity: (0, 0), reach: Reach::Remote, run: ping,
        about: "check that the server answers", flags: &[] },
    Command { name: "commit", operands: "<repo> <file>", arity: (2, 2), reach: Reach::Both,
        run: commit, about: "commit <file> as the next version on a branch",
        flags: &[
            ("-b <branch>", "the branch to commit on (default: main)"),
            ("-m <message>", "the commit message"),
            ("--online", "place via bounded local re-planning (no repack)"),
            ("--online-hops <n>", "how far around the parents --online looks for a delta base"),
            ("--theta <bytes>", "cap the new version's recreation bytes"),
        ] },
    Command { name: "checkout", operands: "<repo> <version>...", arity: (2, usize::MAX),
        reach: Reach::Both, run: checkout,
        about: "print one version, or the recreation work of several",
        flags: &[
            ("-o <file>", "write the one version to <file>, not stdout"),
            ("--cache-bytes <n>", "serve through a bounded workload-aware cache (local only)"),
        ] },
    Command { name: "optimize", operands: "<repo> [p1..p6] [bound]", arity: (1, 3),
        reach: Reach::Both, run: optimize,
        about: "re-plan and repack: p1 (default) and p2 take no bound, p3/p4 a storage budget, \
                p5/p6 a recreation bound, in bytes",
        flags: &[
            ("--solver <name>", "solve with one registered solver (see: dsv solvers)"),
            ("--portfolio", "run every capable solver, keep the cheapest feasible plan"),
            ("--hybrid", "force the Full/Delta/Chunked model"),
            ("--binary", "force the materialized/delta model"),
            ("--hops <n>", "how far around the commit DAG deltas are revealed (default 5)"),
            ("--hop-bound <n>", "cap the hop solver's delta-chain length"),
        ] },
    Command { name: "stats", operands: "<repo>", arity: (1, 1), reach: Reach::Both, run: stats,
        about: "object-store stats (shard fill, dedup ratio) and this process's metrics",
        flags: &[("--json", "print it all as one JSON object")] },
    Command { name: "fsck", operands: "<repo>", arity: (1, 1), reach: Reach::Both, run: fsck,
        about: "verify addresses, recreation paths and journals; exit 1 unless clean",
        flags: &[("--repair", "first resolve a pending repack journal and collect orphans")] },
    Command { name: "shutdown", operands: "", arity: (0, 0), reach: Reach::Remote,
        run: shutdown, about: "stop the server", flags: &[] },
    Command { name: "log", operands: "<repo> [branch]", arity: (1, 2), reach: Reach::Local,
        run: log, about: "the versions on a branch (default: main), newest first", flags: &[] },
    Command { name: "branch", operands: "<repo> <name> <version>", arity: (3, 3),
        reach: Reach::Local, run: branch, about: "start a branch at a version", flags: &[] },
    Command { name: "branches", operands: "<repo>", arity: (1, 1), reach: Reach::Local,
        run: branches, about: "every branch and its head", flags: &[] },
    Command { name: "status", operands: "<repo>", arity: (1, 1), reach: Reach::Local, run: status,
        about: "version, branch and storage-mode counts, bytes on disk", flags: &[] },
    Command { name: "solvers", operands: "", arity: (0, 0), reach: Reach::Local, run: solvers,
        about: "the registered solvers and the problems each supports", flags: &[] },
    Command { name: "serve", operands: "<dir>", arity: (1, 1), reach: Reach::Local, run: serve,
        about: "recover the repository, then serve it until `shutdown`",
        flags: &[
            ("--addr <host:port>", "listen here (default 127.0.0.1:7411; port 0 picks a free one)"),
            ("--workers <n>", "concurrent connections (default: the runtime's thread count)"),
            ("--cache-bytes <n>", "the shared checkout cache (default 256 MiB)"),
            ("--max-frame <bytes>", "cap on a request body (default 64 MiB)"),
            ("--read-timeout-ms <n>", "drop a client idle this long (default 30000; 0 = never)"),
            ("--store-server", "serve <dir> as a bare object store (one remote shard)"),
        ] },
    HELP,
];

/// `dsv help`, also spelled `--help` or `-h`, and what no command means.
#[rustfmt::skip]
const HELP: Command = Command { name: "help", operands: "", arity: (0, 0), reach: Reach::Local,
    run: help, about: "this text (also: --help, -h, no command)", flags: &[] };

/// Smallest `serve --max-frame`: the `Hello` request's body (a `u16`
/// protocol version). `Ping`, `Stats` and `Shutdown` have none, so a
/// server at this cap can still be asked to stop.
const MIN_MAX_FRAME: u32 = 2;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dsv: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
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
    let args = parse(argv)?;
    // The global flags: any command may hit a parallel phase, and the
    // trace flags wrap the whole command in a span recorder.
    // `DSV_TRACE=1` (or `true`) is `--trace`, as `DSV_THREADS` backs
    // `--threads`.
    if let Some(threads) = args.parsed::<usize>("--threads")? {
        if threads == 0 {
            return Err("--threads must be at least 1".into());
        }
        dsv_par::set_thread_count(Some(threads));
    }
    let trace_human = args.has("--trace")
        || std::env::var("DSV_TRACE").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));
    let trace_json = args.value("--trace-json").map(PathBuf::from);
    // Metrics are a single branch per update; keep them on so that
    // `stats` and `stats --json` can report what this process did.
    obs::set_metrics_enabled(true);
    let recorder = (trace_human || trace_json.is_some()).then(|| {
        let r = Arc::new(obs::Recorder::new());
        obs::set_global_recorder(Some(Arc::clone(&r)));
        r
    });
    let mut result = (args.cmd.run)(&args);
    if let Some(recorder) = recorder {
        obs::set_global_recorder(None);
        let tree = recorder.snapshot();
        if trace_human && !tree.is_empty() {
            eprint!("{}", tree.render());
        }
        if let Some(path) = &trace_json {
            let write = std::fs::write(path, tree.to_json())
                .map_err(|e| format!("writing trace to {}: {e}", path.display()));
            result = result.and(write);
        }
    }
    result
}

/// A command line, parsed: the command, its operands and the flags given.
struct Args<'a> {
    cmd: &'static Command,
    /// In order; locally the first is the repository directory.
    operands: Vec<&'a str>,
    /// Each flag given (at most once), with its value.
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// `flag` as given. Asking for a flag the table does not declare for
    /// this command is a bug in its handler, not in the command line.
    fn given(&self, flag: &str) -> Option<Option<&'a str>> {
        let mut declared = GLOBAL_FLAGS.iter().chain(self.cmd.flags);
        debug_assert!(declared.any(|(synopsis, _)| flag_name(synopsis).0 == flag));
        let given = self.flags.iter().find(|(name, _)| *name == flag);
        given.map(|(_, value)| *value)
    }

    fn has(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.given(flag).flatten()
    }

    /// The value of `flag`, parsed, if it was given.
    fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("invalid {flag} '{v}'")))
            .transpose()
    }

    fn remote(&self) -> Option<&'a str> {
        self.value("--remote")
    }

    /// The repository directory — the first operand of a local run.
    fn repo(&self) -> PathBuf {
        PathBuf::from(self.operands[0])
    }

    /// The operands after the repository directory, which a server-owned
    /// repository does not take.
    fn rest(&self) -> &[&'a str] {
        &self.operands[usize::from(self.remote().is_none())..]
    }
}

/// The one walk over argv (the grammar is in the module docs).
fn parse(argv: &[String]) -> Result<Args<'_>, String> {
    let mut cmd: Option<&'static Command> = None;
    let mut operands = Vec::new();
    let mut flags: Vec<(&'static str, Option<&str>)> = Vec::new();
    let mut tokens = argv.iter().map(String::as_str);
    while let Some(token) = tokens.next() {
        if cmd.is_none() {
            let name = match token {
                "--help" | "-h" => HELP.name,
                name => name,
            };
            cmd = COMMANDS.iter().find(|c| c.name == name);
            if cmd.is_some() {
                continue;
            }
        }
        if !token.starts_with('-') {
            match cmd {
                Some(_) => operands.push(token),
                None => return Err(format!("unknown command '{token}' (try: dsv help)")),
            }
            continue;
        }
        let own = cmd.map_or(&[][..], |c| c.flags);
        let scope = cmd.map_or("dsv", |c| c.name);
        let (name, valued) = GLOBAL_FLAGS
            .iter()
            .chain(own)
            .map(|(synopsis, _)| flag_name(synopsis))
            .find(|(name, _)| *name == token)
            .ok_or_else(|| format!("unknown {scope} flag '{token}' (see: dsv help)"))?;
        if flags.iter().any(|(given, _)| *given == name) {
            return Err(format!("{name} given more than once"));
        }
        let value = match valued {
            true => Some(tokens.next().ok_or(format!("{name} needs a value"))?),
            false => None,
        };
        flags.push((name, value));
    }
    let cmd = cmd.unwrap_or(&HELP);
    let args = Args {
        cmd,
        operands,
        flags,
    };
    let remote = args.remote().is_some();
    if remote && cmd.reach == Reach::Local {
        let served: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| c.reach != Reach::Local)
            .map(|c| c.name)
            .collect();
        return Err(format!(
            "command '{}' is not supported over --remote (supported: {})",
            cmd.name,
            served.join(", ")
        ));
    }
    if !remote && cmd.reach == Reach::Remote {
        return Err(format!("{} runs only with --remote <host:port>", cmd.name));
    }
    // With --remote the server owns the repository: one operand fewer.
    let repo = usize::from(remote && cmd.reach == Reach::Both);
    let (least, most) = cmd.arity;
    if !(least - repo..=most - repo).contains(&args.operands.len()) {
        return Err(format!("usage: {}", usage(cmd)));
    }
    Ok(args)
}

/// `dsv <command> <operands> [<flag>]...`, from the table row.
fn usage(cmd: &Command) -> String {
    let mut line = match cmd.reach {
        Reach::Remote => format!("dsv --remote <host:port> {}", cmd.name),
        _ => format!("dsv {}", cmd.name),
    };
    if !cmd.operands.is_empty() {
        line = format!("{line} {}", cmd.operands);
    }
    for (synopsis, _) in cmd.flags {
        line = format!("{line} [{synopsis}]");
    }
    if cmd.reach == Reach::Both {
        line.push_str(" (no <repo> with --remote)");
    }
    line
}

/// `dsv help`: the grammar, then every flag and command in the table.
fn help(_: &Args) -> Result<(), String> {
    let all = GLOBAL_FLAGS
        .iter()
        .chain(COMMANDS.iter().flat_map(|c| c.flags));
    let width = all.map(|(synopsis, _)| synopsis.len()).max().unwrap_or(0) + 2;
    writeln!(
        Out,
        "usage: dsv <command> <operands and flags, in any order>"
    )?;
    writeln!(Out, "global flags:")?;
    for (synopsis, help) in GLOBAL_FLAGS {
        writeln!(Out, "  {synopsis:<w$}{help}", w = width + 4)?;
    }
    writeln!(Out, "commands:")?;
    for cmd in COMMANDS {
        writeln!(Out, "  {}\n      {}", usage(cmd), cmd.about)?;
        for (synopsis, help) in cmd.flags {
            writeln!(Out, "      {synopsis:<width$}{help}")?;
        }
    }
    Ok(())
}

/// Writes `bytes` to stdout — the only way anything reaches it. A reader
/// that went away ends `dsv` at once, with exit 0 and nothing on stderr,
/// as SIGPIPE ends a C tool (`dsv log R | head -1`). Flushed per call, so
/// `serve`'s banner is visible even through a pipe.
fn emit(bytes: &[u8]) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(bytes).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        written => written.map_err(|e| format!("writing to stdout: {e}")),
    }
}

/// Where a served command executes: the repository directory opened
/// in-process, or a `dsv serve` across the wire. Both answer a [`Request`]
/// with a [`Response`] through the same `Dsvd::handle`.
enum Backend {
    Local(Box<Dsvd<RepoStore>>),
    Remote(dsv_net::Client),
}

impl Backend {
    /// Opens the repository operand, or dials `--remote`. `cache_bytes`
    /// sizes the local checkout cache (0 = none); a server brings its own.
    fn open(args: &Args, cache_bytes: u64) -> Result<Backend, String> {
        match args.remote() {
            Some(addr) => connect(addr).map(Backend::Remote),
            None => {
                let root = args.repo();
                let repo = persist::load(&root, true).map_err(stringify)?;
                let config = DsvdConfig {
                    cache_bytes,
                    ..DsvdConfig::default()
                };
                // With the save root, mutations persist exactly as a
                // served repository's do: commits re-save the metadata (and
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

/// `dsv commit`: one file becomes the next version on a branch.
fn commit(args: &Args) -> Result<(), String> {
    let online = args.has("--online");
    let theta = args.parsed("--theta")?;
    let hops: Option<u32> = args.parsed("--online-hops")?;
    if hops.is_some() && !online {
        return Err("--online-hops requires --online".into());
    }
    let file = args.rest()[0];
    let data = std::fs::read(file).map_err(|e| format!("reading {file}: {e}"))?;
    let branch = args.value("-b").unwrap_or("main");
    let req = Request::Commit {
        token: dsv_net::client::next_token(),
        branch: branch.to_owned(),
        message: args.value("-m").unwrap_or("(no message)").to_owned(),
        online,
        hops: hops.unwrap_or(dsv_vcs::OnlineOptions::default().hops as u32),
        theta,
        data,
    };
    match Backend::open(args, 0)?.call(req)? {
        Response::CommitOk { id, bytes, online } => {
            let (id, how) = (CommitId(id), if online { ", online placement" } else { "" });
            writeln!(Out, "committed {id} on '{branch}' ({bytes} bytes{how})")?;
            Ok(())
        }
        other => Err(unexpected(&other)),
    }
}

/// `dsv checkout`: one version to a file or stdout, or a measured sweep
/// over several.
fn checkout(args: &Args) -> Result<(), String> {
    if args.remote().is_some() && args.has("--cache-bytes") {
        return Err(
            "--cache-bytes is server-side with --remote: every remote checkout \
             is served through the server's shared cache (see: dsv serve --cache-bytes)"
                .into(),
        );
    }
    let cache_bytes = args.parsed("--cache-bytes")?.unwrap_or(0);
    let out_path = args.value("-o");
    let versions: Vec<CommitId> = args
        .rest()
        .iter()
        .map(|s| parse_version(s))
        .collect::<Result<_, _>>()?;
    if versions.len() > 1 && out_path.is_some() {
        return Err("-o needs exactly one version".into());
    }
    let mut backend = Backend::open(args, cache_bytes)?;
    let mut checkout =
        |version: CommitId| match backend.call(Request::Checkout { version: version.0 })? {
            Response::CheckoutOk { data, work } => Ok((data, work)),
            other => Err(unexpected(&other)),
        };
    if let [version] = versions[..] {
        let (data, _work) = checkout(version)?;
        match out_path {
            Some(path) => {
                std::fs::write(path, &data).map_err(|e| e.to_string())?;
                let bytes = data.len();
                writeln!(Out, "checked out {version} to {path} ({bytes} bytes)")?;
            }
            None => emit(&data)?,
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
        writeln!(
            Out,
            "{version}: {} bytes (read {}, cache hits {}, saved {})",
            data.len(),
            work.bytes_read,
            work.cache_hits,
            work.bytes_saved
        )?;
    }
    writeln!(
        Out,
        "total: read {} bytes, {} cache hits, saved {} bytes",
        total.bytes_read, total.cache_hits, total.bytes_saved
    )?;
    // Local epilogue: this process owns the cache.
    if let Backend::Local(dsvd) = &backend {
        if let Some(cache) = dsvd.cache() {
            print_cache_stats("cache", &cache.stats())?;
        }
    }
    Ok(())
}

/// `dsv optimize`: re-plan and repack under one of the six problems.
/// Which chunker a `--hybrid` solve uses on a chunked-placement
/// repository is the handler's rule (`Dsvd`), not the command line's.
fn optimize(args: &Args) -> Result<(), String> {
    let problem = parse_problem(args.rest())?;
    let reveal_hops = args.parsed("--hops")?.unwrap_or(5);
    let hop_bound = args.parsed("--hop-bound")?;
    let portfolio = args.has("--portfolio");
    let named = args.value("--solver");
    if portfolio && named.is_some() {
        return Err("--portfolio and --solver are mutually exclusive".into());
    }
    let solver = if portfolio {
        SolverChoice::Portfolio
    } else if let Some(name) = named {
        // Catch typos before the repository is loaded (or the network
        // crossed) and re-diffed.
        if dsv_core::solvers::by_name(name).is_none() {
            return Err(format!(
                "no solver named '{name}' in the registry (see: dsv solvers)"
            ));
        }
        SolverChoice::Named(name.to_owned())
    } else {
        SolverChoice::Auto
    };
    let mode = match (args.has("--hybrid"), args.has("--binary")) {
        (true, true) => return Err("--hybrid and --binary are mutually exclusive".into()),
        (true, false) => {
            let c = ChunkerParams::default();
            WireMode::Hybrid {
                min_size: c.min_size() as u64,
                avg_size: c.avg_size() as u64,
                max_size: c.max_size() as u64,
            }
        }
        (false, true) => WireMode::Binary,
        (false, false) => WireMode::Auto,
    };
    let req = Request::Optimize {
        problem,
        solver,
        mode,
        reveal_hops,
        hop_bound,
    };
    match Backend::open(args, 0)?.call(req)? {
        Response::OptimizeOk(summary) => {
            print_optimize_summary(&summary)?;
            // Local epilogue: the journal outlives an optimize only when
            // collecting the old plan's objects did not finish (the wire
            // summary has no field for it; `fsck` reports it either way).
            if args.remote().is_none() && !matches!(persist::read_journal(&args.repo()), Ok(None)) {
                eprintln!(
                    "dsv: warning: the old layout was not fully collected; \
                     `dsv fsck {} --repair` will finish it",
                    args.operands[0]
                );
            }
            Ok(())
        }
        other => Err(unexpected(&other)),
    }
}

/// `optimize`'s operands after the repository: the problem (default p1)
/// and, for p3–p6, its bound in bytes.
fn parse_problem(operands: &[&str]) -> Result<Problem, String> {
    let which = operands.first().copied().unwrap_or("p1");
    let bound = || -> Result<u64, String> {
        let bound = operands
            .get(1)
            .ok_or_else(|| format!("{which} needs a bound in bytes"))?;
        bound
            .parse()
            .map_err(|_| format!("invalid {which} bound '{bound}'"))
    };
    let problem = match which {
        "p1" => Problem::MinStorage,
        "p2" => Problem::MinRecreation,
        "p3" => Problem::MinSumRecreationGivenStorage { beta: bound()? },
        "p4" => Problem::MinMaxRecreationGivenStorage { beta: bound()? },
        "p5" => Problem::MinStorageGivenSumRecreation { theta: bound()? },
        "p6" => Problem::MinStorageGivenMaxRecreation { theta: bound()? },
        other => return Err(format!("unknown problem '{other}' (p1..p6)")),
    };
    if operands.len() > 1 && matches!(problem, Problem::MinStorage | Problem::MinRecreation) {
        return Err(format!("{which} takes no bound"));
    }
    Ok(problem)
}

/// `dsv stats [--json]`: one `Stats` request, rendered for a person or as
/// JSON.
fn stats(args: &Args) -> Result<(), String> {
    let mut backend = Backend::open(args, 0)?;
    let summary = match backend.call(Request::Stats)? {
        Response::StatsOk(summary) => summary,
        other => return Err(unexpected(&other)),
    };
    if args.has("--json") {
        let json = store_stats_json(&summary.stats, summary.logical_bytes);
        return writeln!(Out, "{json}");
    }
    print_store_stats(&summary.stats, summary.logical_bytes)?;
    if let Some(cache) = &summary.cache {
        print_cache_stats("server cache", cache)?;
    }
    // Local epilogue: the work was done in this process.
    let metrics = obs::metrics().snapshot();
    if matches!(backend, Backend::Local(_)) && !metrics.is_empty() {
        writeln!(Out, "metrics this process:")?;
        write!(Out, "{}", metrics.render())?;
    }
    Ok(())
}

/// `dsv fsck [--repair]`: nonzero exit when the repository is not clean.
fn fsck(args: &Args) -> Result<(), String> {
    let repair = args.has("--repair");
    match Backend::open(args, 0)?.call(Request::Fsck { repair })? {
        Response::FsckOk(summary) => {
            writeln!(Out, "{summary}")?;
            if summary.clean {
                Ok(())
            } else if repair {
                Err("repository is not clean after repair".into())
            } else {
                let target = match args.remote() {
                    Some(addr) => format!("--remote {addr} fsck"),
                    None => format!("fsck {}", args.operands[0]),
                };
                Err(format!(
                    "repository is not clean (try: dsv {target} --repair)"
                ))
            }
        }
        other => Err(unexpected(&other)),
    }
}

/// `dsv --remote <addr> ping`.
fn ping(args: &Args) -> Result<(), String> {
    let addr = args.remote().unwrap_or_default();
    connect(addr)?.ping().map_err(stringify)?;
    writeln!(Out, "pong from {addr} (protocol v{PROTOCOL_VERSION})")
}

/// `dsv --remote <addr> shutdown`.
fn shutdown(args: &Args) -> Result<(), String> {
    let addr = args.remote().unwrap_or_default();
    connect(addr)?.shutdown().map_err(stringify)?;
    writeln!(Out, "server at {addr} shutting down")
}

/// `dsv serve <dir>`: the repository at `dir` — or with `--store-server`
/// the bare object store — over the wire until a client sends `Shutdown`.
fn serve(args: &Args) -> Result<(), String> {
    let root = args.repo();
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7411");
    let mut config = DsvdConfig::default();
    if let Some(bytes) = args.parsed("--cache-bytes")? {
        config.cache_bytes = bytes;
    }
    if let Some(bytes) = args.parsed("--max-frame")? {
        if bytes < MIN_MAX_FRAME {
            return Err(format!(
                "invalid --max-frame '{bytes}' (need at least {MIN_MAX_FRAME} bytes, \
                 the Hello request's body)"
            ));
        }
        config.max_frame = bytes;
    }
    if let Some(ms) = args.parsed::<u64>("--read-timeout-ms")? {
        config.read_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    let server = Server::bind_with(
        addr,
        ServerOptions {
            workers: args.parsed("--workers")?.unwrap_or(0),
            ..ServerOptions::default()
        },
    )
    .map_err(|e| format!("binding {addr}: {e}"))?;
    // Scripts poll this line before connecting; `emit` flushes it.
    let announce = |what: String| {
        let (at, workers) = (server.local_addr(), server.workers());
        writeln!(
            Out,
            "dsv: {what} at {at} ({workers} workers, protocol v{PROTOCOL_VERSION})"
        )
    };
    if args.has("--store-server") {
        // There is no commit DAG, so no recovery pass: every object is
        // self-verifying by address and puts are idempotent. What a
        // crashed put can leave is its staging file; this process now
        // owns the directory, so it drops them.
        let store = FileStore::open(&root.join("objects"), true).map_err(stringify)?;
        persist::sweep_unpublished(&root).map_err(stringify)?;
        // Enumerated rather than read off `stats`: a store that cannot
        // list its directory must not come up announcing 0 objects.
        let objects = store.object_ids().map_err(stringify)?.len();
        let service = StoreService::new(
            store,
            StoreServiceConfig {
                max_frame: config.max_frame,
                read_timeout: config.read_timeout,
            },
        );
        announce(format!(
            "store server {} ({objects} objects)",
            root.display()
        ))?;
        service.serve(&server);
    } else {
        // A killed predecessor's repack journal is resolved, the history
        // verified and orphans collected before the first request: the
        // server starts on a clean repository or not at all.
        let (repo, report) = dsv_vcs::fsck::recover_at(&root, true).map_err(stringify)?;
        match &report.recovery {
            Some(dsv_vcs::Recovery::Clean) | None => {}
            Some(rec) => writeln!(Out, "dsv: recovery: {rec:?}")?,
        }
        let orphans = report.orphans_removed;
        if orphans > 0 {
            writeln!(Out, "dsv: recovery: {orphans} orphans removed")?;
        }
        if !report.is_clean() {
            return Err(format!("repository fails fsck after recovery: {report}"));
        }
        let versions = repo.version_count();
        let dsvd = Dsvd::new(repo, config).with_save_root(root.clone());
        announce(format!("serving {} ({versions} versions)", root.display()))?;
        dsvd.serve(&server);
    }
    writeln!(Out, "dsv: shutdown requested, exiting")
}

/// `dsv init`. A bad `--shards` / `--remote-shards` value fails here
/// rather than producing a flat layout: there is no re-shard path later.
fn init(args: &Args) -> Result<(), String> {
    let shards = args
        .value("--shards")
        .map(|v| match v.parse() {
            Ok(n) if (1..=MAX_SHARDS).contains(&n) => Ok(n),
            _ => Err(format!(
                "invalid --shards '{v}' (need an integer in 1..={MAX_SHARDS})"
            )),
        })
        .transpose()?;
    let remote_shards = match args.value("--remote-shards") {
        None => None,
        Some(v) => {
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
            Some(addrs)
        }
    };
    let root = args.repo();
    if root.join("meta.dsv").exists() {
        return Err(format!("{} is already a repository", root.display()));
    }
    let objects = root.join("objects");
    let store = match (shards, &remote_shards) {
        (None, None) => RepoStore::Flat(FileStore::open(&objects, true).map_err(stringify)?),
        (Some(n), None) => {
            RepoStore::Sharded(ShardedStore::open_sharded(&objects, n, true).map_err(stringify)?)
        }
        // Dial every shard server up front: an unreachable address
        // fails init instead of the first commit.
        (None, Some(addrs)) => {
            RepoStore::Remote(persist::connect_remote_shards(addrs).map_err(stringify)?)
        }
        (Some(_), Some(_)) => {
            return Err("--shards and --remote-shards are mutually exclusive".into())
        }
    };
    let repo: Repository<RepoStore> = Repository::init(store);
    persist::save(&repo, &root).map_err(stringify)?;
    let layout = match (shards, &remote_shards) {
        (Some(n), _) => format!(" ({n} object shards)"),
        (_, Some(addrs)) => format!(" ({} remote shards: {})", addrs.len(), addrs.join(", ")),
        (None, None) => String::new(),
    };
    let root = root.display();
    writeln!(Out, "initialized empty dsv repository at {root}{layout}")
}

fn log(args: &Args) -> Result<(), String> {
    let branch = args.rest().first().copied().unwrap_or("main");
    let repo = persist::load(&args.repo(), true).map_err(stringify)?;
    for meta in repo.log(branch).map_err(stringify)? {
        let merge = if meta.is_merge() { " (merge)" } else { "" };
        writeln!(
            Out,
            "{}{merge}  {} bytes  {}",
            meta.id, meta.size, meta.message
        )?;
    }
    Ok(())
}

fn branch(args: &Args) -> Result<(), String> {
    let root = args.repo();
    let (name, from) = (args.operands[1], parse_version(args.operands[2])?);
    let mut repo = persist::load(&root, true).map_err(stringify)?;
    repo.branch(name, from).map_err(stringify)?;
    persist::save(&repo, &root).map_err(stringify)?;
    writeln!(Out, "branch '{name}' -> {from}")?;
    Ok(())
}

fn branches(args: &Args) -> Result<(), String> {
    let repo = persist::load(&args.repo(), true).map_err(stringify)?;
    for (name, head) in repo.branches() {
        writeln!(Out, "{name} -> {head}")?;
    }
    Ok(())
}

fn status(args: &Args) -> Result<(), String> {
    let repo = persist::load(&args.repo(), true).map_err(stringify)?;
    let plan = repo.current_plan();
    let materialized = plan
        .iter()
        .filter(|m| matches!(m, dsv_core::StorageMode::Materialized))
        .count();
    let chunked = plan.iter().filter(|m| m.is_chunked()).count();
    writeln!(
        Out,
        "{} versions, {} branches, {} materialized, {} chunked, {} bytes on disk",
        repo.version_count(),
        repo.branches().count(),
        materialized,
        chunked,
        repo.storage_bytes()
    )?;
    Ok(())
}

fn solvers(_: &Args) -> Result<(), String> {
    let problems = [
        Problem::MinStorage,
        Problem::MinRecreation,
        Problem::MinSumRecreationGivenStorage { beta: 0 },
        Problem::MinMaxRecreationGivenStorage { beta: 0 },
        Problem::MinStorageGivenSumRecreation { theta: 0 },
        Problem::MinStorageGivenMaxRecreation { theta: 0 },
    ];
    let header = ("name", "hybrid", "problems", "description");
    writeln!(
        Out,
        "{:<12} {:<8} {:<22} {}",
        header.0, header.1, header.2, header.3
    )?;
    for solver in &SOLVERS {
        let supported: Vec<String> = problems
            .iter()
            .filter_map(|p| match solver.support(*p)? {
                Support::Exact => Some(format!("{}(exact)", p.number())),
                Support::Heuristic => Some(p.number().to_string()),
            })
            .collect();
        let hybrid = if solver.hybrid_capable { "yes" } else { "no" };
        let (name, about) = (solver.name, solver.description);
        writeln!(
            Out,
            "{name:<12} {hybrid:<8} {:<22} {about}",
            supported.join(" ")
        )?;
    }
    Ok(())
}

/// Renders an optimize outcome.
fn print_optimize_summary(s: &OptimizeSummary) -> Result<(), String> {
    writeln!(
        Out,
        "{}: {} -> {} bytes on disk, planned C {} ({} materialized, {} chunked, planned maxR {})",
        s.problem,
        s.storage_before,
        s.storage_after,
        s.planned_storage_cost,
        s.materialized,
        s.chunked,
        s.planned_max_recreation
    )?;
    if !s.portfolio {
        let infeasible = if s.feasible { "" } else { "  [infeasible]" };
        writeln!(Out, "solver: {}{infeasible}", s.solver)?;
        return Ok(());
    }
    writeln!(
        Out,
        "portfolio: {} candidates, winner {}",
        s.candidates.len(),
        s.solver
    )?;
    for c in &s.candidates {
        match &c.outcome {
            Ok(n) => writeln!(
                Out,
                "  {:<12} objective {} (C {}, ΣR {}, maxR {}){}",
                c.solver,
                n.objective,
                n.storage,
                n.sum_recreation,
                n.max_recreation,
                if n.feasible { "" } else { "  [infeasible]" }
            )?,
            Err(e) => writeln!(Out, "  {:<12} error: {e}", c.solver)?,
        }
    }
    Ok(())
}

/// One line of checkout-cache fill and hit counters; `whose` says which
/// process owns the cache.
fn print_cache_stats(whose: &str, s: &CacheStats) -> Result<(), String> {
    writeln!(
        Out,
        "{whose}: {}/{} bytes used, {} entries, {} hits / {} misses, {} evictions",
        s.bytes, s.budget_bytes, s.entries, s.hits, s.misses, s.evictions
    )?;
    Ok(())
}

/// Renders a [`StoreStats`] snapshot — works for any `ObjectStore`
/// (memory or file, flat or sharded); `logical_bytes` is the raw size of
/// all committed versions, giving the dedup/delta ratio.
fn print_store_stats(stats: &StoreStats, logical_bytes: u64) -> Result<(), String> {
    let layout = if stats.shards.is_empty() {
        "flat".to_owned()
    } else {
        format!("{} shards", stats.shards.len())
    };
    writeln!(
        Out,
        "{} objects, {} bytes on disk ({layout})",
        stats.objects, stats.bytes
    )?;
    if stats.bytes > 0 {
        writeln!(
            Out,
            "dedup ratio: {:.2}x ({logical_bytes} logical bytes)",
            logical_bytes as f64 / stats.bytes as f64
        )?;
    }
    if !stats.shards.is_empty() {
        writeln!(
            Out,
            "shard fill (imbalance {:.2}, 1.00 = even):",
            stats.shard_imbalance()
        )?;
        for (i, s) in stats.shards.iter().enumerate() {
            let pct = if stats.objects > 0 {
                100.0 * s.objects as f64 / stats.objects as f64
            } else {
                0.0
            };
            writeln!(
                Out,
                "  shard-{i:<3} {:>8} objects {:>12} bytes  {pct:>5.1}%",
                s.objects, s.bytes
            )?;
        }
    }
    let ops = &stats.ops;
    writeln!(
        Out,
        "ops this process: {} put / {} get single; {} put_batch ({} objects), \
         {} get_batch ({} objects), {} removes",
        ops.puts,
        ops.gets,
        ops.batch_puts,
        ops.batch_put_objects,
        ops.batch_gets,
        ops.batch_get_objects,
        ops.removes
    )?;
    Ok(())
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

fn parse_version(s: &str) -> Result<CommitId, String> {
    let digits = s.strip_prefix('v').unwrap_or(s);
    digits
        .parse::<u32>()
        .map(CommitId)
        .map_err(|_| format!("invalid version '{s}'"))
}

fn stringify(e: impl std::fmt::Display) -> String {
    e.to_string()
}
