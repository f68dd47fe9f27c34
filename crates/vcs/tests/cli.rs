//! Drives the real `dsv` binary: every command both backends serve must
//! print the same thing whether it runs against a local repository
//! directory or through `--remote` against a `dsv serve` serving an
//! identical one.
//!
//! The expected transcripts were recorded from the last commit in which
//! the local and `--remote` halves of `dsv` were separate code (local
//! output; the remote `fsck` line differed there — that was a bug). They
//! are the oracle for the single dispatch path: the same bytes, the same
//! exit codes, the same error text.
//!
//! What may differ between the backends, and is masked or run on one
//! side only: operation counters are per process (the CLI's own locally,
//! the server's remotely), local `stats` appends this process's metrics,
//! and a local multi-version checkout with `--cache-bytes` appends the
//! cache line — remotely the cache is the server's and the flag is
//! rejected.
//!
//! Beside the transcripts, drills run the operator's workflows end to
//! end: online commits and plan ≡ store, a traced sharded optimize and
//! `stats --json`, a traced served repository, remote store shards and a
//! dead one, a `DSV_FAULT` crash and its repair, and a SIGKILLed server's
//! restart. They assert span names and JSON keys by substring. The
//! mistakes `dsv serve` itself can be handed end in `dsv: …` and exit 1.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

const DSV: &str = env!("CARGO_BIN_EXE_dsv");

/// A scratch directory holding two identical repositories — `L`, driven
/// locally, and `R`, served by a spawned `dsv serve` — plus the version
/// files.
struct Sandbox {
    dir: PathBuf,
    addr: String,
    /// The child and its stdout, kept open so the server's exit line has
    /// somewhere to go.
    server: Option<(Child, BufReader<ChildStdout>)>,
}

struct Ran {
    code: i32,
    stdout: String,
    stderr: String,
}

impl Sandbox {
    fn new(name: &str) -> Sandbox {
        let dir = std::env::temp_dir().join(format!("dsv-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Five versions of one table: each appends a row and edits one.
        let mut rows: Vec<String> = (0..400)
            .map(|i| format!("{i},name{i},{}\n", i * 31 % 97))
            .collect();
        for v in 0..5 {
            rows.push(format!("{},appended{v},{v}\n", 1000 + v));
            rows[v * 7 + 3] = format!("{},edited{v},0\n", v * 7 + 3);
            let body = format!("id,name,val\n{}", rows.concat());
            std::fs::write(dir.join(format!("v{v}.csv")), body).unwrap();
        }
        let sandbox = Sandbox {
            dir,
            addr: String::new(),
            server: None,
        };
        for repo in ["L", "R"] {
            assert_eq!(sandbox.dsv(&["init", repo]).code, 0);
        }
        sandbox
    }

    /// Serves `R`. The cache is off so recreation work reads the same as
    /// the cacheless local side.
    fn serve(&mut self) {
        let daemon = self.daemon(&["R", "--cache-bytes", "0", "--workers", "2"]);
        self.addr = daemon.addr.clone();
        self.server = daemon.detach();
    }

    /// `dsv serve <args…> --addr 127.0.0.1:0`, once it has announced its
    /// address.
    fn daemon(&self, args: &[&str]) -> Daemon {
        let mut child = Command::new(DSV)
            .current_dir(&self.dir)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        // "dsv: serving R (0 versions) at 127.0.0.1:PORT (2 workers, …)",
        // "dsv: store server S (0 objects) at 127.0.0.1:PORT (…)"
        let addr = line.split(" at ").nth(1).and_then(|s| s.split(' ').next());
        let addr = addr.unwrap_or_else(|| panic!("no address in {line:?}"));
        Daemon {
            child: Some((child, stdout)),
            addr: addr.to_owned(),
        }
    }

    fn dsv(&self, args: &[&str]) -> Ran {
        self.dsv_env(args, None)
    }

    fn dsv_env(&self, args: &[&str], fault: Option<&str>) -> Ran {
        let mut cmd = Command::new(DSV);
        cmd.current_dir(&self.dir)
            .args(args)
            .env_remove("DSV_TRACE");
        match fault {
            Some(spec) => cmd.env("DSV_FAULT", spec),
            None => cmd.env_remove("DSV_FAULT"),
        };
        let out = cmd.output().unwrap();
        Ran {
            code: out.status.code().unwrap_or(-1),
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        }
    }

    /// `dsv <cmd> L <rest…>`.
    fn local(&self, args: &[&str]) -> Ran {
        let mut full = vec![args[0], "L"];
        full.extend(&args[1..]);
        self.dsv(&full)
    }

    /// `dsv --remote <addr> <cmd> <rest…>`.
    fn remote(&self, args: &[&str]) -> Ran {
        let mut full = vec!["--remote", &self.addr];
        full.extend(args);
        self.dsv(&full)
    }

    fn read(&self, file: &str) -> Vec<u8> {
        std::fs::read(self.dir.join(file)).unwrap()
    }

    fn text(&self, file: &str) -> String {
        String::from_utf8(self.read(file)).unwrap()
    }

    /// Runs `dsv <args…>` and requires exit 0.
    fn ok(&self, args: &[&str]) -> Ran {
        let ran = self.dsv(args);
        assert_eq!(ran.code, 0, "{args:?}: {}", ran.stderr);
        ran
    }
}

/// A `dsv serve` a test started; SIGKILLed if the test did not stop it.
struct Daemon {
    /// The child and its stdout, kept open so the server's exit line has
    /// somewhere to go.
    child: Option<(Child, BufReader<ChildStdout>)>,
    addr: String,
}

impl Daemon {
    /// SIGKILLs the server and reaps it.
    fn kill(&mut self) {
        if let Some((mut child, _stdout)) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Waits for a server that was asked to shut down.
    fn wait(mut self) -> i32 {
        let (mut child, _stdout) = self.child.take().unwrap();
        child.wait().unwrap().code().unwrap_or(-1)
    }

    /// Hands the child to a caller that stops it itself.
    fn detach(mut self) -> Option<(Child, BufReader<ChildStdout>)> {
        self.child.take()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Whether a `--trace-json` tree holds a span named `name`.
fn has_span(trace: &str, name: &str) -> bool {
    trace.contains(&format!("\"name\": \"{name}\""))
}

/// Whether `stdout` is a `stats --json` object: its keys, in one object.
fn is_store_json(stdout: &str) -> bool {
    let json = stdout.trim();
    let keys = [
        "objects",
        "bytes",
        "logical_bytes",
        "shards",
        "ops",
        "metrics",
    ];
    json.starts_with('{')
        && json.ends_with('}')
        && keys.iter().all(|k| json.contains(&format!("\"{k}\": ")))
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        if let Some((mut server, _stdout)) = self.server.take() {
            if self.remote(&["shutdown"]).code != 0 {
                let _ = server.kill();
            }
            let _ = server.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Strips what is documented to differ per backend (see the module
/// docs) from a `stats` / `stats --json` transcript.
fn masked(stdout: &str) -> String {
    let json = stdout.split("\"ops\":").next().unwrap();
    json.split("metrics this process:")
        .next()
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with("ops this process:"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The same command on both backends: exit code and (masked) stdout
/// must equal the recorded transcript on each side. Returns the local
/// and the remote run.
fn both(sandbox: &Sandbox, args: &[&str], code: i32, stdout: &str) -> [Ran; 2] {
    let runs = [sandbox.local(args), sandbox.remote(args)];
    for (side, ran) in ["local", "remote"].iter().zip(&runs) {
        assert_eq!(ran.code, code, "{side} {args:?}: {}", ran.stderr);
        assert_eq!(masked(&ran.stdout), stdout, "{side} {args:?}");
    }
    runs
}

/// A command both backends must reject with the same message, exit 1.
fn both_reject(sandbox: &Sandbox, args: &[&str], message: &str) {
    for (side, ran) in [
        ("local", sandbox.local(args)),
        ("remote", sandbox.remote(args)),
    ] {
        assert_eq!(ran.code, 1, "{side} {args:?}");
        assert_eq!(ran.stdout, "", "{side} {args:?}");
        assert_eq!(ran.stderr, format!("dsv: {message}\n"), "{side} {args:?}");
    }
}

#[test]
fn local_and_remote_print_the_same() {
    let mut sandbox = Sandbox::new("parity");
    sandbox.serve();
    let s = &sandbox;

    both(
        s,
        &["commit", "v0.csv"],
        0,
        "committed v0 on 'main' (5769 bytes)\n",
    );
    both(
        s,
        &[
            "commit",
            "v1.csv",
            "--online",
            "--online-hops",
            "2",
            "--theta",
            "100000",
        ],
        0,
        "committed v1 on 'main' (5786 bytes, online placement)\n",
    );
    both(
        s,
        &["commit", "v2.csv", "-b", "main", "-m", "third"],
        0,
        "committed v2 on 'main' (5803 bytes)\n",
    );
    both(
        s,
        &["commit", "-m", "fourth", "v3.csv"],
        0,
        "committed v3 on 'main' (5820 bytes)\n",
    );

    // Single-version checkout: to a file, and streamed to stdout.
    both(
        s,
        &["checkout", "1", "-o", "out.csv"],
        0,
        "checked out v1 to out.csv (5786 bytes)\n",
    );
    assert_eq!(s.read("out.csv"), s.read("v1.csv"));
    for ran in [s.local(&["checkout", "v3"]), s.remote(&["checkout", "v3"])] {
        assert_eq!(ran.code, 0);
        assert_eq!(ran.stdout.as_bytes(), s.read("v3.csv"));
    }
    // Multi-version checkout reports recreation work per version.
    both(
        s,
        &["checkout", "v0", "v1", "v2"],
        0,
        "v0: 5769 bytes (read 5769, cache hits 0, saved 0)\
         \nv1: 5786 bytes (read 5804, cache hits 0, saved 0)\
         \nv2: 5803 bytes (read 5839, cache hits 0, saved 0)\
         \ntotal: read 17412 bytes, 0 cache hits, saved 0 bytes\n",
    );

    both(s, &["optimize", "p1", "--solver", "mst"], 0, "P1: minimize storage: 3064 -> 3048 bytes on disk, planned C 3048 (1 materialized, 0 chunked, planned maxR 5871)\
         \nsolver: mst\n");
    both(s, &["optimize", "p3", "30000", "--solver", "lmg"], 0, "P3: minimize ΣRi s.t. C ≤ 30000: 3048 -> 11685 bytes on disk, planned C 11685 (4 materialized, 0 chunked, planned maxR 5820)\
         \nsolver: lmg\n");
    both(s, &["optimize", "p6", "60000", "--portfolio", "--hybrid"], 0, "P6: minimize C s.t. max Ri ≤ 60000: 11685 -> 3214 bytes on disk, planned C 864 (0 materialized, 1 chunked, planned maxR 5983)\
         \nportfolio: 7 candidates, winner ilp\
         \n  mst          objective 864 (C 864, ΣR 23830, maxR 5983)\
         \n  spt          objective 23178 (C 23178, ΣR 23178, maxR 5820)\
         \n  ilp          objective 864 (C 864, ΣR 23830, maxR 5983)\
         \n  mp           objective 866 (C 866, ΣR 23714, maxR 5968)\
         \n  last         objective 864 (C 864, ΣR 23830, maxR 5983)\
         \n  gith         objective 864 (C 864, ΣR 23830, maxR 5983)\
         \n  hop          objective 866 (C 866, ΣR 23714, maxR 5968)\n");
    for ran in both(
        s,
        &["stats", "--json"],
        0,
        "{\"objects\": 10, \"bytes\": 3214, \"logical_bytes\": 23178, \"shards\": [], \n",
    ) {
        assert!(is_store_json(&ran.stdout), "{}", ran.stdout);
    }
    both(
        s,
        &["stats"],
        0,
        "10 objects, 3214 bytes on disk (flat)\
         \ndedup ratio: 7.21x (23178 logical bytes)\n",
    );
    both(
        s,
        &["fsck"],
        0,
        "fsck: 4 versions, 10 objects checked; clean\n",
    );
    both(
        s,
        &["fsck", "--repair"],
        0,
        "fsck: 4 versions, 10 objects checked; clean\n",
    );

    // After the repacks every version still reads back byte-identical.
    for v in 0..4 {
        let file = format!("v{v}.csv");
        let line = format!(
            "checked out v{v} to out.csv ({} bytes)\n",
            s.read(&file).len()
        );
        both(s, &["checkout", &v.to_string(), "-o", "out.csv"], 0, &line);
        assert_eq!(s.read("out.csv"), s.read(&file));
    }

    // A commit that dies writing its metadata leaves orphaned objects in
    // both object directories (the server enumerates R's from disk): fsck must
    // flag them with the same line and a nonzero exit on both sides —
    // each naming the command that repairs *that* backend — and --repair
    // must collect them.
    for repo in ["L", "R"] {
        let doomed = s.dsv_env(&["commit", repo, "v4.csv"], Some("fail:0:meta"));
        assert_eq!(doomed.code, 1, "{}", doomed.stdout);
    }
    let [local, remote] = both(
        s,
        &["fsck"],
        1,
        "fsck: 4 versions, 11 objects checked; 1 orphans; NOT CLEAN\n",
    );
    assert_eq!(
        local.stderr,
        "dsv: repository is not clean (try: dsv fsck L --repair)\n"
    );
    assert_eq!(
        remote.stderr,
        format!(
            "dsv: repository is not clean (try: dsv --remote {} fsck --repair)\n",
            s.addr
        )
    );
    both(
        s,
        &["fsck", "--repair"],
        0,
        "fsck: 4 versions, 11 objects checked; 1 orphans removed; clean\n",
    );
    both(
        s,
        &["fsck"],
        0,
        "fsck: 4 versions, 10 objects checked; clean\n",
    );
}

#[test]
fn both_backends_reject_the_same_mistakes() {
    let mut sandbox = Sandbox::new("reject");
    sandbox.serve();
    let s = &sandbox;
    both(
        s,
        &["commit", "v0.csv"],
        0,
        "committed v0 on 'main' (5769 bytes)\n",
    );

    both_reject(
        s,
        &["commit", "v1.csv", "--online-hops", "2"],
        "--online-hops requires --online",
    );
    both_reject(
        s,
        &["commit", "v1.csv", "--bogus"],
        "unknown commit flag '--bogus' (see: dsv help)",
    );
    both_reject(
        s,
        &["checkout", "0", "--bogus"],
        "unknown checkout flag '--bogus' (see: dsv help)",
    );
    both_reject(
        s,
        &["optimize", "p1", "--bogus"],
        "unknown optimize flag '--bogus' (see: dsv help)",
    );
    both_reject(
        s,
        &["optimize", "p1", "--portfolio", "--solver", "lmg"],
        "--portfolio and --solver are mutually exclusive",
    );
    both_reject(
        s,
        &["optimize", "p1", "--solver", "nosuch"],
        "no solver named 'nosuch' in the registry (see: dsv solvers)",
    );
    both_reject(
        s,
        &["optimize", "p1", "--solver", "lmg"],
        "optimizer error: solver 'lmg' does not support problem 1",
    );
    both_reject(s, &["checkout", "99"], "unknown commit v99");
    both_reject(
        s,
        &["checkout", "0", "1", "-o", "out.csv"],
        "-o needs exactly one version",
    );

    // The cache is the server's with --remote; locally the flag works and
    // a multi-version checkout ends with the cache line.
    let remote = s.remote(&["checkout", "0", "--cache-bytes", "1000"]);
    assert_eq!(remote.code, 1);
    assert_eq!(
        remote.stderr,
        "dsv: --cache-bytes is server-side with --remote: every remote checkout \
         is served through the server's shared cache (see: dsv serve --cache-bytes)\n"
    );
    let local = s.local(&["checkout", "0", "0", "--cache-bytes", "1048576"]);
    assert_eq!(local.code, 0, "{}", local.stderr);
    assert_eq!(
        local.stdout,
        "v0: 5769 bytes (read 5769, cache hits 0, saved 0)\n\
         v0: 5769 bytes (read 0, cache hits 1, saved 5769)\n\
         total: read 5769 bytes, 1 cache hits, saved 5769 bytes\n\
         cache: 5769/1048576 bytes used, 1 entries, 1 hits / 1 misses, 0 evictions\n"
    );
}

/// Online commits re-plan locally: their trace holds the online, reveal
/// and place spans and no repack. After an optimize the plan's storage
/// cost is the bytes on disk.
#[test]
fn online_commits_place_locally_and_optimize_stores_what_it_plans() {
    let s = Sandbox::new("online");
    for v in 0..4 {
        let file = format!("v{v}.csv");
        s.ok(&[
            "commit",
            "L",
            &file,
            "--online",
            "--trace-json",
            "online.json",
        ]);
    }
    let trace = s.text("online.json");
    for span in ["commit", "online", "reveal", "place"] {
        assert!(has_span(&trace, span), "no {span} span: {trace}");
    }
    for span in ["pack", "gc"] {
        assert!(
            !has_span(&trace, span),
            "an online commit ran {span}: {trace}"
        );
    }
    // "P1: minimize storage: A -> B bytes on disk, planned C B (…)"
    let optimized = s.ok(&["optimize", "L", "p1"]).stdout;
    let field = |after: &str| optimized.split(after).nth(1)?.split(' ').next();
    let (on_disk, planned) = (field(" -> "), field("planned C "));
    assert!(on_disk.is_some() && on_disk == planned, "{optimized}");
    s.ok(&[
        "checkout",
        "L",
        "v0",
        "v1",
        "v2",
        "v3",
        "--cache-bytes",
        "1048576",
    ]);
}

/// A sharded repository's optimize traces every phase, and `stats
/// --json` reports the shards.
#[test]
fn a_sharded_optimize_traces_every_phase_and_store_reports_json() {
    let s = Sandbox::new("observe");
    s.ok(&["init", "S", "--shards", "4"]);
    for v in 0..4 {
        s.ok(&["commit", "S", &format!("v{v}.csv")]);
    }
    s.ok(&["optimize", "S", "p1", "--trace-json", "optimize.json"]);
    let trace = s.text("optimize.json");
    for span in ["optimize", "reveal", "solve", "pack", "gc"] {
        assert!(has_span(&trace, span), "no {span} span: {trace}");
    }
    let json = s.ok(&["stats", "S", "--json"]).stdout;
    assert!(is_store_json(&json), "{json}");
    assert_eq!(json.matches("\"batch_ms\": ").count(), 4, "{json}");
}

/// A served repository traces each request down to its send, hands
/// remote clients back what they committed, and keeps it on disk for a
/// local reader.
#[test]
fn a_served_repository_traces_requests_and_keeps_remote_commits() {
    let s = Sandbox::new("serve");
    s.ok(&["commit", "R", "v0.csv"]);
    let server = s.daemon(&["R", "--trace-json", "serve.json"]);
    let remote = |args: &[&str]| s.ok(&[&["--remote", &server.addr][..], args].concat());
    remote(&["ping"]);
    remote(&["commit", "v1.csv", "--online"]);
    for v in ["v0", "v1"] {
        remote(&["checkout", v, "-o", "out.csv"]);
        assert_eq!(s.read("out.csv"), s.read(&format!("{v}.csv")), "{v}");
    }
    remote(&["stats"]);
    remote(&["shutdown"]);
    assert_eq!(server.wait(), 0);
    s.ok(&["checkout", "R", "v1", "-o", "out.csv"]);
    assert_eq!(s.read("out.csv"), s.read("v1.csv"));
    let trace = s.text("serve.json");
    for span in [
        "serve",
        "conn",
        "recv_wait",
        "decode",
        "handle",
        "encode",
        "send",
    ] {
        assert!(has_span(&trace, span), "no {span} span: {trace}");
    }
}

/// Two `dsv serve --store-server` shards behind one repository: meta v4
/// records the topology, the whole cycle round-trips, and with a shard
/// killed the next command fails at once, naming that shard.
#[test]
fn remote_shards_round_trip_and_a_dead_shard_is_named() {
    let s = Sandbox::new("shards");
    let [shard0, mut shard1] = ["shard0", "shard1"].map(|dir| s.daemon(&[dir, "--store-server"]));
    let (a0, a1) = (shard0.addr.clone(), shard1.addr.clone());
    s.ok(&["init", "S", "--remote-shards", &format!("{a0},{a1}")]);
    let meta = s.text("S/meta.dsv");
    assert!(
        meta.contains(&format!("store remote-sharded 2 {a0} {a1}")),
        "{meta}"
    );
    for v in 0..3 {
        s.ok(&["commit", "S", &format!("v{v}.csv")]);
    }
    s.ok(&["optimize", "S", "p1"]);
    s.ok(&["fsck", "S"]);
    for v in 0..3 {
        s.ok(&["checkout", "S", &format!("v{v}"), "-o", "out.csv"]);
        assert_eq!(s.read("out.csv"), s.read(&format!("v{v}.csv")), "v{v}");
    }
    assert!(is_store_json(&s.ok(&["stats", "S", "--json"]).stdout));

    shard1.kill();
    let dead = s.dsv(&["checkout", "S", "v0", "-o", "dead.csv"]);
    assert_eq!(dead.code, 1);
    assert!(
        dead.stderr.contains(&format!("store shard {a1}")),
        "{}",
        dead.stderr
    );
    s.ok(&["--remote", &a0, "shutdown"]);
    assert_eq!(shard0.wait(), 0);
}

/// `DSV_FAULT` kills a commit at its metadata write and a repack at its
/// swap: the repository stays loadable and fully old, fsck flags the
/// debris with a nonzero exit, and `--repair` clears it.
#[test]
fn an_injected_crash_leaves_debris_that_fsck_flags_and_repair_clears() {
    let s = Sandbox::new("crash");
    for v in 0..3 {
        s.ok(&["commit", "L", &format!("v{v}.csv")]);
    }
    let doomed = s.dsv_env(&["commit", "L", "v3.csv"], Some("fail:0:meta"));
    assert_eq!(doomed.code, 1, "{}", doomed.stdout);
    assert_eq!(s.dsv(&["fsck", "L"]).code, 1);
    s.ok(&["fsck", "L", "--repair"]);
    s.ok(&["fsck", "L"]);
    assert_ne!(
        s.dsv_env(&["optimize", "L", "p2"], Some("fail:0:meta"))
            .code,
        0
    );
    s.ok(&["fsck", "L", "--repair"]);
    for v in 0..3 {
        s.ok(&["checkout", "L", &v.to_string(), "-o", "out.csv"]);
        assert_eq!(s.read("out.csv"), s.read(&format!("v{v}.csv")), "v{v}");
    }
    assert_ne!(
        s.dsv_env(&["fsck", "L"], Some("bogus")).code,
        0,
        "a malformed DSV_FAULT"
    );
}

/// A `dsv serve` SIGKILLed after acknowledging a remote commit restarts
/// (recovering on startup) with that commit, byte-identical.
#[test]
fn a_killed_dsvd_restarts_with_every_acknowledged_commit() {
    let s = Sandbox::new("kill");
    s.ok(&["commit", "R", "v0.csv"]);
    let mut server = s.daemon(&["R"]);
    s.ok(&["--remote", &server.addr, "commit", "v1.csv"]);
    server.kill();
    let server = s.daemon(&["R"]);
    let remote = |args: &[&str]| s.ok(&[&["--remote", &server.addr][..], args].concat());
    assert!(remote(&["fsck"]).stdout.ends_with("clean\n"));
    remote(&["checkout", "1", "-o", "out.csv"]);
    assert_eq!(s.read("out.csv"), s.read("v1.csv"));
    remote(&["shutdown"]);
    assert_eq!(server.wait(), 0);
}

/// `dsv serve`'s own mistakes fail before anything binds, and `dsv help`
/// lists the command.
#[test]
fn serve_rejects_its_mistakes_and_help_lists_it() {
    let s = Sandbox::new("serve-mistakes");
    for (args, message) in [
        (
            &["serve"][..],
            "usage: dsv serve <dir> [--addr <host:port>] [--workers <n>] [--cache-bytes <n>] \
             [--max-frame <bytes>] [--read-timeout-ms <n>] [--store-server]",
        ),
        (
            &["serve", "R", "--bogus"],
            "unknown serve flag '--bogus' (see: dsv help)",
        ),
        (
            &["--remote", "127.0.0.1:1", "serve"],
            "command 'serve' is not supported over --remote \
             (supported: ping, commit, checkout, optimize, stats, fsck, shutdown)",
        ),
    ] {
        let ran = s.dsv(args);
        assert_eq!(ran.code, 1, "{args:?}");
        assert_eq!(ran.stdout, "", "{args:?}");
        assert_eq!(ran.stderr, format!("dsv: {message}\n"), "{args:?}");
    }
    let help = s.ok(&["help"]).stdout;
    assert!(help.contains("dsv serve <repo>"), "{help}");
    assert!(help.contains("--store-server"), "{help}");
}
