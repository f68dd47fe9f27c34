//! The four workloads: set-up, identical rounds, verification, metrics.
//!
//! Every workload sets up the same way — generate the seed's inputs and
//! (where rounds start from it) build the golden repository with one
//! [`lifecycle`] pass — [`SETUPS`] times over, so that `setup_s` is a
//! median. Then it runs at least [`MIN_ROUNDS`] identical rounds of its
//! own script, for at least `--seconds`, and reports what those rounds
//! did: no number comes from set-up.

use crate::gen::{Inputs, Op, Scale};
use crate::layers;
use crate::lifecycle::{self, Pass};
use crate::report::{Report, Value};
use crate::serve::{self, ClientPlan, Reopened, Round};
use crate::stats::{fast_tenth, fast_tenth_of_medians, median, tail_percentile};
use crate::sys;
use crate::trace::Recorder;
use dsv_storage::{CacheStats, DEFAULT_CACHE_BUDGET};
use dsv_vcs::{persist, CommitId, RepoStore, Repository};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The branch the serve client commits on.
const BRANCH: &str = "client";

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest timed rounds per run.
pub const MIN_ROUNDS: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LocalLifecycle,
    ServeRead,
    ServeMixed,
    ServeMixedRemote,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "local-lifecycle" => Workload::LocalLifecycle,
            "serve-read" => Workload::ServeRead,
            "serve-mixed" => Workload::ServeMixed,
            "serve-mixed-remote" => Workload::ServeMixedRemote,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalLifecycle => "local-lifecycle",
            Workload::ServeRead => "serve-read",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeMixedRemote => "serve-mixed-remote",
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

impl Options {
    fn scale(&self) -> Scale {
        if self.quick {
            Scale::QUICK
        } else {
            Scale::FULL
        }
    }
    fn setups(&self) -> usize {
        if self.quick || self.traced {
            1
        } else {
            SETUPS
        }
    }
    fn min_rounds(&self) -> usize {
        if self.quick {
            2
        } else {
            MIN_ROUNDS
        }
    }
    /// A traced run alternates untraced (even) and traced (odd) rounds:
    /// the untraced ones carry its end-to-end numbers, and the gap
    /// between the two kinds is the tracing overhead.
    fn round_is_traced(&self, n: usize) -> bool {
        self.traced && n % 2 == 1
    }
}

/// Where this run keeps its directories, and the CPU it runs on.
pub struct Env {
    pub root: PathBuf,
    pub filesystem: String,
    pub pinned_cpu: Option<usize>,
}

/// The scratch root goes when the run ends, also by panic.
impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What set-up leaves behind.
struct SetUp {
    inputs: Inputs,
    /// The golden repository, with the client's branch already forked.
    golden: Option<PathBuf>,
    /// Seconds of each set-up.
    seconds: Vec<f64>,
}

/// Generates the inputs and — with `build_golden` — the golden
/// repository, as often as the run sets up; the last of each is kept.
fn set_up(
    opts: &Options,
    env: &Env,
    build_golden: bool,
    tr: &Recorder,
    report: &mut Report,
) -> SetUp {
    let mut seconds = Vec::new();
    let mut latest: Option<(Inputs, Option<PathBuf>)> = None;
    let mut stored = None;
    for _ in 0..opts.setups() {
        if let Some((_, Some(old))) = latest.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        let started = Instant::now();
        let inputs = tr.time("workloads.generate", || {
            Inputs::generate(opts.scale(), opts.seed)
        });
        let golden = build_golden.then(|| {
            let dir = sys::fresh_dir(&env.root, "golden");
            let (pass, mut repo) = if tr.enabled() {
                layers::traced_pass(&inputs, &dir, tr)
            } else {
                lifecycle::run(&inputs, &dir, tr)
            };
            repo.branch(BRANCH, CommitId(inputs.client_fork()))
                .expect("fork exists");
            persist::save(&repo, &dir).expect("save golden branch");
            report.attempted += pass.attempted;
            report.failed += pass.failed;
            if *stored.get_or_insert(pass.stored_bytes) != pass.stored_bytes {
                report.violation("golden builds of one seed differ in stored bytes".into());
            }
            if tr.enabled() {
                layers::pass_metrics(report, &inputs, &pass);
            }
            dir
        });
        seconds.push(started.elapsed().as_secs_f64());
        latest = Some((inputs, golden));
    }
    let (inputs, golden) = latest.expect("at least one set-up");
    SetUp {
        inputs,
        golden,
        seconds,
    }
}

/// `setup_s`: the median set-up plus `once_s`, what the workload does
/// once before its first timed round (server start, cache-fill round).
fn setup_metric(report: &mut Report, setup: &SetUp, once_s: f64) {
    let each: Vec<f64> = setup.seconds.iter().map(|s| s + once_s).collect();
    report.set("setup_s", Value::of(median(&each), &each));
}

/// Runs timed rounds until there are enough of them and `seconds` have
/// passed. `round(n, last)` runs round `n`; `last` tells it that no
/// round follows. Untimed work inside a round (resets) counts towards
/// the wall budget but is in no metric.
fn timed_rounds<T>(opts: &Options, mut round: impl FnMut(usize, bool) -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        let last = out.len() + 1 >= opts.min_rounds()
            && (opts.quick || started.elapsed().as_secs_f64() >= opts.seconds);
        out.push(round(out.len(), last));
        if last {
            return out;
        }
    }
}

/// The rounds an end-to-end number may use: all of an untraced run, the
/// untraced ones of a traced run.
fn untraced<'a, T>(opts: &Options, rounds: &'a [T]) -> Vec<&'a T> {
    rounds
        .iter()
        .enumerate()
        .filter(|(n, _)| !opts.round_is_traced(*n))
        .map(|(_, r)| r)
        .collect()
}

/// Round-level rate and CPU cost: ops ÷ fast-tenth round time, and the
/// fast tenth of CPU per op. Traced: the tracing overhead too.
fn throughput_metrics(opts: &Options, report: &mut Report, ops: f64, rounds: &[(f64, f64)]) {
    let plain = untraced(opts, rounds);
    let seconds: Vec<f64> = plain.iter().map(|r| r.0).collect();
    let rates: Vec<f64> = seconds.iter().map(|s| ops / s).collect();
    report.set(
        "requests_per_s",
        Value::of(ops / fast_tenth(&seconds), &rates),
    );
    let cpu: Vec<f64> = plain.iter().map(|r| r.1 / ops).collect();
    report.set("cpu_us_per_request", Value::of(fast_tenth(&cpu), &cpu));
    if opts.traced {
        let traced: Vec<f64> = rounds
            .iter()
            .enumerate()
            .filter(|(n, _)| opts.round_is_traced(*n))
            .map(|(_, r)| r.0)
            .collect();
        report.set(
            "trace.overhead_share",
            Value::single(fast_tenth(&traced) / fast_tenth(&seconds) - 1.0),
        );
    }
}

/// A per-op latency (the fast tenth of the rounds' medians, shown with
/// the quartiles of the pooled samples) and its tail, which is
/// per-layer and named only with ten samples beyond it.
fn latency(
    report: &mut Report,
    (name, tail_name, p): (&'static str, &'static str, f64),
    rounds: &[&Vec<f64>],
) {
    let Some(value) = fast_tenth_of_medians(rounds.iter().copied()) else {
        return;
    };
    let pooled: Vec<f64> = rounds.iter().flat_map(|r| r.iter().copied()).collect();
    report.set(name, Value::of(value, &pooled));
    if let Some(v) = tail_percentile(&pooled, p) {
        report.set(tail_name, Value::single(v));
    }
}

/// Request metrics of a serve workload's rounds.
fn round_metrics(opts: &Options, report: &mut Report, rounds: &[Round]) {
    report.rounds = rounds.len();
    let ops = rounds[0].ops();
    for r in rounds {
        report.attempted += r.attempted;
        report.failed += r.failed;
        if r.ops() != ops {
            report.violation(format!("rounds differ in op count: {} vs {ops}", r.ops()));
        }
    }
    let timing: Vec<(f64, f64)> = rounds.iter().map(|r| (r.seconds, r.cpu_us)).collect();
    throughput_metrics(opts, report, ops as f64, &timing);
    let plain = untraced(opts, rounds);
    let samples = |f: fn(&Round) -> &Vec<f64>| plain.iter().map(|r| f(r)).collect::<Vec<_>>();
    latency(report, CHECKOUT, &samples(|r| &r.checkout_us));
    latency(
        report,
        ("commit_p50_ms", "commit_p95_ms", 0.95),
        &samples(|r| &r.commit_ms),
    );
    latency(
        report,
        ("commit_online_p50_ms", "commit_online_p95_ms", 0.95),
        &samples(|r| &r.commit_online_ms),
    );
}

const CHECKOUT: (&str, &str, f64) = ("checkout_p50_us", "checkout_p99_us", 0.99);

/// Books the re-opening of the end state: its checks, and what it
/// stores and re-reads per logical byte.
fn reopened(report: &mut Report, found: &Reopened) {
    report.attempted += found.attempted;
    report.failed += found.failed;
    let logical = found.logical_bytes.max(1) as f64;
    report.set(
        "stored_bytes_per_logical_byte",
        Value::single(found.stored_bytes as f64 / logical),
    );
    report.set(
        "recreation_bytes_per_logical_byte",
        Value::single(found.recreation_bytes as f64 / logical),
    );
}

fn model(inputs: &Inputs) -> impl Iterator<Item = (u32, &[u8])> {
    inputs
        .contents
        .iter()
        .enumerate()
        .map(|(i, c)| (i as u32, c.as_slice()))
}

pub fn run(opts: &Options, env: &Env) -> Report {
    let tr = Recorder::new(opts.traced);
    let mut report = Report {
        workload: opts.workload.name().to_owned(),
        seed: opts.seed,
        traced: opts.traced,
        quick: opts.quick,
        scratch: env.root.display().to_string(),
        filesystem: env.filesystem.clone(),
        pinned_cpu: env.pinned_cpu,
        ..Report::default()
    };
    match opts.workload {
        Workload::LocalLifecycle => local_lifecycle(opts, env, &tr, &mut report),
        Workload::ServeRead => serve_read(opts, env, &tr, &mut report),
        Workload::ServeMixed => serve_mixed(opts, env, &tr, &mut report),
        Workload::ServeMixedRemote => serve_mixed_remote(opts, env, &tr, &mut report),
    }
    report.set("peak_rss_mb", Value::single(sys::peak_rss_mib()));
    report.set("rounds", Value::single(report.rounds as f64));
    if opts.traced {
        layers::finish(&tr, &mut report);
        let path = sys::out_dir();
        if std::fs::create_dir_all(&path).is_ok() {
            let file = path.join(format!("trace-{}.json", opts.workload.name()));
            let _ = std::fs::write(file, tr.to_json(opts.workload.name(), 20_000).to_string());
        }
    }
    report
}

fn local_lifecycle(opts: &Options, env: &Env, tr: &Recorder, report: &mut Report) {
    let setup = set_up(opts, env, false, tr, report);
    let inputs = &setup.inputs;
    setup_metric(report, &setup, 0.0);
    if opts.traced {
        layers::probes(inputs, env, tr, report);
    }

    let mut last_dir: Option<PathBuf> = None;
    let off = Recorder::new(false);
    let passes = timed_rounds(opts, |n, _| {
        if let Some(old) = last_dir.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        let dir = sys::fresh_dir(&env.root, "round");
        let pass = if opts.round_is_traced(n) {
            layers::traced_pass(inputs, &dir, tr).0
        } else {
            lifecycle::run(inputs, &dir, &off).0
        };
        last_dir = Some(dir);
        pass
    });
    report.rounds = passes.len();
    let last = passes.last().expect("at least one round ran");
    for p in &passes {
        report.attempted += p.attempted;
        report.failed += p.failed;
        if (p.stored_bytes, p.recreation) != (last.stored_bytes, last.recreation) {
            report.violation(format!(
                "byte counts differ between rounds: stored {} vs {}, re-read {} vs {}",
                p.stored_bytes,
                last.stored_bytes,
                p.recreation.bytes_read,
                last.recreation.bytes_read
            ));
        }
    }

    // The library caller is this workload's client: its requests are the
    // round's commits, optimize, cold checkouts and recover.
    let timing: Vec<(f64, f64)> = passes.iter().map(|p| (p.seconds(), p.cpu_us)).collect();
    throughput_metrics(opts, report, last.attempted as f64, &timing);
    let plain = untraced(opts, &passes);
    let col = |f: fn(&Pass) -> f64| plain.iter().map(|p| f(p)).collect::<Vec<f64>>();
    let versions = inputs.contents.len() as f64;
    let ingest = col(|p| p.ingest_s);
    let rates: Vec<f64> = ingest.iter().map(|s| versions / s).collect();
    report.set(
        "ingest_commits_per_s",
        Value::of(versions / fast_tenth(&ingest), &rates),
    );
    let optimize = col(|p| p.optimize_s);
    report.set("optimize_s", Value::of(fast_tenth(&optimize), &optimize));
    let recover = col(|p| p.recover_s);
    report.set("recover_s", Value::of(fast_tenth(&recover), &recover));
    let checkouts: Vec<&Vec<f64>> = plain.iter().map(|p| &p.checkout_us).collect();
    latency(report, CHECKOUT, &checkouts);
    if let Some(traced) = passes.iter().rev().find(|p| p.fs_ops > 0) {
        layers::pass_metrics(report, inputs, traced);
    }

    let dir = last_dir.expect("at least one round ran");
    let found = serve::verify_reopened(&dir, model(inputs));
    reopened(report, &found);
    if (found.stored_bytes, found.recreation_bytes)
        != (last.stored_bytes, last.recreation.bytes_read)
    {
        report.violation("the re-opened repository differs from the one the round left".into());
    }
}

/// The plans of the clients for the golden-history workloads.
fn golden_window(inputs: &Inputs) -> Vec<u32> {
    let n = inputs.contents.len();
    (n.saturating_sub(inputs.scale.read_window)..n)
        .map(|v| v as u32)
        .collect()
}

fn cache_metrics(report: &mut Report, before: CacheStats, after: CacheStats) {
    let lookups = (after.lookups - before.lookups).max(1) as f64;
    report.set(
        "storage.cache_hit_rate",
        Value::single((after.hits - before.hits) as f64 / lookups),
    );
    report.set(
        "storage.cache_evictions",
        Value::single((after.evictions - before.evictions) as f64),
    );
    report.set(
        "storage.cache_bytes_saved",
        Value::single((after.bytes_saved - before.bytes_saved) as f64),
    );
}

/// Golden version ids a client script checks out, for the replay.
fn checked_out(ops: &[Op]) -> Vec<u32> {
    ops.iter()
        .filter_map(|op| match op {
            Op::Checkout(v) => Some(*v),
            _ => None,
        })
        .collect()
}

fn serve_read(opts: &Options, env: &Env, tr: &Recorder, report: &mut Report) {
    let setup = set_up(opts, env, true, tr, report);
    let inputs = &setup.inputs;
    let golden = setup.golden.as_deref().expect("golden built");
    if opts.traced {
        layers::probes(inputs, env, tr, report);
    }
    let script = inputs.read_script();
    let plans = [ClientPlan {
        branch: BRANCH,
        ops: &script,
        window: Vec::new(),
    }];
    let off = Recorder::new(false);

    let once = Instant::now();
    let repo = persist::load(golden, true).expect("golden loads");
    // The default budget: the whole working set fits.
    serve::with_front(repo, golden, DEFAULT_CACHE_BUDGET, |addr, dsvd| {
        let fill = serve::run_round(0, addr, &plans, inputs, &off);
        report.attempted += fill.attempted;
        report.failed += fill.failed;
        setup_metric(report, &setup, once.elapsed().as_secs_f64());

        let before = serve::cache_stats(dsvd);
        let rounds = timed_rounds(opts, |n, _| {
            let recorder = if opts.round_is_traced(n) { tr } else { &off };
            serve::run_round(n + 1, addr, &plans, inputs, recorder)
        });
        round_metrics(opts, report, &rounds);
        let after = serve::cache_stats(dsvd);
        if opts.traced {
            cache_metrics(report, before, after);
            layers::replay_checkouts(dsvd, &checked_out(&script), tr, report);
        }
        if after.evictions > before.evictions
            || after.hits - before.hits < after.misses - before.misses
        {
            report
                .violation("serve-read missed or evicted: the working set was meant to fit".into());
        }
        if serve::footprint(dsvd).1 != inputs.contents.len() {
            report.violation("serve-read grew the history".into());
        }
    });
    reopened(report, &serve::verify_reopened(golden, model(inputs)));
}

/// The expected bytes of a mixed round's acknowledged commits.
fn acknowledged<'a>(script: &'a [Op], round: &'a Round) -> impl Iterator<Item = (u32, &'a [u8])> {
    round.committed.iter().map(move |&(id, index)| {
        let Op::Commit { data, .. } = &script[index] else {
            unreachable!("committed entries index commits");
        };
        (id, data.as_slice())
    })
}

/// A round plus what it left on the server.
struct Served {
    round: Round,
    /// `(store bytes, versions)` after the round.
    footprint: (u64, usize),
    /// Cache counters before and after the round.
    cache: (CacheStats, CacheStats),
}

/// The rounds of a mixed workload, once they are all in: request
/// metrics, the check that every round left the same footprint, and —
/// traced — the cache counters of the first round. Returns the rounds
/// and the first round's cache counters.
fn served_metrics(
    opts: &Options,
    report: &mut Report,
    served: Vec<Served>,
) -> (Vec<Round>, (CacheStats, CacheStats)) {
    let footprints: Vec<(u64, usize)> = served.iter().map(|s| s.footprint).collect();
    let cache = served[0].cache;
    let rounds: Vec<Round> = served.into_iter().map(|s| s.round).collect();
    round_metrics(opts, report, &rounds);
    if footprints.iter().any(|f| *f != footprints[0]) {
        report.violation(format!("rounds left different footprints: {footprints:?}"));
    }
    if opts.traced {
        cache_metrics(report, cache.0, cache.1);
    }
    (rounds, cache)
}

fn serve_mixed(opts: &Options, env: &Env, tr: &Recorder, report: &mut Report) {
    let setup = set_up(opts, env, true, tr, report);
    let inputs = &setup.inputs;
    let golden = setup.golden.as_deref().expect("golden built");
    if opts.traced {
        layers::probes(inputs, env, tr, report);
    }
    let script = inputs.mixed_script();
    // The reads of the script, for a client that only reads.
    let reads: Vec<Op> = script
        .iter()
        .filter(|op| matches!(op, Op::CheckoutSlot(_)))
        .cloned()
        .collect();
    // A client reading the newest golden versions (and what it commits).
    let plan = |ops| ClientPlan {
        branch: BRANCH,
        ops,
        window: golden_window(inputs),
    };
    let plans = [plan(&script)];
    // One client reading the whole window once: fills the cache of the
    // fresh server each round starts with.
    let fill_ops: Vec<Op> = golden_window(inputs)
        .into_iter()
        .map(Op::Checkout)
        .collect();
    let fill = [ClientPlan {
        branch: BRANCH,
        ops: &fill_ops,
        window: Vec::new(),
    }];
    // A budget of an eighth of the logical bytes: the read window is
    // several times larger than the cache.
    let cache_bytes = inputs.logical_bytes() / 8;
    let off = Recorder::new(false);
    let mut last_dir: Option<PathBuf> = None;

    // One round of `plans` on a fresh copy of the golden directory,
    // which stays on disk until the next round replaces it.
    let mut one_round =
        |plans: &[ClientPlan<'_>], recorder: &Recorder, id: usize, report: &mut Report| {
            if let Some(old) = last_dir.take() {
                let _ = std::fs::remove_dir_all(old);
            }
            let dir = sys::fresh_dir(&env.root, "mixed");
            sys::copy_tree(golden, &dir).expect("copy golden");
            let repo = persist::load(&dir, true).expect("golden copy loads");
            let served = serve::with_front(repo, &dir, cache_bytes, |addr, dsvd| {
                let filled = serve::run_round(0, addr, &fill, inputs, &off);
                report.attempted += filled.attempted;
                report.failed += filled.failed;
                let before = serve::cache_stats(dsvd);
                let round = serve::run_round(id, addr, plans, inputs, recorder);
                Served {
                    round,
                    footprint: serve::footprint(dsvd),
                    cache: (before, serve::cache_stats(dsvd)),
                }
            });
            last_dir = Some(dir);
            served
        };
    let mut untimed = |plans: &[ClientPlan<'_>], report: &mut Report| {
        let round = one_round(plans, &off, 0, report).round;
        report.attempted += round.attempted;
        report.failed += round.failed;
        round
    };

    let once = Instant::now();
    untimed(&plans, report);
    setup_metric(report, &setup, once.elapsed().as_secs_f64());
    if opts.traced {
        // How long a reader waits behind the write lock: a second client
        // that only reads, alone and then beside the committing client.
        let alone = untimed(&[plan(&reads)], report);
        let beside = untimed(&[plan(&script), plan(&reads)], report);
        layers::reader_stall(report, &beside, &alone);
    }

    let served = timed_rounds(opts, |n, _| {
        let recorder = if opts.round_is_traced(n) { tr } else { &off };
        one_round(&plans, recorder, n + 1, report)
    });
    let (rounds, (before, after)) = served_metrics(opts, report, served);
    if after.evictions == before.evictions {
        report.violation("serve-mixed did not evict: the window was meant not to fit".into());
    }

    let dir = last_dir.take().expect("at least one round ran");
    let round = rounds.last().expect("at least one round ran");
    let found = serve::verify_reopened(&dir, model(inputs).chain(acknowledged(&script, round)));
    reopened(report, &found);
    let _ = std::fs::remove_dir_all(dir);
}

fn serve_mixed_remote(opts: &Options, env: &Env, tr: &Recorder, report: &mut Report) {
    // Rounds start from empty shards: there is no golden repository.
    let setup = set_up(opts, env, false, tr, report);
    let inputs = &setup.inputs;
    if opts.traced {
        layers::probes(inputs, env, tr, report);
    }
    let (before, script) = inputs.remote_script();
    let plans = [ClientPlan {
        branch: BRANCH,
        ops: &script,
        // The client reads only what it committed itself.
        window: Vec::new(),
    }];
    let cache_bytes = inputs.logical_bytes() / 8;
    let off = Recorder::new(false);

    // The untimed start of every round: a root commit, then the
    // client's branch with its two prelude commits. Returns the content
    // of the versions it made, in id order.
    let prelude = |repo: &mut Repository<RepoStore>, dir: &Path| -> Vec<&[u8]> {
        let mut made = vec![inputs.remote_root()];
        let root = repo
            .commit("main", inputs.remote_root(), "root")
            .expect("root commit");
        repo.branch(BRANCH, root).expect("fork from root");
        for data in &before {
            repo.commit(BRANCH, data, "prelude")
                .expect("prelude commit");
            made.push(data);
        }
        persist::save(repo, dir).expect("save prelude");
        made
    };

    // One round on fresh shard directories and a fresh front end. With
    // `verify`, the front directory is re-opened while the shards are
    // still up (its meta v4 names their addresses).
    let one_round = |recorder: &Recorder, id: usize, verify: bool| {
        let dir = sys::fresh_dir(&env.root, "remote");
        let shard_dirs: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("shard-{i}"))).collect();
        let front = dir.join("front");
        let out = serve::with_shards(&shard_dirs, |addrs| {
            let store = persist::connect_remote_shards(addrs).expect("dial shards");
            let mut repo = Repository::init(RepoStore::Remote(store));
            let made = prelude(&mut repo, &front);
            let served = serve::with_front(repo, &front, cache_bytes, |addr, dsvd| {
                let round = serve::run_round(id, addr, &plans, inputs, recorder);
                Served {
                    footprint: serve::footprint(dsvd),
                    // The server is new: its counters start at zero.
                    cache: (CacheStats::default(), serve::cache_stats(dsvd)),
                    round,
                }
            });
            let found = verify.then(|| {
                let made = made.iter().enumerate().map(|(i, c)| (i as u32, *c));
                serve::verify_reopened(&front, made.chain(acknowledged(&script, &served.round)))
            });
            (served, found)
        });
        let _ = std::fs::remove_dir_all(dir);
        out
    };

    let once = Instant::now();
    let first = one_round(&off, 0, false).0.round;
    report.attempted += first.attempted;
    report.failed += first.failed;
    setup_metric(report, &setup, once.elapsed().as_secs_f64());

    // The last round verifies before its shards go away.
    let mut found = None;
    let served = timed_rounds(opts, |n, last| {
        let recorder = if opts.round_is_traced(n) { tr } else { &off };
        let (served, reopened) = one_round(recorder, n + 1, last);
        found = found.take().or(reopened);
        served
    });
    served_metrics(opts, report, served);
    reopened(report, &found.expect("the last round verified"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_storage::ObjectStore;
    use std::sync::Mutex;

    /// Tests that put repositories on disk take this lock: they share
    /// the process's scratch root and the process-global fault-site
    /// counter a traced pass installs.
    static DISK: Mutex<()> = Mutex::new(());

    fn env() -> Env {
        let (root, filesystem) = sys::scratch_root();
        Env {
            root,
            filesystem,
            pinned_cpu: None,
        }
    }

    #[test]
    fn same_seed_same_counts_reset_restores_and_a_flipped_byte_reads_wrong() {
        let _serial = DISK.lock().unwrap_or_else(|e| e.into_inner());
        let env = env();
        let inputs = Inputs::generate(Scale::QUICK, 5);
        let tr = Recorder::new(true);

        // Same seed ⇒ identical count metrics, traced or not.
        let (a, _) = layers::traced_pass(&inputs, &sys::fresh_dir(&env.root, "a"), &tr);
        let golden = sys::fresh_dir(&env.root, "b");
        let (b, repo) = layers::traced_pass(&inputs, &golden, &tr);
        let (c, _) = lifecycle::run(
            &inputs,
            &sys::fresh_dir(&env.root, "c"),
            &Recorder::new(false),
        );
        let counts = |p: &Pass| {
            (
                p.stored_bytes,
                p.recreation,
                p.max_recreation_bytes,
                p.meta_bytes,
            )
        };
        assert_eq!(counts(&a), counts(&b));
        assert_eq!(counts(&a), counts(&c));
        assert_eq!((a.fs_ops, a.fsyncs), (b.fs_ops, b.fsyncs));
        assert!(
            a.fsyncs > 0 && a.fs_ops > a.fsyncs,
            "Durability::Full issues fsyncs"
        );
        assert_eq!((a.failed, c.failed, c.fs_ops), (0, 0, 0));

        // A round reset (copy the golden directory, load it) restores
        // version count and stored bytes whatever the last round did.
        let footprint = |r: &Repository<RepoStore>| (r.store().total_bytes(), r.version_count());
        let clean = footprint(&repo);
        drop(repo);
        let used = sys::fresh_dir(&env.root, "used");
        sys::copy_tree(&golden, &used).unwrap();
        let mut grown = persist::load(&used, true).unwrap();
        grown.commit("main", b"a,b\n1,2\n", "grow").unwrap();
        persist::save(&grown, &used).unwrap();
        assert_ne!(footprint(&grown), clean);
        let reset = sys::fresh_dir(&env.root, "reset");
        sys::copy_tree(&golden, &reset).unwrap();
        assert_eq!(footprint(&persist::load(&reset, true).unwrap()), clean);

        // The correctness gate: the model reads back; one flipped byte
        // in it is one failed op and a WRONG run.
        let found = serve::verify_reopened(&golden, model(&inputs));
        assert_eq!(
            (found.failed, found.attempted),
            (0, inputs.contents.len() as u64 + 1)
        );
        assert_eq!(found.stored_bytes, b.stored_bytes);
        assert_eq!(found.recreation_bytes, b.recreation.bytes_read);
        let mut flipped = inputs.contents.clone();
        flipped[3][10] ^= 1;
        let expect = flipped
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u32, c.as_slice()));
        let found = serve::verify_reopened(&golden, expect);
        assert_eq!(found.failed, 1);
        let report = Report {
            attempted: found.attempted,
            failed: found.failed,
            ..Report::default()
        };
        assert!(!report.correct());
        assert!(report.result_line().starts_with("{\"correct\": false, "));
    }

    #[test]
    fn every_workload_runs_correct_at_smoke_scale_traced_and_untraced() {
        let _serial = DISK.lock().unwrap_or_else(|e| e.into_inner());
        let env = env();
        for name in crate::metrics::WORKLOADS {
            for traced in [false, true] {
                let opts = Options {
                    workload: Workload::parse(name).unwrap(),
                    seed: 2,
                    seconds: 0.0,
                    traced,
                    quick: true,
                };
                let report = run(&opts, &env);
                assert!(
                    report.correct(),
                    "{name} traced={traced}: {:?}",
                    report.violations
                );
                assert!(report.attempted > 0 && report.rounds >= 2);
                let line = crate::json::Json::parse(&report.result_line()).unwrap();
                let printed = line.get("metrics").unwrap().as_object().len();
                let everywhere = crate::metrics::END_TO_END
                    .iter()
                    .filter(|m| m.across_seeds.is_some())
                    .count();
                let expected = if traced {
                    crate::metrics::END_TO_END.len() - everywhere + crate::metrics::PER_LAYER.len()
                } else {
                    everywhere
                };
                assert_eq!(
                    printed, expected,
                    "{name} traced={traced} prints every metric"
                );
                // Every end-to-end metric is reported by exactly the
                // workloads the registry names, and is never 0 there.
                for m in &crate::metrics::END_TO_END {
                    let value = report.values.get(m.name).map(|v| v.value);
                    if m.on.contains(&name) {
                        assert!(
                            value.is_some_and(|v| v > 0.0),
                            "{name}: {} = {value:?}",
                            m.name
                        );
                    } else {
                        assert_eq!(value, None, "{name} does no {}", m.name);
                    }
                }
                if traced {
                    let layer = |name: &str| report.values.get(name).map(|v| v.value);
                    let hit_rate = layer("storage.cache_hit_rate");
                    match name {
                        "serve-read" => assert!(hit_rate >= Some(0.99), "fits: {hit_rate:?}"),
                        "serve-mixed" => {
                            assert!(hit_rate < Some(0.9), "does not fit: {hit_rate:?}");
                            assert!(layer("storage.cache_evictions") > Some(0.0));
                        }
                        "local-lifecycle" => assert_eq!(hit_rate, None, "no cache"),
                        _ => {}
                    }
                    assert!(layer("trace.overhead_share").is_some());
                }
            }
        }
    }
}
