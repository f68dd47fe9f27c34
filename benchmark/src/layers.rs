//! The traced run's per-layer numbers. Spans are opened here, from the
//! benchmark's side of each layer's public functions:
//!
//! * [`traced_pass`] — the lifecycle pass with every step its own span
//!   (commit / `persist::save`; the repack phases; checkout and the
//!   replayed `materialize`; load / fsck), fault sites counted;
//! * [`probes`] — each layer's primitives over the generated bytes
//!   (diff, compress, plan, pack, put/get, codec, a ping, a remote
//!   put/get), so every layer has a number on every workload;
//! * [`replay_checkouts`] — the server-side steps of `serve-read`'s
//!   traced checkouts, replayed on the live server state, which is what
//!   lets a request's client-observed latency be split into accounted
//!   layer time and the rest (socket, lock and scheduler wait). Only
//!   there: a replay meets the cache as the round left it, which is the
//!   cache the request met only where nothing is ever evicted.

use crate::gen::Inputs;
use crate::lifecycle::{self, Pass};
use crate::report::{Report, Value};
use crate::serve::{self, Round};
use crate::stats::median;
use crate::sys;
use crate::trace::Recorder;
use crate::workloads::Env;
use dsv_compress::lz;
use dsv_core::{plan, CostMatrix, CostPair, ProblemInstance};
use dsv_delta::{bytes_delta, script};
use dsv_net::{read_frame, write_frame, Client, RemoteStore, Request, Response, DEFAULT_MAX_FRAME};
use dsv_storage::{
    fault, pack_versions, FaultPlan, FileStore, Materializer, Object, ObjectStore, PackOptions,
    RecreationWork,
};
use dsv_vcs::{fsck, persist, CommitId, Dsvd, OnlineOptions, RepoStore, Repository};
use dsv_workloads::VersionGraph;
use std::path::Path;
use std::time::Instant;

const MB: f64 = 1e6;

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// [`lifecycle::run`] with each step under its own span and the durable
/// write path's fault sites counted. Produces the same repository.
pub fn traced_pass(inputs: &Inputs, dir: &Path, tr: &Recorder) -> (Pass, Repository<RepoStore>) {
    let _pass_span = tr.span("lifecycle.pass");
    let mut pass = Pass::default();
    let cpu_before = sys::cpu_micros();

    let sites = FaultPlan::count_sites();
    fault::install(sites.clone());
    let mut repo = lifecycle::ingest(inputs, dir, &mut pass, tr);
    fault::uninstall();
    pass.fs_ops = sites.hits();
    pass.fsyncs = sites.sites().iter().filter(|s| s.ends_with("sync")).count() as u64;

    // `optimize_durable`, phase by phase.
    let started = Instant::now();
    let report = {
        let _span = tr.span("lifecycle.optimize");
        let spec = lifecycle::optimize_spec(inputs);
        let prepared = tr.time("vcs.prepare_repack", || repo.prepare_repack(&spec));
        prepared.map(|prepared| {
            tr.time("vcs.write_journal", || {
                persist::write_journal(dir, &prepared.journal())
            })
            .expect("journal written");
            tr.time("vcs.apply_repack", || repo.apply_repack(&prepared));
            tr.time("vcs.persist_save", || persist::save(&repo, dir))
                .expect("meta swapped");
            let report = tr.time("vcs.gc_repack", || repo.gc_repack(prepared));
            let _ = persist::clear_journal(dir);
            report
        })
    };
    pass.optimize_s = secs(started);
    pass.attempted += 1;
    pass.failed += u64::from(report.is_err());
    pass.report = report.ok();
    pass.stored_bytes = repo.store().total_bytes();
    tr.time("storage.stats", || repo.store().stats());

    lifecycle::cold_checkouts(&repo, inputs, &mut pass, tr);
    // The storage half of a checkout, replayed outside the timers.
    let materializer = Materializer::new(repo.store());
    for i in 0..inputs.contents.len() {
        let object = repo.object_id(CommitId(i as u32));
        let _ = tr.time("storage.materialize", || {
            materializer.materialize_measured(object)
        });
    }
    drop(repo);

    let started = Instant::now();
    let outcome = {
        let _span = tr.span("lifecycle.recover");
        tr.time("vcs.load", || persist::load(dir, true))
            .and_then(|mut repo| {
                let report = tr.time("vcs.fsck", || fsck::fsck_repair(&mut repo, Some(dir)))?;
                Ok((repo, report))
            })
    };
    pass.recover_s = secs(started);
    let repo = lifecycle::recovered(outcome, inputs, &mut pass);
    pass.cpu_us = (sys::cpu_micros() - cpu_before) as f64;
    (pass, repo)
}

/// The per-layer numbers a traced pass carries in its counts.
pub fn pass_metrics(report: &mut Report, inputs: &Inputs, pass: &Pass) {
    let mut set = |name: &'static str, value: f64| report.set(name, Value::single(value));
    let versions = inputs.contents.len() as f64;
    set("storage.fs_ops_per_commit", pass.fs_ops as f64 / versions);
    set("storage.fsyncs_per_commit", pass.fsyncs as f64 / versions);
    set("vcs.meta_bytes", pass.meta_bytes as f64);
    set(
        "storage.objects_fetched_per_checkout",
        pass.recreation.objects_fetched as f64 / versions,
    );
    set(
        "storage.bytes_read_per_served_byte",
        pass.recreation.bytes_read as f64 / inputs.logical_bytes() as f64,
    );
    if let Some(r) = &pass.report {
        let stored = pass.stored_bytes.max(1) as f64;
        set("core.materialized_versions", r.materialized as f64);
        set(
            "core.planned_storage_error",
            (r.planned_storage_cost as f64 - stored).abs() / stored,
        );
        let worst = pass.max_recreation_bytes.max(1) as f64;
        set(
            "core.planned_max_recreation_error",
            (r.planned_max_recreation as f64 - worst).abs() / worst,
        );
        if let dsv_core::Problem::MinStorageGivenMaxRecreation { theta } = r.problem {
            set("core.max_recreation_ratio", worst / theta.max(1) as f64);
        }
    }
}

/// Primitive probes of every layer over this seed's bytes.
pub fn probes(inputs: &Inputs, env: &Env, tr: &Recorder, report: &mut Report) {
    let _span = tr.span("layers.probes");
    let contents = &inputs.contents;
    let n = contents.len();
    // Parent → child pairs, the deltas the store actually keeps.
    let pairs: Vec<(usize, usize)> = (1..n)
        .step_by((n / 20).max(1))
        .map(|i| (inputs.parents[i][0] as usize, i))
        .collect();
    let target_bytes: f64 = pairs.iter().map(|&(_, b)| contents[b].len() as f64).sum();

    // delta
    let started = Instant::now();
    for &(a, b) in &pairs {
        std::hint::black_box(tr.time("delta.line_diff", || {
            script::line_diff(&contents[a], &contents[b])
        }));
    }
    report.set(
        "delta.line_diff_mb_per_s",
        Value::single(target_bytes / MB / secs(started)),
    );
    let started = Instant::now();
    let encoded: Vec<Vec<u8>> = pairs
        .iter()
        .map(|&(a, b)| {
            tr.time("delta.byte_diff", || {
                bytes_delta::encode(&bytes_delta::diff(&contents[a], &contents[b]))
            })
        })
        .collect();
    report.set(
        "delta.byte_diff_mb_per_s",
        Value::single(target_bytes / MB / secs(started)),
    );
    let delta_bytes: f64 = encoded.iter().map(|e| e.len() as f64).sum();
    report.set(
        "delta.bytes_per_target_byte",
        Value::single(delta_bytes / target_bytes),
    );
    let started = Instant::now();
    for (&(a, b), enc) in pairs.iter().zip(&encoded) {
        let out = tr.time("delta.apply", || {
            bytes_delta::decode(enc).and_then(|ops| bytes_delta::apply(&contents[a], &ops))
        });
        if out.as_deref() != Ok(contents[b].as_slice()) {
            report.violation(format!("delta {a}→{b} does not apply back"));
        }
    }
    report.set(
        "delta.apply_mb_per_s",
        Value::single(target_bytes / MB / secs(started)),
    );

    // compress
    let sample: Vec<&Vec<u8>> = pairs.iter().map(|&(_, b)| &contents[b]).collect();
    let started = Instant::now();
    let packed: Vec<Vec<u8>> = sample
        .iter()
        .map(|c| tr.time("compress.compress", || lz::compress(c)))
        .collect();
    report.set(
        "compress.compress_mb_per_s",
        Value::single(target_bytes / MB / secs(started)),
    );
    let started = Instant::now();
    for (p, c) in packed.iter().zip(&sample) {
        if tr
            .time("compress.decompress", || lz::decompress(p))
            .as_ref()
            != Ok(*c)
        {
            report.violation("compress round trip differs".into());
        }
    }
    report.set(
        "compress.decompress_mb_per_s",
        Value::single(target_bytes / MB / secs(started)),
    );
    let packed_bytes: f64 = packed.iter().map(|p| p.len() as f64).sum();
    report.set("compress.ratio", Value::single(packed_bytes / target_bytes));

    // core + storage::repack: what `prepare_repack` does inside, from
    // outside — reveal within 5 hops, plan, pack.
    let graph = VersionGraph {
        n,
        edges: inputs
            .parents
            .iter()
            .enumerate()
            .flat_map(|(c, ps)| ps.iter().map(move |&p| (p, c as u32)))
            .collect(),
        parents: inputs.parents.clone(),
    };
    let spec = lifecycle::optimize_spec(inputs);
    let revealed = graph.pairs_within_hops(spec.reveal_hop_count());
    report.set("delta.pairs_revealed", Value::single(revealed.len() as f64));
    let size = |a: u32, b: u32| {
        bytes_delta::encode(&bytes_delta::diff(
            &contents[a as usize],
            &contents[b as usize],
        ))
        .len() as u64
    };
    let costs = tr.time("delta.reveal", || {
        dsv_par::par_map(&revealed, |&(a, b)| (size(a, b), size(b, a)))
    });
    let mut matrix = CostMatrix::directed(
        contents
            .iter()
            .map(|c| CostPair::proportional(c.len() as u64))
            .collect(),
    );
    for (&(a, b), (fwd, rev)) in revealed.iter().zip(costs) {
        matrix.reveal(a, b, CostPair::proportional(fwd));
        matrix.reveal(b, a, CostPair::proportional(rev));
    }
    let instance = ProblemInstance::new(matrix);
    let started = Instant::now();
    let chosen = tr.time("core.plan", || plan(&instance, &spec));
    report.set("core.plan_ms", Value::single(secs(started) * 1e3));
    let probe_dir = sys::fresh_dir(&env.root, "probe");
    match chosen {
        Ok(chosen) => {
            let store = FileStore::open(&probe_dir.join("pack"), true).expect("open pack dir");
            let started = Instant::now();
            let packed = tr.time("storage.pack", || {
                pack_versions(
                    &store,
                    contents,
                    chosen.solution.parents(),
                    PackOptions::default(),
                )
            });
            report.set("storage.pack_s", Value::single(secs(started)));
            if packed.is_err() {
                report.violation("probe pack failed".into());
            }
        }
        Err(e) => report.violation(format!("probe plan failed: {e}")),
    }

    // storage: single-object puts and gets on a durable FileStore.
    let store = FileStore::open(&probe_dir.join("objects"), true).expect("open probe store");
    let objects: Vec<Object> = sample
        .iter()
        .map(|c| Object::Full { data: (*c).clone() })
        .collect();
    let started = Instant::now();
    let ids: Vec<_> = objects
        .iter()
        .map(|o| tr.time("storage.put", || store.put(o)).expect("probe put"))
        .collect();
    report.set(
        "storage.put_us_per_object",
        Value::single(secs(started) * 1e6 / ids.len() as f64),
    );
    let started = Instant::now();
    for (id, o) in ids.iter().zip(&objects) {
        if tr.time("storage.get", || store.get(*id)).as_ref() != Ok(o) {
            report.violation("probe get differs".into());
        }
    }
    report.set(
        "storage.get_us_per_object",
        Value::single(secs(started) * 1e6 / ids.len() as f64),
    );

    // net codec on in-memory buffers: one checkout exchange per sample.
    let (mut enc_req, mut enc, mut dec, mut wr, mut rd, mut wire, mut payload) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (version, data) in sample.iter().enumerate() {
        let t = Instant::now();
        std::hint::black_box(
            Request::Checkout {
                version: version as u32,
            }
            .encode(),
        );
        enc_req += secs(t);
        let response = Response::CheckoutOk {
            data: (*data).clone(),
            work: RecreationWork::default(),
        };
        let t = Instant::now();
        let frame = response.encode();
        enc += secs(t);
        let mut sink = Vec::with_capacity(frame.body.len() + 8);
        let t = Instant::now();
        write_frame(&mut sink, &frame).expect("write to memory");
        wr += secs(t);
        let t = Instant::now();
        let back = read_frame(&mut sink.as_slice(), DEFAULT_MAX_FRAME).expect("read from memory");
        rd += secs(t);
        let t = Instant::now();
        let decoded = Response::decode(&back);
        dec += secs(t);
        if decoded.ok().as_ref() != Some(&response) {
            report.violation("codec round trip differs".into());
        }
        wire += frame.wire_len() as f64;
        payload += data.len() as f64;
    }
    let per_mb = |s: f64| Value::single(s * 1e6 / (payload / MB));
    report.set(
        "net.req_encode_us",
        Value::single(enc_req * 1e6 / sample.len() as f64),
    );
    report.set("net.resp_encode_us_per_mb", per_mb(enc));
    report.set("net.resp_decode_us_per_mb", per_mb(dec));
    report.set("net.frame_write_us_per_mb", per_mb(wr));
    report.set("net.frame_read_us_per_mb", per_mb(rd));
    report.set(
        "net.wire_bytes_per_payload_byte",
        Value::single(wire / payload),
    );

    // net over loopback: connect and ping a front end, then a store
    // shard behind `RemoteStore`, then the round trips one commit costs
    // a repository whose objects live on two such shards.
    let shard_dirs = [probe_dir.join("shard-0"), probe_dir.join("shard-1")];
    serve::with_shards(&shard_dirs, |addrs| {
        let remote = RemoteStore::connect(&addrs[0]).expect("dial probe shard");
        let started = Instant::now();
        for o in &objects {
            tr.time("net.remote_put", || remote.put(o))
                .expect("remote put");
        }
        report.set(
            "net.remote_put_us_per_object",
            Value::single(secs(started) * 1e6 / objects.len() as f64),
        );
        let started = Instant::now();
        for (id, o) in ids.iter().zip(&objects) {
            if tr.time("net.remote_get", || remote.get(*id)).as_ref() != Ok(o) {
                report.violation("remote get differs".into());
            }
        }
        report.set(
            "net.remote_get_us_per_object",
            Value::single(secs(started) * 1e6 / objects.len() as f64),
        );
        drop(remote);

        let store = persist::connect_remote_shards(addrs).expect("dial probe shards");
        let mut repo = Repository::init(RepoStore::Remote(store));
        for c in &contents[..4] {
            repo.commit("main", c, "probe chain").expect("probe commit");
        }
        let trips = |repo: &Repository<RepoStore>| -> u64 {
            let RepoStore::Remote(sharded) = repo.store() else {
                return 0;
            };
            sharded
                .shards()
                .iter()
                .map(|s| {
                    let ops = s.stats().ops;
                    ops.puts + ops.gets + ops.batch_puts + ops.batch_gets
                })
                .sum()
        };
        let before = trips(&repo);
        repo.commit("main", &contents[4], "probe greedy")
            .expect("probe commit");
        let greedy = trips(&repo);
        let online = OnlineOptions {
            hops: 2,
            ..OnlineOptions::default()
        };
        repo.commit_online("main", &contents[5], "probe online", online)
            .expect("probe commit");
        report.set(
            "net.remote_round_trips_per_commit",
            Value::single((greedy - before) as f64),
        );
        report.set(
            "net.remote_round_trips_per_online_commit",
            Value::single((trips(&repo) - greedy) as f64),
        );

        let front_dir = probe_dir.join("front");
        serve::with_front(repo, &front_dir, 0, |addr, _| {
            // One connection at a time: dial + handshake, then hang up.
            let started = Instant::now();
            for _ in 0..20 {
                drop(
                    tr.time("net.connect", || Client::connect(addr))
                        .expect("probe connect"),
                );
            }
            report.set("net.connect_ms", Value::single(secs(started) * 1e3 / 20.0));
            let mut client = Client::connect(addr).expect("probe connect");
            let rtts: Vec<f64> = (0..500)
                .map(|_| {
                    let t = Instant::now();
                    tr.time("net.ping", || client.ping()).expect("probe ping");
                    secs(t) * 1e6
                })
                .collect();
            report.set("net.ping_rtt_us", Value::of(median(&rtts), &rtts));
        });
    });
    let _ = std::fs::remove_dir_all(probe_dir);
}

/// Replays the server-side steps of checking out `versions` on the live
/// server state and splits the traced clients' observed checkout
/// latency into accounted layer time and the unaccounted rest.
pub fn replay_checkouts(
    dsvd: &Dsvd<RepoStore>,
    versions: &[u32],
    tr: &Recorder,
    report: &mut Report,
) {
    if versions.is_empty() {
        return;
    }
    let repo = dsvd.repo().read();
    for &version in versions.iter().take(1000) {
        let _span = tr.span("replay.server");
        let request = Request::Checkout { version }.encode();
        let decoded = tr.time("replay.req_decode", || Request::decode(&request));
        let Ok(Request::Checkout { version }) = decoded else {
            continue;
        };
        let Ok((data, work)) = tr.time("replay.checkout", || {
            repo.checkout_measured(CommitId(version))
        }) else {
            continue;
        };
        let frame = tr.time("replay.resp_encode", || {
            Response::CheckoutOk { data, work }.encode()
        });
        let mut sink = Vec::with_capacity(frame.body.len() + 8);
        let _ = tr.time("replay.frame_write", || write_frame(&mut sink, &frame));
        // The client's copy-in of the reply, without the waiting.
        let _ = tr.time("replay.frame_read", || {
            read_frame(&mut sink.as_slice(), DEFAULT_MAX_FRAME)
        });
    }
    drop(repo);
    let totals = tr.totals();
    let mean = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.wall_ns as f64 / t.count.max(1) as f64)
    };
    let observed = mean("client.checkout");
    if observed > 0.0 {
        let client_cpu = mean("net.req_encode") + mean("net.frame_write") + mean("net.resp_decode");
        let accounted = client_cpu + mean("replay.server");
        report.set(
            "net.unaccounted_share",
            Value::single(1.0 - accounted / observed),
        );
    }
}

/// `vcs.reader_stall_p99_us`: how much further the checkout tail of a
/// client that only reads reaches `beside` a committing client, which
/// holds the write lock, than `alone`.
pub fn reader_stall(report: &mut Report, beside: &Round, alone: &Round) {
    // Few samples: compare the same quantile of both, p95 when p99 of
    // the quiet round is too thin to name.
    for p in [0.99, 0.95, 0.9] {
        if let (Some(busy), Some(calm)) = (
            crate::stats::tail_percentile(&beside.checkout_us, p),
            crate::stats::tail_percentile(&alone.checkout_us, p),
        ) {
            report.set("vcs.reader_stall_p99_us", Value::single(busy - calm));
            return;
        }
    }
}

/// Turns the recorded spans into the per-layer metrics they carry.
pub fn finish(tr: &Recorder, report: &mut Report) {
    let totals = tr.totals();
    let mean_ns = |name: &str| {
        totals
            .get(name)
            .map(|t| t.wall_ns as f64 / t.count.max(1) as f64)
    };
    let mut set = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value {
            report.set(name, Value::single(v));
        }
    };
    set(
        "workloads.generate_s",
        mean_ns("workloads.generate").map(|ns| ns / 1e9),
    );
    set("vcs.commit_ms", mean_ns("vcs.commit").map(|ns| ns / 1e6));
    set(
        "vcs.commit_online_ms",
        mean_ns("vcs.commit_online").map(|ns| ns / 1e6),
    );
    set(
        "vcs.persist_save_ms",
        mean_ns("vcs.persist_save").map(|ns| ns / 1e6),
    );
    set(
        "vcs.prepare_repack_s",
        mean_ns("vcs.prepare_repack").map(|ns| ns / 1e9),
    );
    set(
        "vcs.apply_repack_ms",
        mean_ns("vcs.apply_repack").map(|ns| ns / 1e6),
    );
    set("vcs.gc_ms", mean_ns("vcs.gc_repack").map(|ns| ns / 1e6));
    set("vcs.load_ms", mean_ns("vcs.load").map(|ns| ns / 1e6));
    set("vcs.fsck_s", mean_ns("vcs.fsck").map(|ns| ns / 1e9));
    set(
        "storage.stats_us",
        mean_ns("storage.stats").map(|ns| ns / 1e3),
    );
    set(
        "storage.materialize_us_per_version",
        mean_ns("storage.materialize").map(|ns| ns / 1e3),
    );
    // A checkout's own share: `Repository::checkout` minus the
    // materialize it wraps — two means measured apart, so a share below
    // their noise reads 0.
    if let (Some(checkout), Some(materialize)) =
        (mean_ns("vcs.checkout"), mean_ns("storage.materialize"))
    {
        set(
            "vcs.checkout_us",
            Some(((checkout - materialize) / 1e3).max(0.0)),
        );
    }
}
