//! Criterion benches for the substrates: diff, byte deltas (one-shot and
//! the shared-index reveal), the cold recreation path (LZ and Huffman
//! payload codecs, content addressing, chain replay, fsck), the graph
//! algorithms, and the three storage regimes (Full / Delta / Chunked)
//! packing and checking out the same dedup-friendly history.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dsv_chunk::{pack_versions_chunked, Chunker, ChunkerParams};
use dsv_compress::{huff, lz};
use dsv_delta::{bytes_delta, script};
use dsv_graph::{dijkstra, min_cost_arborescence, prim_mst, DiGraph, NodeId, UnGraph};
use dsv_storage::{pack_versions, Materializer, MemStore, ObjectId, ObjectStore, PackOptions};
use dsv_vcs::{fsck, Repository};
use dsv_workloads::presets;
use dsv_workloads::table_gen::{base_table, random_commit, EditParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn csv(rows: usize, tag: u32) -> Vec<u8> {
    let mut out = b"id,name,score,notes\n".to_vec();
    for i in 0..rows {
        out.extend_from_slice(
            format!(
                "{i},user-{},{}.5,annotation text field {}\n",
                i ^ 7,
                i % 100,
                tag
            )
            .as_bytes(),
        );
    }
    out
}

fn bench_diff(c: &mut Criterion) {
    let a = csv(2000, 0);
    let mut b = csv(2000, 0);
    // A realistic edit burst in the middle.
    let mid = b.len() / 2;
    b.splice(
        mid..mid,
        b"999999,injected,0.0,inserted row\n".iter().copied(),
    );

    let mut group = c.benchmark_group("diff");
    group.throughput(Throughput::Bytes((a.len() + b.len()) as u64));
    group.bench_function("line_diff_2k_rows", |bch| {
        bch.iter(|| script::line_diff(black_box(&a), black_box(&b)))
    });
    group.bench_function("byte_diff_2k_rows", |bch| {
        bch.iter(|| bytes_delta::diff(black_box(&a), black_box(&b)))
    });
    let ops = bytes_delta::diff(&a, &b);
    group.bench_function("byte_apply_2k_rows", |bch| {
        bch.iter(|| bytes_delta::apply(black_box(&a), black_box(&ops)).unwrap())
    });
    group.finish();
}

/// The optimizer's reveal, kernel only: a 40-version chain of ~100 KB
/// tables (`table_gen::random_commit` edits), every pair at most five
/// versions apart, both directions. `one_shot` is the plain loop — index
/// the source again for every diff, build the ops, encode them, take the
/// length; `shared_index` is [`bytes_delta::pair_sizes`], which indexes
/// each version once and streams lengths only. Both on one thread, and
/// their sizes are asserted equal before anything is timed.
fn bench_reveal(c: &mut Criterion) {
    let contents = table_versions(39);
    let pairs: Vec<(u32, u32)> = (0..40u32)
        .flat_map(|a| (a + 1..40.min(a + 6)).map(move |b| (a, b)))
        .collect();
    let size = |src: u32, dst: u32| {
        let ops = bytes_delta::diff(&contents[src as usize], &contents[dst as usize]);
        bytes_delta::encode(&ops).len() as u64
    };
    let one_shot = || -> Vec<(u64, u64)> {
        pairs
            .iter()
            .map(|&(a, b)| (size(a, b), size(b, a)))
            .collect()
    };
    let shared_index =
        || dsv_par::with_thread_count(1, || bytes_delta::pair_sizes(&contents, &pairs));
    assert_eq!(one_shot(), shared_index(), "the two reveals must agree");

    let mut group = c.benchmark_group("reveal_5hop");
    group.throughput(Throughput::Bytes(
        pairs
            .iter()
            .map(|&(a, b)| 2 * (contents[a as usize].len() + contents[b as usize].len()) as u64)
            .sum(),
    ));
    group.bench_function("one_shot", |b| b.iter(|| black_box(one_shot())));
    group.bench_function("shared_index", |b| b.iter(|| black_box(shared_index())));
    group.finish();
}

/// One `table_gen` version at the benchmark's scale (1000 rows x 10
/// cells, ~100 KB) and the `k` versions `random_commit` derives from it.
fn table_versions(k: usize) -> Vec<Vec<u8>> {
    let params = EditParams {
        base_rows: 1000,
        base_cols: 10,
        ..EditParams::default()
    };
    let mut rng = StdRng::seed_from_u64(2015);
    let mut table = base_table(&params, &mut rng);
    let mut contents = vec![table.to_csv()];
    for _ in 0..k {
        table = random_commit(&params, &table, &mut rng).1;
        contents.push(table.to_csv());
    }
    contents
}

/// What a cold recreation is made of, kernel by kernel: decode the
/// materialized root (`huff`; `lz` for what older stores hold), address
/// it (`ObjectId`), replay the chain (`apply_encoded` against the
/// `decode` + `apply` it replaced), and the pass that recreates every
/// version (`fsck`). Every pair of paths is asserted equal before either is
/// timed.
fn bench_cold_path(c: &mut Criterion) {
    let contents = table_versions(20);
    let table = &contents[0];
    let repetitive = b"the quick brown fox jumps over the lazy dog\n".repeat(2400);

    for (name, data) in [("table", table), ("repetitive", &repetitive)] {
        let compressed = lz::compress(data);
        assert_eq!(&lz::decompress(&compressed).unwrap(), data);
        let mut group = c.benchmark_group(format!("cold_path/lz_{name}"));
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_function("compress", |b| b.iter(|| lz::compress(black_box(data))));
        group.bench_function("decompress", |b| {
            b.iter(|| lz::decompress(black_box(&compressed)).unwrap())
        });
        group.finish();
    }

    // The payload codec on the three shapes a store hands it: a version,
    // (the first) 1 KiB of an encoded delta, bytes with nothing to gain.
    let jobs: Vec<(u32, u32)> = (0..20).map(|i| (i, i + 1)).collect();
    let deltas = bytes_delta::encode_pairs(&contents, &jobs);
    let delta_1k = deltas
        .iter()
        .find(|d| d.len() >= 1024)
        .expect("a 1 KiB delta")[..1024]
        .to_vec();
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let noise: Vec<u8> = (0..100_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect();
    for (name, data) in [
        ("table", table),
        ("delta_1k", &delta_1k),
        ("incompressible", &noise),
    ] {
        let stream = huff::encode(data);
        assert_eq!(huff::coded_len(data), stream.len());
        assert_eq!(&huff::decode(&stream).unwrap(), data);
        let mut group = c.benchmark_group(format!("cold_path/huff_{name}"));
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_function("encode", |b| b.iter(|| huff::encode(black_box(data))));
        group.bench_function("decode", |b| {
            b.iter(|| huff::decode(black_box(&stream)).unwrap())
        });
        group.bench_function("coded_len", |b| b.iter(|| huff::coded_len(black_box(data))));
        group.finish();
    }

    let mut group = c.benchmark_group("cold_path/object_id");
    group.throughput(Throughput::Bytes(table.len() as u64));
    group.bench_function("for_bytes_100k", |b| {
        b.iter(|| ObjectId::for_bytes(black_box(table)))
    });
    group.finish();

    // A 20-link chain replayed from its root, both ways.
    let via_ops = || {
        deltas.iter().fold(table.clone(), |base, delta| {
            bytes_delta::apply(&base, &bytes_delta::decode(delta).unwrap()).unwrap()
        })
    };
    let via_encoded = || {
        deltas.iter().fold(table.clone(), |base, delta| {
            bytes_delta::apply_encoded(&base, delta).unwrap()
        })
    };
    assert_eq!(via_ops(), contents[20]);
    assert_eq!(via_encoded(), contents[20]);
    let mut group = c.benchmark_group("cold_path/replay_20_links");
    group.throughput(Throughput::Bytes(
        contents[1..].iter().map(|v| v.len() as u64).sum(),
    ));
    group.bench_function("decode_then_apply", |b| b.iter(|| black_box(via_ops())));
    group.bench_function("apply_encoded", |b| b.iter(|| black_box(via_encoded())));
    group.finish();

    // fsck of a 40-version greedy chain in a compressing store.
    let mut repo = Repository::in_memory_compressed();
    for version in table_versions(39) {
        repo.commit("main", &version, "version").unwrap();
    }
    assert!(fsck::fsck(&repo, None).is_clean());
    let mut group = c.benchmark_group("cold_path/fsck");
    group.throughput(Throughput::Bytes(repo.logical_bytes()));
    group.bench_function("chain_of_40", |b| {
        b.iter(|| fsck::fsck(black_box(&repo), None))
    });
    group.finish();
}

fn random_digraph(n: usize, degree: usize) -> DiGraph<u64> {
    let mut g = DiGraph::new(n);
    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for v in 0..n as u32 {
        g.add_edge(NodeId(0), NodeId(v), 1000 + next() % 1000);
        for _ in 0..degree {
            let u = (next() % n as u64) as u32;
            if u != v {
                g.add_edge(NodeId(u), NodeId(v), next() % 500);
            }
        }
    }
    g
}

fn bench_graph(c: &mut Criterion) {
    let g = random_digraph(2000, 6);
    let mut ug: UnGraph<u64> = UnGraph::new(2000);
    for e in g.edges() {
        if e.src != e.dst {
            ug.add_edge(e.src, e.dst, e.weight);
        }
    }
    let mut group = c.benchmark_group("graph_n2000");
    group.bench_function("dijkstra", |b| {
        b.iter(|| dijkstra(black_box(&g), NodeId(0), |e| e.weight))
    });
    group.bench_function("edmonds_mca", |b| {
        b.iter(|| min_cost_arborescence(black_box(&g), NodeId(0), |e| e.weight).unwrap())
    });
    group.bench_function("prim_mst", |b| {
        b.iter(|| prim_mst(black_box(&ug), NodeId(0), |e| e.weight).unwrap())
    });
    group.finish();
}

fn bench_chunking(c: &mut Criterion) {
    let data = csv(8000, 1);
    let params = ChunkerParams::default();
    let mut group = c.benchmark_group("cdc");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("chunk_8k_rows", |b| {
        b.iter(|| Chunker::new(black_box(&data), params).count())
    });
    group.finish();
}

/// The three regimes packing and checking out the same 30-version
/// dedup-friendly history (each version splices rows mid-file).
fn bench_substrate_regimes(c: &mut Criterion) {
    let ds = presets::dedup_chain().scaled(30).keep_contents().build(7);
    let contents = ds.contents.expect("contents kept");
    let n = contents.len();
    let full_plan: Vec<Option<u32>> = vec![None; n];
    let chain_plan: Vec<Option<u32>> = (0..n as u32).map(|i| i.checked_sub(1)).collect();

    let mut group = c.benchmark_group("substrate_pack");
    group.throughput(Throughput::Bytes(
        contents.iter().map(|c| c.len() as u64).sum(),
    ));
    group.bench_function("full", |b| {
        b.iter(|| {
            let store = MemStore::new(true);
            pack_versions(
                &store,
                black_box(&contents),
                &full_plan,
                PackOptions::default(),
            )
            .unwrap();
            store.total_bytes()
        })
    });
    group.bench_function("delta_chain", |b| {
        b.iter(|| {
            let store = MemStore::new(true);
            pack_versions(
                &store,
                black_box(&contents),
                &chain_plan,
                PackOptions::default(),
            )
            .unwrap();
            store.total_bytes()
        })
    });
    group.bench_function("chunked", |b| {
        b.iter(|| {
            let store = MemStore::new(true);
            pack_versions_chunked(&store, black_box(&contents), ChunkerParams::default()).unwrap();
            store.total_bytes()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("substrate_checkout_all");
    group.bench_function("delta_chain", |b| {
        let store = MemStore::new(true);
        let packed = pack_versions(&store, &contents, &chain_plan, PackOptions::default()).unwrap();
        b.iter(|| {
            let m = Materializer::new(&store);
            (0..n as u32)
                .map(|v| packed.checkout(&m, v).unwrap().0.len())
                .sum::<usize>()
        })
    });
    group.bench_function("chunked", |b| {
        let store = MemStore::new(true);
        let (packed, _) =
            pack_versions_chunked(&store, &contents, ChunkerParams::default()).unwrap();
        b.iter(|| {
            let m = Materializer::new(&store);
            (0..n as u32)
                .map(|v| packed.checkout(&m, v).unwrap().0.len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_diff, bench_reveal, bench_cold_path, bench_graph, bench_chunking, bench_substrate_regimes
}
criterion_main!(benches);
