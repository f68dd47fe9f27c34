//! Loopback integration tests for the `dsvd` server front end: a remote
//! `commit` → `checkout` → `stats` conversation must match a local
//! repository byte-for-byte, and the server must answer protocol abuse
//! (bad version, unknown opcode, oversized frame, stalled client) with
//! structured error frames instead of panicking or hanging. Several
//! clients at once must each get the bytes committed under the id they
//! ask for, over a local store and over remote store shards alike.

mod common;

use common::{StoreServer, TempDir};
use dsv_net::frame::{errcode, read_frame, write_frame, Frame, NetError, PROTOCOL_VERSION};
use dsv_net::proto::{Request, Response};
use dsv_net::server::{Server, ServerOptions};
use dsv_net::{Client, DEFAULT_MAX_FRAME};
use dsv_storage::{FileStore, ObjectStore};
use dsv_vcs::serve::{Dsvd, DsvdConfig};
use dsv_vcs::{persist, CommitId, OnlineOptions, Repository};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Barrier;
use std::time::Duration;

fn version_contents(n: usize) -> Vec<Vec<u8>> {
    let mut rows: Vec<String> = (0..200).map(|i| format!("row-{i},{}\n", i * 31)).collect();
    let mut out = Vec::new();
    for v in 0..n {
        rows.push(format!("appended-{v},{}\n", v * 7));
        if v % 2 == 1 {
            rows[v] = format!("edited-{v}\n");
        }
        out.push(rows.concat().into_bytes());
    }
    out
}

/// Remote commit → checkout → stats against `dsvd` matches a local
/// repository driven with the same operations, byte-for-byte.
#[test]
fn remote_conversation_matches_local_byte_for_byte() {
    let contents = version_contents(6);
    let mut server_repo = Repository::in_memory();
    let mut mirror = Repository::in_memory();
    // Preseed both sides identically: versions v0..v3 exist before the
    // server starts; the last two arrive over the wire.
    for data in &contents[..4] {
        server_repo.commit("main", data, "seed").unwrap();
        mirror.commit("main", data, "seed").unwrap();
    }

    let dsvd = Dsvd::new(
        server_repo,
        DsvdConfig {
            cache_bytes: 1 << 20,
            ..DsvdConfig::default()
        },
    );
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| dsvd.serve(&server));

        let mut client = Client::connect(&addr).unwrap();
        client.ping().unwrap();

        // One plain commit and one online commit over the wire; mirror
        // both locally with the same placement parameters.
        let (id4, bytes4, online4) = client
            .commit("main", "remote plain", false, 2, None, contents[4].clone())
            .unwrap();
        let m4 = mirror.commit("main", &contents[4], "remote plain").unwrap();
        assert_eq!(
            (CommitId(id4), bytes4, online4),
            (m4, contents[4].len() as u64, false)
        );

        let (id5, _, online5) = client
            .commit("main", "remote online", true, 2, None, contents[5].clone())
            .unwrap();
        let m5 = mirror
            .commit_online(
                "main",
                &contents[5],
                "remote online",
                OnlineOptions::default(),
            )
            .unwrap();
        assert_eq!((CommitId(id5), online5), (m5, true));

        // Every version — preseeded and wire-committed — checks out
        // byte-identical to the local mirror.
        for v in 0..6u32 {
            let (remote, _work) = client.checkout(v).unwrap();
            let local = mirror.checkout(CommitId(v)).unwrap();
            assert_eq!(remote, local, "v{v} differs between remote and local");
            assert_eq!(remote, contents[v as usize]);
        }

        // The same mutation history lands on the same physical layout.
        let stats = client.stats().unwrap();
        assert_eq!(stats.logical_bytes, mirror.logical_bytes());
        assert_eq!(stats.stats.bytes, mirror.storage_bytes());
        assert_eq!(stats.stats.objects, mirror.store().stats().objects);
        let cache = stats.cache.expect("server cache enabled");
        assert!(cache.lookups > 0, "checkouts must go through the cache");

        // Unknown version: structured server error, connection survives.
        match client.checkout(99) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, errcode::SERVER),
            other => panic!("expected remote error, got {other:?}"),
        }
        client.ping().unwrap();

        client.shutdown().unwrap();
    });
}

/// Four clients replay a seeded mix of checkouts and online commits
/// against one `Dsvd` (shared checkout cache, metadata saved under
/// `root`) whose repository sits on `store`. Every checkout must return
/// the bytes committed under that id, the commit ids handed out must be
/// distinct and dense, the shared cache must have served hits, and after
/// shutdown a reader loading `root` afresh must see every version.
fn concurrent_clients_see_committed_bytes<S: ObjectStore + Send + Sync>(store: S, root: &Path) {
    const CLIENTS: usize = 4;
    const OPS: usize = 24;
    let seeded = version_contents(6);
    let mut repo = Repository::init(store);
    for data in &seeded {
        repo.commit("main", data, "seed").unwrap();
    }
    persist::save(&repo, root).unwrap();
    let dsvd = Dsvd::new(
        repo,
        DsvdConfig {
            cache_bytes: 1 << 20,
            ..DsvdConfig::default()
        },
    )
    .with_save_root(root.to_path_buf());
    // One worker per client: a session pins its worker, and all four
    // conversations must be open at once for the barrier to release.
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerOptions {
            workers: CLIENTS,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let start = Barrier::new(CLIENTS);

    let mut committed: Vec<(u32, Vec<u8>)> = std::thread::scope(|scope| {
        scope.spawn(|| dsvd.serve(&server));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, seeded, start) = (&addr, &seeded, &start);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut rng = StdRng::seed_from_u64(2015 + c as u64);
                    let mut mine: Vec<(u32, Vec<u8>)> = Vec::new();
                    start.wait();
                    for op in 0..OPS {
                        if op % 6 == 5 {
                            let mut data = seeded[rng.gen_range(0..seeded.len())].clone();
                            data.extend_from_slice(format!("client-{c}-op-{op}\n").as_bytes());
                            let (id, bytes, online) = client
                                .commit("main", "concurrent", true, 2, None, data.clone())
                                .unwrap();
                            assert_eq!((bytes, online), (data.len() as u64, true));
                            mine.push((id, data));
                        } else {
                            // Any seeded version, or one this client committed.
                            let pick = rng.gen_range(0..seeded.len() + mine.len());
                            let (id, expected) = match pick.checked_sub(seeded.len()) {
                                None => (pick as u32, &seeded[pick]),
                                Some(i) => (mine[i].0, &mine[i].1),
                            };
                            let (data, _work) = client.checkout(id).unwrap();
                            assert_eq!(&data, expected, "client {c}: v{id}");
                        }
                    }
                    mine
                })
            })
            .collect();
        let committed = clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();

        let mut client = Client::connect(&addr).unwrap();
        let cache = client.stats().unwrap().cache.expect("server cache enabled");
        assert!(cache.hits > 0, "repeat checkouts must hit the shared cache");
        client.shutdown().unwrap();
        committed
    });

    committed.sort();
    let ids: Vec<u32> = committed.iter().map(|(id, _)| *id).collect();
    let first = seeded.len() as u32;
    let dense: Vec<u32> = (first..first + committed.len() as u32).collect();
    assert_eq!(ids, dense, "commit ids must be distinct and dense");

    let reader = persist::load(root, true).unwrap();
    assert_eq!(reader.version_count(), seeded.len() + committed.len());
    let all = seeded.iter().chain(committed.iter().map(|(_, data)| data));
    for (v, expected) in all.enumerate() {
        assert_eq!(&reader.checkout(CommitId(v as u32)).unwrap(), expected);
    }
}

#[test]
fn concurrent_clients_over_local_and_remote_sharded_stores() {
    let dir = TempDir::new("remote-concurrent");
    let local = dir.0.join("local");
    let store = FileStore::open(&local.join("objects"), true).unwrap();
    concurrent_clients_see_committed_bytes(store, &local);

    let shards: Vec<StoreServer> = (0..2)
        .map(|_| StoreServer::spawn(DEFAULT_MAX_FRAME))
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let store = persist::connect_remote_shards(&addrs).unwrap();
    concurrent_clients_see_committed_bytes(store, &dir.0.join("remote"));
}

/// Raw-socket conversation helper for the robustness tests.
fn raw_call(
    reader: &mut BufReader<&TcpStream>,
    writer: &mut BufWriter<&TcpStream>,
    frame: &Frame,
    max: u32,
) -> Result<Frame, NetError> {
    write_frame(writer, frame)?;
    read_frame(reader, max)
}

#[test]
fn protocol_abuse_gets_structured_errors_not_hangs() {
    let mut repo = Repository::in_memory();
    repo.commit("main", b"serve me\n", "seed").unwrap();
    let dsvd = Dsvd::new(
        repo,
        DsvdConfig {
            cache_bytes: 0,
            max_frame: 4096,
            read_timeout: Some(Duration::from_millis(300)),
        },
    );
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| dsvd.serve(&server));

        // Version mismatch: structured VERSION_MISMATCH error frame.
        {
            let stream = TcpStream::connect(&addr).unwrap();
            let mut reader = BufReader::new(&stream);
            let mut writer = BufWriter::new(&stream);
            let hello = Request::Hello { version: 999 }.encode();
            let reply = raw_call(&mut reader, &mut writer, &hello, 4096).unwrap();
            match Response::decode(&reply).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, errcode::VERSION_MISMATCH),
                other => panic!("expected error frame, got {other:?}"),
            }
        }

        // Unknown opcode after a good handshake: error frame, and the
        // connection stays usable.
        {
            let stream = TcpStream::connect(&addr).unwrap();
            let mut reader = BufReader::new(&stream);
            let mut writer = BufWriter::new(&stream);
            let hello = Request::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode();
            let reply = raw_call(&mut reader, &mut writer, &hello, 4096).unwrap();
            assert!(matches!(
                Response::decode(&reply).unwrap(),
                Response::HelloOk { .. }
            ));

            let bogus = Frame::new(0x42, vec![1, 2, 3]);
            let reply = raw_call(&mut reader, &mut writer, &bogus, 4096).unwrap();
            match Response::decode(&reply).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, errcode::UNKNOWN_OPCODE),
                other => panic!("expected error frame, got {other:?}"),
            }

            // Malformed body for a known opcode: same story.
            let short = Frame::new(dsv_net::opcode::CHECKOUT, vec![1]);
            let reply = raw_call(&mut reader, &mut writer, &short, 4096).unwrap();
            match Response::decode(&reply).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, errcode::MALFORMED),
                other => panic!("expected error frame, got {other:?}"),
            }

            let pong = raw_call(&mut reader, &mut writer, &Request::Ping.encode(), 4096).unwrap();
            assert!(matches!(Response::decode(&pong).unwrap(), Response::Pong));
        }

        // Oversized length prefix: FRAME_TOO_LARGE error frame, then the
        // server closes (the stream is no longer framed).
        {
            let stream = TcpStream::connect(&addr).unwrap();
            let mut reader = BufReader::new(&stream);
            let mut writer = BufWriter::new(&stream);
            let hello = Request::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode();
            raw_call(&mut reader, &mut writer, &hello, 4096).unwrap();

            let huge = Frame::new(dsv_net::opcode::COMMIT, vec![0; 8192]);
            let reply = raw_call(&mut reader, &mut writer, &huge, 4096).unwrap();
            match Response::decode(&reply).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, errcode::FRAME_TOO_LARGE),
                other => panic!("expected error frame, got {other:?}"),
            }
            assert!(matches!(
                read_frame(&mut reader, 4096),
                Err(NetError::Eof | NetError::Truncated | NetError::Io(_))
            ));
        }

        // A stalled client cannot pin a worker past the read timeout:
        // the server closes the idle connection silently (no error
        // frame — a stale in-band frame would desynchronize a client
        // that reuses the connection) instead of blocking forever.
        {
            let stream = TcpStream::connect(&addr).unwrap();
            let mut reader = BufReader::new(&stream);
            let mut writer = BufWriter::new(&stream);
            let hello = Request::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode();
            raw_call(&mut reader, &mut writer, &hello, 4096).unwrap();
            // Send nothing; the server's decode path times out and the
            // next read observes a clean close.
            assert!(matches!(
                read_frame(&mut reader, 4096),
                Err(NetError::Eof | NetError::Truncated | NetError::Io(_))
            ));
        }

        let mut client = Client::connect(&addr).unwrap();
        client.shutdown().unwrap();
    });
}
