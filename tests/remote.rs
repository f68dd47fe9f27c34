//! Loopback integration tests for the `dsv serve` front end: the
//! served conversation and concurrent clients as rows of the model
//! harness (`common::model`), and protocol abuse (bad version, unknown
//! opcode, oversized frame, stalled client) answered with structured
//! error frames instead of a panic or a hang.

use common::model;
use dsv_net::frame::{errcode, read_frame, write_frame, Frame, NetError, PROTOCOL_VERSION};
use dsv_net::proto::{Request, Response};
use dsv_net::server::{Server, ServerOptions};
use dsv_net::Client;
use dsv_vcs::serve::{Dsvd, DsvdConfig};
use dsv_vcs::Repository;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

/// A `dsv serve` front end driven over loopback by `Client` answers
/// exactly what `Dsvd::handle` in process answers, step for step, and
/// ends with the same objects.
#[test]
fn remote_conversation_matches_local_byte_for_byte() {
    let configs = ["mem", "served"].map(model::config);
    let ops = model::fault_free(8, 24);
    model::check("served", &ops, |ops| model::lockstep(&configs, ops));
}

/// Four clients at once on one `dsv serve` front end, over a local store
/// and over remote store shards: commit ids come out distinct and dense,
/// every checkout returns the bytes committed under its id, and a restart
/// from disk finds every version.
#[test]
fn concurrent_clients_over_local_and_remote_sharded_stores() {
    for name in ["concurrent", "concurrent-remote"] {
        let ops = model::fault_free(9, 32);
        model::replay(name, &ops);
    }
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
