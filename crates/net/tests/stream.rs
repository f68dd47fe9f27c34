//! The streamed spelling of the codec against the frame-at-once one.
//!
//! The server and the client read a message as header + `read_body` off
//! the socket and write it as `gather` + `write_to`; `encode` / `decode`
//! / `read_frame` / `write_frame` are the same generated code over
//! memory. These tests hold the two to each other — same bytes out, same
//! message or same error in, however the bytes are chunked on arrival —
//! and hold the streamed reader to the framing rules a live connection
//! depends on: after a body that does not parse, the stream stands at
//! the next frame.

use dsv_net::frame::{
    errcode, opcode, read_frame, read_header, write_frame, Frame, NetError, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
use dsv_net::proto::{Reply, Request, Response};
use dsv_net::server::{session, Server, ServerOptions};
use dsv_net::Client;
use dsv_obs::SpanHandle;
use dsv_storage::{Object, RecreationWork};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Hands out at most `step` bytes per `read`, like a socket whose
/// segments arrive one at a time.
struct Dribble<'a> {
    rest: &'a [u8],
    step: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// One frame on the wire: header, then `body`.
fn wire(opcode: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &Frame::new(opcode, body.to_vec())).unwrap();
    out
}

/// Every body literal of `golden.rs`, harvested from its source: that
/// file must stay unedited and keeps its row functions private, but a
/// row's bytes are all this file needs — `golden.rs` itself pins which
/// message they are.
fn golden_bodies() -> Vec<Vec<u8>> {
    let source = include_str!("golden.rs");
    let mut bodies = Vec::new();
    for literal in source.split('"').skip(1).step_by(2) {
        let hex = literal.len() % 2 == 0
            && literal
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        if hex {
            bodies.push(
                (0..literal.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&literal[i..i + 2], 16).unwrap())
                    .collect(),
            );
        }
    }
    bodies
}

/// Errors compare by variant and text (`NetError` holds an `io::Error`).
fn same<T: PartialEq + std::fmt::Debug>(
    streamed: &Result<T, NetError>,
    at_once: &Result<T, NetError>,
) -> bool {
    match (streamed, at_once) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
        _ => false,
    }
}

/// The two readers over one wire image delivered `step` bytes at a time:
/// equal outcomes, and — unless the transport itself failed — the
/// streamed reader leaves exactly the next frame unread.
fn assert_streamed_read_agrees(image: &[u8], step: usize) {
    let mut followed = image.to_vec();
    followed.extend_from_slice(&wire(opcode::PING, &[]));

    let frame = read_frame(&mut image.to_vec().as_slice(), DEFAULT_MAX_FRAME).unwrap();
    let requests = (Request::decode(&frame), {
        let mut src = Dribble {
            rest: &followed,
            step,
        };
        let header = read_header(&mut src, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(
            (header.opcode, header.len as usize),
            (frame.opcode, frame.body.len())
        );
        let streamed = Request::read_body(header, &mut src);
        assert_eq!(
            src.rest,
            &followed[image.len()..],
            "op {:#04x}",
            frame.opcode
        );
        streamed
    });
    assert!(same(&requests.1, &requests.0), "{requests:?}");

    let responses = (Response::decode(&frame), {
        let mut src = Dribble {
            rest: &followed,
            step,
        };
        let header = read_header(&mut src, DEFAULT_MAX_FRAME).unwrap();
        let streamed = Response::read_body(header, &mut src);
        assert_eq!(
            src.rest,
            &followed[image.len()..],
            "op {:#04x}",
            frame.opcode
        );
        streamed
    });
    assert!(same(&responses.1, &responses.0), "{responses:?}");

    // What parsed goes back out, streamed, as the image it came from.
    let mut out = Vec::new();
    if let Ok(req) = &requests.1 {
        req.lend().gather().write_to(&mut out).unwrap();
        assert_eq!(out, image, "{req:?}");
    }
    if let Ok(resp) = &responses.1 {
        out.clear();
        resp.lend().gather().write_to(&mut out).unwrap();
        assert_eq!(out, image, "{resp:?}");
    }
}

/// Every golden row under every opcode — its own, where it is the pinned
/// message, and the 255 others, where it is whatever that layout makes
/// of the bytes: the streamed read equals `decode(read_frame(..))` one
/// byte at a time, a few at a time, and all at once.
#[test]
fn golden_rows_read_the_same_streamed_and_at_once() {
    let bodies = golden_bodies();
    assert!(bodies.len() >= 39, "found {} golden rows", bodies.len());
    for body in &bodies {
        let mut parsed_as = 0;
        for op in 0..=255u8 {
            let image = wire(op, body);
            for step in [1, 7, usize::MAX] {
                assert_streamed_read_agrees(&image, step);
            }
            let frame = Frame::new(op, body.clone());
            parsed_as += Request::decode(&frame).is_ok() as usize;
            parsed_as += Response::decode(&frame).is_ok() as usize;
        }
        assert!(parsed_as >= 1, "a golden row no opcode parses: {body:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A version-sized checkout (lent on the way out, read into place on
    /// the way in) under any chunking of its arrival.
    #[test]
    fn a_large_checkout_survives_any_chunking(
        len in 0usize..300_000,
        step in 1usize..70_000,
        fill in any::<u8>(),
    ) {
        let resp = Response::CheckoutOk {
            work: RecreationWork { objects_fetched: 3, ..RecreationWork::default() },
            data: vec![fill; len],
        };
        let frame = resp.encode();
        let mut image = Vec::new();
        resp.lend().gather().write_to(&mut image).unwrap();
        prop_assert_eq!(&image, &wire(frame.opcode, &frame.body));
        let mut src = Dribble { rest: &image, step };
        let header = read_header(&mut src, DEFAULT_MAX_FRAME).unwrap();
        let back = Response::read_body(header, &mut src).unwrap();
        prop_assert!(src.rest.is_empty());
        if let Response::CheckoutOk { data, .. } = &back {
            prop_assert_eq!(data.capacity(), len, "an exact-size buffer");
        }
        prop_assert_eq!(back, resp);
    }

    /// Cutting a streamed message anywhere inside its body is
    /// `Truncated`, whatever field the cut falls in.
    #[test]
    fn a_cut_inside_a_streamed_body_is_truncated(
        len in 0usize..5_000,
        cut in any::<prop::sample::Index>(),
        step in 1usize..600,
    ) {
        let put = Request::StorePut {
            objs: vec![Object::Full { data: vec![5; len] }, Object::Full { data: vec![6; 40] }],
        };
        let mut image = Vec::new();
        put.lend().gather().write_to(&mut image).unwrap();
        let cut = 5 + cut.index(image.len() - 5);
        let mut src = Dribble { rest: &image[..cut], step };
        let header = read_header(&mut src, DEFAULT_MAX_FRAME).unwrap();
        let got = Request::read_body(header, &mut src);
        prop_assert!(matches!(got, Err(NetError::Truncated)), "{:?}", got);
    }
}

/// `(opcode, body, the error both readers must give)`.
fn hostile_bodies() -> Vec<(u8, Vec<u8>, &'static str)> {
    let work = [0u8; 40];
    let mut rows = Vec::new();

    // A blob that claims more than the frame has left.
    let mut body = work.to_vec();
    body.extend_from_slice(&1_000_000u32.to_le_bytes());
    body.extend_from_slice(&[1; 100]);
    rows.push((
        opcode::CHECKOUT_OK,
        body,
        "Malformed(\"body shorter than declared field\")",
    ));

    // A list count the body cannot hold.
    let mut body = u32::MAX.to_le_bytes().to_vec();
    body.extend_from_slice(&[2; 64]);
    rows.push((opcode::STORE_GET, body, "Malformed(\"count exceeds body\")"));

    // A list that is implausible however large the frame.
    let mut body = vec![0u8; 16];
    body.extend_from_slice(&(1u32 << 17).to_le_bytes());
    body.extend_from_slice(&[0; 64]);
    rows.push((
        opcode::STORE_STATS_OK,
        body,
        "Malformed(\"implausible shard count\")",
    ));

    // A well-formed message with bytes after it.
    let mut body = 7u32.to_le_bytes().to_vec();
    body.extend_from_slice(&[9; 3000]);
    rows.push((
        opcode::CHECKOUT,
        body,
        "Malformed(\"trailing bytes after body\")",
    ));

    // A bad byte half-way, a large payload still to come behind it.
    let mut body = 1u64.to_le_bytes().to_vec();
    body.extend_from_slice(&[4, 0, 0, 0]);
    body.extend_from_slice(b"main");
    body.extend_from_slice(&[0, 0, 0, 0]);
    body.push(2); // `online` is 0 or 1
    body.extend_from_slice(&vec![8; 200_000]);
    rows.push((opcode::COMMIT, body, "Malformed(\"boolean byte not 0/1\")"));

    // A string that is not UTF-8, an object that is no object.
    let mut body = 5u16.to_le_bytes().to_vec();
    body.extend_from_slice(&[2, 0, 0, 0, 0xC3, 0x28]);
    rows.push((opcode::ERROR, body, "Malformed(\"string not UTF-8\")"));
    let mut body = 1u32.to_le_bytes().to_vec();
    body.extend_from_slice(&[3, 0, 0, 0, 9, 9, 9]);
    rows.push((
        opcode::STORE_PUT,
        body,
        "Malformed(\"object blob failed to decode\")",
    ));

    rows.push((0x42, vec![1; 5000], "UnknownOpcode(66)"));
    rows
}

#[test]
fn hostile_bodies_give_the_same_errors_and_leave_the_stream_framed() {
    for (op, body, want) in hostile_bodies() {
        let frame = Frame::new(op, body);
        let request_side = op < 0x80 && op != 0x42;
        let at_once = if request_side {
            Request::decode(&frame).map(|_| ()).unwrap_err()
        } else {
            Response::decode(&frame).map(|_| ()).unwrap_err()
        };
        assert_eq!(format!("{at_once:?}"), want);
        let image = wire(op, &frame.body);
        for step in [1, 4096, usize::MAX] {
            assert_streamed_read_agrees(&image, step);
        }
    }
}

#[test]
fn an_oversized_frame_is_refused_at_its_header() {
    let mut image = (4097u32).to_le_bytes().to_vec();
    image.push(opcode::COMMIT);
    // Nothing follows: the refusal needs, and reads, no body byte.
    match read_header(&mut image.as_slice(), 4096) {
        Err(NetError::FrameTooLarge { len, max }) => assert_eq!((len, max), (4097, 4096)),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert!(matches!(
        read_header(&mut [].as_slice(), 4096),
        Err(NetError::Eof)
    ));
    assert!(matches!(
        read_header(&mut [1u8, 0].as_slice(), 4096),
        Err(NetError::Truncated)
    ));
}

#[test]
fn a_stream_that_ends_inside_a_payload_is_truncated_not_malformed() {
    let resp = Response::CheckoutOk {
        work: RecreationWork::default(),
        data: vec![3; 50_000],
    };
    let mut image = Vec::new();
    resp.lend().gather().write_to(&mut image).unwrap();
    for cut in [5, 6, 44, 45, 48, 49, 50, 20_000, image.len() - 1] {
        let mut src = &image[..cut];
        let header = read_header(&mut src, DEFAULT_MAX_FRAME).unwrap();
        assert!(
            matches!(
                Response::read_body(header, &mut src),
                Err(NetError::Truncated)
            ),
            "cut at {cut}"
        );
    }
    // Also while skipping the rest of a body that did not parse.
    let (op, body, _) = hostile_bodies().swap_remove(4);
    let image = wire(op, &body);
    let mut src = &image[..image.len() - 1000];
    let header = read_header(&mut src, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(
        Request::read_body(header, &mut src),
        Err(NetError::Truncated)
    ));
}

/// One `session` on a loopback socket around `handle`, for the duration
/// of `f`.
fn with_session(handle: impl Fn(Request) -> Reply + Sync, f: impl FnOnce(&str)) {
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
        scope.spawn(|| {
            server.serve(&|stream: TcpStream| {
                session(
                    &stream,
                    DEFAULT_MAX_FRAME,
                    Some(Duration::from_secs(5)),
                    &SpanHandle::disabled(),
                    &handle,
                )
            })
        });
        f(&addr);
        Client::connect(&addr).unwrap().shutdown().unwrap();
    });
}

fn echo(req: Request) -> Reply {
    match req {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShutdownOk,
        Request::Commit { data, .. } => Response::CommitOk {
            id: 1,
            bytes: data.len() as u64,
            online: false,
        },
        _ => Response::server_error("not served here"),
    }
    .into()
}

/// A request that turns out malformed with 200 KB of its body still in
/// flight: the server skips the rest, answers in-band, and the same
/// connection serves the next request.
#[test]
fn a_request_malformed_half_way_is_reported_and_the_connection_lives_on() {
    with_session(echo, |addr| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut call = |image: &[u8]| -> Response {
            stream.write_all(image).unwrap();
            let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
            Response::decode(&frame).unwrap()
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode();
        assert!(matches!(
            call(&wire(hello.opcode, &hello.body)),
            Response::HelloOk { .. }
        ));
        for (op, body, want) in hostile_bodies() {
            // A response opcode is an unknown *request* opcode.
            let expect = if op < 0x80 && op != 0x42 {
                assert!(want.starts_with("Malformed"));
                errcode::MALFORMED
            } else {
                errcode::UNKNOWN_OPCODE
            };
            match call(&wire(op, &body)) {
                Response::Error { code, message } => assert_eq!(code, expect, "{message}"),
                other => panic!("expected an error frame, got {other:?}"),
            }
            assert!(matches!(call(&wire(opcode::PING, &[])), Response::Pong));
        }
    });
}

/// The client's half of the same rule: a reply whose body does not parse
/// is a protocol error, never retried, and the connection is still good
/// for the next call.
#[test]
fn a_reply_malformed_half_way_leaves_the_client_connection_usable() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let (mut stream, _) = listener.accept().unwrap();
            let mut answer = |image: &[u8]| {
                read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
                stream.write_all(image).unwrap();
            };
            let ok = Response::HelloOk {
                version: PROTOCOL_VERSION,
            }
            .encode();
            answer(&wire(ok.opcode, &ok.body));
            let (op, body, _) = hostile_bodies().swap_remove(0);
            answer(&wire(op, &body));
            answer(&wire(opcode::PONG, &[]));
        });
        let mut client = Client::connect(&addr).unwrap();
        match client.checkout(0) {
            Err(NetError::Malformed(what)) => assert_eq!(what, "body shorter than declared field"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        client.ping().unwrap();
    });
}

/// A checkout-sized commit and a checkout-sized reply through a real
/// session and a real `Client`: gathered writes and streamed reads on
/// both ends of both directions.
#[test]
fn large_payloads_cross_a_live_session_both_ways() {
    let version: Vec<u8> = (0..400_000u32).map(|i| (i * 7) as u8).collect();
    let served = std::sync::Arc::new(version.clone());
    let handle = |req: Request| match req {
        Request::Checkout { .. } => Reply::Checkout {
            work: RecreationWork::default(),
            data: std::sync::Arc::clone(&served),
        },
        other => echo(other),
    };
    with_session(handle, |addr| {
        let mut client = Client::connect(addr).unwrap();
        let (_, bytes, _) = client
            .commit("main", "big", false, 0, None, version.clone())
            .unwrap();
        assert_eq!(bytes, version.len() as u64);
        let (data, _) = client.checkout(0).unwrap();
        assert_eq!(data.capacity(), version.len());
        assert_eq!(data, version);
        client.ping().unwrap();
    });
}
