//! Bounded thread-per-connection server transport.
//!
//! [`Server::bind`] wraps a blocking [`TcpListener`]; [`Server::serve`]
//! pre-spawns a fixed pool of worker threads (default:
//! [`dsv_par::current_threads`]) and feeds accepted connections through a
//! bounded channel — the accept loop blocks once `queue_depth`
//! connections are waiting, so a flood of clients cannot pile up
//! unbounded sockets. Each worker hands the raw stream to the
//! [`ConnHandler`], which for both services in this workspace is one call
//! to [`session`] — the framed request/response conversation, written
//! once — around the service's own `Request -> Reply` function.
//!
//! Shutdown: when a handler returns [`ServeControl::Shutdown`], the flag
//! flips and the worker dials the listener once so the blocked `accept`
//! wakes, observes the flag, and exits; remaining queued connections are
//! dropped and `serve` returns after all workers drain.

use crate::frame::{errcode, read_header, NetError, PROTOCOL_VERSION};
use crate::proto::{Outgoing, Reply, Request, Response};
use dsv_obs as obs;
use parking_lot::Mutex;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// What the connection handler wants the accept loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeControl {
    /// Keep accepting connections.
    Continue,
    /// Stop accepting; drain workers and return from `serve`.
    Shutdown,
}

/// Per-connection callback. Implementations own the full protocol
/// conversation on the stream; returning never re-enqueues the socket.
pub trait ConnHandler: Sync {
    fn handle(&self, conn: TcpStream) -> ServeControl;
}

impl<F: Fn(TcpStream) -> ServeControl + Sync> ConnHandler for F {
    fn handle(&self, conn: TcpStream) -> ServeControl {
        self(conn)
    }
}

/// Pool sizing for [`Server::serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Worker threads; `0` means [`dsv_par::current_threads`].
    pub workers: usize,
    /// Accepted-but-unclaimed connections to buffer before the accept
    /// loop itself blocks.
    pub queue_depth: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 0,
            queue_depth: 32,
        }
    }
}

/// A bound listener plus pool configuration.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    opts: ServerOptions,
}

impl Server {
    /// Bind `addr` (port `0` picks a free port; see [`Server::local_addr`]).
    pub fn bind(addr: &str) -> std::io::Result<Server> {
        Self::bind_with(addr, ServerOptions::default())
    }

    pub fn bind_with(addr: &str, opts: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            opts,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn workers(&self) -> usize {
        if self.opts.workers == 0 {
            dsv_par::current_threads().max(1)
        } else {
            self.opts.workers
        }
    }

    /// Accept connections and dispatch them to `handler` on the worker
    /// pool until a handler requests shutdown. Blocks the calling thread.
    pub fn serve<H: ConnHandler>(&self, handler: &H) {
        let workers = self.workers();
        let shutdown = AtomicBool::new(false);
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(self.opts.queue_depth);
        let rx = Mutex::new(rx);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = &rx;
                let shutdown = &shutdown;
                scope.spawn(move || loop {
                    // Hold the receiver lock only for the dequeue — the
                    // conversation itself runs unlocked so workers serve
                    // clients concurrently.
                    let conn = match rx.lock().recv() {
                        Ok(conn) => conn,
                        Err(_) => return,
                    };
                    if handler.handle(conn) == ServeControl::Shutdown {
                        shutdown.store(true, Ordering::SeqCst);
                        // Wake the blocked accept so it can observe the
                        // flag; the wake connection is dropped unserved.
                        let _ = TcpStream::connect(self.addr);
                    }
                });
            }
            for conn in self.listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                if tx.send(conn).is_err() {
                    break;
                }
            }
            // Closing the channel ends every worker's recv loop.
            drop(tx);
        });
    }
}

/// One framed conversation on an accepted stream: the `Hello` handshake,
/// then request → `handle` → reply until the peer leaves. A `ShutdownOk`
/// reply is sent and then ends the whole server.
///
/// Both directions are streamed. A request is its header, then its
/// fields parsed off the socket with each payload read into the `Vec` it
/// stays in; a reply is gathered — fixed fields in a head buffer, bulk
/// payloads lent by whoever holds them (the checkout cache, for a cached
/// version) — and leaves in one vectored write. No frame is assembled in
/// between on either side.
///
/// Errors that cannot be reported in-band (the stream is gone or
/// unframed) just end the connection: a clean close and an idle timeout
/// close silently, an oversized frame is reported then closed (the
/// stream is only framed up to the bad length prefix), and a malformed
/// body or unknown opcode is reported and the connection lives on (the
/// rest of the declared body has been skipped).
///
/// Instrumented as `conn → recv_wait / decode / handle / encode / send`
/// under `serve` (the service's own span), with a child named after the
/// request under each `handle`, plus the `net.connections`,
/// `net.requests`, `net.bytes_in` and `net.bytes_out` counters (wire
/// bytes, headers included). `recv_wait` is the blocking read of the
/// next header, so it is the client's think time; `decode` is the body —
/// its transfer and its parse; `encode` builds the reply's head and
/// `send` is the write alone.
pub fn session(
    stream: &TcpStream,
    max_frame: u32,
    read_timeout: Option<Duration>,
    serve: &obs::SpanHandle,
    handle: impl Fn(Request) -> Reply,
) -> ServeControl {
    let conn_span = serve.child("conn").entered();
    let conn = conn_span.handle();
    obs::counter!("net.connections", 1);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(read_timeout);
    let mut reader = BufReader::new(stream);
    let send = |out: &Outgoing<'_>| -> bool {
        obs::counter!("net.bytes_out", out.wire_len());
        out.write_to(&mut &*stream).is_ok()
    };
    let report = |e: &NetError| send(&Response::error_for(e).lend().gather());

    // Handshake: the first frame must be a matching Hello.
    let hello = match read_header(&mut reader, max_frame) {
        Ok(header) => header,
        Err(NetError::Eof) => return ServeControl::Continue,
        Err(e) => {
            report(&e);
            return ServeControl::Continue;
        }
    };
    let reply = match Request::read_body(hello, &mut reader) {
        Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
            obs::counter!("net.bytes_in", hello.wire_len());
            Response::HelloOk {
                version: PROTOCOL_VERSION,
            }
        }
        Ok(Request::Hello { version }) => Response::Error {
            code: errcode::VERSION_MISMATCH,
            message: format!("server speaks protocol v{PROTOCOL_VERSION}, client sent v{version}"),
        },
        Ok(_) => Response::Error {
            code: errcode::BAD_REQUEST,
            message: "first frame must be Hello".into(),
        },
        Err(e) => Response::error_for(&e),
    };
    if !send(&reply.lend().gather()) || !matches!(reply, Response::HelloOk { .. }) {
        return ServeControl::Continue;
    }

    loop {
        let received = conn
            .child("recv_wait")
            .in_scope(|| read_header(&mut reader, max_frame));
        let header = match received {
            Ok(header) => header,
            Err(e @ NetError::FrameTooLarge { .. }) => {
                report(&e);
                return ServeControl::Continue;
            }
            // Clean close between frames, a vanished peer, or an idle
            // timeout: close silently. An error frame written on timeout
            // would sit in the socket buffer and desynchronize a client
            // that later reuses the idle connection — it would read the
            // stale frame as the reply to its next request.
            Err(_) => return ServeControl::Continue,
        };
        // Counted as announced: a body that then never arrives ends the
        // connection a few lines down.
        obs::counter!("net.bytes_in", header.wire_len());
        obs::counter!("net.requests", 1);
        let decoded = conn
            .child("decode")
            .in_scope(|| Request::read_body(header, &mut reader));
        let req = match decoded {
            Ok(req) => req,
            // The body was skipped to its declared end, so frame
            // boundaries are intact; report in-band and keep the
            // connection alive.
            Err(e @ (NetError::Malformed(_) | NetError::UnknownOpcode(_))) => {
                if report(&e) {
                    continue;
                }
                return ServeControl::Continue;
            }
            // The body never fully arrived: same silence as above.
            Err(_) => return ServeControl::Continue,
        };
        let reply = {
            let handling = conn.child("handle").entered();
            let _op = handling.handle().child(req.name()).entered();
            handle(req)
        };
        let out = conn.child("encode").in_scope(|| reply.lend().gather());
        let sent = conn.child("send").in_scope(|| send(&out));
        if matches!(reply, Reply::Message(Response::ShutdownOk)) {
            return ServeControl::Shutdown;
        }
        if !sent {
            return ServeControl::Continue;
        }
    }
}
