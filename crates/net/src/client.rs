//! Blocking client for the `dsv serve` protocol, with bounded retry.
//!
//! [`Client::connect`] dials, performs the versioned handshake, and
//! returns a connection that issues one request frame per call and reads
//! exactly one response frame back — the request in one gathered write
//! with its payload lent, the response parsed off the socket with its
//! payload read into the `Vec` the caller gets. A structured error frame
//! from the server surfaces as [`NetError::Remote`]; a response whose
//! opcode does not match the request surfaces as [`NetError::Malformed`].
//!
//! # Retry
//!
//! Transport-level failures — connection drops ([`NetError::Eof`] /
//! [`NetError::Truncated`]), socket timeouts, and raw I/O errors — are
//! retried with bounded exponential backoff and deterministic jitter
//! (see [`RetryPolicy`]): the client reconnects, re-handshakes, and
//! resends the same request. Protocol-level failures (error frames,
//! malformed bodies, version mismatches) are never retried — the server
//! answered; asking again would not change its mind.
//!
//! Retrying a *commit* whose response was lost could double-apply it, so
//! every commit carries an idempotency token (a `u64` unique per logical
//! commit, stable across its retries). The server records the response
//! per token and replays it for a retried token instead of committing
//! twice — the client is free to resend blindly.

use crate::frame::{read_header, NetError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
use crate::proto::{FsckSummary, OptimizeSummary, Request, Response, StatsSummary, WireMode};
use dsv_core::{Problem, SolverChoice};
use dsv_storage::{Object, ObjectId, RecreationWork, StoreStats};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Bounded exponential backoff for transport-level retries.
///
/// Attempt `i` (0-based) sleeps `base_delay_ms << i` plus a
/// deterministic jitter of up to 50% of that, derived from `seed` and
/// `i` alone — two clients with the same policy back off identically,
/// which makes retry behavior reproducible in tests, while distinct
/// seeds (the default mixes in the process id) decorrelate real fleets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables retry).
    pub attempts: u32,
    /// Backoff base; attempt `i` waits `base_delay_ms << i` (+ jitter).
    pub base_delay_ms: u64,
    /// Jitter seed; same seed → same delay sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay_ms: 50,
            seed: 0x9E37_79B9_7F4A_7C15 ^ std::process::id() as u64,
        }
    }
}

impl RetryPolicy {
    /// No retries: every transport failure surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 0,
            base_delay_ms: 0,
            seed: 0,
        }
    }

    /// The backoff before retry `attempt` (0-based): exponential with
    /// deterministic jitter. Pure — drives both the real sleeps and the
    /// determinism tests.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self
            .base_delay_ms
            .checked_shl(attempt.min(16))
            .unwrap_or(u64::MAX);
        // splitmix64: well-mixed, std-only, stable across platforms.
        let mut z = self
            .seed
            .wrapping_add((attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let jitter = if base == 0 { 0 } else { z % (base / 2 + 1) };
        Duration::from_millis(base.saturating_add(jitter))
    }
}

/// Is this failure worth a reconnect-and-resend? Only transport-level
/// conditions qualify; anything the server *said* is final.
fn retryable(err: &NetError) -> bool {
    matches!(
        err,
        NetError::Io(_) | NetError::Timeout | NetError::Eof | NetError::Truncated
    )
}

/// Process-unique commit tokens: a counter mixed with the process id and
/// the process's start time, so tokens from a restarted client never
/// collide with ones the server already recorded. The time is sampled
/// once — `n ^ constant` is distinct for every `n`, where a fresh clock
/// reading per call could cancel the counter's step and repeat a token.
/// Never returns 0 (the wire's "no token" value). Public for callers that
/// build their own [`Request::Commit`] and send it through
/// [`Client::call`].
pub fn next_token() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    static STARTED: OnceLock<u64> = OnceLock::new();
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id() as u64;
    let t = *STARTED.get_or_init(|| {
        std::time::UNIX_EPOCH
            .elapsed()
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    });
    let mut z = n ^ (pid << 32) ^ t;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.max(1)
}

/// One protocol connection to a `dsv serve` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_frame: u32,
    addr: String,
    read_timeout: Option<Duration>,
    retry: RetryPolicy,
}

impl Client {
    /// Dial `addr` (e.g. `127.0.0.1:7411`) and perform the handshake.
    pub fn connect(addr: &str) -> Result<Client, NetError> {
        Self::connect_with(addr, DEFAULT_MAX_FRAME, Some(Duration::from_secs(60)))
    }

    /// [`Client::connect`] with an explicit frame cap and read timeout
    /// (`None` blocks forever — only sensible in tests).
    pub fn connect_with(
        addr: &str,
        max_frame: u32,
        read_timeout: Option<Duration>,
    ) -> Result<Client, NetError> {
        let (reader, writer) = dial(addr, read_timeout)?;
        let mut client = Client {
            reader,
            writer,
            max_frame,
            addr: addr.to_owned(),
            read_timeout,
            retry: RetryPolicy::default(),
        };
        client.handshake()?;
        Ok(client)
    }

    /// Replaces the retry policy (e.g. [`RetryPolicy::none`] to surface
    /// every transport failure immediately).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    fn handshake(&mut self) -> Result<(), NetError> {
        match self.call_once(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::HelloOk { version } if version == PROTOCOL_VERSION => Ok(()),
            Response::HelloOk { version } => Err(NetError::Handshake(format!(
                "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
            ))),
            other => Err(NetError::Handshake(format!(
                "unexpected handshake reply opcode 0x{:02x}",
                other.opcode()
            ))),
        }
    }

    /// The frame-body cap this client enforces on responses (and that a
    /// symmetric server presumably enforces on requests) — callers that
    /// split batches to stay under the peer's cap size against this.
    pub fn max_frame(&self) -> u32 {
        self.max_frame
    }

    /// Drop the (possibly desynchronized) connection and establish a
    /// fresh handshaken one. After any mid-call transport failure the
    /// old stream may hold half a frame — resending on it is never safe.
    /// Public because a caller that hit [`NetError::FrameTooLarge`] on a
    /// *response* must abandon the stream (the oversized frame is still
    /// in flight) before reusing the client.
    pub fn reconnect(&mut self) -> Result<(), NetError> {
        let (reader, writer) = dial(&self.addr, self.read_timeout)?;
        self.reader = reader;
        self.writer = writer;
        self.handshake()
    }

    fn call_once(&mut self, req: &Request) -> Result<Response, NetError> {
        req.lend().gather().write_to(&mut self.writer)?;
        let header = read_header(&mut self.reader, self.max_frame)?;
        match Response::read_body(header, &mut self.reader)? {
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            resp => Ok(resp),
        }
    }

    /// Send one request, read one response, retrying transport failures
    /// per the [`RetryPolicy`] (reconnect, re-handshake, resend — safe
    /// for commits because of their idempotency token). Error frames
    /// become [`NetError::Remote`] and are never retried.
    pub fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        let mut last = match self.call_once(req) {
            Ok(resp) => return Ok(resp),
            Err(e) if retryable(&e) => e,
            Err(e) => return Err(e),
        };
        for attempt in 0..self.retry.attempts {
            std::thread::sleep(self.retry.backoff(attempt));
            // A reconnect failure consumes the attempt and keeps backing
            // off — the server may be mid-restart.
            match self.reconnect().and_then(|()| self.call_once(req)) {
                Ok(resp) => return Ok(resp),
                Err(e) if retryable(&e) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(NetError::Malformed("expected Pong")),
        }
    }

    /// Returns `(new version id, logical bytes, online?)`. A fresh
    /// idempotency token is generated for this logical commit and reused
    /// verbatim across retries, so a commit whose response was lost in
    /// transit applies exactly once server-side.
    pub fn commit(
        &mut self,
        branch: &str,
        message: &str,
        online: bool,
        hops: u32,
        theta: Option<u64>,
        data: Vec<u8>,
    ) -> Result<(u32, u64, bool), NetError> {
        self.commit_with_token(next_token(), branch, message, online, hops, theta, data)
    }

    /// [`Client::commit`] with an explicit token — for resuming a commit
    /// whose outcome is unknown (crashed client) or for tests; `0` opts
    /// out of idempotency.
    #[allow(clippy::too_many_arguments)]
    pub fn commit_with_token(
        &mut self,
        token: u64,
        branch: &str,
        message: &str,
        online: bool,
        hops: u32,
        theta: Option<u64>,
        data: Vec<u8>,
    ) -> Result<(u32, u64, bool), NetError> {
        let req = Request::Commit {
            token,
            branch: branch.to_owned(),
            message: message.to_owned(),
            online,
            hops,
            theta,
            data,
        };
        match self.call(&req)? {
            Response::CommitOk { id, bytes, online } => Ok((id, bytes, online)),
            _ => Err(NetError::Malformed("expected CommitOk")),
        }
    }

    pub fn checkout(&mut self, version: u32) -> Result<(Vec<u8>, RecreationWork), NetError> {
        match self.call(&Request::Checkout { version })? {
            Response::CheckoutOk { data, work } => Ok((data, work)),
            _ => Err(NetError::Malformed("expected CheckoutOk")),
        }
    }

    pub fn optimize(
        &mut self,
        problem: Problem,
        solver: SolverChoice,
        mode: WireMode,
        reveal_hops: u32,
        hop_bound: Option<u32>,
    ) -> Result<OptimizeSummary, NetError> {
        let req = Request::Optimize {
            problem,
            solver,
            mode,
            reveal_hops,
            hop_bound,
        };
        match self.call(&req)? {
            Response::OptimizeOk(summary) => Ok(summary),
            _ => Err(NetError::Malformed("expected OptimizeOk")),
        }
    }

    pub fn stats(&mut self) -> Result<StatsSummary, NetError> {
        match self.call(&Request::Stats)? {
            Response::StatsOk(summary) => Ok(summary),
            _ => Err(NetError::Malformed("expected StatsOk")),
        }
    }

    /// Check (or, with `repair`, repair) the served repository.
    pub fn fsck(&mut self, repair: bool) -> Result<FsckSummary, NetError> {
        match self.call(&Request::Fsck { repair })? {
            Response::FsckOk(summary) => Ok(summary),
            _ => Err(NetError::Malformed("expected FsckOk")),
        }
    }

    /// Ask the server to stop accepting connections and exit its serve
    /// loop once in-flight requests drain.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            _ => Err(NetError::Malformed("expected ShutdownOk")),
        }
    }

    // --- v3 object-store opcodes (bare store servers) ---

    /// Store `objs` on a bare store server; ids come back in input order.
    /// Content-addressed and idempotent, so the retry policy may resend
    /// blindly. The caller is responsible for keeping the frame under the
    /// peer's cap (see [`crate::remote::RemoteStore`], which splits).
    pub fn store_put(&mut self, objs: &[Object]) -> Result<Vec<ObjectId>, NetError> {
        let req = Request::StorePut {
            objs: objs.to_vec(),
        };
        match self.call(&req)? {
            Response::StorePutOk { ids } if ids.len() == objs.len() => Ok(ids),
            Response::StorePutOk { .. } => Err(NetError::Malformed("StorePutOk length mismatch")),
            _ => Err(NetError::Malformed("expected StorePutOk")),
        }
    }

    /// Fetch `ids`; one presence-tagged slot per id, in input order.
    pub fn store_get(&mut self, ids: &[ObjectId]) -> Result<Vec<Option<Object>>, NetError> {
        let req = Request::StoreGet { ids: ids.to_vec() };
        match self.call(&req)? {
            Response::StoreGetOk { objs } if objs.len() == ids.len() => Ok(objs),
            Response::StoreGetOk { .. } => Err(NetError::Malformed("StoreGetOk length mismatch")),
            _ => Err(NetError::Malformed("expected StoreGetOk")),
        }
    }

    /// Membership of each id, in input order.
    pub fn store_contains(&mut self, ids: &[ObjectId]) -> Result<Vec<bool>, NetError> {
        let req = Request::StoreContains { ids: ids.to_vec() };
        match self.call(&req)? {
            Response::StoreContainsOk { present } if present.len() == ids.len() => Ok(present),
            Response::StoreContainsOk { .. } => {
                Err(NetError::Malformed("StoreContainsOk length mismatch"))
            }
            _ => Err(NetError::Malformed("expected StoreContainsOk")),
        }
    }

    /// Remove each id (unknown ids ignored server-side).
    pub fn store_remove(&mut self, ids: &[ObjectId]) -> Result<(), NetError> {
        let req = Request::StoreRemove { ids: ids.to_vec() };
        match self.call(&req)? {
            Response::StoreRemoveOk => Ok(()),
            _ => Err(NetError::Malformed("expected StoreRemoveOk")),
        }
    }

    /// Every object id the served store holds, unspecified order.
    pub fn store_object_ids(&mut self) -> Result<Vec<ObjectId>, NetError> {
        match self.call(&Request::StoreObjectIds)? {
            Response::StoreObjectIdsOk { ids } => Ok(ids),
            _ => Err(NetError::Malformed("expected StoreObjectIdsOk")),
        }
    }

    /// Fill and operation counters of the served store.
    pub fn store_stats(&mut self) -> Result<StoreStats, NetError> {
        match self.call(&Request::StoreStats)? {
            Response::StoreStatsOk(stats) => Ok(stats),
            _ => Err(NetError::Malformed("expected StoreStatsOk")),
        }
    }
}

fn dial(
    addr: &str,
    read_timeout: Option<Duration>,
) -> Result<(BufReader<TcpStream>, TcpStream), NetError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            attempts: 5,
            base_delay_ms: 50,
            seed: 42,
        };
        let a: Vec<Duration> = (0..5).map(|i| policy.backoff(i)).collect();
        let b: Vec<Duration> = (0..5).map(|i| policy.backoff(i)).collect();
        assert_eq!(a, b, "same policy, same delays");
        for (i, d) in a.iter().enumerate() {
            let base = 50u64 << i;
            assert!(d.as_millis() as u64 >= base, "attempt {i} below base");
            assert!(
                d.as_millis() as u64 <= base + base / 2,
                "attempt {i} jitter above 50%"
            );
        }
        // Different seeds decorrelate.
        let other = RetryPolicy { seed: 43, ..policy };
        assert_ne!(
            (0..5).map(|i| other.backoff(i)).collect::<Vec<_>>(),
            a,
            "different seeds should jitter differently"
        );
        // Huge attempt numbers saturate instead of overflowing.
        let _ = policy.backoff(u32::MAX);
    }

    #[test]
    fn zero_base_policy_never_sleeps() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.backoff(0), Duration::ZERO);
        assert_eq!(policy.backoff(7), Duration::ZERO);
    }

    #[test]
    fn tokens_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let t = next_token();
            assert_ne!(t, 0);
            assert!(seen.insert(t), "token repeated");
        }
    }

    #[test]
    fn only_transport_errors_are_retryable() {
        assert!(retryable(&NetError::Timeout));
        assert!(retryable(&NetError::Eof));
        assert!(retryable(&NetError::Truncated));
        assert!(retryable(&NetError::Io(std::io::Error::other("refused"))));
        assert!(!retryable(&NetError::Malformed("bad")));
        assert!(!retryable(&NetError::UnknownOpcode(0x42)));
        assert!(!retryable(&NetError::Handshake("v999".into())));
        assert!(!retryable(&NetError::Remote {
            code: 6,
            message: "server".into()
        }));
        assert!(!retryable(&NetError::FrameTooLarge { len: 9, max: 1 }));
    }
}
