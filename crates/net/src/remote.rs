//! Remote object storage: a distributed `ObjectStore` tier over dsv-net.
//!
//! Two halves, both speaking the protocol-v3 object-store opcodes:
//!
//! * [`StoreService`] — server-side: serves one bare [`ObjectStore`]
//!   (no `Repository`) behind the [`crate::server::Server`] worker pool.
//!   `dsv serve --store-server` wraps a `FileStore` in this. Repository
//!   opcodes (`Commit`, `Checkout`, …) are rejected with `BAD_REQUEST`;
//!   the mirror-image rejection lives in `dsv-vcs`'s repository server.
//! * [`RemoteStore`] — client-side: implements the full [`ObjectStore`]
//!   trait (including the batch surface and `object_ids`) by issuing one
//!   frame per batch to a store server. Composed as
//!   `ShardedStore<RemoteStore>`, batches fan out one frame per remote
//!   shard, concurrently on `dsv-par`.
//!
//! # Consistency and retry
//!
//! Every operation is content-addressed and idempotent (`put` stores
//! under the object's own id, `remove` ignores unknown ids), so the
//! client's [`RetryPolicy`] may reconnect and blindly resend after any
//! transport failure — the retried operation converges on the same
//! state. There is no cross-shard transaction: a multi-shard batch that
//! fails on one shard leaves the other shards' writes in place, exactly
//! the local batch contract ("no partial-failure cleanup", see
//! `dsv_storage::store`). A transport failure that outlasts the retries
//! is a [`StoreError::Io`] on every fallible method — membership,
//! removal and enumeration included — and a store failure behind
//! [`StoreService`] is an error frame; only `stats` is best-effort.
//!
//! # Frame budget
//!
//! A put batch is split into sub-batches whose encoded frames stay under
//! the peer's cap ([`Client::max_frame`] minus [`FRAME_SLACK`]), so a
//! remote-backed repack can never emit a frame the server rejects. A
//! single object too large for the budget surfaces as a structured
//! [`StoreError::Io`] naming the object — never a protocol error. Get
//! responses are sized by the *server*; when one overflows the client's
//! cap the stream is abandoned (reconnect) and the request bisected
//! until each response fits.

use crate::client::{Client, RetryPolicy};
use crate::frame::{errcode, NetError, DEFAULT_MAX_FRAME};
use crate::proto::{Request, Response};
use crate::server::{session, Server};
use dsv_obs as obs;
use dsv_storage::{Counters, Object, ObjectId, ObjectStore, StoreError, StoreStats};
use parking_lot::Mutex;
use std::net::TcpStream;
use std::time::Duration;

/// Wire overhead reserved inside the frame budget: the frame header,
/// the batch count, and the per-object blob length prefixes all live
/// outside the summed object payloads. 4 KiB is far beyond the real
/// overhead at any batch size the splitter produces.
pub const FRAME_SLACK: u32 = 4096;

/// Maps a transport failure to the store error vocabulary the local
/// callers (packers, fsck, materializer) already handle.
fn net_err(e: NetError) -> StoreError {
    StoreError::Io(format!("remote store: {e}"))
}

/// An [`ObjectStore`] whose objects live on a remote store server.
///
/// One protocol connection behind a mutex: operations serialize per
/// store, and cross-shard concurrency comes from sharding
/// (`ShardedStore<RemoteStore>` drives each shard from its own worker).
/// `Sync` by construction, so the sharded composition Just Works.
pub struct RemoteStore {
    client: Mutex<Client>,
    addr: String,
    max_frame: u32,
    /// Client-side operation counters: the server's describe *its* view,
    /// [`RemoteStore::stats`] reports this client's own surface usage.
    counters: Counters,
}

impl RemoteStore {
    /// Dial a store server with default cap/timeout/retry.
    pub fn connect(addr: &str) -> Result<RemoteStore, NetError> {
        Self::connect_with(
            addr,
            DEFAULT_MAX_FRAME,
            Some(Duration::from_secs(60)),
            RetryPolicy::default(),
        )
    }

    /// Dial with an explicit frame cap, read timeout, and retry policy.
    /// The cap also drives the put splitter's frame budget, so client
    /// and server should agree on it (`dsv serve --store-server
    /// --max-frame`).
    pub fn connect_with(
        addr: &str,
        max_frame: u32,
        read_timeout: Option<Duration>,
        retry: RetryPolicy,
    ) -> Result<RemoteStore, NetError> {
        let client = Client::connect_with(addr, max_frame, read_timeout)?.with_retry(retry);
        Ok(RemoteStore {
            client: Mutex::new(client),
            addr: addr.to_owned(),
            max_frame,
            counters: Counters::default(),
        })
    }

    /// The address this store dials (one entry of the topology persisted
    /// in meta v4).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Payload bytes a put sub-batch may carry: the peer's frame cap
    /// minus [`FRAME_SLACK`].
    fn frame_budget(&self) -> u64 {
        self.max_frame.saturating_sub(FRAME_SLACK).max(1) as u64
    }

    /// Ids per request frame: `4 + 16n` body bytes under the budget.
    fn ids_per_frame(&self) -> usize {
        ((self.frame_budget().saturating_sub(4)) / 16).max(1) as usize
    }

    /// Sends `objs` as as many frames as the budget requires, preserving
    /// input order. A single object over the budget is a structured
    /// error — callers raise the cap rather than the server rejecting a
    /// frame mid-repack.
    fn send_puts(&self, objs: &[Object]) -> Result<Vec<ObjectId>, StoreError> {
        let budget = self.frame_budget();
        let mut ids = Vec::with_capacity(objs.len());
        let mut client = self.client.lock();
        let mut start = 0usize;
        let mut chunk_bytes = 0u64;
        for (i, obj) in objs.iter().enumerate() {
            // Wire cost: 4-byte blob length prefix + canonical encoding.
            let cost = 4 + obj.encode(false).len() as u64;
            if cost > budget {
                return Err(StoreError::Io(format!(
                    "object {} encodes to {cost} bytes, over the {budget}-byte \
                     frame budget; raise the frame cap on both ends",
                    obj.id()
                )));
            }
            if chunk_bytes + cost > budget {
                ids.extend(client.store_put(&objs[start..i]).map_err(net_err)?);
                start = i;
                chunk_bytes = 0;
            }
            chunk_bytes += cost;
        }
        if start < objs.len() || objs.is_empty() {
            ids.extend(client.store_put(&objs[start..]).map_err(net_err)?);
        }
        Ok(ids)
    }

    /// Fetches `ids` in request-budget chunks, bisecting any chunk whose
    /// *response* overflows the client cap (big objects): the stream is
    /// desynchronized after an oversized response, so each bisection
    /// starts from a fresh connection.
    fn send_gets(&self, ids: &[ObjectId]) -> Result<Vec<Option<Object>>, StoreError> {
        fn bisect(
            client: &mut Client,
            ids: &[ObjectId],
            out: &mut Vec<Option<Object>>,
        ) -> Result<(), StoreError> {
            match client.store_get(ids) {
                Ok(objs) => {
                    out.extend(objs);
                    Ok(())
                }
                Err(NetError::FrameTooLarge { .. }) if ids.len() > 1 => {
                    client.reconnect().map_err(net_err)?;
                    let mid = ids.len() / 2;
                    bisect(client, &ids[..mid], out)?;
                    bisect(client, &ids[mid..], out)
                }
                Err(NetError::FrameTooLarge { len, max }) => {
                    // Leave the connection usable for the next operation.
                    let _ = client.reconnect();
                    Err(StoreError::Io(format!(
                        "remote object {} arrives as a {len}-byte frame, over \
                         the {max}-byte client cap; raise the frame cap",
                        ids[0]
                    )))
                }
                Err(e) => Err(net_err(e)),
            }
        }
        let mut out = Vec::with_capacity(ids.len());
        let mut client = self.client.lock();
        for chunk in ids.chunks(self.ids_per_frame()) {
            bisect(&mut client, chunk, &mut out)?;
        }
        Ok(out)
    }
}

impl ObjectStore for RemoteStore {
    fn put(&self, obj: &Object) -> Result<ObjectId, StoreError> {
        self.counters.count_put();
        let ids = self.send_puts(std::slice::from_ref(obj))?;
        Ok(ids[0])
    }

    fn get(&self, id: ObjectId) -> Result<Object, StoreError> {
        self.counters.count_get();
        match self.send_gets(&[id])?.pop().flatten() {
            Some(obj) => Ok(obj),
            None => Err(StoreError::NotFound(id)),
        }
    }

    fn put_batch(&self, objs: &[Object]) -> Result<Vec<ObjectId>, StoreError> {
        self.counters.count_put_batch(objs.len());
        let _span = obs::span!("remote.put_batch", objects = objs.len()).entered();
        self.send_puts(objs)
    }

    fn get_batch(&self, ids: &[ObjectId]) -> Result<Vec<Object>, StoreError> {
        self.counters.count_get_batch(ids.len());
        let _span = obs::span!("remote.get_batch", objects = ids.len()).entered();
        let slots = self.send_gets(ids)?;
        let mut out = Vec::with_capacity(ids.len());
        for (slot, &id) in slots.into_iter().zip(ids) {
            out.push(slot.ok_or(StoreError::NotFound(id))?);
        }
        Ok(out)
    }

    fn contains_batch(&self, ids: &[ObjectId]) -> Result<Vec<bool>, StoreError> {
        let mut out = Vec::with_capacity(ids.len());
        let mut client = self.client.lock();
        for chunk in ids.chunks(self.ids_per_frame()) {
            out.extend(client.store_contains(chunk).map_err(net_err)?);
        }
        Ok(out)
    }

    fn remove_batch(&self, ids: &[ObjectId]) -> Result<(), StoreError> {
        self.counters.count_removes(ids.len());
        let mut client = self.client.lock();
        for chunk in ids.chunks(self.ids_per_frame()) {
            client.store_remove(chunk).map_err(net_err)?;
        }
        Ok(())
    }

    fn object_ids(&self) -> Result<Vec<ObjectId>, StoreError> {
        self.client.lock().store_object_ids().map_err(net_err)
    }

    /// Server fill (objects/bytes) with *this client's* operation
    /// counters: the server's counters aggregate every client and would
    /// violate the per-store accounting contract. Best-effort like every
    /// `stats`: an unreachable server reads as an empty fill.
    fn stats(&self) -> StoreStats {
        let mut stats = self.client.lock().store_stats().unwrap_or_default();
        stats.ops = self.counters.snapshot();
        stats
    }

    /// What `dsv serve --store-server` opens its store with. The wire has
    /// no way to ask; the flag moves into the persisted store
    /// configuration with the rest of the topology (ROADMAP item 2).
    fn compresses(&self) -> bool {
        true
    }

    fn remote_addrs(&self) -> Vec<String> {
        vec![self.addr.clone()]
    }
}

/// The store's answer as a frame: `ok` of the value, or a server error —
/// a store that failed is never answered for with an OK.
fn answer<T>(result: Result<T, StoreError>, ok: impl FnOnce(T) -> Response) -> Response {
    match result {
        Ok(value) => ok(value),
        Err(e) => Response::server_error(e.to_string()),
    }
}

/// Tunables for a [`StoreService`].
#[derive(Debug, Clone)]
pub struct StoreServiceConfig {
    /// Largest accepted frame body (put batches bound this).
    pub max_frame: u32,
    /// Per-read socket timeout on the decode path; `None` blocks forever.
    pub read_timeout: Option<Duration>,
}

impl Default for StoreServiceConfig {
    fn default() -> Self {
        StoreServiceConfig {
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Serves one bare [`ObjectStore`] over the v3 store opcodes — the
/// shard-server half of the distributed tier (`dsv serve --store-server`).
pub struct StoreService<S> {
    store: S,
    config: StoreServiceConfig,
}

impl<S: ObjectStore + Sync> StoreService<S> {
    pub fn new(store: S, config: StoreServiceConfig) -> Self {
        StoreService { store, config }
    }

    /// The served store (for tests and the serving binary's scrape line).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Run the accept loop on `server` until a client sends `Shutdown`.
    pub fn serve(&self, server: &Server) {
        let span = obs::span!("store-serve").entered();
        let serve = span.handle();
        let StoreServiceConfig {
            max_frame,
            read_timeout,
        } = self.config;
        server.serve(&|stream: TcpStream| {
            session(&stream, max_frame, read_timeout, &serve, |req| {
                self.handle_request(req).into()
            })
        });
    }

    fn handle_request(&self, req: Request) -> Response {
        match req {
            Request::Hello { .. } => Response::Error {
                code: errcode::BAD_REQUEST,
                message: "unexpected Hello after handshake".into(),
            },
            Request::Ping => Response::Pong,
            Request::Shutdown => Response::ShutdownOk,
            Request::StorePut { objs } => answer(self.store.put_batch(&objs), |ids| {
                Response::StorePutOk { ids }
            }),
            Request::StoreGet { ids } => {
                // Presence-tagged slots: NotFound is data (the client
                // re-raises it as its own `StoreError::NotFound`), any
                // other store failure is a server error.
                let mut objs = Vec::with_capacity(ids.len());
                let mut failure = None;
                for id in ids {
                    match self.store.get(id) {
                        Ok(obj) => objs.push(Some(obj)),
                        Err(StoreError::NotFound(_)) => objs.push(None),
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
                match failure {
                    None => Response::StoreGetOk { objs },
                    Some(e) => Response::server_error(e.to_string()),
                }
            }
            Request::StoreContains { ids } => answer(self.store.contains_batch(&ids), |present| {
                Response::StoreContainsOk { present }
            }),
            Request::StoreRemove { ids } => {
                answer(self.store.remove_batch(&ids), |()| Response::StoreRemoveOk)
            }
            Request::StoreObjectIds => answer(self.store.object_ids(), |ids| {
                Response::StoreObjectIdsOk { ids }
            }),
            Request::StoreStats => Response::StoreStatsOk(self.store.stats()),
            // Repository semantics live behind a repository server; a
            // shard server knows nothing of versions or branches.
            Request::Commit { .. }
            | Request::Checkout { .. }
            | Request::Optimize { .. }
            | Request::Stats
            | Request::Fsck { .. } => Response::Error {
                code: errcode::BAD_REQUEST,
                message: "repository opcodes are not served by a store server; \
                          dial a repository server (dsv serve) instead"
                    .into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerOptions;
    use dsv_storage::MemStore;

    /// Serve a MemStore on a free port; returns the address and a guard
    /// whose drop shuts the server down.
    fn spawn_store_server(max_frame: u32) -> (String, impl Drop) {
        spawn_server_over(MemStore::new(false), max_frame)
    }

    fn spawn_server_over<S: ObjectStore + Send + Sync + 'static>(
        store: S,
        max_frame: u32,
    ) -> (String, impl Drop) {
        let server = Server::bind_with(
            "127.0.0.1:0",
            ServerOptions {
                workers: 2,
                queue_depth: 8,
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let config = StoreServiceConfig {
            max_frame,
            read_timeout: Some(Duration::from_secs(5)),
        };
        let handle = std::thread::spawn(move || {
            StoreService::new(store, config).serve(&server);
        });
        struct Guard(String, Option<std::thread::JoinHandle<()>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                if let Ok(mut c) = Client::connect(&self.0) {
                    let _ = c.shutdown();
                }
                if let Some(h) = self.1.take() {
                    let _ = h.join();
                }
            }
        }
        (addr.clone(), Guard(addr, Some(handle)))
    }

    fn objects(n: usize) -> Vec<Object> {
        (0..n)
            .map(|i| Object::Full {
                data: format!("remote object {i} payload {}", i * 31).into_bytes(),
            })
            .collect()
    }

    #[test]
    fn remote_store_full_surface() {
        let (addr, _guard) = spawn_store_server(DEFAULT_MAX_FRAME);
        let store = RemoteStore::connect(&addr).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.remote_addrs(), vec![addr]);

        let objs = objects(20);
        let ids = store.put_batch(&objs).unwrap();
        assert_eq!(ids.len(), 20);
        for (obj, &id) in objs.iter().zip(&ids) {
            assert_eq!(id, obj.id());
        }
        assert_eq!(store.len(), 20);
        assert!(store.total_bytes() > 0);
        assert_eq!(store.get_batch(&ids).unwrap(), objs);
        assert_eq!(store.get(ids[3]).unwrap(), objs[3]);
        assert!(store.contains(ids[0]).unwrap());

        // NotFound survives the wire as a structured slot, not an error
        // frame, and re-raises with the missing id.
        let missing = ObjectId::for_bytes(b"never stored");
        assert!(!store.contains(missing).unwrap());
        assert!(matches!(
            store.get(missing).unwrap_err(),
            StoreError::NotFound(id) if id == missing
        ));
        assert!(matches!(
            store.get_batch(&[ids[0], missing]).unwrap_err(),
            StoreError::NotFound(id) if id == missing
        ));
        assert_eq!(
            store.contains_batch(&[ids[0], missing, ids[5]]).unwrap(),
            vec![true, false, true]
        );

        // Enumeration matches the put set.
        let mut listed = store.object_ids().unwrap();
        let mut expect = ids.clone();
        listed.sort();
        expect.sort();
        expect.dedup();
        assert_eq!(listed, expect);

        // Idempotent re-put, single-object surface.
        let again = store.put(&objs[0]).unwrap();
        assert_eq!(again, ids[0]);
        assert_eq!(store.len(), 20);

        // Removal and clear.
        store.remove(ids[0]).unwrap();
        assert!(!store.contains(ids[0]).unwrap());
        store.remove_batch(&ids[1..3]).unwrap();
        assert_eq!(store.len(), 17);
        store.clear().unwrap();
        assert!(store.is_empty());
        assert_eq!(store.total_bytes(), 0);
    }

    #[test]
    fn a_store_that_fails_behind_the_server_is_an_error_frame_not_an_ok() {
        use dsv_storage::fault::{is_injected, FaultPlan, FaultStore};
        let failing = FaultStore::new(
            MemStore::new(false),
            FaultPlan::fail_at_site(0, "store.remove"),
        );
        let (addr, _guard) = spawn_server_over(failing, DEFAULT_MAX_FRAME);
        let store = RemoteStore::connect(&addr).unwrap();
        let id = store.put(&objects(1)[0]).unwrap();
        // `StoreRemove` used to be acknowledged whatever the store did.
        let err = store.remove(id).unwrap_err();
        assert!(
            matches!(err, StoreError::Io(ref m) if is_injected(m)),
            "{err:?}"
        );
        assert!(store.contains(id).unwrap(), "nothing was removed");
        store.remove(id).unwrap();
        assert!(!store.contains(id).unwrap());
    }

    #[test]
    fn stats_report_client_side_counters_and_server_fill() {
        let (addr, _guard) = spawn_store_server(DEFAULT_MAX_FRAME);
        let store = RemoteStore::connect(&addr).unwrap();
        let objs = objects(5);
        let ids = store.put_batch(&objs).unwrap();
        store.put(&objs[0]).unwrap();
        store.get(ids[0]).unwrap();
        store.get_batch(&ids).unwrap();
        store.remove(ids[4]).unwrap();
        store.remove_batch(&ids[..2]).unwrap();

        let stats = store.stats();
        assert_eq!(stats.objects, 2, "server-side fill");
        assert!(stats.bytes > 0);
        assert_eq!(stats.ops.puts, 1, "client-side accounting");
        assert_eq!(stats.ops.batch_puts, 1);
        assert_eq!(stats.ops.batch_put_objects, 5);
        assert_eq!(stats.ops.gets, 1);
        assert_eq!(stats.ops.batch_gets, 1);
        assert_eq!(stats.ops.batch_get_objects, 5);
        assert_eq!(stats.ops.removes, 3);
    }

    #[test]
    fn put_batches_split_under_a_tiny_frame_cap() {
        // Cap chosen so a handful of objects exceed one frame: the
        // splitter must deliver them over several frames transparently.
        let cap = FRAME_SLACK + 8 * 1024;
        let (addr, _guard) = spawn_store_server(cap);
        let store = RemoteStore::connect_with(
            &addr,
            cap,
            Some(Duration::from_secs(5)),
            RetryPolicy::none(),
        )
        .unwrap();
        let objs: Vec<Object> = (0..10u8)
            .map(|i| Object::Full {
                data: vec![i; 3 * 1024],
            })
            .collect();
        let ids = store.put_batch(&objs).unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(store.get_batch(&ids).unwrap(), objs);
    }

    #[test]
    fn oversized_single_object_is_a_structured_error() {
        let cap = FRAME_SLACK + 1024;
        let (addr, _guard) = spawn_store_server(cap);
        let store = RemoteStore::connect_with(
            &addr,
            cap,
            Some(Duration::from_secs(5)),
            RetryPolicy::none(),
        )
        .unwrap();
        let big = Object::Full {
            data: vec![7u8; 64 * 1024],
        };
        match store.put(&big).unwrap_err() {
            StoreError::Io(msg) => assert!(msg.contains("frame budget"), "{msg}"),
            other => panic!("expected structured Io error, got {other:?}"),
        }
        // The connection is still usable afterwards.
        let small = Object::Full {
            data: b"fits".to_vec(),
        };
        let id = store.put(&small).unwrap();
        assert!(store.contains(id).unwrap());
    }

    #[test]
    fn oversized_get_response_bisects_and_recovers() {
        // Server accepts huge put frames; the *client* caps responses
        // tightly, so a multi-object get overflows and must bisect.
        let (addr, _guard) = spawn_store_server(DEFAULT_MAX_FRAME);
        let seed = RemoteStore::connect(&addr).unwrap();
        let objs: Vec<Object> = (0..6u8)
            .map(|i| Object::Full {
                data: vec![i; 2 * 1024],
            })
            .collect();
        let ids = seed.put_batch(&objs).unwrap();

        let tight = RemoteStore::connect_with(
            &addr,
            FRAME_SLACK + 3 * 1024,
            Some(Duration::from_secs(5)),
            RetryPolicy::none(),
        )
        .unwrap();
        assert_eq!(tight.get_batch(&ids).unwrap(), objs);

        // A single object bigger than the client cap is a structured
        // error, and the connection recovers for the next call.
        let huge = Object::Full {
            data: vec![9u8; 32 * 1024],
        };
        let huge_id = seed.put(&huge).unwrap();
        assert!(matches!(tight.get(huge_id).unwrap_err(), StoreError::Io(_)));
        assert_eq!(tight.get(ids[0]).unwrap(), objs[0]);
    }

    #[test]
    fn repository_opcodes_are_rejected() {
        let (addr, _guard) = spawn_store_server(DEFAULT_MAX_FRAME);
        let mut client = Client::connect(&addr).unwrap();
        match client.call(&Request::Stats) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, errcode::BAD_REQUEST),
            other => panic!("expected BAD_REQUEST, got {other:?}"),
        }
        match client.checkout(0) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, errcode::BAD_REQUEST),
            other => panic!("expected BAD_REQUEST, got {other:?}"),
        }
        // The connection survives the rejection.
        client.ping().unwrap();
    }

    #[test]
    fn sharded_remote_equals_local() {
        use dsv_storage::ShardedStore;
        let guards: Vec<_> = (0..3)
            .map(|_| spawn_store_server(DEFAULT_MAX_FRAME))
            .collect();
        let shards = guards
            .iter()
            .map(|(addr, _)| RemoteStore::connect(addr).unwrap())
            .collect();
        let sharded = ShardedStore::new(shards);
        let local = MemStore::new(false);
        let objs = objects(64);
        let remote_ids = sharded.put_batch(&objs).unwrap();
        let local_ids = local.put_batch(&objs).unwrap();
        assert_eq!(remote_ids, local_ids);
        assert_eq!(sharded.len(), local.len());
        assert_eq!(sharded.total_bytes(), local.total_bytes());
        assert_eq!(sharded.get_batch(&remote_ids).unwrap(), objs);
        let addrs = sharded.remote_addrs();
        assert_eq!(addrs.len(), 3);
        assert_eq!(
            addrs,
            guards.iter().map(|(a, _)| a.clone()).collect::<Vec<_>>(),
            "topology reported in shard order"
        );
        // Per-remote-shard wall time lands in ShardStats.batch_ns.
        let stats = sharded.stats();
        assert_eq!(stats.shards.len(), 3);
        assert!(stats.shards.iter().any(|s| s.batch_ns > 0));
    }
}
