//! Server-side semantics for the `dsv serve` protocol.
//!
//! [`Dsvd`] owns one repository behind a [`parking_lot::RwLock`] and
//! implements the request → response mapping on top of the
//! [`dsv_net`] transport:
//!
//! * **commit queue** — mutations (`Commit`, `Optimize`) take the write
//!   lock, so they serialize in arrival order while any number of
//!   `Checkout`/`Stats` readers proceed concurrently under read locks;
//! * **shared checkout cache** — one [`CheckoutCache`] arena is installed
//!   on the repository and therefore shared by *all* client checkouts
//!   (content-addressed, so concurrent commits can never make it stale);
//! * **durability** — when a save root is configured (`dsv serve`
//!   always does), repository metadata is re-persisted after every
//!   successful mutation, so a later local `dsv` run sees remote commits;
//!   a *failed* save rolls the in-memory mutation back before the error
//!   frame is sent, so memory never claims what disk does not hold;
//! * **idempotent commits** — commits carrying a nonzero token are
//!   answered from a bounded replay log when the token was already
//!   applied, so a client retrying after a lost response cannot
//!   double-commit;
//! * **observability** — the conversation ([`dsv_net::session`]) is
//!   span-instrumented `serve → conn → recv_wait/decode/handle/encode/send`
//!   with a per-opcode child under `handle`, plus `net.requests` /
//!   `net.bytes_in` / `net.bytes_out` counters, so `--trace-json` on the
//!   server captures per-opcode subtrees.
//!
//! The request → reply mapping itself is [`Dsvd::reply`]: what the
//! served path sends, a checked-out version still the `Arc` the checkout
//! cache holds (lent to the socket, never copied). [`Dsvd::handle`] is
//! that mapping made an owned [`Response`], which the `dsv` CLI calls
//! directly for its local commands — one implementation of every
//! operation, with or without a socket.
//!
//! Protocol robustness lives in the shared session loop: oversized
//! frames, truncated streams, unknown opcodes, and malformed bodies each
//! produce a structured error frame (where the stream is still framed)
//! or a clean close — never a panic or a hang; a read timeout bounds how
//! long an idle or stalled client can pin a worker.

use crate::fsck;
use crate::optimize::OptimizeReport;
use crate::repo::{OnlineOptions, Placement, Repository};
use crate::{persist, CommitId};
use dsv_core::{ModePolicy, PlanSpec, Problem, SolverChoice};
use dsv_net::frame::errcode;
use dsv_net::proto::{
    CandidateLine, CandidateNumbers, OptimizeSummary, Reply, Request, Response, StatsSummary,
    WireMode,
};
use dsv_net::server::{session, Server};
use dsv_obs as obs;
use dsv_storage::{CheckoutCache, ObjectStore, DEFAULT_CACHE_BUDGET};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Tunables for a [`Dsvd`] instance.
#[derive(Debug, Clone)]
pub struct DsvdConfig {
    /// Budget for the shared checkout cache; `0` disables it.
    pub cache_bytes: u64,
    /// Largest accepted frame body (commit payloads bound this).
    pub max_frame: u32,
    /// Per-read socket timeout on the decode path; `None` blocks forever.
    pub read_timeout: Option<Duration>,
}

impl Default for DsvdConfig {
    fn default() -> Self {
        DsvdConfig {
            cache_bytes: DEFAULT_CACHE_BUDGET,
            max_frame: dsv_net::DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// How many commit-token → response pairs the replay log keeps. A
/// retried commit only needs its token remembered for the retry window
/// (seconds); 128 in-flight commits is far beyond the worker pool.
const REPLAY_CAPACITY: usize = 128;

/// Bounded FIFO of recently applied commit tokens and their responses.
/// A retried commit whose token is found here replays the recorded
/// response instead of applying again — exactly-once commits over an
/// at-least-once transport.
#[derive(Default)]
struct ReplayLog {
    entries: VecDeque<(u64, Response)>,
}

impl ReplayLog {
    fn get(&self, token: u64) -> Option<Response> {
        self.entries
            .iter()
            .find(|(t, _)| *t == token)
            .map(|(_, resp)| resp.clone())
    }

    fn record(&mut self, token: u64, resp: Response) {
        if self.entries.len() == REPLAY_CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back((token, resp));
    }
}

/// One served repository: the state every connection handler shares.
pub struct Dsvd<S: ObjectStore> {
    repo: RwLock<Repository<S>>,
    cache: Option<Arc<CheckoutCache>>,
    save_root: Option<PathBuf>,
    config: DsvdConfig,
    replay: Mutex<ReplayLog>,
}

impl<S: ObjectStore + Send + Sync> Dsvd<S> {
    /// Wrap `repo` for serving; installs the shared checkout cache.
    pub fn new(mut repo: Repository<S>, config: DsvdConfig) -> Self {
        let cache =
            (config.cache_bytes > 0).then(|| repo.enable_checkout_cache(config.cache_bytes));
        Dsvd {
            repo: RwLock::new(repo),
            cache,
            save_root: None,
            config,
            replay: Mutex::new(ReplayLog::default()),
        }
    }

    /// Re-persist repository metadata under `root` after every mutation.
    pub fn with_save_root(mut self, root: PathBuf) -> Self {
        self.save_root = Some(root);
        self
    }

    /// The cache arena shared across all client checkouts, if enabled.
    pub fn cache(&self) -> Option<&Arc<CheckoutCache>> {
        self.cache.as_ref()
    }

    /// The served repository (primarily for tests and the benchmark to
    /// seed/inspect state around a serve run).
    pub fn repo(&self) -> &RwLock<Repository<S>> {
        &self.repo
    }

    /// Run the accept loop on `server` until a client sends `Shutdown`.
    /// Blocks the calling thread; spans land in that thread's recorder.
    pub fn serve(&self, server: &Server) {
        let span = obs::span!("serve").entered();
        let serve = span.handle();
        let DsvdConfig {
            max_frame,
            read_timeout,
            ..
        } = self.config;
        server.serve(&|stream: TcpStream| {
            session(&stream, max_frame, read_timeout, &serve, |req| {
                self.reply(req)
            })
        });
    }

    /// [`Self::reply`] as an owned message, for a caller without a
    /// socket to lend a shared version to — the local `dsv` CLI, tests.
    pub fn handle(&self, req: Request) -> Response {
        self.reply(req).into_response()
    }

    /// Executes one request against the repository. Opens no spans of
    /// its own beyond the operation's (`commit`, `checkout`, …), so a
    /// caller without a connection traces the same tree it would calling
    /// the repository directly.
    pub fn reply(&self, req: Request) -> Reply {
        let resp = match req {
            // A second Hello after the handshake is a sequencing bug.
            Request::Hello { .. } => Response::Error {
                code: errcode::BAD_REQUEST,
                message: "unexpected Hello after handshake".into(),
            },
            Request::Ping => Response::Pong,
            Request::Commit {
                token,
                branch,
                message,
                online,
                hops,
                theta,
                data,
            } => {
                let mut repo = self.repo.write();
                // Token already applied? Replay the recorded response so
                // a retry after a lost ack cannot double-commit. Checked
                // under the write lock, so two racing retries of the same
                // token serialize here.
                if token != 0 {
                    if let Some(resp) = self.replay.lock().get(token) {
                        obs::counter!("net.commit_replays", 1);
                        return resp.into();
                    }
                }
                let checkpoint = repo.checkpoint();
                let options = if online {
                    OnlineOptions {
                        hops: hops as usize,
                        max_recreation_bytes: theta,
                        ..OnlineOptions::default()
                    }
                } else {
                    OnlineOptions::first_parent(theta)
                };
                match repo.commit_placed(&branch, &data, &message, options, online) {
                    Ok(id) => {
                        let ok = Response::CommitOk {
                            id: id.0,
                            bytes: data.len() as u64,
                            online,
                        };
                        match self.persist_mutation(&mut repo, checkpoint) {
                            Ok(()) => {
                                if token != 0 {
                                    self.replay.lock().record(token, ok.clone());
                                }
                                ok
                            }
                            Err(e) => Response::server_error(e),
                        }
                    }
                    Err(e) => Response::server_error(e.to_string()),
                }
            }
            Request::Checkout { version } => {
                match self.repo.read().checkout_shared(CommitId(version)) {
                    Ok((data, work)) => return Reply::Checkout { work, data },
                    Err(e) => Response::server_error(e.to_string()),
                }
            }
            Request::Optimize {
                problem,
                solver,
                mode,
                reveal_hops,
                hop_bound,
            } => self.optimize(problem, solver, mode, reveal_hops, hop_bound),
            Request::Stats => {
                let repo = self.repo.read();
                Response::StatsOk(StatsSummary {
                    stats: repo.store().stats(),
                    logical_bytes: repo.logical_bytes(),
                    cache: self.cache.as_ref().map(|c| c.stats()),
                })
            }
            Request::Fsck { repair } => {
                if repair {
                    let mut repo = self.repo.write();
                    match fsck::fsck_repair(&mut repo, self.save_root.as_deref()) {
                        Ok(report) => Response::FsckOk(report.summary()),
                        Err(e) => Response::server_error(e.to_string()),
                    }
                } else {
                    let repo = self.repo.read();
                    Response::FsckOk(fsck::fsck(&repo, self.save_root.as_deref()).summary())
                }
            }
            Request::Shutdown => Response::ShutdownOk,
            // The bare-store opcodes are served by `dsv serve --store-server`
            // (`dsv_net::remote::StoreService`); a repository front end
            // owns its store and does not expose raw object access.
            Request::StorePut { .. }
            | Request::StoreGet { .. }
            | Request::StoreContains { .. }
            | Request::StoreRemove { .. }
            | Request::StoreObjectIds
            | Request::StoreStats => Response::Error {
                code: errcode::BAD_REQUEST,
                message: "object-store opcodes are only served by a store server \
                          (dsv serve --store-server), not a repository server"
                    .into(),
            },
        };
        resp.into()
    }

    fn optimize(
        &self,
        problem: Problem,
        solver: SolverChoice,
        mode: WireMode,
        reveal_hops: u32,
        hop_bound: Option<u32>,
    ) -> Response {
        if let SolverChoice::Named(name) = &solver {
            if dsv_core::solvers::by_name(name).is_none() {
                return Response::Error {
                    code: errcode::BAD_REQUEST,
                    message: format!("no solver named '{name}' in the registry (see: dsv solvers)"),
                };
            }
        }
        let policy = match mode.to_policy() {
            Ok(policy) => policy,
            Err(e) => {
                return Response::Error {
                    code: errcode::BAD_REQUEST,
                    message: e.to_string(),
                }
            }
        };
        let mut repo = self.repo.write();
        let mut spec = PlanSpec::new(problem)
            .reveal_hops(reveal_hops as usize)
            .solver(solver);
        if let Some(bound) = hop_bound {
            spec = spec.hop_bound(bound);
        }
        // A hybrid solve on a chunked-placement repository keeps the
        // repository's own chunker granularity, whatever sizes the request
        // carries; every other policy applies as requested.
        spec = spec.modes(match (policy, repo.placement()) {
            (ModePolicy::Hybrid(_), Placement::Chunked(params)) => ModePolicy::Hybrid(params),
            (policy, _) => policy,
        });
        // With a save root the repack runs journaled and crash-safe
        // (`optimize_durable` persists, and rolls its swap back if the
        // save fails); in-memory servers take the plain path.
        let result = match &self.save_root {
            Some(root) => repo.optimize_durable(&spec, root),
            None => repo.optimize_with(&spec),
        };
        match result {
            Ok(report) => Response::OptimizeOk(summarize_report(&report)),
            Err(e) => Response::server_error(e.to_string()),
        }
    }

    /// Persist metadata after a successful mutation. A failed save rolls
    /// the in-memory mutation back to `checkpoint` before reporting, so
    /// the server never answers future requests from state disk does not
    /// hold; the objects the mutation wrote stay behind as collectable
    /// orphans (content-addressed, so a retry converges on them).
    fn persist_mutation(
        &self,
        repo: &mut Repository<S>,
        checkpoint: crate::repo::Checkpoint,
    ) -> Result<(), String> {
        match &self.save_root {
            Some(root) => match persist::save(repo, root) {
                Ok(()) => Ok(()),
                Err(e) => {
                    repo.restore(checkpoint);
                    obs::counter!("net.commit_rollbacks", 1);
                    Err(format!("persisting repository: {e}"))
                }
            },
            None => Ok(()),
        }
    }
}

/// Flattens an [`OptimizeReport`] to the owned-string wire summary.
pub fn summarize_report(report: &OptimizeReport) -> OptimizeSummary {
    let p = &report.provenance;
    OptimizeSummary {
        problem: report.problem.to_string(),
        solver: p.solver.to_owned(),
        feasible: p.feasible,
        portfolio: p.portfolio,
        storage_before: report.storage_before,
        storage_after: report.storage_after,
        materialized: report.materialized as u64,
        chunked: report.chunked as u64,
        planned_storage_cost: report.planned_storage_cost,
        planned_max_recreation: report.planned_max_recreation,
        planned_sum_recreation: report.planned_sum_recreation,
        candidates: p
            .candidates
            .iter()
            .map(|c| CandidateLine {
                solver: c.solver.to_owned(),
                outcome: match &c.result {
                    Ok(s) => Ok(CandidateNumbers {
                        objective: s.objective,
                        storage: s.storage,
                        sum_recreation: s.sum_recreation,
                        max_recreation: s.max_recreation,
                        feasible: s.feasible,
                    }),
                    Err(e) => Err(e.to_string()),
                },
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The structural no-copy check on this side of the wire: what the
    /// served path hands `session` for a cached version *is* the cache's
    /// entry (`dsv-net`'s `a_shared_checkout_is_lent_to_the_socket_not_copied`
    /// takes it from there to the writer). Fails if a clone comes back
    /// between the cache and the reply.
    #[test]
    fn a_cached_checkout_is_served_as_the_caches_own_entry() {
        let mut repo = Repository::in_memory();
        let version = b"id,value\n1,one\n2,two\n".repeat(400);
        let id = repo.commit("main", &version, "v0").unwrap();
        let oid = repo.object_id(id);
        let dsvd = Dsvd::new(repo, DsvdConfig::default());
        let cache = dsvd.cache().expect("the default config has a cache");

        // The first checkout fills the cache, the second is served from it.
        for _ in 0..2 {
            match dsvd.reply(Request::Checkout { version: id.0 }) {
                Reply::Checkout { data, .. } => {
                    let (entry, _) = cache.get(oid).expect("checked out, so cached");
                    assert!(Arc::ptr_eq(&data, &entry));
                    assert_eq!(*data, version);
                }
                other => panic!("expected a shared checkout, got {other:?}"),
            }
        }
        // The owned spelling is the same mapping: equal bytes, and the
        // cache still holds its own.
        match dsvd.handle(Request::Checkout { version: id.0 }) {
            Response::CheckoutOk { data, work } => {
                assert_eq!(data, version);
                assert_eq!(work.cache_hits, 1);
            }
            other => panic!("expected CheckoutOk, got {other:?}"),
        }
        assert!(cache.get(oid).is_some());
    }

    #[test]
    fn a_token_replays_its_commit_and_token_zero_opts_out() {
        let dsvd = Dsvd::new(Repository::in_memory(), DsvdConfig::default());
        let commit = |token| Request::Commit {
            token,
            branch: "main".into(),
            message: "same bytes".into(),
            online: false,
            hops: 0,
            theta: None,
            data: b"id\n1\n".to_vec(),
        };
        let ids = [7, 7, 0, 0].map(|token| match dsvd.handle(commit(token)) {
            Response::CommitOk { id, .. } => id,
            other => panic!("{other:?}"),
        });
        assert_eq!(ids, [0, 0, 1, 2]);
    }

    /// A hybrid spec whose sizes break the chunker's bounds is the
    /// client's error: `BAD_REQUEST`, naming the bound, before anything is
    /// chunked. (Without the upper bound, `avg_size = 2^62` overflowed the
    /// cut mask at the first cut.)
    #[test]
    fn an_out_of_range_hybrid_spec_is_a_bad_request() {
        let mut repo = Repository::in_memory();
        repo.commit("main", &b"id,value\n1,one\n".repeat(100), "v0")
            .unwrap();
        let dsvd = Dsvd::new(repo, DsvdConfig::default());
        let reply = dsvd.handle(Request::Optimize {
            problem: Problem::MinStorage,
            solver: SolverChoice::Auto,
            mode: WireMode::Hybrid {
                min_size: 16,
                avg_size: 1 << 62,
                max_size: 1 << 62,
            },
            reveal_hops: 1,
            hop_bound: None,
        });
        match reply {
            Response::Error { code, message } => {
                assert_eq!(code, errcode::BAD_REQUEST);
                assert!(message.contains("at most 32 MiB"), "{message}");
            }
            other => panic!("expected BAD_REQUEST, got {other:?}"),
        }
    }
}
