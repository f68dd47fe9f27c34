//! What the integration tests share, compiled once for all of them: a
//! scratch directory, a loopback relay that can cut or refuse
//! connections, a store server that survives a kill, the process-wide
//! fault lock, and the model-based harness itself ([`model`]).

pub mod model;

use dsv_net::{Client, Server, ServerOptions, StoreService, StoreServiceConfig};
use dsv_storage::{FileStore, MemStore};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

/// A scratch directory unique to the calling test, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "dsv-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Held for a whole run: the fault plan is process-global, and every
/// durable write consults it.
pub enum FaultLock {
    /// A run that only writes: no plan another run installs may cut it.
    Shared(RwLockReadGuard<'static, ()>),
    /// A run that installs plans.
    Exclusive(RwLockWriteGuard<'static, ()>),
}

pub fn fault_lock(installs: bool) -> FaultLock {
    static LOCK: RwLock<()> = RwLock::new(());
    match installs {
        true => FaultLock::Exclusive(LOCK.write().unwrap_or_else(|e| e.into_inner())),
        false => FaultLock::Shared(LOCK.read().unwrap_or_else(|e| e.into_inner())),
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A loopback address that forwards each connection to a backend.
/// [`Relay::sever`] cuts every open connection, which each end sees as
/// the other hanging up; [`Relay::stop`] also refuses new ones until
/// [`Relay::start`] listens on the same address again.
pub struct Relay {
    pub addr: String,
    shared: Arc<RelayShared>,
    accept: Option<JoinHandle<()>>,
}

struct RelayShared {
    backend: Mutex<String>,
    open: Mutex<HashMap<u64, [TcpStream; 2]>>,
    stopping: AtomicBool,
}

impl Relay {
    pub fn new(backend: &str) -> Relay {
        let mut relay = Relay {
            addr: "127.0.0.1:0".into(),
            shared: Arc::new(RelayShared {
                backend: Mutex::new(backend.to_owned()),
                open: Mutex::new(HashMap::new()),
                stopping: AtomicBool::new(false),
            }),
            accept: None,
        };
        relay.start();
        relay
    }

    /// Listens (again) on the relay's address. Each connection is two
    /// pump threads, joined when the relay stops.
    pub fn start(&mut self) {
        let listener = TcpListener::bind(&self.addr).unwrap();
        self.addr = listener.local_addr().unwrap().to_string();
        self.shared.stopping.store(false, Ordering::SeqCst);
        let shared = Arc::clone(&self.shared);
        self.accept = Some(std::thread::spawn(move || {
            std::thread::scope(|pumps| {
                for (key, front) in (0u64..).zip(listener.incoming()) {
                    if shared.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let backend = lock(&shared.backend).clone();
                    // A backend that is not there drops the connection:
                    // the client sees the server hang up.
                    let (Ok(front), Ok(back)) = (front, TcpStream::connect(backend)) else {
                        continue;
                    };
                    let ends = || (front.try_clone().unwrap(), back.try_clone().unwrap());
                    let (f, b) = ends();
                    lock(&shared.open).insert(key, [f, b]);
                    for (from, to) in [ends(), (back, front)] {
                        let shared = &shared;
                        // Copies one way until either end closes, then
                        // closes both.
                        pumps.spawn(move || {
                            let _ = io::copy(&mut &from, &mut &to);
                            let _ = from.shutdown(Shutdown::Both);
                            let _ = to.shutdown(Shutdown::Both);
                            lock(&shared.open).remove(&key);
                        });
                    }
                }
                // Every pump ends with its connection.
                sever(&shared);
            })
        }));
    }

    /// Forwards new connections to `backend` from now on.
    pub fn retarget(&self, backend: &str) {
        *lock(&self.shared.backend) = backend.to_owned();
    }

    /// Cuts every open connection.
    pub fn sever(&self) {
        sever(&self.shared);
    }

    /// Stops listening, cuts every open connection and joins the pumps.
    pub fn stop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.shared.stopping.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(&self.addr);
            let _ = accept.join();
        }
    }
}

fn sever(shared: &RelayShared) {
    for pair in lock(&shared.open).drain().map(|(_, pair)| pair) {
        for end in pair {
            let _ = end.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A loopback bare-store server (`StoreService`) behind a [`Relay`], so
/// its address outlives a kill. Over a directory it serves a `FileStore`
/// the way `dsvd <dir> --store-server` does, and a restart finds its
/// objects again; without one it serves a `MemStore`.
pub struct StoreServer {
    dir: Option<PathBuf>,
    max_frame: u32,
    relay: Relay,
    /// The serving backend's own address and accept loop.
    backend: Option<(String, JoinHandle<()>)>,
}

impl StoreServer {
    /// A `MemStore` server.
    pub fn spawn(max_frame: u32) -> Self {
        StoreServer::launch(None, max_frame)
    }

    /// A `FileStore` server over `dir/objects`.
    pub fn serve_dir(dir: &Path, max_frame: u32) -> Self {
        StoreServer::launch(Some(dir.to_path_buf()), max_frame)
    }

    fn launch(dir: Option<PathBuf>, max_frame: u32) -> Self {
        let backend = serve_store(dir.as_deref(), max_frame);
        let relay = Relay::new(&backend.0);
        StoreServer {
            dir,
            max_frame,
            relay,
            backend: Some(backend),
        }
    }

    /// What clients dial.
    pub fn addr(&self) -> &str {
        &self.relay.addr
    }

    /// Cuts every open connection; the server stays up.
    pub fn sever(&self) {
        self.relay.sever();
    }

    /// Kills the server: every connection is cut, the address refuses
    /// new ones, and the service is gone.
    pub fn kill(&mut self) {
        self.relay.stop();
        if let Some((addr, accept)) = self.backend.take() {
            if let Ok(mut client) = Client::connect(&addr) {
                let _ = client.shutdown();
            }
            let _ = accept.join();
        }
    }

    /// Serves the same directory at the same address again.
    pub fn restart(&mut self) {
        let backend = serve_store(self.dir.as_deref(), self.max_frame);
        self.relay.retarget(&backend.0);
        self.backend = Some(backend);
        self.relay.start();
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Starts a store service on a fresh port; returns that port's address
/// and the accept loop. Sessions carry no idle timeout: each one ends
/// when its relay connection does.
fn serve_store(dir: Option<&Path>, max_frame: u32) -> (String, JoinHandle<()>) {
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerOptions {
            workers: 4,
            queue_depth: 8,
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let config = StoreServiceConfig {
        max_frame,
        read_timeout: None,
    };
    // Coding payloads, like the `FileStore` a `dsvd --store-server`
    // opens: a `RemoteStore` prices objects for that policy.
    let accept = match dir {
        Some(dir) => {
            let store = FileStore::open(&dir.join("objects"), true).unwrap();
            dsv_vcs::persist::sweep_unpublished(dir).unwrap();
            std::thread::spawn(move || StoreService::new(store, config).serve(&server))
        }
        None => std::thread::spawn(move || {
            StoreService::new(MemStore::new(true), config).serve(&server)
        }),
    };
    (addr, accept)
}
