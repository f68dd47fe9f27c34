//! Fixtures shared by the integration tests (each test binary uses a
//! subset, hence the `dead_code` allowance).
#![allow(dead_code)]

use dsv_net::{Client, Server, ServerOptions, StoreService, StoreServiceConfig};
use dsv_storage::MemStore;
use std::path::PathBuf;
use std::time::Duration;

/// A scratch directory unique to the calling test, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "dsv-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
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

/// One loopback bare-store server (MemStore behind `StoreService`), shut
/// down and joined on drop.
pub struct StoreServer {
    pub addr: String,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StoreServer {
    pub fn spawn(max_frame: u32) -> Self {
        StoreServer::spawn_with_idle(max_frame, Duration::from_secs(10))
    }

    /// A server that hangs up on a connection idle for `idle`. A session
    /// outlives the accept loop until its client leaves or idles out, so
    /// a short `idle` is what lets a test drop this server from under a
    /// connected client: once `drop` returns nothing answers at `addr`.
    pub fn spawn_with_idle(max_frame: u32, idle: Duration) -> Self {
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
            read_timeout: Some(idle),
        };
        let handle = std::thread::spawn(move || {
            // Coding payloads, like the `FileStore` a `dsvd --store-server`
            // opens: a `RemoteStore` prices objects for that policy.
            StoreService::new(MemStore::new(true), config).serve(&server);
        });
        StoreServer {
            addr,
            handle: Some(handle),
        }
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
