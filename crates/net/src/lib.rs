//! `alpha-net` — the networked serving tier of the AlphaSparse
//! reproduction.
//!
//! PR 2/3 made tuning an investment (`DesignStore` + `TuningService` +
//! native execution); this crate makes the investment *reachable*: a
//! std-only TCP daemon that accepts Matrix Market-sized matrices over a
//! versioned binary wire protocol, tunes them through a shared warm store,
//! and executes the resulting machine-designed SpMV kernels against
//! client-supplied vectors — the long-lived-service shape JIT-SpMV systems
//! use to amortize tuning cost across requests.
//!
//! The three pieces:
//!
//! * [`proto`] — the wire protocol: `ANET`-magic, versioned,
//!   length-prefixed frames whose payloads use the exact codec discipline
//!   of the durable `ACDS` cache files.  Adversarial bytes produce typed
//!   errors, never panics.  Its framing (one frame reader) and its codec
//!   are submodules.
//! * [`NetServer`] — the daemon: an event loop over a private epoll/kqueue
//!   reactor, and its lanes — admission into one bounded tune queue with
//!   reject-with-backpressure, tuning workers over a shared
//!   [`TuningService`](alpha_serve::TuningService), SpMV exec workers, an
//!   HTTP metrics endpoint — around an in-memory job table with
//!   terminal-state GC.
//! * [`Client`] — the typed blocking client: submit, poll/wait, remote
//!   SpMV, stats, shutdown.
//!
//! ```
//! use alpha_net::{Client, NetServer, ServerConfig};
//! use alpha_serve::{DesignStore, TuningService};
//! use alphasparse::SearchConfig;
//! use alpha_matrix::gen;
//!
//! let dir = std::env::temp_dir().join(format!("alpha_net_doc_{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let service = TuningService::new(
//!     DesignStore::open(&dir).expect("store opens"),
//!     SearchConfig { max_iterations: 6, ..SearchConfig::default() },
//! );
//! let server = NetServer::spawn("127.0.0.1:0", service, ServerConfig::default())
//!     .expect("daemon binds");
//!
//! let mut client = Client::connect(server.local_addr()).expect("client connects");
//! let matrix = gen::powerlaw(128, 128, 4, 2.0, 1);
//! let job = client.submit_tune(&matrix, "A100").expect("submission is admitted");
//! let summary = client
//!     .wait_job(job, std::time::Duration::from_millis(10), std::time::Duration::from_secs(60))
//!     .expect("tuning finishes");
//! assert!(summary.gflops > 0.0);
//!
//! let y = client.spmv(job, &vec![1.0; 128]).expect("remote SpMV runs");
//! assert_eq!(y.len(), 128);
//!
//! client.shutdown().expect("daemon acknowledges");
//! server.join();
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]

mod by_digest;
mod client;
pub mod proto;
mod reactor;
mod server;

pub use client::{Client, NetError, TraceFetch};
pub use proto::{
    ErrorKind, JobState, JobSummary, ProtoError, Request, Response, ServerStats, MAX_FRAME_LEN,
    NET_MAGIC, PROTOCOL_VERSION,
};
pub use server::{device_by_name, NetServer, ServerConfig};
