//! `alpha-serve` — the serving layer of the AlphaSparse reproduction.
//!
//! AlphaSparse's economics only work at scale if the three-level search is an
//! *investment*: tune a matrix once, serve the machine-designed SpMV forever
//! after.  This crate supplies the two pieces the ROADMAP's "heavy traffic"
//! north star needs on top of the `alpha-search` Evaluator subsystem:
//!
//! * [`DesignStore`] — a durable, directory-backed store of
//!   [`DesignCache`](alpha_search::DesignCache)s with an LRU in-memory tier.
//!   Each evaluation context (matrix fingerprint x device x generator
//!   options x probe seed) maps to one versioned cache file; stale-schema,
//!   truncated and corrupted files are rejected cleanly instead of being
//!   half-loaded.
//! * [`TuningService`] — a batch front end that accepts many
//!   (matrix, device) requests at once, deduplicates them by cache identity,
//!   warm-starts cold searches from the stored winners of structurally
//!   similar matrices (via [`alpha_search::features`]), fans the remaining
//!   work out over `alpha-parallel`, and returns ready-to-run
//!   [`TunedSpmv`](alphasparse::TunedSpmv) handles.
//!
//! The replay guarantee that makes the store a cache rather than a heuristic:
//! the warm-start seeds used for a context's *first* search are pinned in its
//! cache file, so every later search of the same context enumerates exactly
//! the same candidates and is answered entirely from the stored evaluations —
//! zero fresh evaluations.

#![warn(missing_docs)]

mod lock;
mod service;
mod store;

pub use lock::LOCK_FILE_NAME;
pub use service::{ServedTune, TuneRequest, TuningService};
pub use store::{DesignStore, StoreError, StoreStats, STORE_LAYOUT_VERSION};
