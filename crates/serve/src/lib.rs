//! Sweep-as-a-service: run experiment grids on a farm of workers.
//!
//! `diq sweep` is one process, one grid, gone when it exits. This crate
//! keeps the sweep machinery resident: a server owns the result store and
//! accepts [`diq_exp::ExperimentSpec`] jobs over TCP, workers (same machine
//! or not) execute grid points, and thin clients submit specs and watch
//! progress. Three properties make it more than a remote `sweep`:
//!
//! * **Cross-job dedup.** Points are deduplicated against the store *and*
//!   against points already in flight, so two users submitting overlapping
//!   grids share executions — the second submission of an identical spec
//!   costs nothing and reports 100% cache hits.
//! * **Join-the-idle-queue dispatch.** Workers pull by announcing idleness;
//!   the server never queues work onto a busy worker, so a slow machine
//!   holds back one point, not a shard.
//! * **Sweep-identical output.** One event-loop thread writes every result,
//!   in each job's grid order: the final `results/store.jsonl` is
//!   byte-identical to what a single-process `diq sweep` of the same specs
//!   would write, and a run manifest lands in the same `runs/` layout once
//!   every record it names is stored. Every downstream tool (`compare`,
//!   `export`, the figure harness) works unchanged.
//!
//! Workers hold leases with deadlines; a worker that dies mid-point is
//! detected by lease expiry (or socket EOF) and its points are reassigned,
//! so a sweep survives worker churn with at-most-once recording.
//!
//! Every scheduling decision lives in [`core`], a sans-IO state machine
//! that takes `(now, event)` and returns actions; the server around it
//! is `std` TCP + threads + channels, no async runtime.
//!
//! # In-process example
//!
//! ```no_run
//! use diq_serve::{Client, ServeConfig, WorkerOptions};
//! use std::time::Duration;
//!
//! let handle = ServeConfig::default().spawn().unwrap();
//! let addr = handle.addr().to_string();
//! std::thread::spawn({
//!     let addr = addr.clone();
//!     move || diq_serve::run_worker(&addr, &WorkerOptions::default())
//! });
//! let mut client = Client::connect(&addr).unwrap();
//! let summary = client
//!     .submit_and_watch(
//!         r#"{"name":"demo","instructions":["10k"],
//!             "schemes":["MB_distr"],"workloads":["swim"]}"#,
//!         None,
//!         Duration::from_millis(100),
//!     )
//!     .unwrap();
//! println!("{} computed, {} cached", summary.computed, summary.cached);
//! ```

#![deny(missing_docs)]

mod client;
pub mod core;
pub mod protocol;
mod server;
mod worker;

pub use client::{Client, ServeError};
pub use server::{ServeConfig, ServerHandle};
pub use worker::{run_worker, WorkerOptions, WorkerReport};
