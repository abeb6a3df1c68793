//! End-to-end and per-layer benchmark of the LocusRoute reproduction.
//!
//! Three workloads, each generated from a seed, time calls into the
//! public functions of every layer from outside — `circuit`, `router`,
//! `shmem`, `coherence`, `analysis`, `msgpass` and `mesh` — and check
//! every output:
//!
//! * `races` — traced shared-memory emulator, then race detection and
//!   classification (the `analyze --engine emul` path);
//! * `memory` — traced emulator replayed through every memory backend
//!   (the `memory` study);
//! * `paradigms` — untraced routing on the sequential router, the
//!   emulator and the message-passing mesh (Table 1/2 grids and
//!   recovery cells).
//!
//! The library takes its clock from the caller ([`spans::Clock`]), so the
//! only wall-clock reads are in the binary.

pub mod check;
pub mod run;
pub mod spans;
pub mod workloads;

/// The seed whose cell digests are committed in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Committed digests of every cell's deterministic outputs for
/// [`DEFAULT_SEED`] at full scale.
pub const DIGESTS: &str = include_str!("../digests.txt");
