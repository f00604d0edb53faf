//! Fundamental value types shared by every crate of the EBCP reproduction.
//!
//! This crate defines the vocabulary of the simulated machine:
//!
//! * [`Addr`], [`LineAddr`] and [`Pc`] — strongly typed physical addresses,
//!   so byte addresses, cache-line addresses and program counters cannot be
//!   confused (the prefetcher literature mixes all three freely; the type
//!   system keeps us honest).
//! * [`Cycle`] — simulation time, in core clock cycles.
//! * [`AccessKind`] and [`MemClass`] — what an access *is* and which
//!   priority class its memory traffic travels in.
//! * a small statistics toolkit ([`stats::Counter`], [`stats::Ratio`],
//!   [`stats::Histogram`]) used by the memory system and the simulator.
//! * [`checksum`] — the streaming XXH64 integrity checksum of the
//!   on-disk segmented trace and pre-resolved stream formats.
//! * [`FxHashMap`]/[`FxHashSet`] — deterministic, no-alloc fast hashing
//!   for the simulator's per-miss-path tables (see [`fxhash`]).
//!
//! # Examples
//!
//! ```
//! use ebcp_types::{Addr, LineAddr, LINE_BYTES};
//!
//! let a = Addr::new(0x1_0040);
//! let line = a.line();
//! assert_eq!(line.base(), Addr::new(0x1_0040 / LINE_BYTES * LINE_BYTES));
//! assert_eq!(line.next(), LineAddr::containing(Addr::new(0x1_0080)));
//! ```

pub mod addr;
pub mod checksum;
pub mod fxhash;
pub mod kind;
pub mod stats;

pub use addr::{Addr, LineAddr, Pc, LINE_BYTES, LINE_SHIFT};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use kind::{AccessKind, MemClass};

/// Simulation time in core clock cycles.
///
/// The default machine runs at 3 GHz, so one [`Cycle`] is 1/3 ns. All
/// latencies in the workspace (cache hit times, the 500-cycle memory
/// latency, bus transfer times) are expressed in this unit.
pub type Cycle = u64;
