//! # dca-sched — access queues and arbiters
//!
//! The queue/arbiter substrate shared by all three controller designs in
//! the paper:
//!
//! * [`queue`] — bounded access queues whose entries carry the metadata the
//!   designs disagree about: the DRAM access itself, the *cache request
//!   type* it came from, and (for DCA) the priority-read / low-priority-read
//!   classification. Each queue is indexed by bank: a slot set per bank,
//!   an occupied-bank mask and the PR slot set, so a controller builds
//!   each arbitration phase's candidates by intersecting bit masks with
//!   its channel's free banks instead of testing every entry. The index
//!   limits a queue to [`MAX_CAPACITY`] (128) entries over [`MAX_BANKS`]
//!   (64) banks.
//! * [`bliss`] — the Blacklisting memory scheduler (Subramanian et al.
//!   \[11\]), the base arbitration algorithm under every design in the
//!   paper's evaluation: applications that hog consecutive service slots
//!   get blacklisted for an interval; arbitration then prefers
//!   non-blacklisted, then row hits, then age (one lexicographic key).
//! * [`frfcfs`] — classic FR-FCFS, used as an ablation arbiter.
//! * [`hysteresis`] — two-threshold state machines: the write-queue drain
//!   policy (§II-A: forced flush at the high mark, opportunistic service
//!   above the low mark when reads are idle) and DCA's Algorithm-1
//!   ScheduleAll band (85 %/75 %).

pub mod bliss;
pub mod frfcfs;
pub mod hysteresis;
pub mod queue;

pub use bliss::Bliss;
pub use frfcfs::FrFcfs;
pub use hysteresis::{DrainPolicy, Hysteresis};
pub use queue::{AccessQueue, QueueEntry, ReadClass, SlotSet, MAX_BANKS, MAX_CAPACITY};
