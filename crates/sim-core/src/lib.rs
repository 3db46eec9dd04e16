//! # dca-sim-core — simulation substrate for the DCA reproduction
//!
//! Foundation types shared by every other crate in the workspace:
//!
//! * [`time`] — a picosecond-resolution simulated clock ([`SimTime`],
//!   [`Duration`]) with exact conversions for the nanosecond DRAM timing
//!   parameters and the 4 GHz CPU clock used in the paper's Table II.
//! * [`events`] — a deterministic discrete-event queue. Events that tie on
//!   timestamp are delivered in insertion order, which makes every
//!   simulation bit-reproducible for a given seed.
//! * [`slab`] — generational slab storage; the allocator behind every
//!   hot-path id in the engine.
//! * [`hash`] — an Fx-style non-cryptographic hasher for the hot maps
//!   that remain.
//! * [`codec`] — a bounds-checked little-endian binary codec; the
//!   substrate of the warm-state byte image and the `.dcat` trace
//!   format (the workspace is offline, so no serde).
//! * [`stats`] — cheap statistics primitives (counters, running means,
//!   fixed-bucket histograms) used by the device and controller models to
//!   feed the paper's figures.
//! * [`rng`] — seed-splitting helpers so each (workload, core, component)
//!   tuple derives an independent deterministic RNG stream, plus the
//!   xoshiro-based [`rng::Prng`] the workload generators sample from.
//!
//! Everything here is intentionally dependency-free and single-threaded,
//! and determinism is a correctness requirement for the experiment
//! harness (identical seeds must yield identical figures). Parallelism
//! lives one level up: a figure sweep runs its independent simulations
//! on the `figures --jobs N` threads of `dca-bench`'s one runner.
//!
//! ## Engine architecture (hot paths)
//!
//! Three structures carry essentially all of the simulator's inner-loop
//! work:
//!
//! 1. **Calendar event queue** ([`events::EventQueue`]). A two-level
//!    scheduler: a ring of 1024 FIFO buckets covers the near future, and
//!    a far-future binary heap absorbs the rare event beyond the horizon
//!    (events migrate into the ring as the cursor approaches). Delivery
//!    order is exactly `(time, seq)` — bit-identical to the original heap
//!    engine, which survives as [`events::BaselineEventQueue`] for A/B
//!    determinism tests and perf baselines. Buckets stay sorted by
//!    ordered insertion: the common nondecreasing-time push is a plain
//!    append, and an out-of-order push binary-searches its spot in the
//!    (small) bucket. The slot width is fixed per queue
//!    ([`events::EventQueue::with_slot_shift`]); the simulator pins it
//!    from `SystemConfig::event_slot_shift`.
//! 2. **Generational slabs** ([`slab::Slab`]). Request and access ids in
//!    `dca::system` are packed `(index, generation)` slab keys
//!    ([`slab::SlabKey`]), so per-request state lookups are direct array
//!    indexing — no hashing anywhere on the request path; stale ids from
//!    in-flight events are caught by the generation check rather than
//!    aliasing recycled slots.
//! 3. **Bank-indexed command queues** (`dca_sched::AccessQueue`).
//!    Controller read/write queues keep entries in fixed slot storage
//!    plus one slot set per bank, an occupied-bank mask and the
//!    priority-read slot set. Each arbitration phase intersects those
//!    masks with the channel's free banks, so a slot whose candidate
//!    banks are all busy touches no entry. Iteration is *not* age
//!    ordered; arbiters carry age explicitly as `(enqueued_at, id)`.
//!
//! The repository benchmark (`perfbench/`, declared in `BENCHMARK.json`)
//! measures the end-to-end effect; its `--trace 1` mode also reports
//! this queue's cost per operation (`sim_core.events.ns_per_op`).
//!
//! ## Determinism & codec rules
//!
//! Bit-identical figures across engines, warm restores, thread counts
//! and reused partials are a correctness requirement, not an
//! aspiration. The compiler and clippy hold the source-level invariants
//! behind that; CI's `check` job runs clippy with `-D warnings` on every
//! target, tests and examples included:
//!
//! * **No std hash maps (D01).** `std::collections::HashMap` seeds
//!   SipHash per process, so hash order — and anything computed from
//!   it — differs run to run. The root `clippy.toml` disallows the std
//!   `HashMap` and `HashSet` types; code uses `BTreeMap`/`BTreeSet`, or
//!   [`hash::FastHashMap`] (unkeyed) for a key that is not `Ord`.
//! * **No wall clock (D02).** `clippy.toml` disallows `SystemTime`,
//!   `SystemTime::now` and `Instant::now`. Simulated time is
//!   [`time::SimTime`], advanced exclusively by the event queue. Two
//!   reads of the host clock are sanctioned, each by an `#[expect]` with
//!   a reason: the `figures` wall-clock report and a test deadline in
//!   `dca-bench`'s `tests/shard.rs`.
//! * **No hash-order iteration (D03).** Even a stable hasher's order is
//!   an accident of insertion. [`hash::FastHashMap`] is a newtype with
//!   lookup and update calls only, so iterating it does not compile.
//! * **Codec coverage (C01).** Every `encode` opens with an exhaustive
//!   `let Self { … } = self;` (or a `match self`), so a field added
//!   without being encoded is error E0027 rather than a field silently
//!   missing from the warm-state byte image.
//! * **Every lint exception says why (P01).** The workspace lint table
//!   in the root `Cargo.toml` turns on clippy's
//!   `allow_attributes_without_reason`.
//!
//! The suite's `tests/source_rules.rs` pins the three `#[expect]`
//! exceptions (the `FastHashMap` field is the third) and checks each
//! encoder's opening destructure; `ci/clippy-fixture` breaks D01, D02
//! and P01 once each, and CI requires clippy to reject it.

pub mod codec;
pub mod events;
pub mod hash;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use events::{BaselineEventQueue, EventQueue};
pub use hash::{digest64, FastHashMap};
pub use rng::SeedSplitter;
pub use slab::{Slab, SlabKey};
pub use stats::{Counter, Histogram, RunningMean};
pub use time::{Duration, SimTime};
