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
//!   substrate of the warm-state checkpoint files (the workspace is
//!   offline, so no serde).
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
//! on the `figures --jobs N` worker pool in `dca-bench`.
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
//! The `perf_smoke` binary in `dca-bench` measures the end-to-end effect
//! (simulated cycles/sec and events/sec, calendar vs. heap) and writes
//! `BENCH_engine.json` so every PR leaves a perf trajectory.
//!
//! ## Determinism & codec rules (enforced by `dca-lint`)
//!
//! Bit-identical figures across engines, warm restores, and the
//! serial and worker-pool execution paths are a correctness requirement,
//! not an aspiration. The `dca-lint` crate enforces the source-level
//! invariants behind that statically (CI runs it before anything builds):
//!
//! * **No std hash maps in sim code (D01).** `std::collections::HashMap`
//!   seeds SipHash per process, so hash order — and anything computed
//!   from it — differs run to run. Sim crates use [`hash::FastHashMap`]
//!   (unkeyed, stable) or `BTreeMap`.
//! * **No wall clock in sim code (D02).** `Instant::now`/`SystemTime`
//!   belong only to the bench-timing layer (perf smoke, supervisor
//!   deadlines). Simulated time is [`time::SimTime`], advanced
//!   exclusively by the event queue.
//! * **No hash-order iteration (D03).** Even a stable hasher's iteration
//!   order is an accident of insertion; iterating a map into event order
//!   or a report is a silent reproducibility bug. Collect and sort, or
//!   keep the structure in a `BTreeMap`/dense array.
//! * **Codec coverage (C01).** Every struct with `fn encode` must touch
//!   each named field in its `encode`/`decode` bodies — the
//!   "added a field, forgot the codec" class that forced the `WarmState`
//!   v2→v3→v4 bumps now fails the lint instead of corrupting warm
//!   restores.
//! * **No panics on crash-recoverable paths (R01).** The worker pool
//!   (`shard::{supervisor,pool}` in `dca-bench`) exists to survive
//!   worker crashes, hangs and protocol garbage; it degrades through
//!   error values and its retry/quarantine machinery, never aborts.
//!
//! Violations carry a `// dca-lint: allow(<rule>) <reason>` escape hatch,
//! but every pragma is pinned by the linter's workspace self-test — see
//! the `dca-lint` crate docs for the rule set and usage.

pub mod codec;
pub mod events;
pub mod hash;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use events::{BaselineEventQueue, EventQueue};
pub use hash::{digest64, FastBuildHasher, FastHashMap, FastHashSet, FastHasher};
pub use rng::SeedSplitter;
pub use slab::{Slab, SlabKey};
pub use stats::{Counter, Histogram, RunningMean};
pub use time::{Duration, SimTime};
