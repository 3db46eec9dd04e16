//! # dca-dram-cache — tags-in-DRAM cache organisations
//!
//! The DRAM cache proper: the functional and structural model of a 256 MB
//! die-stacked cache whose tags are embedded in the DRAM array (§II-B),
//! in both organisations the paper evaluates:
//!
//! * **Set-associative** (Loh & Hill \[6\]): each 4 KB row holds 4 sets of
//!   15 ways; the first four 64-byte slots of the row are tag blocks (one
//!   per set), the remaining 60 slots are data ways. A cache read costs a
//!   tag-block read, then a data read, then a tag write to update
//!   replacement state (Fig 2).
//! * **Direct-mapped** (Qureshi & Loh's Alloy cache \[7\]): tag and data are
//!   fused into an 80-byte TAD streamed in one wider burst, so a read is
//!   a single access — which is exactly why the paper's DCA gains are
//!   larger for direct-mapped (§VI-A).
//!
//! ## Design × organisation × replacement matrix
//!
//! Any controller design runs over any organisation under any
//! replacement policy; the axes are orthogonal:
//!
//! | Axis | Variants | Decided in |
//! |------|----------|------------|
//! | Controller design | CD, ROD, DCA, BAN (Banshee-style frequency-gated fill) | `dca_core::config::Design` |
//! | Organisation | SA (4×15-way tags-in-row), DM (Alloy TAD) | [`OrgKind`] |
//! | Replacement | `srrip` (default), `lru`, `lruc`, `lrud` | [`tags::ReplacementPolicy`] |
//! | Main memory | flat 50 ns, cycle-level DDR4, cycle-level XPoint | `dca_mem_hier::MainMemConfig` |
//!
//! The design axis lives in the controller/system crate (it schedules
//! the access streams); the organisation and replacement axes live here
//! (they define what the access streams *are* and which blocks
//! survive). For the direct-mapped organisation every replacement
//! policy degenerates to the same single-way behaviour.
//!
//! Modules:
//!
//! * [`geometry`] — address → (set, way-slot, DRAM location) for both
//!   organisations, including the RoBaRaChCo frame mapping and optional
//!   XOR remap.
//! * [`tags`] — the functional tag/dirty/replacement array with a
//!   pluggable [`tags::ReplacementPolicy`] (SRRIP default, plus the
//!   LRU family).
//! * [`request`] — cache-level request types (read / writeback / refill).
//! * [`translate`] — the per-request state machines that expand a cache
//!   request into its DRAM accesses *as dependencies resolve* (a tag read
//!   must complete before the design knows whether a data read follows).
//! * [`predictor`] — the MAP-I hit/miss predictor \[7\] used by all designs
//!   in the evaluation to overlap miss handling with tag access.
//! * [`tag_cache`] — an ATCache-style SRAM tag cache \[4\] with spatial
//!   prefetch, used to reproduce Fig 18's observation that small tag
//!   caches *increase* DRAM tag traffic.

pub mod geometry;
pub mod predictor;
pub mod request;
pub mod tag_cache;
pub mod tags;
pub mod translate;

pub use geometry::{BlockPlace, CacheGeometry, OrgKind};
pub use predictor::MapI;
pub use request::{CacheReqKind, CacheRequest, RequestId};
pub use tag_cache::{TagCache, TagCacheStats};
pub use tags::{InsertOutcome, ReplacementPolicy, SparseTags, TagArray};
pub use translate::{AccessRole, AccessSpec, FsmOutput, RequestFsm};
