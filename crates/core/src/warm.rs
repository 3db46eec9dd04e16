//! Warm-state checkpointing: capture the functionally warmed memory
//! hierarchy once, reuse it across every design/remap variant of a run.
//!
//! Functional warm-up (see [`System::new`](crate::System::new)) streams
//! `warmup_ops` memory operations per core through the L1s, the shared
//! L2 and the DRAM-cache tag array with **no timing**. Its outcome
//! therefore depends only on the op streams and the cache shapes — not
//! on the controller design, the arbiter, the DRAM timing, or the bank
//! mapping (the XOR remap permutes *banks*; a block's `(set, tag)` pair
//! is mapping-independent, which `geometry::tests::
//! xor_scheme_changes_banks_only` locks in). A figure sweep that
//! evaluates CD/ROD/DCA × {direct, remap} on one mix re-runs six
//! *identical* warm-ups; a [`WarmState`] lets it pay for one.
//!
//! ## Fingerprint scheme
//!
//! A `WarmState` is keyed by a 64-bit fingerprint folding together
//! exactly the inputs that determine the warmed state:
//!
//! * [`WARM_FORMAT_VERSION`] (schema changes invalidate old state),
//! * the workloads, in core order. For a synthetic benchmark that is
//!   its id *and* every generator parameter (pattern, fractions,
//!   working set, gap, reuse), so a retuned profile invalidates
//!   persisted state by content, not by a remembered version bump. For
//!   a trace workload it is the trace file's **content digest** — an
//!   edited trace yields a new digest and therefore misses every stale
//!   checkpoint by construction (paths and mtimes are never consulted),
//! * the cache organisation (`OrgKind` discriminant + associativity)
//!   and the replacement policy (warm-up drives the tag array through
//!   [`TagArray::insert`], whose victim choice is policy-dependent),
//! * the stacked-DRAM organisation (channels, ranks, banks, rows,
//!   row bytes — these size the tag array via the frame count),
//! * `warmup_ops` and the experiment `seed`.
//!
//! Fields deliberately **excluded** — and why reuse is sound:
//! `design`, `arbiter`, queue capacities and timing (never consulted
//! before the timing phase), `mapping` (bank permutation only, see
//! above), `main_mem` (the main-memory backend is a pure timing-phase
//! device — one warm-up serves a whole bandwidth-sensitivity sweep),
//! `target_insts` (timing-phase length). If warm-up ever grows a
//! dependency on a new field, add it to [`WarmState::fingerprint_for`]
//! — a stale fingerprint silently reusing wrong state is the one bug
//! this scheme must never allow, so when in doubt, include the field.
//!
//! ## On-disk format
//!
//! [`WarmState::encode`] produces a standalone little-endian blob:
//! an 8-byte magic (`"DCAWARM\0"`), a `u32` format version, the `u64`
//! fingerprint, the component payloads (per-core [`SramCache`] L1s,
//! the L2, the [`TagArray`], the [`MapI`] table, and one tagged
//! [`OpStream`] cursor per core — a [`dca_cpu::TraceGen`] generator or
//! a [`dca_cpu::TraceReader`] replay position) via each component's
//! own `encode`/`decode` pair, and a trailing `u64` digest over
//! everything before it.
//! [`WarmState::decode`] validates the digest first, then magic,
//! version, every component's invariants, and that the buffer is fully
//! consumed — per-field range checks alone cannot catch a bit flip
//! that lands inside a legal value, and a silently altered warm state
//! is the one failure this subsystem must never allow.
//! **Invalidation rules**: a reader must discard a blob whose digest,
//! magic or version don't check out ([`WarmState::decode`] enforces
//! these) or whose fingerprint is not the one it derived from its own
//! configuration (the caller checks, e.g. `dca_bench::WarmCache`) — so
//! bit rot, renamed benchmarks, retuned profiles behind the same id,
//! or geometry changes all fall back to a fresh warm-up rather than
//! corrupt a run.
//!
//! The [`MapI`] table rides along for checkpoint completeness even
//! though today's warm-up never trains it (it is always the pristine
//! paper table); if warm-up ever does, the format already carries it.

use dca_cpu::{tracefile, Benchmark, OpStream, Pattern};
use dca_dram_cache::{MapI, OrgKind, TagArray};
use dca_mem_hier::SramCache;
use dca_sim_core::{digest64, ByteReader, ByteWriter, CodecError};

use crate::config::SystemConfig;

/// Version of the checkpoint schema (fingerprint inputs + byte layout).
/// Bump on any change to either; old state then misses cleanly.
/// (v2: per-core workload cursors are kind-tagged [`OpStream`]s so
/// trace replays checkpoint alongside synthetic generators.
/// v3: the main-memory tier became a configurable device
/// ([`SystemConfig::main_mem`]); the cursor payload is unchanged, but
/// the bump retires every pre-refactor pool so cross-refactor state is
/// never trusted. A v2 blob is **cleanly rejected** by
/// [`WarmState::decode`] with a version error — consumers such as
/// `dca_bench::WarmCache` log a warning and fall back to a cold
/// warm-up; nothing panics. The backend choice itself is deliberately
/// *excluded* from the fingerprint: warm-up is timing-free, so one
/// warm-up legally serves every main-memory backend of a sensitivity
/// sweep.
/// v4: the tag array grew a pluggable replacement policy — the codec
/// carries a policy byte and the fingerprint folds the policy in (the
/// warmed tag contents depend on it). A v3 blob is rejected with the
/// same clean version error as v2; consumers warm cold. The *design*
/// — including the Banshee fill gate, which is a timing-phase refill
/// filter — and the main-memory backend remain excluded.)
pub const WARM_FORMAT_VERSION: u32 = 4;

/// Magic prefix of an encoded [`WarmState`].
const MAGIC: &[u8; 8] = b"DCAWARM\0";

/// The complete post-warm-up state of the design-independent half of
/// the system: per-core L1s, the shared L2, the DRAM-cache tag array,
/// the MAP-I predictor and the per-core workload generators (with their
/// RNG cursors). Captured by
/// [`System::capture_warm`](crate::System::capture_warm), consumed by
/// [`System::from_warm`](crate::System::from_warm).
#[derive(Clone, Debug)]
pub struct WarmState {
    fingerprint: u64,
    pub(crate) l1: Vec<SramCache>,
    pub(crate) l2: SramCache,
    pub(crate) tags: TagArray,
    pub(crate) predictor: MapI,
    pub(crate) gens: Vec<OpStream>,
}

/// SplitMix64-style avalanche, the fingerprint's mixing step.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl WarmState {
    /// Bundle captured components into a keyed checkpoint. Called by
    /// `System::capture_warm`; the components must be in their exact
    /// post-warm-up state.
    pub(crate) fn new(
        cfg: &SystemConfig,
        benches: &[Benchmark],
        l1: Vec<SramCache>,
        l2: SramCache,
        tags: TagArray,
        predictor: MapI,
        gens: Vec<OpStream>,
    ) -> Self {
        assert_eq!(l1.len(), benches.len());
        assert_eq!(gens.len(), benches.len());
        WarmState {
            fingerprint: Self::fingerprint_for(cfg, benches),
            l1,
            l2,
            tags,
            predictor,
            gens,
        }
    }

    /// The checkpoint's key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of cores the checkpoint was captured for.
    pub fn cores(&self) -> usize {
        self.gens.len()
    }

    /// Fingerprint of the warm-up a `(cfg, benches)` pair implies. See
    /// the module docs for what is (and is deliberately not) included.
    pub fn fingerprint_for(cfg: &SystemConfig, benches: &[Benchmark]) -> u64 {
        let mut h = mix(0x5DCA_2016_0000_0000, WARM_FORMAT_VERSION as u64);
        h = mix(h, benches.len() as u64);
        for b in benches {
            match b {
                // A trace workload's op stream is exactly its records:
                // hash the file's content digest (never its path or
                // registration order), so an edited trace invalidates
                // stale checkpoints by construction.
                Benchmark::Trace(id) => {
                    h = mix(h, 0x7472_6163_6500_0000); // "trace"
                    h = mix(h, tracefile::trace_data(*id).digest);
                }
                // Hash the full profile *contents*, not just the id: a
                // retuned profile behind an unchanged id must miss the
                // cache (the generators' entire op stream depends on
                // these parameters), without anyone remembering a
                // version bump.
                b => {
                    let p = b.profile();
                    h = mix(h, b.id() as u64);
                    h = mix(
                        h,
                        match p.pattern {
                            Pattern::Stream { streams } => 0x0100 | streams as u64,
                            Pattern::Chase { chains } => 0x0200 | chains as u64,
                            Pattern::Mixed { stream_prob } => mix(0x0300, stream_prob.to_bits()),
                        },
                    );
                    for v in [
                        p.mem_fraction.to_bits(),
                        p.store_fraction.to_bits(),
                        p.reuse_prob.to_bits(),
                        p.ws_blocks,
                        p.mean_gap as u64,
                    ] {
                        h = mix(h, v);
                    }
                }
            }
        }
        h = mix(
            h,
            match cfg.org_kind {
                OrgKind::SetAssoc { ways } => 0x5A00 | ways as u64,
                OrgKind::DirectMapped => 0xD300,
            },
        );
        // The replacement policy shapes which victims warm-up evicts,
        // so the warmed tag contents are policy-specific.
        h = mix(h, 0x7263_7000 | cfg.replacement.code() as u64);
        let org = &cfg.dram_org;
        for v in [
            org.channels as u64,
            org.ranks as u64,
            org.banks_per_rank as u64,
            org.rows_per_bank as u64,
            org.row_bytes as u64,
        ] {
            h = mix(h, v);
        }
        h = mix(h, cfg.warmup_ops);
        mix(h, cfg.seed)
    }

    /// Whether this checkpoint is the warm-up `(cfg, benches)` needs.
    pub fn matches(&self, cfg: &SystemConfig, benches: &[Benchmark]) -> bool {
        self.fingerprint == Self::fingerprint_for(cfg, benches)
    }

    /// Serialise to the standalone on-disk blob (see module docs).
    pub fn encode(&self) -> Vec<u8> {
        // Dominated by the tag array (~6 B/entry); size the buffer once.
        let approx = 64
            + self.tags.sets() as usize * self.tags.ways() as usize * 6
            + (self.l1.len() + 16) * 32 * 1024;
        let mut w = ByteWriter::with_capacity(approx);
        w.put_bytes(MAGIC);
        w.put_u32(WARM_FORMAT_VERSION);
        w.put_u64(self.fingerprint);
        w.put_u32(self.l1.len() as u32);
        for c in &self.l1 {
            c.encode(&mut w);
        }
        self.l2.encode(&mut w);
        self.tags.encode(&mut w);
        self.predictor.encode(&mut w);
        w.put_u32(self.gens.len() as u32);
        for g in &self.gens {
            g.encode(&mut w);
        }
        let mut blob = w.into_vec();
        let d = digest64(&blob);
        blob.extend_from_slice(&d.to_le_bytes());
        blob
    }

    /// Rebuild a checkpoint from an [`WarmState::encode`] blob,
    /// validating magic, version, every component invariant, and full
    /// consumption of the buffer.
    pub fn decode(bytes: &[u8]) -> Result<WarmState, CodecError> {
        // Integrity first: the trailing digest must match everything
        // before it, or a flipped bit inside a legal field value would
        // decode into a silently different warm state.
        let Some(payload_len) = bytes.len().checked_sub(8) else {
            return Err(CodecError::new("truncated input"));
        };
        let (payload, stored) = bytes.split_at(payload_len);
        if digest64(payload) != u64::from_le_bytes(stored.try_into().expect("8B")) {
            return Err(CodecError::new("digest mismatch"));
        }
        let mut r = ByteReader::new(payload);
        if r.bytes(MAGIC.len())? != MAGIC {
            return Err(CodecError::new("bad magic"));
        }
        let version = r.u32()?;
        if version != WARM_FORMAT_VERSION {
            // Old pools predate either the tier-generic main-memory
            // refactor (v2 and earlier) or the policy-aware tag codec
            // (v3): reject cleanly so callers re-warm.
            return Err(CodecError::new("unsupported warm-state version"));
        }
        let fingerprint = r.u64()?;
        let n_l1 = r.u32()? as usize;
        if n_l1 == 0 || n_l1 > 4 {
            return Err(CodecError::new("implausible core count"));
        }
        let mut l1 = Vec::with_capacity(n_l1);
        for _ in 0..n_l1 {
            l1.push(SramCache::decode(&mut r)?);
        }
        let l2 = SramCache::decode(&mut r)?;
        let tags = TagArray::decode(&mut r)?;
        let predictor = MapI::decode(&mut r)?;
        let n_gens = r.u32()? as usize;
        if n_gens != n_l1 {
            return Err(CodecError::new("generator/core count mismatch"));
        }
        let mut gens = Vec::with_capacity(n_gens);
        for _ in 0..n_gens {
            gens.push(OpStream::decode(&mut r)?);
        }
        r.finish()?;
        Ok(WarmState {
            fingerprint,
            l1,
            l2,
            tags,
            predictor,
            gens,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;

    fn cfg(org: OrgKind) -> SystemConfig {
        SystemConfig::paper(Design::Cd, org).scaled(10_000, 20_000)
    }

    const BENCHES: [Benchmark; 2] = [Benchmark::Libquantum, Benchmark::Mcf];

    #[test]
    fn fingerprint_ignores_design_mapping_and_timing_knobs() {
        let base = cfg(OrgKind::DirectMapped);
        let fp = WarmState::fingerprint_for(&base, &BENCHES);
        for design in Design::ALL {
            let mut c = base;
            c.design = design;
            c.mapping = dca_dram::MappingScheme::XorRemap;
            c.target_insts = 999_999;
            c.engine = crate::config::EngineSel::Heap;
            c.event_slot_shift = 4;
            c.lee_writeback = true;
            assert_eq!(WarmState::fingerprint_for(&c, &BENCHES), fp);
        }
    }

    #[test]
    fn fingerprint_tracks_warmup_inputs() {
        let base = cfg(OrgKind::DirectMapped);
        let fp = WarmState::fingerprint_for(&base, &BENCHES);
        let mut c = base;
        c.seed ^= 1;
        assert_ne!(WarmState::fingerprint_for(&c, &BENCHES), fp);
        let mut c = base;
        c.warmup_ops += 1;
        assert_ne!(WarmState::fingerprint_for(&c, &BENCHES), fp);
        let c = cfg(OrgKind::paper_set_assoc());
        assert_ne!(WarmState::fingerprint_for(&c, &BENCHES), fp);
        // Bench order matters: cores are seeded per index.
        let swapped = [BENCHES[1], BENCHES[0]];
        assert_ne!(WarmState::fingerprint_for(&base, &swapped), fp);
    }

    #[test]
    fn fingerprint_keys_trace_workloads_by_content_digest() {
        use dca_cpu::{encode_trace, register_trace_bytes, TraceEncoding, TraceRecord};
        let records: Vec<TraceRecord> = (0..100)
            .map(|i| TraceRecord {
                gap: 2,
                block: i,
                is_store: i % 5 == 0,
            })
            .collect();
        let a = register_trace_bytes("warm-fp-a", &encode_trace(&records, TraceEncoding::Delta))
            .expect("register");
        let c = cfg(OrgKind::DirectMapped);
        let fp_a = WarmState::fingerprint_for(&c, &[a, Benchmark::Mcf]);
        // Same content registered under another name: same fingerprint.
        let same = register_trace_bytes(
            "warm-fp-renamed",
            &encode_trace(&records, TraceEncoding::Delta),
        )
        .expect("register");
        assert_eq!(
            WarmState::fingerprint_for(&c, &[same, Benchmark::Mcf]),
            fp_a
        );
        // One edited record: a different digest, a different key.
        let mut edited = records;
        edited[50].is_store = !edited[50].is_store;
        let b = register_trace_bytes("warm-fp-a", &encode_trace(&edited, TraceEncoding::Delta))
            .expect("register");
        assert_ne!(WarmState::fingerprint_for(&c, &[b, Benchmark::Mcf]), fp_a);
        // Trace vs synthetic in the same slot: different key.
        assert_ne!(
            WarmState::fingerprint_for(&c, &[Benchmark::Gcc, Benchmark::Mcf]),
            fp_a
        );
    }

    #[test]
    fn fingerprint_ignores_main_memory_backend() {
        // Warm-up is timing-free: one checkpoint must serve every
        // main-memory backend of a bandwidth-sensitivity sweep.
        let base = cfg(OrgKind::DirectMapped);
        let fp = WarmState::fingerprint_for(&base, &BENCHES);
        let mut c = base;
        c.main_mem = dca_mem_hier::MainMemConfig::ddr4();
        assert_eq!(WarmState::fingerprint_for(&c, &BENCHES), fp);
        c.main_mem = dca_mem_hier::MainMemConfig::ddr4_bandwidth_div(4);
        assert_eq!(WarmState::fingerprint_for(&c, &BENCHES), fp);
        c.main_mem = dca_mem_hier::MainMemConfig::xpoint();
        assert_eq!(WarmState::fingerprint_for(&c, &BENCHES), fp);
    }

    #[test]
    fn fingerprint_tracks_replacement_policy() {
        use dca_dram_cache::ReplacementPolicy;
        // Warm-up evicts through the policy, so every policy keys its
        // own checkpoint — and each key is distinct.
        let base = cfg(OrgKind::paper_set_assoc());
        let fps: Vec<u64> = ReplacementPolicy::ALL
            .iter()
            .map(|&p| {
                let mut c = base;
                c.replacement = p;
                WarmState::fingerprint_for(&c, &BENCHES)
            })
            .collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "policies {i} and {j} collide");
            }
        }
        assert_eq!(fps[0], WarmState::fingerprint_for(&base, &BENCHES));
    }

    #[test]
    fn decode_rejects_v3_blobs_cleanly() {
        // A pre-policy-layer (v3) pool must be refused the same way v2
        // is: a clean version error, then a cold re-warm. Forge a
        // v3-stamped blob with a valid digest so only the version check
        // can reject it.
        let c = cfg(OrgKind::DirectMapped);
        let blob = crate::System::capture_warm(c, &BENCHES).encode();
        let mut old = blob[..blob.len() - 8].to_vec();
        old[8..12].copy_from_slice(&3u32.to_le_bytes()); // version field
        let d = dca_sim_core::digest64(&old);
        old.extend_from_slice(&d.to_le_bytes());
        let err = WarmState::decode(&old).expect_err("v3 must be rejected");
        assert!(
            format!("{err}").contains("version"),
            "error should name the version mismatch, got: {err}"
        );
    }

    #[test]
    fn decode_rejects_v2_blobs_cleanly() {
        // A pre-refactor (v2) pool must be refused with an error —
        // never a panic, never a silently trusted decode. Forge a
        // v2-stamped blob with a valid digest so only the version check
        // can reject it.
        let c = cfg(OrgKind::DirectMapped);
        let blob = crate::System::capture_warm(c, &BENCHES).encode();
        let mut old = blob[..blob.len() - 8].to_vec();
        old[8..12].copy_from_slice(&2u32.to_le_bytes()); // version field
        let d = dca_sim_core::digest64(&old);
        old.extend_from_slice(&d.to_le_bytes());
        let err = WarmState::decode(&old).expect_err("v2 must be rejected");
        assert!(
            format!("{err}").contains("version"),
            "error should name the version mismatch, got: {err}"
        );
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = cfg(OrgKind::DirectMapped);
        let warm = crate::System::capture_warm(c, &BENCHES);
        let blob = warm.encode();
        let back = WarmState::decode(&blob).expect("decode");
        assert_eq!(back.fingerprint(), warm.fingerprint());
        assert_eq!(back.cores(), warm.cores());
        // Bit-exact payload: re-encoding must reproduce the blob.
        assert_eq!(back.encode(), blob);
    }

    #[test]
    fn decode_rejects_corruption() {
        let c = cfg(OrgKind::DirectMapped);
        let blob = crate::System::capture_warm(c, &BENCHES).encode();
        assert!(WarmState::decode(&blob[..blob.len() - 1]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(WarmState::decode(&bad).is_err(), "bad magic");
        let mut bad = blob.clone();
        bad[8] = 0xEE; // version byte
        assert!(WarmState::decode(&bad).is_err(), "bad version");
        // A single mid-payload bit flip — almost certainly landing
        // inside a legal field value — must be caught by the digest,
        // not silently decoded into a different warm state.
        for at in [blob.len() / 3, blob.len() / 2, blob.len() - 9] {
            let mut bad = blob.clone();
            bad[at] ^= 0x10;
            assert!(WarmState::decode(&bad).is_err(), "bit flip at {at}");
        }
    }
}
