//! Warm-state checkpointing: capture the functionally warmed memory
//! hierarchy once, reuse it across every design/remap variant of a run.
//!
//! Functional warm-up (see [`System::new`](crate::System::new)) streams
//! `warmup_ops` memory operations per core through the L1s, the shared
//! L2 and the DRAM-cache tag array with **no timing**. Its outcome
//! therefore depends only on the op streams and the cache shapes — not
//! on the controller design, the DRAM timing, or the bank
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
//!   working set, gap, reuse), so a retuned profile gets a new key by
//!   content, not by a remembered version bump. For a trace workload it
//!   is the trace file's **content digest** — an edited trace yields a
//!   new digest and therefore misses every stale checkpoint by
//!   construction (paths and mtimes are never consulted),
//! * the cache organisation (`OrgKind` discriminant + associativity)
//!   and the replacement policy (warm-up drives the tag array through
//!   [`TagArray::insert`], whose victim choice is policy-dependent),
//! * the stacked-DRAM organisation (channels, ranks, banks, rows,
//!   row bytes — these size the tag array via the frame count),
//! * `warmup_ops` and the experiment `seed`.
//!
//! Fields deliberately **excluded** — and why reuse is sound:
//! `design`, queue capacities, the flushing factor and timing (never
//! consulted before the timing phase), `mapping` (bank permutation only,
//! see above), `main_mem` (the main-memory backend is a pure timing-phase
//! device — one warm-up serves a whole bandwidth-sensitivity sweep),
//! `target_insts` (timing-phase length). If warm-up ever grows a
//! dependency on a new field, add it to [`WarmState::fingerprint_for`]
//! — a stale fingerprint silently reusing wrong state is the one bug
//! this scheme must never allow, so when in doubt, include the field.
//!
//! ## Byte image
//!
//! A warm state lives only in the memory of the process that captured
//! it; nothing writes it to disk or reads it back. [`WarmState::encode`]
//! is its canonical byte image: an 8-byte magic (`"DCAWARM\0"`), a
//! `u32` format version, the `u64` fingerprint, the component payloads
//! (per-core [`SramCache`] L1s, the L2, the [`TagArray`], the [`MapI`]
//! table, and one tagged [`OpStream`] cursor per core) via each
//! component's own `encode`, and a trailing `u64` digest over
//! everything before it. perfbench's warm-up replay rebuilds these
//! bytes on its own and compares them against `encode`, and
//! `tests/digest_goldens.rs` pins their digest, so a change to the
//! layout or to what warm-up computes shows up in both.
//!
//! The [`MapI`] table is part of the image even though today's warm-up
//! never trains it (it is always the pristine paper table).

use dca_cpu::{tracefile, Benchmark, OpStream, Pattern};
use dca_dram_cache::{MapI, OrgKind, TagArray};
use dca_mem_hier::SramCache;
use dca_sim_core::{digest64, ByteWriter};

use crate::config::SystemConfig;

/// Version of the warm-state schema (fingerprint inputs + byte layout),
/// folded into every fingerprint and written into the
/// [`WarmState::encode`] header. Bump on any change to either. (v4: the
/// tag array grew a pluggable replacement policy — the tag payload
/// carries a policy byte and the fingerprint folds the policy in.)
pub const WARM_FORMAT_VERSION: u32 = 4;

/// Magic prefix of an encoded [`WarmState`].
const MAGIC: &[u8; 8] = b"DCAWARM\0";

/// The complete post-warm-up state of the design-independent half of
/// the system: per-core L1s, the shared L2, the DRAM-cache tag array,
/// the MAP-I predictor and the per-core workload generators (with their
/// RNG cursors). Captured by
/// [`System::capture_warm`](crate::System::capture_warm), consumed by
/// [`System::from_warm`](crate::System::from_warm) (a copy) or
/// [`System::from_warm_owned`](crate::System::from_warm_owned) (by
/// value).
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

    /// The canonical byte image (see module docs).
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
}
