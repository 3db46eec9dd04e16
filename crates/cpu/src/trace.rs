//! Synthetic instruction-stream generators.
//!
//! Each core runs one infinite, deterministic op stream derived from its
//! benchmark's [`Profile`]. Ops carry the compute-gap preceding them, so
//! the core model never materialises individual compute instructions.

use dca_sim_core::rng::Prng;
use dca_sim_core::ByteWriter;

use crate::profile::{Pattern, Profile};

/// One memory operation in a core's instruction stream.
#[derive(Clone, Copy, Debug)]
pub struct TraceOp {
    /// Compute instructions preceding this op.
    pub gap: u32,
    /// Store (true) or load (false).
    pub is_store: bool,
    /// Absolute 64-byte block address.
    pub block: u64,
    /// Synthetic instruction address of the op (for MAP-I).
    pub pc: u32,
    /// Whether this load's address depends on the previous load of its
    /// chain (pointer chasing) — serialises with that load.
    pub dependent: bool,
    /// Chain id for dependence tracking (< 8).
    pub chain: u8,
}

/// Entries in the far-reuse history ring. Every *fresh* (pattern-
/// generated) block is recorded, so the ring spans the last ~160 k
/// distinct blocks (~10 MB) per core — several times the core's share of
/// the 8 MB shared L2 (so most revisits miss the SRAM hierarchy) while
/// comfortably inside the 240 MB DRAM cache (so revisits hit there once
/// warm). Reuse ops themselves are not recorded, preventing the reuse
/// set from collapsing onto a small L2-resident hot set.
const HISTORY: usize = 163_840;

/// Largest working set, in blocks, whose region-relative positions fit
/// the `u32` entries of the history ring.
const MAX_WS_BLOCKS: u64 = 1 << 32;

/// Alignment of concurrent streams, in blocks. 3840 blocks (240 KB) is a
/// whole number of bank rotations in both cache geometries (64 frames of
/// 60 blocks direct-mapped; 960 frames of 4 sets set-associative), so
/// lockstep streams at this spacing hit the same bank at different rows.
pub const STREAM_ALIGN: u64 = 3840;

/// Deterministic generator of one benchmark's op stream.
#[derive(Debug)]
pub struct TraceGen {
    profile: Profile,
    rng: Prng,
    /// Base block address of this core's private region.
    base: u64,
    /// Stream cursors (streaming / mixed patterns).
    streams: Vec<u64>,
    /// Segment length each stream wraps within.
    seg_len: u64,
    /// Chase cursors (chase pattern).
    chains: Vec<u64>,
    /// Far-reuse history: recent fresh blocks (region-relative, below
    /// [`MAX_WS_BLOCKS`]). Reserved at full size by [`TraceGen::new`]
    /// and by `clone`, so filling it never reallocates.
    history: Vec<u32>,
    /// Ring write cursor for `history` once full.
    hist_slot: usize,
    /// Round-robin pick counter.
    pick: u64,
    /// Ops generated.
    count: u64,
}

/// A copy that reserves the full history ring, as [`TraceGen::new`]
/// does. A derived `Clone` would copy only the ring's length, so a
/// generator restored from a warm state would regrow its ring during
/// the run.
impl Clone for TraceGen {
    fn clone(&self) -> Self {
        let Self {
            profile,
            rng,
            base,
            streams,
            seg_len,
            chains,
            history,
            hist_slot,
            pick,
            count,
        } = self;
        let mut ring = Vec::with_capacity(HISTORY);
        ring.extend_from_slice(history);
        TraceGen {
            profile: *profile,
            rng: rng.clone(),
            base: *base,
            streams: streams.clone(),
            seg_len: *seg_len,
            chains: chains.clone(),
            history: ring,
            hist_slot: *hist_slot,
            pick: *pick,
            count: *count,
        }
    }
}

impl TraceGen {
    /// A generator for `profile` over the region starting at block
    /// `base`, seeded with `seed`.
    ///
    /// Streams are laid out like real multi-array scientific codes: each
    /// stream walks its own array, and the arrays sit at large aligned
    /// offsets from one another ([`STREAM_ALIGN`] blocks — a whole number
    /// of bank rotations in both cache geometries). Concurrent streams
    /// therefore alias to the *same bank* at *different rows*, the exact
    /// row-conflict structure the permutation-based XOR remap \[9\] was
    /// designed to break (§VI-A "With Remapping").
    ///
    /// # Panics
    /// Panics if the profile's working set exceeds 2^32 blocks, whose
    /// positions would not fit the history ring.
    pub fn new(profile: Profile, base: u64, seed: u64) -> Self {
        let ws = profile.ws_blocks;
        assert!(
            ws <= MAX_WS_BLOCKS,
            "working set of {ws} blocks exceeds 2^32 blocks, the reach of the u32 far-reuse history"
        );
        let mut rng = Prng::seed_from_u64(seed);
        let n_streams = match profile.pattern {
            Pattern::Stream { streams } => streams as usize,
            Pattern::Mixed { .. } => 2,
            Pattern::Chase { .. } => 0,
        };
        let chains = match profile.pattern {
            Pattern::Chase { chains } => chains as usize,
            _ => 0,
        };
        let seg_len = if n_streams > 0 {
            (ws / n_streams as u64 / STREAM_ALIGN).max(1) * STREAM_ALIGN
        } else {
            0
        };
        let streams = (0..n_streams).map(|s| s as u64 * seg_len).collect();
        let chains = (0..chains).map(|_| rng.gen_range(0..ws)).collect();
        TraceGen {
            profile,
            rng,
            base,
            streams,
            seg_len,
            chains,
            history: Vec::with_capacity(HISTORY),
            hist_slot: 0,
            pick: 0,
            count: 0,
        }
    }

    /// The driving profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Serialise the full generator state into `w` (part of the
    /// warm-state byte image). The profile itself is not stored — only
    /// the benchmark id — so a retuned profile changes the warm-state
    /// fingerprint, not this payload.
    pub fn encode(&self, w: &mut ByteWriter) {
        let Self {
            profile,
            rng,
            base,
            streams,
            seg_len,
            chains,
            history,
            hist_slot,
            pick,
            count,
        } = self;
        w.put_u32(profile.bench.id());
        w.put_u64(*base);
        for s in rng.state() {
            w.put_u64(s);
        }
        w.put_u64(*seg_len);
        w.put_u64_slice(streams);
        w.put_u64_slice(chains);
        // Each entry widened to the `u64` it was before the ring narrowed,
        // so the byte image is unchanged.
        w.put_u64(history.len() as u64);
        for &pos in history {
            w.put_u64(u64::from(pos));
        }
        w.put_u64(*hist_slot as u64);
        w.put_u64(*pick);
        w.put_u64(*count);
    }

    /// Ops generated so far.
    pub fn generated(&self) -> u64 {
        self.count
    }

    /// Sample the compute gap before the next op (uniform in
    /// `[0, 2·mean]`, so the mean is the profile's `mean_gap`).
    fn sample_gap(&mut self) -> u32 {
        self.rng.gen_range(0..=2 * self.profile.mean_gap)
    }

    /// Remember a freshly visited block (region-relative) in the history.
    fn remember(&mut self, pos: u64) {
        // Fits 32 bits: `new` bounds the working set by `MAX_WS_BLOCKS`.
        let pos = pos as u32;
        if self.history.len() < HISTORY {
            self.history.push(pos);
        } else {
            self.hist_slot = (self.hist_slot + 1) % HISTORY;
            self.history[self.hist_slot] = pos;
        }
    }

    /// The next op of the stream the round-robin counter picks. The
    /// cursor advances within the stream's segment and wraps at its end,
    /// so the streams stay in lockstep alignment. Draws nothing from the
    /// RNG.
    fn stream_op(&mut self, gap: u32, is_store: bool, bench_pc_base: u32) -> TraceOp {
        let s = (self.pick % self.streams.len() as u64) as usize;
        let pos = self.streams[s];
        let seg_start = s as u64 * self.seg_len;
        let next = pos + 1;
        self.streams[s] = if next >= seg_start + self.seg_len || next >= self.profile.ws_blocks {
            seg_start
        } else {
            next
        };
        TraceOp {
            gap,
            is_store,
            block: self.base + pos,
            pc: bench_pc_base + s as u32 * 16 + is_store as u32,
            dependent: false,
            chain: 0,
        }
    }

    /// Produce the next op.
    pub fn next_op(&mut self) -> TraceOp {
        self.count += 1;
        self.pick = self.pick.wrapping_add(1);
        let gap = self.sample_gap();
        let ws = self.profile.ws_blocks;
        let bench_pc_base = self.profile.bench.id() * 4096;
        let is_store = self.rng.gen_bool(self.profile.store_fraction);

        // Far-reuse component: revisit a uniformly sampled block from the
        // recent-fresh-block history. The most recent slice of the window
        // is still L2-resident; the bulk has been evicted from SRAM but
        // lives in the DRAM cache — giving the mid-distance temporal
        // reuse that makes DRAM caches pay off on SPEC.
        if !self.history.is_empty() && self.rng.gen_bool(self.profile.reuse_prob) {
            let idx = self.rng.gen_range(0..self.history.len());
            let pos = u64::from(self.history[idx]);
            return TraceOp {
                gap,
                is_store,
                block: self.base + pos,
                pc: bench_pc_base + 2048 + (idx % 13) as u32,
                dependent: false,
                chain: 0,
            };
        }

        let op = match self.profile.pattern {
            Pattern::Stream { .. } => self.stream_op(gap, is_store, bench_pc_base),
            Pattern::Chase { .. } => {
                let c = (self.pick % self.chains.len() as u64) as usize;
                let cur = self.chains[c];
                if is_store {
                    // Update the node just visited: no new dependence.
                    TraceOp {
                        gap,
                        is_store: true,
                        block: self.base + cur,
                        pc: bench_pc_base + 512 + c as u32,
                        dependent: false,
                        chain: c as u8,
                    }
                } else {
                    // Follow the chain: pseudo-random next node.
                    let next = self.rng.gen_range(0..ws);
                    self.chains[c] = next;
                    TraceOp {
                        gap,
                        is_store: false,
                        block: self.base + next,
                        pc: bench_pc_base + 256 + c as u32,
                        dependent: true,
                        chain: c as u8,
                    }
                }
            }
            Pattern::Mixed { stream_prob } => {
                if self.rng.gen_bool(stream_prob) {
                    self.stream_op(gap, is_store, bench_pc_base)
                } else {
                    let pos = self.rng.gen_range(0..ws);
                    TraceOp {
                        gap,
                        is_store,
                        block: self.base + pos,
                        pc: bench_pc_base + 1024 + (pos % 7) as u32,
                        dependent: false,
                        chain: 0,
                    }
                }
            }
        };
        self.remember(op.block - self.base);
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Benchmark;

    fn gen_for(b: Benchmark, seed: u64) -> TraceGen {
        TraceGen::new(b.profile(), 1 << 26, seed)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = gen_for(Benchmark::Mcf, 7);
        let mut b = gen_for(Benchmark::Mcf, 7);
        for _ in 0..1000 {
            let (x, y) = (a.next_op(), b.next_op());
            assert_eq!(x.block, y.block);
            assert_eq!(x.is_store, y.is_store);
            assert_eq!(x.gap, y.gap);
            assert_eq!(x.pc, y.pc);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = gen_for(Benchmark::Lbm, 1);
        let mut b = gen_for(Benchmark::Lbm, 2);
        let same = (0..100)
            .filter(|_| a.next_op().block == b.next_op().block)
            .count();
        assert!(same < 50, "streams should diverge, {same} matches");
    }

    #[test]
    fn addresses_stay_in_region() {
        for bench in Benchmark::ALL {
            let base = 1u64 << 26;
            let ws = bench.profile().ws_blocks;
            let mut g = TraceGen::new(bench.profile(), base, 3);
            for _ in 0..10_000 {
                let op = g.next_op();
                assert!(op.block >= base && op.block < base + ws, "{bench:?}");
            }
        }
    }

    #[test]
    fn streaming_is_sequential_within_each_stream() {
        let mut g = gen_for(Benchmark::Libquantum, 5);
        // Fresh stream ops advance by one block *within their stream*
        // (identified by pc); far-reuse ops use a separate pc range.
        let mut last: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        let (mut seq, mut fresh) = (0, 0);
        for _ in 0..5000 {
            let op = g.next_op();
            let stream_pc = op.pc & !1; // strip the store bit
            if (op.pc % 4096) >= 2048 {
                continue; // reuse op
            }
            fresh += 1;
            if let Some(&prev) = last.get(&stream_pc) {
                if op.block == prev + 1 {
                    seq += 1;
                }
            }
            last.insert(stream_pc, op.block);
        }
        assert!(
            seq as f64 > fresh as f64 * 0.8,
            "libquantum streams sequentially per stream: {seq}/{fresh}"
        );
    }

    #[test]
    fn streams_are_bank_aligned() {
        // Concurrent streams start at STREAM_ALIGN-multiple offsets so
        // they alias to the same bank sequence (the remap study's
        // premise): the first block of every stream is aligned.
        let profile = Benchmark::GemsFDTD.profile();
        let mut g = TraceGen::new(profile, 0, 5);
        let mut first_of_stream: std::collections::BTreeMap<u32, u64> =
            std::collections::BTreeMap::new();
        for _ in 0..500 {
            let op = g.next_op();
            if (op.pc % 4096) < 2048 {
                first_of_stream.entry(op.pc & !1).or_insert(op.block);
            }
        }
        assert!(first_of_stream.len() >= 7, "all 7 streams observed");
        for (&pc, &b) in &first_of_stream {
            assert_eq!(b % STREAM_ALIGN, 0, "stream pc={pc} starts at {b}");
        }
    }

    #[test]
    fn chase_loads_are_dependent() {
        let mut g = gen_for(Benchmark::Mcf, 5);
        let mut dep_loads = 0;
        let mut loads = 0;
        for _ in 0..2000 {
            let op = g.next_op();
            if !op.is_store {
                loads += 1;
                if op.dependent {
                    dep_loads += 1;
                }
            }
        }
        // Chain-following loads are dependent; far-reuse revisits are
        // not, and reuse dominates (reuse_prob 0.78).
        let frac = dep_loads as f64 / loads as f64;
        assert!(
            frac > 0.08 && frac < 0.6,
            "mcf has a dependent chase component, got {frac:.2}"
        );
    }

    #[test]
    fn far_reuse_revisits_past_blocks() {
        let mut g = gen_for(Benchmark::Libquantum, 5);
        let mut seen = std::collections::BTreeSet::new();
        let mut revisits = 0u32;
        for _ in 0..50_000 {
            let op = g.next_op();
            if !seen.insert(op.block) {
                revisits += 1;
            }
        }
        assert!(
            revisits > 5_000,
            "the reuse component must revisit blocks, got {revisits}"
        );
    }

    #[test]
    fn store_fraction_approximates_profile() {
        let mut g = gen_for(Benchmark::Lbm, 9);
        let stores = (0..20_000).filter(|_| g.next_op().is_store).count();
        let frac = stores as f64 / 20_000.0;
        let want = Benchmark::Lbm.profile().store_fraction;
        assert!((frac - want).abs() < 0.02, "got {frac}, want ~{want}");
    }

    #[test]
    fn mean_gap_approximates_profile() {
        let mut g = gen_for(Benchmark::Gcc, 11);
        let total: u64 = (0..20_000).map(|_| g.next_op().gap as u64).sum();
        let mean = total as f64 / 20_000.0;
        let want = Benchmark::Gcc.profile().mean_gap as f64;
        assert!((mean - want).abs() < 0.2, "got {mean}, want ~{want}");
    }

    #[test]
    fn a_working_set_of_2_pow_32_blocks_fits_the_history() {
        // Far-reuse ops (pcs from 2048 within the benchmark's 4096)
        // revisit exactly the blocks fresh ops visited, also above 2^31.
        for bench in [Benchmark::Mcf, Benchmark::Lbm, Benchmark::Gcc] {
            let mut profile = bench.profile();
            profile.ws_blocks = MAX_WS_BLOCKS;
            let mut g = TraceGen::new(profile, 0, 3);
            let mut fresh = std::collections::BTreeSet::new();
            for _ in 0..10_000 {
                let op = g.next_op();
                assert!(op.block < MAX_WS_BLOCKS, "{bench:?}");
                if op.pc % 4096 < 2048 {
                    fresh.insert(op.block);
                } else {
                    assert!(fresh.contains(&op.block), "{bench:?}: {:#x}", op.block);
                }
            }
            assert!(fresh.last().is_some_and(|&b| b >= 1 << 31), "{bench:?}");
        }
    }

    #[test]
    #[should_panic(
        expected = "working set of 4294967297 blocks exceeds 2^32 blocks, the reach of the u32 far-reuse history"
    )]
    fn a_working_set_beyond_2_pow_32_blocks_panics() {
        let mut profile = Benchmark::Mcf.profile();
        profile.ws_blocks = MAX_WS_BLOCKS + 1;
        TraceGen::new(profile, 0, 3);
    }

    #[test]
    fn a_clone_reserves_the_full_history_and_continues_the_stream() {
        // One benchmark per pattern: stream, chase and mixed.
        for bench in [Benchmark::Libquantum, Benchmark::Mcf, Benchmark::Gcc] {
            let mut original = gen_for(bench, 5);
            for _ in 0..5_000 {
                original.next_op();
            }
            let len = original.history.len();
            assert!(len > 0 && len < HISTORY, "{bench:?}: {len} entries");
            let mut copy = original.clone();
            assert_eq!(copy.history.capacity(), HISTORY, "{bench:?}");
            let bytes = |g: &TraceGen| {
                let mut w = ByteWriter::new();
                g.encode(&mut w);
                w.into_vec()
            };
            assert_eq!(bytes(&original), bytes(&copy), "{bench:?}");
            for i in 0..10_000 {
                let (a, b) = (original.next_op(), copy.next_op());
                assert_eq!(
                    (a.gap, a.is_store, a.block, a.pc, a.dependent, a.chain),
                    (b.gap, b.is_store, b.block, b.pc, b.dependent, b.chain),
                    "{bench:?}: op {i} after the clone"
                );
            }
            assert_eq!(bytes(&original), bytes(&copy), "{bench:?}");
        }
    }

    #[test]
    fn chains_use_distinct_ids() {
        let mut g = gen_for(Benchmark::Mcf, 5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..5000 {
            let op = g.next_op();
            if op.dependent {
                seen.insert(op.chain);
            }
        }
        assert_eq!(seen.len(), 8, "mcf has 8 chains");
    }
}
