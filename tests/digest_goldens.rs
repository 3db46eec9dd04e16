//! Pinned report digests: every design on both cache organisations and
//! both main-memory models, at small scale — and the digest of each
//! organisation's warm-state byte image.
//!
//! `SystemReport::digest` covers every statistic a run produces, so a
//! change to arbitration, timing or bookkeeping that moves any counter —
//! including the OFS, spill, ScheduleAll and Banshee fill counters that
//! no hand-picked fingerprint compared — fails here. `WarmState::encode`
//! covers everything functional warm-up leaves behind, and is the image
//! perfbench's warm-up replay compares its own bytes against. A
//! deliberate behaviour change re-pins the table from the test's
//! failure message.

use dca::{Design, System, SystemConfig};
use dca_cpu::mix;
use dca_dram_cache::OrgKind;
use dca_mem_hier::MainMemConfig;
use dca_sim_core::digest64;

/// `warm/org digest` of each organisation's warm state, then
/// `design/org/memory digest` for every pinned configuration.
const GOLDEN: &str = "\
warm/DM ea9795727dddf1eb
CD/DM/flat 1f3f32e30657ac4d
ROD/DM/flat 100759554ce70184
DCA/DM/flat 8231b2b96fe85c0a
BAN/DM/flat d46279b5468f0570
CD/DM/xpoint b38303fc7a37938f
ROD/DM/xpoint fadb4ea4ce59dcdf
DCA/DM/xpoint 30e5d4558c3180a4
BAN/DM/xpoint b62a5f7ce462b48c
warm/SA 7c881ab89e2053f9
CD/SA/flat f66d20e3c0a3c435
ROD/SA/flat 0f5651afbf387b9e
DCA/SA/flat d6db60e935b0a103
BAN/SA/flat 9ad7cd614e9d2321
CD/SA/xpoint c8b3e4a0d2d54714
ROD/SA/xpoint 89543ece0ca7e264
DCA/SA/xpoint 932bc3240cd0814a
BAN/SA/xpoint b80da66f30b46da5
";

#[test]
fn report_digests_match_goldens() {
    let benches = mix(7).benches;
    let mut got = String::new();
    for (org_label, org) in [
        ("DM", OrgKind::DirectMapped),
        ("SA", OrgKind::paper_set_assoc()),
    ] {
        let scaled = |design| SystemConfig::paper(design, org).scaled(30_000, 100_000);
        // Warm state is design- and backend-independent: one per org.
        let warm = System::capture_warm(scaled(Design::Cd), &benches);
        got.push_str(&format!(
            "warm/{org_label} {:016x}\n",
            digest64(&warm.encode())
        ));
        for (mem_label, mem) in [
            ("flat", MainMemConfig::paper_flat()),
            ("xpoint", MainMemConfig::xpoint()),
        ] {
            for design in Design::ALL {
                let mut cfg = scaled(design);
                cfg.main_mem = mem;
                let r = System::from_warm(cfg, &benches, &warm).run();
                got.push_str(&format!(
                    "{}/{org_label}/{mem_label} {:016x}\n",
                    design.label(),
                    r.digest()
                ));
            }
        }
    }
    assert_eq!(got, GOLDEN, "report digests moved; new table:\n{got}");
}
