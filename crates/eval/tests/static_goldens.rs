//! Static-pipeline goldens: for every world module and hostile image
//! under JASan and JCFI, the FNV-1a-64 and length of the rule bytes
//! `analyze_statically` emits and the analysis-budget units the call
//! spends, plus the hash of the rules emitted when only half of those
//! units are armed (so each charge must fall at the same point of the
//! same pass); and for every 26th Juliet case, the same for JASan on its
//! good and bad executables. The values were pinned before the analysis
//! passes were reworked for speed; any change to CFG recovery, liveness,
//! loops, the scans or a static pass must keep them.
//!
//! The two first-match fixtures (overlapping instructions on a jump-table
//! walk, overlaid sections) pin the analyzer's tie-breaks, which no
//! corpus module exercises: their rule rows as above, plus a digest of
//! every `StaticContext` field.

use janitizer_analysis::budget;
use janitizer_core::{analyze_statically, SecurityPlugin, StaticContext};
use janitizer_jasan::Jasan;
use janitizer_jcfi::Jcfi;
use janitizer_obj::Image;
use janitizer_workloads::{
    build_case, build_world, first_match_fixtures, hostile_suite, juliet_suite, library_base,
    BuildOptions,
};
use std::sync::Arc;

/// Units armed for a golden run: far above any module's spend.
const ARMED: u64 = 1 << 40;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(FNV-1a-64 of the rule bytes, their length, budget units spent,
/// FNV-1a-64 of the rule bytes under half that budget)`.
fn observe(image: &Image, plugin: &dyn SecurityPlugin) -> (u64, usize, u64, u64) {
    budget::set_budget(ARMED);
    let bytes = analyze_statically(image, plugin).to_bytes();
    let spent = budget::spent();
    assert!(!budget::overrun(), "{}: budget overrun", image.name);
    budget::set_budget(spent / 2);
    let half = analyze_statically(image, plugin).to_bytes();
    budget::clear_budget();
    (fnv1a(&bytes), bytes.len(), spent, fnv1a(&half))
}

/// One golden row: `(key, plugin or variant, rule hash, rule length,
/// budget units, half-budget rule hash)`.
type Row<K> = (K, &'static str, u64, usize, u64, u64);

/// Prints `rows` as a Rust table, so a deliberate re-pin is a paste.
fn dump<K: std::fmt::Debug>(rows: &[Row<K>]) -> String {
    rows.iter()
        .map(|(k, s, h, len, spent, half)| {
            format!("    ({k:?}, {s:?}, {h:#018x}, {len}, {spent}, {half:#018x}),\n")
        })
        .collect()
}

/// World modules (sorted by name), then the hostile images, each under
/// JASan and JCFI.
#[rustfmt::skip]
const MODULES: [Row<&str>; 74] = [
    ("GemsFDTD", "jasan", 0x95b43a41d4c2c9ac, 6337, 2430, 0x95b43a41d4c2c9ac),
    ("GemsFDTD", "jcfi", 0x7a0519926ccfd03f, 2385, 2430, 0x7a0519926ccfd03f),
    ("astar", "jasan", 0xfd073b3a4636fe52, 6958, 6555, 0xfd073b3a4636fe52),
    ("astar", "jcfi", 0x134a739433488b54, 3006, 6555, 0x134a739433488b54),
    ("bwaves", "jasan", 0xca86143c21c165f9, 3475, 532, 0xca86143c21c165f9),
    ("bwaves", "jcfi", 0xf875fe9d235c046c, 1499, 532, 0xf875fe9d235c046c),
    ("bzip2", "jasan", 0x8aaf60d8db500b7e, 8102, 3900, 0x8aaf60d8db500b7e),
    ("bzip2", "jcfi", 0xaebf2fae8e65bcc0, 3422, 3900, 0xaebf2fae8e65bcc0),
    ("cactusADM", "jasan", 0xa2107c01664452bc, 1190, 180, 0xa2107c01664452bc),
    ("cactusADM", "jcfi", 0xf8b77f7679ba5b6f, 878, 180, 0xf8b77f7679ba5b6f),
    ("calculix", "jasan", 0x3b0bd2d62c2716a3, 6077, 4380, 0x3b0bd2d62c2716a3),
    ("calculix", "jcfi", 0xf1728c7c3f6ec308, 3165, 4380, 0xf1728c7c3f6ec308),
    ("dealII", "jasan", 0xd0b28d6f92b8dc2a, 6127, 2021, 0xd0b28d6f92b8dc2a),
    ("dealII", "jcfi", 0x0a7185004fdb47ea, 2487, 2021, 0x0a7185004fdb47ea),
    ("gamess", "jasan", 0x6f00d8f6691e73ac, 4099, 1470, 0x6f00d8f6691e73ac),
    ("gamess", "jcfi", 0xdc482ef83668148c, 2227, 1470, 0xdc482ef83668148c),
    ("gcc", "jasan", 0x1dc7de91e7508e1e, 6488, 1380, 0x1dc7de91e7508e1e),
    ("gcc", "jcfi", 0x885ae41f2c400a37, 2432, 1380, 0x885ae41f2c400a37),
    ("gobmk", "jasan", 0x3288ea253dcdad17, 4826, 940, 0x3288ea253dcdad17),
    ("gobmk", "jcfi", 0x02dd20235cd47654, 2486, 940, 0x02dd20235cd47654),
    ("gromacs", "jasan", 0x8d542960d772d4bc, 5556, 1435, 0x8d542960d772d4bc),
    ("gromacs", "jcfi", 0xf677b81415b0019b, 2176, 1435, 0xf677b81415b0019b),
    ("h264ref", "jasan", 0x74fe577d14430a15, 3528, 720, 0x74fe577d14430a15),
    ("h264ref", "jcfi", 0x582f84c28bde40c1, 1604, 720, 0x582f84c28bde40c1),
    ("hmmer", "jasan", 0x09343f02c3db829d, 5502, 2365, 0x09343f02c3db829d),
    ("hmmer", "jcfi", 0x44f64fc51c2502c4, 2278, 2365, 0x44f64fc51c2502c4),
    ("lbm", "jasan", 0x50f244ab2dddee64, 3420, 620, 0x50f244ab2dddee64),
    ("lbm", "jcfi", 0x6d4c21c9b961f290, 1704, 620, 0x6d4c21c9b961f290),
    ("ld.so", "jasan", 0x0c93015fc17b3993, 146, 4, 0x2fbca17777a88254),
    ("ld.so", "jcfi", 0x4df4f1aa139fb0a4, 146, 4, 0x4df4f1aa139fb0a4),
    ("leslie3d", "jasan", 0xc04bd8bbc04321aa, 4465, 1089, 0xc04bd8bbc04321aa),
    ("leslie3d", "jcfi", 0x73cf816ad7eee3f1, 1761, 1089, 0x73cf816ad7eee3f1),
    ("libjasan_rt.so", "jasan", 0xbaa6b8b11d314f85, 3275, 930, 0xbaa6b8b11d314f85),
    ("libjasan_rt.so", "jcfi", 0x94e742dcd90ec3dc, 3275, 930, 0x94e742dcd90ec3dc),
    ("libjc.so", "jasan", 0x42b68835eef17775, 12577, 5166, 0x42b68835eef17775),
    ("libjc.so", "jcfi", 0x8428b38953de7c09, 6701, 5166, 0x8428b38953de7c09),
    ("libjf.so", "jasan", 0xf6e51a888022fadd, 565, 45, 0x6bc864d5aa8e59f6),
    ("libjf.so", "jcfi", 0xc4841578947de235, 513, 45, 0xc4841578947de235),
    ("liblbm.so", "jasan", 0xb3ec3dc44a172c7d, 202, 6, 0xb3ec3dc44a172c7d),
    ("liblbm.so", "jcfi", 0x4a7bdbdd810ff94a, 202, 6, 0x4a7bdbdd810ff94a),
    ("libquantum", "jasan", 0x03c5154c77a4e290, 3375, 468, 0x03c5154c77a4e290),
    ("libquantum", "jcfi", 0x49e0714c22a20bda, 1399, 468, 0x49e0714c22a20bda),
    ("mcf", "jasan", 0xbde00a316218f4d3, 3576, 468, 0xbde00a316218f4d3),
    ("mcf", "jcfi", 0x2a964af986818875, 1392, 468, 0x2a964af986818875),
    ("milc", "jasan", 0x0deacad676f34753, 3161, 532, 0x0deacad676f34753),
    ("milc", "jcfi", 0x72404efd8e9fe42d, 1497, 532, 0x72404efd8e9fe42d),
    ("namd", "jasan", 0xdf21e26237bfc0ca, 6021, 3360, 0xdf21e26237bfc0ca),
    ("namd", "jcfi", 0x1d0a50bb89240045, 2537, 3360, 0x1d0a50bb89240045),
    ("omnetpp", "jasan", 0x8f6cd7e89bf09456, 3840, 870, 0x8f6cd7e89bf09456),
    ("omnetpp", "jcfi", 0x0c57f88b7d61e2c4, 1656, 870, 0x0c57f88b7d61e2c4),
    ("perlbench", "jasan", 0x2f6de8c857052440, 6546, 2835, 0x2f6de8c857052440),
    ("perlbench", "jcfi", 0xc203e3919b3c4de4, 3322, 2835, 0xc203e3919b3c4de4),
    ("povray", "jasan", 0xa4b5439be66b8c9c, 5711, 2700, 0xa4b5439be66b8c9c),
    ("povray", "jcfi", 0xf4db56a6a8bd50f6, 2643, 2700, 0xf4db56a6a8bd50f6),
    ("sjeng", "jasan", 0x5ee7336993060ac1, 3526, 989, 0x5ee7336993060ac1),
    ("sjeng", "jcfi", 0xa3451bea262f53b8, 2278, 989, 0xa3451bea262f53b8),
    ("soplex", "jasan", 0x4571fb6da6db0d79, 5451, 2464, 0x4571fb6da6db0d79),
    ("soplex", "jcfi", 0x563eb0c25981c25e, 2331, 2464, 0x563eb0c25981c25e),
    ("sphinx3", "jasan", 0x80238eb64e68a577, 5348, 2760, 0x80238eb64e68a577),
    ("sphinx3", "jcfi", 0xdcc901fcdab56509, 2436, 2760, 0xdcc901fcdab56509),
    ("tonto", "jasan", 0x461e8fde1eee9d4d, 3734, 986, 0x461e8fde1eee9d4d),
    ("tonto", "jcfi", 0x34e3d7103a9cc099, 1862, 986, 0x34e3d7103a9cc099),
    ("xalancbmk", "jasan", 0x42a4d57524e96ce7, 3894, 410, 0x42a4d57524e96ce7),
    ("xalancbmk", "jcfi", 0xf2ed4e90bf02fb58, 2230, 410, 0xf2ed4e90bf02fb58),
    ("zeusmp", "jasan", 0x9e4fa8894eb533c7, 3891, 1548, 0x9e4fa8894eb533c7),
    ("zeusmp", "jcfi", 0xb54c83a7b6fc264c, 2279, 1548, 0xb54c83a7b6fc264c),
    ("hostile-stripped", "jasan", 0x47684dcbd92ddb72, 573, 50, 0x3d0daf5a13617ba9),
    ("hostile-stripped", "jcfi", 0xd065307381f2422a, 625, 50, 0xd065307381f2422a),
    ("hostile-island", "jasan", 0xd284788a0e074e75, 259, 10, 0x2467eef8e39dd25d),
    ("hostile-island", "jcfi", 0x1a7179d95d389a0b, 259, 10, 0x1a7179d95d389a0b),
    ("hostile-overlap", "jasan", 0xed4ed22ea48163a2, 468, 16, 0x6e01158518bfd223),
    ("hostile-overlap", "jcfi", 0xe7d95c6b587497f1, 520, 16, 0xe7d95c6b587497f1),
    ("hostile-jumptab", "jasan", 0xfd4f513f09106bb7, 468, 48, 0xfd4f513f09106bb7),
    ("hostile-jumptab", "jcfi", 0xe732064daa258317, 468, 48, 0xe732064daa258317),
];

/// Every 26th Juliet case's good and bad executable under JASan.
#[rustfmt::skip]
const JULIET: [Row<usize>; 48] = [
    (0, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (0, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (26, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (26, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (52, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (52, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (78, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (78, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (104, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (104, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (130, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (130, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (156, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (156, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (182, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (182, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (208, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (208, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (234, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (234, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (260, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (260, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (286, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (286, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (312, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (312, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (338, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (338, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (364, "good", 0x8bc8c643a7ca87bb, 1861, 171, 0x8bc8c643a7ca87bb),
    (364, "bad", 0xf9a1fca87cfcf07f, 1133, 84, 0xf9a1fca87cfcf07f),
    (390, "good", 0x020c0c88cf0c1d35, 1029, 22, 0x08ca4453e8ac02c8),
    (390, "bad", 0x62f8b8125aeae1d0, 873, 22, 0x5d06d6c65b12a38d),
    (416, "good", 0x7d8325d531daeb97, 1653, 114, 0x7d8325d531daeb97),
    (416, "bad", 0x5d31373cb8579d4b, 1393, 114, 0x5d31373cb8579d4b),
    (442, "good", 0x67bc14cd51bdb590, 1653, 114, 0x67bc14cd51bdb590),
    (442, "bad", 0x5fe96edf8c110a81, 1393, 114, 0x5fe96edf8c110a81),
    (468, "good", 0x7d8325d531daeb97, 1653, 114, 0x7d8325d531daeb97),
    (468, "bad", 0x5d31373cb8579d4b, 1393, 114, 0x5d31373cb8579d4b),
    (494, "good", 0x67bc14cd51bdb590, 1653, 114, 0x67bc14cd51bdb590),
    (494, "bad", 0x5fe96edf8c110a81, 1393, 114, 0x5fe96edf8c110a81),
    (520, "good", 0x7d8325d531daeb97, 1653, 114, 0x7d8325d531daeb97),
    (520, "bad", 0x5d31373cb8579d4b, 1393, 114, 0x5d31373cb8579d4b),
    (546, "good", 0xd988c38e3eb1347a, 1601, 114, 0xd988c38e3eb1347a),
    (546, "bad", 0x0e840b630965f9b4, 1601, 114, 0x0e840b630965f9b4),
    (572, "good", 0xa3016fa324a49901, 1601, 114, 0xa3016fa324a49901),
    (572, "bad", 0xe12b952ddbf919e3, 1601, 114, 0xe12b952ddbf919e3),
    (598, "good", 0x11a2a1d707d26bd1, 1601, 114, 0x11a2a1d707d26bd1),
    (598, "bad", 0x9405f0cd592387bb, 1601, 114, 0x9405f0cd592387bb),
];

#[test]
fn world_and_hostile_rules_match_their_pinned_goldens() {
    let world = build_world(&BuildOptions::default());
    let mut images: Vec<Arc<Image>> = world
        .store
        .names()
        .iter()
        .map(|n| world.store.get(n).expect("listed module"))
        .collect();
    images.extend(hostile_suite().into_iter().map(|h| Arc::new(h.image)));
    let plugins: [(&str, Box<dyn SecurityPlugin>); 2] = [
        ("jasan", Box::new(Jasan::hybrid())),
        ("jcfi", Box::new(Jcfi::hybrid())),
    ];
    let mut rows = Vec::new();
    for image in &images {
        for (pname, plugin) in &plugins {
            let (h, len, spent, half) = observe(image, plugin.as_ref());
            rows.push((image.name.clone(), *pname, h, len, spent, half));
        }
    }
    let pinned: Vec<_> = MODULES
        .iter()
        .map(|&(m, p, h, len, spent, half)| (m.to_string(), p, h, len, spent, half))
        .collect();
    assert!(rows == pinned, "observed:\n{}", dump(&rows));
}

#[test]
fn juliet_rules_match_their_pinned_goldens() {
    let base = library_base();
    let suite = juliet_suite();
    let mut rows = Vec::new();
    for case in suite.iter().step_by(26) {
        for (variant, source) in [("good", &case.good), ("bad", &case.bad)] {
            let store = build_case(&base, "case", source);
            let image = store.get("case").expect("case executable");
            let (h, len, spent, half) = observe(&image, &Jasan::hybrid());
            rows.push((case.id, variant, h, len, spent, half));
        }
    }
    assert!(rows == JULIET, "observed:\n{}", dump(&rows));
}

/// Every `StaticContext` field, rendered in address order (liveness
/// facts sorted out of their hash tables).
fn context_digest(image: &Image) -> String {
    let ctx = StaticContext::analyze(image);
    let mut before: Vec<_> = ctx.liveness.before.iter().collect();
    before.sort_unstable();
    let mut inbound: Vec<_> = ctx.liveness.inbound.iter().collect();
    inbound.sort_unstable();
    format!(
        "{:?}\n{before:?}\n{inbound:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        ctx.cfg, ctx.canaries, ctx.loops, ctx.invariants, ctx.scan, ctx.tiers, ctx.degraded_regions
    )
}

/// The first-match fixtures under JASan and JCFI.
#[rustfmt::skip]
const FIRST_MATCH: [Row<&str>; 4] = [
    ("tiebreak-overlap-jt", "jasan", 0x1abf097ec037eaf6, 576, 60, 0x1abf097ec037eaf6),
    ("tiebreak-overlap-jt", "jcfi", 0x626b751928e6dc1f, 576, 60, 0x626b751928e6dc1f),
    ("tiebreak-overlaid", "jasan", 0x20bd287bcbf90c23, 418, 14, 0xf346d13fb235ba4f),
    ("tiebreak-overlaid", "jcfi", 0xa54b122b1251b0d9, 418, 14, 0xa54b122b1251b0d9),
];

/// `(fixture, FNV-1a-64 of its context digest, digest length, jump
/// tables recovered)`. The jump-table walk now keeps the decoy `nop` as
/// the jump's predecessor (it comes first in `insn_at` order), so
/// `tiebreak-overlap-jt` recovers no table; keeping the `ld8` would
/// recover one.
#[rustfmt::skip]
const FIRST_MATCH_CONTEXTS: [(&str, u64, usize, usize); 2] = [
    ("tiebreak-overlap-jt", 0x1a125ce2ead07ea7, 3216, 0),
    ("tiebreak-overlaid", 0x9d88479bf7e9b594, 2302, 0),
];

#[test]
fn first_match_fixtures_match_their_pinned_goldens() {
    let fixtures = first_match_fixtures();
    let plugins: [(&str, Box<dyn SecurityPlugin>); 2] = [
        ("jasan", Box::new(Jasan::hybrid())),
        ("jcfi", Box::new(Jcfi::hybrid())),
    ];
    let mut rows = Vec::new();
    let mut contexts = Vec::new();
    for image in &fixtures {
        for (pname, plugin) in &plugins {
            let (h, len, spent, half) = observe(image, plugin.as_ref());
            rows.push((image.name.clone(), *pname, h, len, spent, half));
        }
        let digest = context_digest(image);
        let tables = StaticContext::analyze(image).cfg.jump_tables.len();
        contexts.push((
            image.name.clone(),
            fnv1a(digest.as_bytes()),
            digest.len(),
            tables,
        ));
    }
    let pinned: Vec<_> = FIRST_MATCH
        .iter()
        .map(|&(m, p, h, len, spent, half)| (m.to_string(), p, h, len, spent, half))
        .collect();
    assert!(rows == pinned, "observed:\n{}", dump(&rows));
    let pinned: Vec<_> = FIRST_MATCH_CONTEXTS
        .iter()
        .map(|&(m, h, len, tables)| (m.to_string(), h, len, tables))
        .collect();
    assert!(
        contexts == pinned,
        "observed:\n{}",
        contexts
            .iter()
            .map(|(m, h, len, t)| format!("    ({m:?}, {h:#018x}, {len}, {t}),\n"))
            .collect::<String>()
    );
}
