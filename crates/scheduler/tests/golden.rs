//! Golden digests of the mapping flow's observable output.
//!
//! Every digest below was generated by the scheduler as it stood before
//! clustering became incremental (commit `aac19be`) and must not be edited
//! when the scheduler changes: a mismatch means a placement, a slot order, a
//! load order, an instruction word or an II moved. On a mismatch the test
//! prints the whole table as the scheduler under test computes it.

use overlay_arch::FuVariant;
use overlay_dfg::{Dfg, DfgGenerator, GeneratorConfig};
use overlay_frontend::Benchmark;
use overlay_scheduler::{generate_program, schedule, Slot};

const FIXED_DEPTH: usize = 8;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
    }
}

/// `(placement, per-stage slots, per-stage loads, encoded words, ii)` of one
/// compile; a code-generation error is digested by its message, after the
/// schedule it was raised on.
fn digest(dfg: &Dfg, variant: FuVariant) -> u64 {
    let mut d = Digest::new();
    let stages = schedule(dfg, variant, Some(FIXED_DEPTH)).unwrap();
    for op in dfg.op_ids() {
        d.word(stages.stage_of(op).map_or(u64::MAX, |stage| stage as u64));
    }
    d.word(stages.num_stages() as u64);
    for stage in stages.stages() {
        d.word(stage.index as u64);
        d.word(stage.slots.len() as u64);
        for slot in stage.slots {
            match slot {
                Slot::Op(op) => d.word(op.index() as u64),
                Slot::Nop => d.word(u64::MAX),
            }
        }
        d.word(stage.loads.len() as u64);
        for load in stage.loads {
            d.word(load.index() as u64);
        }
    }
    match generate_program(dfg, &stages, variant) {
        Ok(compiled) => {
            assert_eq!(compiled.schedule, stages);
            for program in compiled.program.fu_programs() {
                let words = program.encode();
                d.word(words.len() as u64);
                for word in words {
                    d.word(u64::from(word));
                }
            }
            d.word(compiled.ii.to_bits());
        }
        Err(error) => d.text(&error.to_string()),
    }
    d.0
}

/// Twelve seeded graphs of 16–72 ops, every one deeper than the overlay so
/// the write-back variants cluster it.
fn synthetic_graphs() -> Vec<Dfg> {
    (0..12usize)
        .map(|index| {
            let ops = 16 + index * (72 - 16) / 11;
            let config = GeneratorConfig {
                inputs: 3 + ops / 32,
                ops,
                target_depth: (ops / 4).clamp(FIXED_DEPTH + 2, 16),
                ..GeneratorConfig::default()
            };
            let dfg = DfgGenerator::new(0x5C4E_D000 + index as u64)
                .generate(&config)
                .unwrap();
            assert!(dfg.analysis().depth() > FIXED_DEPTH, "{}", dfg.name());
            dfg
        })
        .collect()
}

/// Every pinned case, in table order.
fn computed() -> Vec<(String, u64)> {
    let mut cases = Vec::new();
    for benchmark in Benchmark::ALL {
        let dfg = benchmark.dfg().unwrap();
        for variant in &FuVariant::ALL[1..] {
            cases.push((format!("{benchmark}/{variant}"), digest(&dfg, *variant)));
        }
    }
    for (index, dfg) in synthetic_graphs().iter().enumerate() {
        for variant in [FuVariant::V3, FuVariant::V4, FuVariant::V5] {
            cases.push((
                format!("graph{index}-{}ops/{variant}", dfg.num_ops()),
                digest(dfg, variant),
            ));
        }
    }
    cases
}

const GOLDEN: &[(&str, u64)] = &[
    ("gradient/V1", 0x51e3026f25d17681),
    ("gradient/V2", 0x51aca26f25a343f1),
    ("gradient/V3", 0x51e3026f25d17681),
    ("gradient/V4", 0x51e3026f25d17681),
    ("gradient/V5", 0x51e3026f25d17681),
    ("chebyshev/V1", 0xcaf303b54a7665e6),
    ("chebyshev/V2", 0xccdc7eb54c165ad7),
    ("chebyshev/V3", 0xcaf303b54a7665e6),
    ("chebyshev/V4", 0xcaf303b54a7665e6),
    ("chebyshev/V5", 0xcaf303b54a7665e6),
    ("mibench/V1", 0xa6555d0ba205603f),
    ("mibench/V2", 0xa68bbd0ba23392cf),
    ("mibench/V3", 0xa6555d0ba205603f),
    ("mibench/V4", 0xa6555d0ba205603f),
    ("mibench/V5", 0xa6555d0ba205603f),
    ("qspline/V1", 0x3848ec312c993679),
    ("qspline/V2", 0x387fcc312cc84289),
    ("qspline/V3", 0x3848ec312c993679),
    ("qspline/V4", 0x3848ec312c993679),
    ("qspline/V5", 0x3848ec312c993679),
    ("sgfilter/V1", 0x5bca55e0a931f677),
    ("sgfilter/V2", 0x5b9475e0a9049d67),
    ("sgfilter/V3", 0x1ef07e8b9d2fa910),
    ("sgfilter/V4", 0x832add89b1d5eb26),
    ("sgfilter/V5", 0x6e4f37aff670f854),
    ("poly5/V1", 0xeaa46be30b10a6e9),
    ("poly5/V2", 0xeb470be30b9a6519),
    ("poly5/V3", 0x0926001104c1f31e),
    ("poly5/V4", 0x9d2f976dfc5712c8),
    ("poly5/V5", 0x7d03645f5cf2129a),
    ("poly6/V1", 0x6207d8d2821197e1),
    ("poly6/V2", 0x6164b8d281870031),
    ("poly6/V3", 0xc268b777d13f68d3),
    ("poly6/V4", 0x38c3b96a9587d51b),
    ("poly6/V5", 0x2c05df4afcbacebd),
    ("poly7/V1", 0x3b489a330cf9e384),
    ("poly7/V2", 0x3b11ba330ccad774),
    ("poly7/V3", 0xa7ad8a5fdf59ead1),
    ("poly7/V4", 0x9dd6d246504cd283),
    ("poly7/V5", 0x0af079f97eee3a25),
    ("poly8/V1", 0x35350bd885b4649b),
    ("poly8/V2", 0x34feabd88586320b),
    ("poly8/V3", 0xe72faeac4446c6f0),
    ("poly8/V4", 0xbdb2332824538da6),
    ("poly8/V5", 0x038726c7f7cdab4c),
    ("graph0-17ops/V3", 0x990547aa211233b9),
    ("graph0-17ops/V4", 0x42f43ddbe8f51201),
    ("graph0-17ops/V5", 0x3c6760c16283b8fd),
    ("graph1-21ops/V3", 0x5ba7e09d7774d1a8),
    ("graph1-21ops/V4", 0x09b4e71c5496a518),
    ("graph1-21ops/V5", 0xc7eed518e6ec2e9c),
    ("graph2-26ops/V3", 0x5a27ce30b51148b7),
    ("graph2-26ops/V4", 0x571cec8e848fd85d),
    ("graph2-26ops/V5", 0x01d4a64abb69c4b3),
    ("graph3-31ops/V3", 0x61852f1a8ecd4696),
    ("graph3-31ops/V4", 0xc3756271dcc8eab4),
    ("graph3-31ops/V5", 0x73eeecefd192b2a5),
    ("graph4-36ops/V3", 0xde5557dcc9f842f1),
    ("graph4-36ops/V4", 0x086c9c1abf89ddb3),
    ("graph4-36ops/V5", 0x6f2e1ad8988428ed),
    ("graph5-41ops/V3", 0x29d55113069804e2),
    ("graph5-41ops/V4", 0x178e497f5128039a),
    ("graph5-41ops/V5", 0x2cbdac035f8b3a94),
    ("graph6-46ops/V3", 0x7390625e7efb8b22),
    ("graph6-46ops/V4", 0xeb5041b6d3c5f536),
    ("graph6-46ops/V5", 0xa00d84e7e1b88d54),
    ("graph7-51ops/V3", 0x2601b14016684341),
    ("graph7-51ops/V4", 0xc9a6740cb4f5a669),
    ("graph7-51ops/V5", 0x750bd5d19b69c2f9),
    ("graph8-56ops/V3", 0xaf6dfbceb8793fc9),
    ("graph8-56ops/V4", 0x736f84ebf1e5f185),
    ("graph8-56ops/V5", 0x9a64c031914ef8e1),
    ("graph9-61ops/V3", 0xb9c178c5fde07247),
    ("graph9-61ops/V4", 0xa10fb5945d6c5d2d),
    ("graph9-61ops/V5", 0x679df78e4b39b7c1),
    ("graph10-66ops/V3", 0xabd30f5e944849f1),
    ("graph10-66ops/V4", 0xe8f3820fa43fcdc9),
    ("graph10-66ops/V5", 0x3ae7d10481cfb47c),
    ("graph11-72ops/V3", 0x269d9ff96d1c75b8),
    ("graph11-72ops/V4", 0x49ac9747f3caf2aa),
    ("graph11-72ops/V5", 0xabb51fcc6124842c),
];

#[test]
fn schedules_and_code_match_the_golden_digests() {
    assert_eq!(FuVariant::ALL[1], FuVariant::V1);
    let computed = computed();
    let matches = computed.len() == GOLDEN.len()
        && computed
            .iter()
            .zip(GOLDEN)
            .all(|((name, digest), golden)| (name.as_str(), *digest) == *golden);
    if !matches {
        let table: String = computed
            .iter()
            .map(|(name, digest)| format!("    (\"{name}\", {digest:#018x}),\n"))
            .collect();
        panic!("golden digests differ; the scheduler under test computes:\n{table}");
    }
}
