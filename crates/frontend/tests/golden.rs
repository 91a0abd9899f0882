//! Golden digests of the front end's observable output.
//!
//! Every digest and every error string below was generated by the front end
//! as it stood before the lexer went to bytes and the AST to borrowed names
//! (commit `0d00bf0`) and must not be edited when the front end changes: a
//! mismatch means a node, a name, an operand order, a DOT line or an error
//! message moved. On a mismatch the test prints the whole table as the front
//! end under test computes it. No source here holds the literal 2^31 or its
//! neighbours, whose handling changed with the same commit (they have their
//! own tests beside the parser); the one oversize literal of the error table
//! is far past them and was rejected before as it is now.

use overlay_dfg::{dot, Dfg, NodeKind};
use overlay_frontend::{compile_kernel_with, Benchmark, LowerOptions};

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

/// Name, every node's name, kind and operands, the input and output lists.
fn graph_digest(dfg: &Dfg) -> u64 {
    let mut d = Digest::new();
    d.text(dfg.name());
    d.word(dfg.num_nodes() as u64);
    for node in dfg.nodes() {
        d.word(node.id().index() as u64);
        d.text(node.name());
        match node.kind() {
            NodeKind::Input { position } => {
                d.word(0);
                d.word(*position as u64);
            }
            NodeKind::Const { value } => {
                d.word(1);
                d.word(u64::from(value.as_u32()));
            }
            NodeKind::Operation { op, .. } => {
                d.word(2);
                d.text(op.mnemonic());
            }
            NodeKind::Output { position, .. } => {
                d.word(3);
                d.word(*position as u64);
            }
        }
        d.word(node.operands().len() as u64);
        for operand in node.operands() {
            d.word(operand.index() as u64);
        }
        d.text(&node.to_string());
    }
    for list in [dfg.inputs(), dfg.outputs()] {
        d.word(list.len() as u64);
        for id in list {
            d.word(id.index() as u64);
        }
    }
    d.0
}

fn dot_digest(dfg: &Dfg) -> u64 {
    let mut d = Digest::new();
    d.text(&dot::to_dot(dfg));
    d.0
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A random expression over `names`, `depth` operators deep at most. Leaves
/// repeat names and small literals often enough that folding, CSE and square
/// detection all have something to find.
fn expression(rng: &mut SplitMix64, names: &[String], depth: usize) -> String {
    if depth == 0 || rng.below(5) == 0 {
        return match rng.below(6) {
            0 => ["0", "1", "2", "7", "48", "255"][rng.below(6)].to_owned(),
            1 => format!("{}", rng.below(1 << 20)),
            2 => format!("-{}", 1 + rng.below(2_147_483_646)),
            _ => names[rng.below(names.len())].clone(),
        };
    }
    let sub = |rng: &mut SplitMix64| expression(rng, names, depth - 1);
    match rng.below(16) {
        0 => format!("-{}", sub(rng)),
        1 => format!("- ({})", sub(rng)),
        2 => format!("sqr({})", sub(rng)),
        3 => format!("abs( {} )", sub(rng)),
        4 => format!("min({}, {})", sub(rng), sub(rng)),
        5 => format!("max({},{})", sub(rng), sub(rng)),
        6 => {
            // The same operand on both sides: a square, or a CSE hit.
            let operand = sub(rng);
            let op = ["*", "+", "&"][rng.below(3)];
            format!("({operand}) {op} ({operand})")
        }
        7 => format!(
            "({} + {}) * ({} + {})",
            names[0],
            names[1 % names.len()],
            names[1 % names.len()],
            names[0]
        ),
        8 => format!("(2 * 3 + {}) - (10 >> 1)", rng.below(9)),
        pick => {
            let op = ["+", "-", "*", "<<", ">>", "&", "|", "^"][pick % 8];
            let (lhs, rhs) = (sub(rng), sub(rng));
            match rng.below(3) {
                0 => format!("{lhs} {op} {rhs}"),
                1 => format!("({lhs}){op}({rhs})"),
                _ => format!("({lhs} {op}\n        {rhs})"),
            }
        }
    }
}

/// A seeded kernel: 1–5 parameters, a few `let`s, 1–3 `out`s, comments and
/// odd spacing. The first `let` reads every parameter so none is unused.
fn seeded_source(seed: u64) -> String {
    let mut rng = SplitMix64(0xF407_E4D0 ^ seed.wrapping_mul(0x1234_5678_9abc_def1));
    let params: Vec<String> = (0..1 + rng.below(5))
        .map(|i| ["a", "b", "x_1", "in3", "_t"][i].to_owned())
        .collect();
    let mut source = format!(
        "# seeded kernel {seed}\nkernel k{seed}({}) {{\n",
        params.join(if seed & 1 == 0 { ", " } else { "," })
    );
    let mut names = params.clone();
    source.push_str(&format!("    let all = {};\n", params.join(" + ")));
    names.push("all".to_owned());
    for index in 0..1 + rng.below(5) {
        let name = format!("t{index}");
        let depth = 1 + rng.below(4);
        let expr = expression(&mut rng, &names, depth);
        source.push_str(&format!("    let {name} = {expr}; # {name}\n"));
        names.push(name);
    }
    for index in 0..1 + rng.below(3) {
        let depth = rng.below(4);
        let mut expr = expression(&mut rng, &names, depth);
        // An output folded to a constant does not lower; only every sixth
        // seed is left free to draw one.
        if seed % 6 != 5 {
            let param = &params[rng.below(params.len())];
            expr = format!("({expr}) {} {param}", ["+", "*", "^"][rng.below(3)]);
        }
        source.push_str(&format!("\tout o{index}={expr} ;\n"));
    }
    source.push_str("}\n# trailing comment without a newline");
    source
}

const SEEDED: u64 = 12;

fn sources() -> Vec<(String, String)> {
    let mut sources: Vec<(String, String)> = Benchmark::ALL
        .iter()
        .filter_map(|benchmark| Some((benchmark.name().to_owned(), benchmark.source()?.to_owned())))
        .collect();
    assert_eq!(sources.len(), 4);
    sources.extend((0..SEEDED).map(|seed| (format!("seeded{seed}"), seeded_source(seed))));
    sources
}

/// Every pinned case, in table order: `(case, graph digest, dot digest)`; a
/// source that does not lower is digested by its error message.
fn computed() -> Vec<(String, u64, u64)> {
    let options = [
        ("default", LowerOptions::default()),
        ("optimized", LowerOptions::optimized()),
        ("literal", LowerOptions::literal()),
    ];
    let mut cases = Vec::new();
    for (name, source) in sources() {
        for (label, options) in &options {
            let (graph, dot) = match compile_kernel_with(&source, options) {
                Ok(dfg) => (graph_digest(&dfg), dot_digest(&dfg)),
                Err(error) => {
                    let mut d = Digest::new();
                    d.text(&error.to_string());
                    (d.0, 0)
                }
            };
            cases.push((format!("{name}/{label}"), graph, dot));
        }
    }
    cases
}

const GOLDEN: &[(&str, u64, u64)] = &[
    ("gradient/default", 0x7682dcbcfe643fda, 0x7d34ce8be283933b),
    ("gradient/optimized", 0x7682dcbcfe643fda, 0x7d34ce8be283933b),
    ("gradient/literal", 0x7682dcbcfe643fda, 0x7d34ce8be283933b),
    ("chebyshev/default", 0xe216e0d17fc6753a, 0xc72ca5e6981ad0d0),
    (
        "chebyshev/optimized",
        0xe216e0d17fc6753a,
        0xc72ca5e6981ad0d0,
    ),
    ("chebyshev/literal", 0xda1e44354832d997, 0x50ea8ccb7f67e47f),
    ("mibench/default", 0x42f0fd0705a7f49f, 0x69de732b2aaa4b49),
    ("mibench/optimized", 0x42f0fd0705a7f49f, 0x69de732b2aaa4b49),
    ("mibench/literal", 0x42f0fd0705a7f49f, 0x69de732b2aaa4b49),
    ("sgfilter/default", 0x8680bde704b67da5, 0xb6016f6c3c64b1a2),
    ("sgfilter/optimized", 0x8680bde704b67da5, 0xb6016f6c3c64b1a2),
    ("sgfilter/literal", 0x8680bde704b67da5, 0xb6016f6c3c64b1a2),
    ("seeded0/default", 0x373e8d8c4b7a241a, 0x70893049e3b71eee),
    ("seeded0/optimized", 0x906236f45c92d937, 0xd88c6c07e6a4c993),
    ("seeded0/literal", 0x8e10910f945f3b3c, 0x180ef9b5c3d8f341),
    ("seeded1/default", 0xa3af4876d17b1441, 0x94dcead7b50fe9c4),
    ("seeded1/optimized", 0xa3af4876d17b1441, 0x94dcead7b50fe9c4),
    ("seeded1/literal", 0xa3af4876d17b1441, 0x94dcead7b50fe9c4),
    ("seeded2/default", 0xb76c92e284f34dff, 0x4d144b163c823790),
    ("seeded2/optimized", 0xa639b585f71918a1, 0x48cd5631ca01b522),
    ("seeded2/literal", 0xb76c92e284f34dff, 0x4d144b163c823790),
    ("seeded3/default", 0x5c9a800b9acd19a2, 0xbc64745f5e15927a),
    ("seeded3/optimized", 0x8301b5faab04e361, 0x2af653c1127463e5),
    ("seeded3/literal", 0x0c19002f6742b73e, 0x8901b53fd9efb0c8),
    ("seeded4/default", 0x10ccbc88ab21b70a, 0x2a77e9dda5d4a44b),
    ("seeded4/optimized", 0x10ccbc88ab21b70a, 0x2a77e9dda5d4a44b),
    ("seeded4/literal", 0x156152eb93ba29a8, 0xefb7c20481dea6ff),
    ("seeded5/default", 0xabab3abbc1a754f3, 0xd1ef05a40d3e3c55),
    ("seeded5/optimized", 0x4ec29b1df5c955f6, 0xdd0a1c3b085152b8),
    ("seeded5/literal", 0xc5f6e93d99c543b5, 0xfdf24d8b0cd942c4),
    ("seeded6/default", 0xbfe44d8165c5d1ba, 0x5284783b09e0e36a),
    ("seeded6/optimized", 0xe604d1e2e4b2498c, 0x5351202e4d33d73f),
    ("seeded6/literal", 0xf21a3e4558d060d0, 0x59dc5ab85590e187),
    ("seeded7/default", 0xbc68af557c6b9341, 0xaebce169ef17ec4e),
    ("seeded7/optimized", 0xbc68af557c6b9341, 0xaebce169ef17ec4e),
    ("seeded7/literal", 0xbc68af557c6b9341, 0xaebce169ef17ec4e),
    ("seeded8/default", 0xed815df6b6bf796b, 0xe776abd02c0b4a09),
    ("seeded8/optimized", 0xed815df6b6bf796b, 0xe776abd02c0b4a09),
    ("seeded8/literal", 0xfbdac43b0ab05ec9, 0x011c07b8956585b3),
    ("seeded9/default", 0x833ac6d7bf34d7e1, 0xae120c3df8e3ac29),
    ("seeded9/optimized", 0x833ac6d7bf34d7e1, 0xae120c3df8e3ac29),
    ("seeded9/literal", 0x0a434d15e1737c34, 0x4e936ac15751e9e4),
    ("seeded10/default", 0x4fe3e345325ca2cb, 0x8f6012db538d6fe1),
    ("seeded10/optimized", 0x4fe3e345325ca2cb, 0x8f6012db538d6fe1),
    ("seeded10/literal", 0x395e9df1fe011878, 0xd17924a732186930),
    ("seeded11/default", 0xf693ee2c96835062, 0x0000000000000000),
    ("seeded11/optimized", 0xf693ee2c96835062, 0x0000000000000000),
    ("seeded11/literal", 0xf5b9b64b708d0481, 0xa0afb4c3d3ee8687),
];

#[test]
fn lowered_graphs_match_the_golden_digests() {
    let computed = computed();
    let lowered = computed.iter().filter(|(_, _, dot)| *dot != 0).count();
    assert!(lowered >= computed.len() - 6, "only {lowered} cases lower");
    let matches = computed.len() == GOLDEN.len()
        && computed
            .iter()
            .zip(GOLDEN)
            .all(|((name, graph, dot), golden)| (name.as_str(), *graph, *dot) == *golden);
    if !matches {
        let table: String = computed
            .iter()
            .map(|(name, graph, dot)| format!("    (\"{name}\", {graph:#018x}, {dot:#018x}),\n"))
            .collect();
        panic!("golden digests differ; the front end under test computes:\n{table}");
    }
}

/// Malformed sources and the exact message each must produce.
const ERRORS: &[(&str, &str)] = &[
    (
        "kernel k(a) { out y = a $ 1; }",
        "unexpected character `$` at 1:25",
    ),
    (
        "kernel k(a) {\n  let t = a + 1;\n  out y = t @ 2;\n}",
        "unexpected character `@` at 3:13",
    ),
    (
        "kernel k(a) { out y = a + λ; }",
        "unexpected character `λ` at 1:27",
    ),
    (
        "# only a comment λλ\nkernel k(a) { out y = a < 1; }",
        "unexpected character `<` at 2:25",
    ),
    (
        "kernel k(a) { out y = a + 1;",
        "unexpected end of input, expected `let` or `out`",
    ),
    (
        "kernel k(a) { out y = a +",
        "unexpected end of input, expected an expression",
    ),
    (
        "kernel k(a) {\n  out y = hypot(a, a);\n}",
        "unknown function `hypot` at 2:11",
    ),
    (
        "kernel k(a) { out y = sqr(a, a); }",
        "function `sqr` expects 1 argument(s) but 2 were supplied",
    ),
    (
        "kernel k(a, b) { out y = min(a); }",
        "function `min` expects 2 argument(s) but 1 were supplied",
    ),
    (
        "kernel k(a) { out y = max(); }",
        "function `max` expects 2 argument(s) but 0 were supplied",
    ),
    (
        "kernel k(a) { let t = a; let t = a + 1; out y = t; }",
        "`t` is defined more than once",
    ),
    (
        "kernel k(a, a) { out y = a; }",
        "`a` is defined more than once",
    ),
    (
        "kernel k(a) { let a = 3; out y = a; }",
        "`a` is defined more than once",
    ),
    (
        "kernel k(a) { out y = a + q; }",
        "use of undefined variable `q`",
    ),
    (
        "kernel k(a) { let t = a + 1; }",
        "kernel `k` has no `out` statement",
    ),
    (
        "kernel k(a) {\n\n   out y = 99999999999 * a;\n}",
        "literal `99999999999` at 3:12 does not fit in 32 bits",
    ),
    (
        "kernel k(a, b) { out y = a; }",
        "invalid data flow graph: input node n1 is never used",
    ),
    (
        "kernel k(a) { out y = a }",
        "expected `;` but found `}` at 1:25",
    ),
    (
        "kernel (a) { out y = a; }",
        "expected kernel name but found `(` at 1:8",
    ),
    (
        "kernel k(a { out y = a; }",
        "expected `)` but found `{` at 1:12",
    ),
    (
        "kernel k(a) { out = a; }",
        "expected binding name but found `=` at 1:19",
    ),
    (
        "kernel k(a) { y = a; }",
        "expected `let` or `out` but found identifier `y` at 1:15",
    ),
    (
        "kernel k(a) { out y = (a + 1; }",
        "expected `)` but found `;` at 1:29",
    ),
    (
        "kernel k(a) { out y = a; } kernel",
        "expected end of input but found `kernel` at 1:28",
    ),
    ("let x = 1;", "expected `kernel` but found `let` at 1:1"),
    ("", "unexpected end of input, expected `kernel`"),
    (
        "kernel k(a) { out y = a * ; }",
        "expected an expression but found `;` at 1:27",
    ),
    (
        "kernel k(kernel) { out y = 1; }",
        "expected parameter name but found `kernel` at 1:10",
    ),
    (
        "kernel k(a) { out y = sqr(a; }",
        "expected `)` but found `;` at 1:28",
    ),
    (
        "kernel k(a) { out y = nope(b); }",
        "unknown function `nope` at 1:23",
    ),
    (
        "kernel k(a) { out y = 12ab; }",
        "expected `;` but found identifier `ab` at 1:25",
    ),
];

#[test]
fn malformed_sources_report_the_golden_messages() {
    let computed: Vec<(&str, String)> = ERRORS
        .iter()
        .map(|(source, _)| {
            let error = compile_kernel_with(source, &LowerOptions::default())
                .expect_err("every source here is malformed");
            (*source, error.to_string())
        })
        .collect();
    let matches = computed.len() == ERRORS.len()
        && computed
            .iter()
            .zip(ERRORS)
            .all(|((source, message), golden)| (*source, message.as_str()) == *golden);
    if !matches {
        let table: String = computed
            .iter()
            .map(|(source, message)| format!("    ({source:?}, {message:?}),\n"))
            .collect();
        panic!("error messages differ; the front end under test reports:\n{table}");
    }
}
