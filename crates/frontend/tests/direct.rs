//! The one-pass path held to the AST path.
//!
//! `compile_kernel_with` parses straight into the graph sink, while
//! `lower_kernel(&parse_kernel(..)?, ..)` builds an AST first and replays it
//! into the same sink. Over generated sources, valid and malformed, both must
//! give equal graphs and DOT text under every [`LowerOptions`], or equal
//! errors. The error orders the direct path keeps while it defers a lowering
//! error and parses on are pinned beside it.

use overlay_dfg::{dot, Dfg};
use overlay_frontend::{
    compile_kernel_with, lower_kernel, parse_kernel, FrontendError, LowerOptions,
};
use proptest::prelude::*;

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

/// A random expression over `names`, `depth` operators deep at most, with
/// repeats and literals enough for folding, CSE and square detection.
fn expression(rng: &mut SplitMix64, names: &[String], depth: usize) -> String {
    if depth == 0 || rng.below(5) == 0 {
        return match rng.below(7) {
            0 => ["0", "1", "2", "7", "48"][rng.below(5)].to_owned(),
            1 => format!("-{}", rng.below(1 << 20)),
            2 => "- 2147483648".to_owned(),
            _ => names[rng.below(names.len())].clone(),
        };
    }
    let sub = |rng: &mut SplitMix64| expression(rng, names, depth - 1);
    match rng.below(12) {
        0 => format!("-{}", sub(rng)),
        1 => format!("-({})", sub(rng)),
        2 => format!("sqr({})", sub(rng)),
        3 => format!("abs({})", sub(rng)),
        4 => format!("min({}, {})", sub(rng), sub(rng)),
        5 => format!("max({}, {})", sub(rng), sub(rng)),
        6 => {
            let operand = sub(rng);
            let op = ["*", "+", "&"][rng.below(3)];
            format!("({operand}) {op} ({operand})")
        }
        pick => {
            let op = ["+", "-", "*", "<<", ">>", "&", "|", "^"][(pick + rng.below(8)) % 8];
            format!("{} {op} ({})", sub(rng), sub(rng))
        }
    }
}

/// A statement that fails to lex, parse or lower, in one of the ways the
/// front end reports.
fn fault(rng: &mut SplitMix64, names: &[String]) -> String {
    let name = &names[rng.below(names.len())];
    match rng.below(9) {
        0 => format!("let {name} = 1;"),
        1 => "out f0 = undefined + 1;".to_owned(),
        2 => format!("out f1 = {name} $ 1;"),
        3 => "out f2 = 99999999999;".to_owned(),
        4 => format!("out f3 = {name} +;"),
        5 => format!("out f4 = sqr({name}, {name});"),
        6 => format!("out f5 = hypot({name});"),
        7 => "out f6 = 2147483648;".to_owned(),
        _ => format!("let {name} = {name}"),
    }
}

/// A kernel of 1–4 parameters, a few `let`s and 1–3 `out`s, most of them
/// well formed. A fault is mixed in at a random place in one source of three;
/// some sources leave a parameter unread or have no output.
fn source(seed: u64) -> String {
    let mut rng = SplitMix64(seed ^ 0xD1_4EC7);
    let params: Vec<String> = (0..1 + rng.below(4))
        .map(|i| ["a", "b", "x_1", "in3"][i].to_owned())
        .collect();
    let mut statements = Vec::new();
    let mut names = params.clone();
    if rng.below(8) != 0 {
        statements.push(format!("let all = {};", params.join(" + ")));
        names.push("all".to_owned());
    }
    for index in 0..rng.below(4) {
        let depth = 1 + rng.below(3);
        let expr = expression(&mut rng, &names, depth);
        statements.push(format!("let t{index} = {expr};"));
        names.push(format!("t{index}"));
    }
    let outputs = if rng.below(10) == 0 {
        0
    } else {
        1 + rng.below(3)
    };
    for index in 0..outputs {
        let depth = rng.below(3);
        let expr = expression(&mut rng, &names, depth);
        let param = &params[rng.below(params.len())];
        statements.push(format!("out o{index} = ({expr}) + {param};"));
    }
    for _ in 0..usize::from(rng.below(3) == 0) + usize::from(rng.below(9) == 0) {
        let at = rng.below(statements.len() + 1);
        statements.insert(at, fault(&mut rng, &names));
    }
    format!(
        "kernel k({}) {{\n    {}\n}}",
        params.join(", "),
        statements.join("\n    ")
    )
}

const OPTIONS: [LowerOptions; 3] = [
    LowerOptions {
        fold_constants: true,
        cse: false,
        detect_squares: true,
    },
    LowerOptions {
        fold_constants: true,
        cse: true,
        detect_squares: true,
    },
    LowerOptions {
        fold_constants: false,
        cse: false,
        detect_squares: false,
    },
];

fn both(source: &str, options: &LowerOptions) -> [Result<(Dfg, String), FrontendError>; 2] {
    let with_dot = |dfg: Dfg| {
        let text = dot::to_dot(&dfg);
        (dfg, text)
    };
    [
        compile_kernel_with(source, options).map(with_dot),
        parse_kernel(source)
            .and_then(|kernel| lower_kernel(&kernel, options))
            .map(with_dot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_direct_path_builds_what_the_ast_path_lowers(seed in any::<u64>()) {
        let source = source(seed);
        for options in &OPTIONS {
            let [direct, via_ast] = both(&source, options);
            prop_assert!(
                direct == via_ast,
                "{options:?} over\n{source}\ndirect: {direct:?}\nvia the AST: {via_ast:?}"
            );
        }
    }
}

/// The generator reaches graphs and every kind of error.
#[test]
fn the_sources_reach_graphs_and_every_kind_of_error() {
    let mut kinds = std::collections::BTreeSet::new();
    let mut graphs = 0;
    for seed in 0..600 {
        match compile_kernel_with(&source(seed), &LowerOptions::default()) {
            Ok(_) => graphs += 1,
            Err(error) => {
                let kind = format!("{error:?}");
                kinds.insert(kind[..kind.find([' ', '(']).unwrap_or(kind.len())].to_owned());
            }
        }
    }
    assert!(graphs > 300, "{graphs} graphs");
    let expected = [
        "DuplicateDefinition",
        "Dfg",
        "LiteralOutOfRange",
        "NoOutputs",
        "UndefinedVariable",
        "UnexpectedChar",
        "UnexpectedToken",
        "UnknownFunction",
        "WrongArgumentCount",
    ];
    for kind in expected {
        assert!(kinds.contains(kind), "no source reported {kind}: {kinds:?}");
    }
}

fn direct_error(source: &str) -> String {
    compile_kernel_with(source, &LowerOptions::default())
        .expect_err("the source is malformed")
        .to_string()
}

#[test]
fn a_syntax_error_outranks_an_earlier_lowering_error() {
    assert_eq!(
        direct_error("kernel k(a) { out y = q; out z = a +; }"),
        "expected an expression but found `;` at 1:37"
    );
    assert_eq!(
        direct_error("kernel k(a) { let a = 1; out y = a; } out"),
        "expected end of input but found `out` at 1:39"
    );
}

#[test]
fn a_lexical_error_outranks_an_earlier_lowering_error() {
    for source in [
        "kernel k(a) { out y = q; out z = a $ 1; }",
        "kernel k(a) { let a = 1; out y = a; } $",
        "kernel k(a) { out y = q; out z = a + ; $ }",
    ] {
        assert!(
            direct_error(source).starts_with("unexpected character `$`"),
            "{source}"
        );
    }
}

#[test]
fn of_two_lowering_errors_the_first_in_source_order_is_reported() {
    for (source, message) in [
        (
            "kernel k(a) { out y = q; let a = 1; out z = a; }",
            "use of undefined variable `q`",
        ),
        (
            "kernel k(a) { let a = 1; out y = q; }",
            "`a` is defined more than once",
        ),
        (
            "kernel k(a) { let t = a; let t = r; }",
            "`t` is defined more than once",
        ),
        (
            "kernel k(a, b) { let t = r; }",
            "use of undefined variable `r`",
        ),
    ] {
        assert_eq!(direct_error(source), message, "{source}");
    }
}

/// Every duplicate of a given name costs one claim: 2 000 outputs named `y`
/// are named `y`, `y_1`, …, `y_1999`.
#[test]
fn two_thousand_duplicate_outputs_are_suffixed_in_order() {
    let mut source = String::from("kernel k(a) {\n");
    for _ in 0..2_000 {
        source.push_str("    out y = a + 1;\n");
    }
    source.push('}');
    let dfg = compile_kernel_with(&source, &LowerOptions::default()).unwrap();
    let names: Vec<&str> = dfg
        .outputs()
        .iter()
        .map(|&id| dfg.node(id).unwrap().name())
        .collect();
    let expected: Vec<String> = std::iter::once("y".to_owned())
        .chain((1..2_000).map(|k| format!("y_{k}")))
        .collect();
    assert_eq!(names, expected);
}
