//! Node names held to an oracle that claims every name.
//!
//! The builder claims a derived operation name (`ADD_N3`) only once a given
//! name could equal one (see the `builder` module's documentation). The
//! oracle below is the rule it replaced, kept as it was: every name, derived
//! or given, is claimed in one set, and a name already in it gets the first
//! free `_k` suffix. Random call sequences draw their given names from a pool
//! built to collide with derived, constant and suffixed names, and every
//! node's name must equal the oracle's.

use std::collections::HashSet;

use overlay_dfg::{DfgBuilder, NodeId, Op, Value};
use proptest::prelude::*;
use rand::prelude::*;

/// Given names that collide with derived operation names (`ADD_N3`), with
/// their suffixed forms (`ADD_N3_1`), nearly have their shape (`add_N3`,
/// `ADD_N`), or collide with constant names (`c5`, `c-1`, `c5_1`).
const POOL: [&str; 10] = [
    "ADD_N3", "MUL_N4", "ADD_N3_1", "add_N3", "ADD_N", "c5", "c-1", "c5_1", "x", "x_1",
];

/// The naming rule that claims every name.
#[derive(Default)]
struct Oracle {
    names: Vec<String>,
    used: HashSet<String>,
}

impl Oracle {
    fn unique_name(&mut self, requested: String) -> String {
        if self.used.insert(requested.clone()) {
            return requested;
        }
        let mut counter = 1usize;
        loop {
            let candidate = format!("{requested}_{counter}");
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
            counter += 1;
        }
    }

    fn push(&mut self, requested: String) {
        let name = self.unique_name(requested);
        self.names.push(name);
    }

    fn op(&mut self, op: Op) {
        self.push(format!("{}_N{}", op.mnemonic(), self.names.len()));
    }
}

/// Runs `steps` random builder calls drawn from `seed` on the builder and the
/// oracle; the names of both, node by node.
fn names_of(seed: u64, steps: usize) -> (Vec<String>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = DfgBuilder::new("naming");
    let mut oracle = Oracle::default();
    // Nodes an operation may read: every one but the outputs.
    let mut operands: Vec<NodeId> = Vec::new();
    for _ in 0..steps {
        let given = POOL[rng.gen_range(0..POOL.len())];
        let op = [Op::Add, Op::Mul, Op::Neg, Op::Square][rng.gen_range(0..4usize)];
        let picked: Vec<NodeId> = (0..op.arity())
            .filter_map(|_| {
                operands
                    .get(rng.gen_range(0..operands.len().max(1)))
                    .copied()
            })
            .collect();
        match rng.gen_range(0..5u32) {
            0 => {
                operands.push(builder.input(given));
                oracle.push(given.to_owned());
            }
            1 => {
                let value = rng.gen_range(-2..=4i32);
                operands.push(builder.constant(Value::new(value)));
                oracle.push(format!("c{value}"));
            }
            2 if !operands.is_empty() => {
                builder.output(given, picked[0]);
                oracle.push(given.to_owned());
            }
            3 if picked.len() == op.arity() => {
                operands.push(builder.named_op(given, op, &picked).unwrap());
                oracle.push(given.to_owned());
            }
            _ if picked.len() == op.arity() => {
                operands.push(builder.op(op, &picked).unwrap());
                oracle.op(op);
            }
            _ => {}
        }
    }
    let dfg = builder.build_unvalidated();
    let names = dfg.nodes().iter().map(|node| node.name().to_owned());
    (names.collect(), oracle.names)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_name_is_the_oracles(seed in any::<u64>(), steps in 1usize..48) {
        let (names, expected) = names_of(seed, steps);
        prop_assert_eq!(names, expected);
    }
}

/// The sequences above do reach the collisions the rule has to get right.
#[test]
fn the_pool_reaches_every_kind_of_collision() {
    let mut seen = HashSet::new();
    for seed in 0..2_000 {
        let (names, _) = names_of(seed, 48);
        seen.extend(names);
    }
    for name in [
        "ADD_N3_1", "ADD_N3_2", "MUL_N4_1", "c5_1", "c5_1_1", "c-1_1", "x_1_1",
    ] {
        assert!(seen.contains(name), "no sequence named a node {name}");
    }
}
