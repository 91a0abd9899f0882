//! Graphviz DOT export of a [`Dfg`].
//!
//! Useful to visually compare a constructed benchmark graph with the figures
//! in the paper (Fig. 2b, Fig. 4).

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::graph::Dfg;
use crate::node::NodeKind;

/// Renders `dfg` as a Graphviz `digraph`.
///
/// Inputs are drawn as ellipses, constants as diamonds, operations as boxes
/// and outputs as double circles; edges follow data flow (operand → consumer).
///
/// # Example
///
/// ```
/// use overlay_dfg::{dot, DfgBuilder, Op};
///
/// # fn main() -> Result<(), overlay_dfg::DfgError> {
/// let mut b = DfgBuilder::new("tiny");
/// let x = b.input("x");
/// let q = b.op(Op::Square, &[x])?;
/// b.output("y", q);
/// let rendered = dot::to_dot(&b.build()?);
/// assert!(rendered.starts_with("digraph"));
/// assert!(rendered.contains("SQR"));
/// # Ok(())
/// # }
/// ```
pub fn to_dot(dfg: &Dfg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(dfg.name()));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [fontname=\"Helvetica\"];");
    for node in dfg.nodes() {
        // Escaped before the label is composed, so the label's own `\n`
        // line separator stays an escape.
        let name = escape(node.name());
        let id = node.id();
        let _ = match node.kind() {
            NodeKind::Input { position } => {
                writeln!(
                    out,
                    "  {id} [shape=ellipse, label=\"I{position}\\n{name}\"];"
                )
            }
            NodeKind::Const { value } => {
                writeln!(out, "  {id} [shape=diamond, label=\"{value}\"];")
            }
            NodeKind::Operation { op, .. } => {
                writeln!(out, "  {id} [shape=box, label=\"{op}\\n{name}\"];")
            }
            NodeKind::Output { position, .. } => writeln!(
                out,
                "  {id} [shape=doublecircle, label=\"O{position}\\n{name}\"];"
            ),
        };
    }
    for node in dfg.nodes() {
        for operand in node.operands() {
            let _ = writeln!(out, "  {} -> {};", operand, node.id());
        }
    }
    out.push_str("}\n");
    out
}

/// `name` as the inside of a DOT quoted string: backslashes and quotes
/// escaped, line breaks as `\n` and `\r` escapes, so no name can end the
/// string or the line early.
fn escape(name: &str) -> Cow<'_, str> {
    if !name.contains(['\\', '"', '\n', '\r']) {
        return Cow::Borrowed(name);
    }
    let mut escaped = String::with_capacity(name.len() + 4);
    for c in name.chars() {
        match c {
            '\\' => escaped.push_str("\\\\"),
            '"' => escaped.push_str("\\\""),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            c => escaped.push(c),
        }
    }
    Cow::Owned(escaped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::op::Op;
    use crate::value::Value;

    #[test]
    fn dot_contains_every_node_and_edge() {
        let mut b = DfgBuilder::new("dot-test");
        let x = b.input("x");
        let y = b.input("y");
        let c = b.constant(Value::new(2));
        let s = b.op(Op::Add, &[x, y]).unwrap();
        let m = b.op(Op::Mul, &[s, c]).unwrap();
        b.output("o", m);
        let dfg = b.build().unwrap();
        let dot = to_dot(&dfg);
        for node in dfg.nodes() {
            assert!(dot.contains(&node.id().to_string()));
        }
        // edges: x->s, y->s, s->m, c->m, m->output = 5
        assert_eq!(dot.matches(" -> ").count(), 5);
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn quotes_in_names_are_escaped() {
        let mut b = DfgBuilder::new("quote\"name");
        let x = b.input("x");
        let q = b.op(Op::Square, &[x]).unwrap();
        b.output("o", q);
        let dot = to_dot(&b.build().unwrap());
        assert!(dot.contains("quote\\\"name"));
    }

    /// Each line of `dot`, checked to close every quoted string it opens.
    fn balanced_lines(dot: &str) -> Vec<&str> {
        let lines: Vec<&str> = dot.lines().collect();
        for line in &lines {
            let (mut quoted, mut escaped) = (false, false);
            for c in line.chars() {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => quoted = !quoted,
                    _ => {}
                }
            }
            assert!(!quoted && !escaped, "unterminated string in {line:?}");
        }
        lines
    }

    #[test]
    fn backslashes_and_line_breaks_in_names_are_escaped() {
        let mut b = DfgBuilder::new("k\\");
        let x = b.input("a\\");
        let q = b.op(Op::Square, &[x]).unwrap();
        b.output("two\nlines\r\"", q);
        let dfg = b.build().unwrap();
        let dot = to_dot(&dfg);
        let lines = balanced_lines(&dot);
        // Header, one line per node and per edge, closing brace.
        assert_eq!(lines.len(), 3 + dfg.num_nodes() + 2 + 1, "{dot}");
        assert_eq!(lines[0], "digraph \"k\\\\\" {");
        assert!(lines.contains(&"  n0 [shape=ellipse, label=\"I0\\na\\\\\"];"));
        assert!(lines.contains(&"  n2 [shape=doublecircle, label=\"O0\\ntwo\\nlines\\r\\\"\"];"));
    }
}
