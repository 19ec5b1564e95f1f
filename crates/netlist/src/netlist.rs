//! Combinational netlist container.

use std::collections::HashMap;

use crate::gate::{Gate, GateKind, NetId};

/// A validated combinational netlist.
///
/// Gates are stored in topological order (fanin always precedes fanout),
/// which the [`Builder`](crate::builder::Builder) enforces by construction.
/// Primary inputs and outputs are named so experiment code can address
/// word-level ports.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) gates: Vec<Gate>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
    pub(crate) ports: HashMap<String, Vec<NetId>>,
}

impl Netlist {
    /// Human-readable component name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Looks up a named port (input or output word).
    pub fn port(&self, name: &str) -> Option<&[NetId]> {
        self.ports.get(name).map(Vec::as_slice)
    }

    /// Iterates all named ports (unordered).
    pub fn ports_iter(&self) -> impl Iterator<Item = (&String, &Vec<NetId>)> {
        self.ports.iter()
    }

    /// Number of *logic* gates (excluding primary inputs and constants) —
    /// the figure a synthesis report would call the cell count.
    pub fn num_logic_gates(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !matches!(g.kind, GateKind::Input | GateKind::Const(_)))
            .count()
    }

    /// Logic level of every net: inputs/constants are level 0; every other
    /// gate is one more than its deepest fanin.
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            let lvl = gate
                .fanin_nets()
                .iter()
                .map(|n| levels[n.index()])
                .max()
                .map(|m| m + 1)
                .unwrap_or(0);
            levels[i] = lvl;
        }
        levels
    }

    /// Logic depth: the maximum level over all outputs.
    pub fn logic_depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|n| levels[n.index()])
            .max()
            .unwrap_or(0)
    }

    /// Total cell area in NAND2-equivalent units.
    pub fn area(&self) -> f64 {
        self.gates.iter().map(|g| g.kind.area()).sum()
    }

    /// Validates structural invariants; the builder always produces valid
    /// netlists, so this is primarily a test/debugging aid.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: a fanin that
    /// refers to a later gate (not topological), a port net out of range,
    /// or an output list that is empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.outputs.is_empty() {
            return Err("netlist has no outputs".into());
        }
        for (i, gate) in self.gates.iter().enumerate() {
            for f in gate.fanin_nets() {
                if f.index() >= i {
                    return Err(format!(
                        "gate {i} ({}) has non-topological fanin {f}",
                        gate.kind
                    ));
                }
            }
        }
        for (name, nets) in &self.ports {
            for n in nets {
                if n.index() >= self.gates.len() {
                    return Err(format!("port {name} references out-of-range net {n}"));
                }
            }
        }
        for n in self.inputs.iter().chain(&self.outputs) {
            if n.index() >= self.gates.len() {
                return Err(format!("i/o net {n} out of range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::Builder;

    #[test]
    fn depth_and_counts_of_tiny_circuit() {
        let mut b = Builder::new("tiny");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and(a, c);
        let y = b.not(x);
        b.output("y", &[y]);
        let n = b.finish();
        assert_eq!(n.num_logic_gates(), 2);
        assert_eq!(n.logic_depth(), 2);
        assert!(n.validate().is_ok());
        assert_eq!(n.port("a").unwrap().len(), 1);
        assert_eq!(n.port("y").unwrap(), &[y]);
        assert!(n.area() > 0.0);
        assert_eq!(n.name(), "tiny");
    }

    #[test]
    fn levels_are_monotone_along_fanin() {
        let mut b = Builder::new("chain");
        let a = b.input("a");
        let mut cur = a;
        for _ in 0..10 {
            cur = b.not(cur);
        }
        b.output("o", &[cur]);
        let n = b.finish();
        let levels = n.levels();
        for (i, gate) in n.gates().iter().enumerate() {
            for f in gate.fanin_nets() {
                assert!(levels[f.index()] < levels[i]);
            }
        }
        assert_eq!(n.logic_depth(), 10);
    }

    #[test]
    fn validate_rejects_missing_outputs() {
        let mut b = Builder::new("noout");
        let _ = b.input("a");
        let n = b.finish();
        assert!(n.validate().is_err());
    }
}
