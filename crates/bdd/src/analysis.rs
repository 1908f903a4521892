//! Structural and model-counting queries on BDDs.

use crate::hasher::FxBuildHasher;
use crate::manager::{Bdd, BddManager, BddVar, FALSE, TERMINAL_LEVEL, TRUE};
use std::collections::{HashMap, HashSet};

/// A (possibly partial) satisfying assignment, indexed by variable.
///
/// `None` entries mean the variable is a don't-care for the chosen cube.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SatAssignment {
    values: Vec<Option<bool>>,
}

impl SatAssignment {
    /// The value chosen for `var`, if any.
    pub fn value(&self, var: BddVar) -> Option<bool> {
        self.values.get(var.0 as usize).copied().flatten()
    }

    /// A total assignment, with don't-cares filled in as `false`.
    pub fn to_total(&self, var_count: usize) -> Vec<bool> {
        (0..var_count).map(|i| self.values.get(i).copied().flatten().unwrap_or(false)).collect()
    }

    /// Iterates over the variables that were actually assigned.
    pub fn iter(&self) -> impl Iterator<Item = (BddVar, bool)> + '_ {
        self.values.iter().enumerate().filter_map(|(i, v)| v.map(|b| (BddVar(i as u32), b)))
    }
}

impl BddManager {
    /// The set of variables `f` depends on, in current level order.
    ///
    /// Complement tags never affect the support, so the walk runs over
    /// node indices.
    pub fn support(&self, f: Bdd) -> Vec<BddVar> {
        let mut levels = HashSet::with_hasher(FxBuildHasher::default());
        let mut visited = HashSet::with_hasher(FxBuildHasher::default());
        let mut stack = vec![f.node_index()];
        while let Some(idx) = stack.pop() {
            if !visited.insert(idx) {
                continue;
            }
            let n = &self.nodes[idx as usize];
            if n.level == TERMINAL_LEVEL {
                continue;
            }
            levels.insert(n.level);
            stack.push(n.lo >> 1);
            stack.push(n.hi >> 1);
        }
        let mut levels: Vec<u32> = levels.into_iter().collect();
        levels.sort_unstable();
        levels.into_iter().map(|l| BddVar(self.level_to_var[l as usize])).collect()
    }

    /// Number of nodes in the (shared) graph of `f`, including the terminal.
    pub fn node_count(&self, f: Bdd) -> usize {
        self.node_count_many(&[f])
    }

    /// Number of distinct nodes in the shared graph of all roots.
    ///
    /// This is the "number of BDD nodes needed to represent the
    /// implementation" metric of the paper's tables. With complement
    /// edges `f` and `¬f` contribute the same nodes, and there is a
    /// single shared terminal.
    pub fn node_count_many(&self, roots: &[Bdd]) -> usize {
        let mut visited = HashSet::with_hasher(FxBuildHasher::default());
        let mut stack: Vec<u32> = roots.iter().map(|r| r.node_index()).collect();
        while let Some(idx) = stack.pop() {
            if !visited.insert(idx) {
                continue;
            }
            let n = &self.nodes[idx as usize];
            if n.level != TERMINAL_LEVEL {
                stack.push(n.lo >> 1);
                stack.push(n.hi >> 1);
            }
        }
        visited.len()
    }

    /// Number of satisfying assignments of `f` over all declared variables.
    ///
    /// Counted in `f64`, which is exact below 2⁵³ and an approximation above.
    pub fn sat_count(&self, f: Bdd) -> f64 {
        let n = self.var_count() as u32;
        let mut memo: HashMap<u32, f64, FxBuildHasher> = HashMap::default();
        let fraction = self.sat_fraction(f.0, &mut memo);
        fraction * 2f64.powi(n as i32)
    }

    /// Fraction of assignments satisfying the function the tagged `edge`
    /// denotes. The memo is keyed on node indices (regular functions);
    /// a complement tag turns fraction `p` into `1 - p`.
    fn sat_fraction(&self, edge: u32, memo: &mut HashMap<u32, f64, FxBuildHasher>) -> f64 {
        let idx = edge >> 1;
        let regular = if idx == 0 {
            1.0
        } else if let Some(&v) = memo.get(&idx) {
            v
        } else {
            let n = &self.nodes[idx as usize];
            let lo = self.sat_fraction(n.lo, memo);
            let hi = self.sat_fraction(n.hi, memo);
            let v = 0.5 * lo + 0.5 * hi;
            memo.insert(idx, v);
            v
        };
        if edge & 1 == 1 {
            1.0 - regular
        } else {
            regular
        }
    }

    /// Returns a satisfying assignment if one exists.
    ///
    /// The returned assignment fixes exactly the variables on one true-path;
    /// unmentioned variables are don't-cares.
    pub fn any_sat(&self, f: Bdd) -> Option<SatAssignment> {
        if f.0 == FALSE {
            return None;
        }
        let mut values = vec![None; self.var_count()];
        let mut cur = f.0;
        while cur != TRUE {
            let n = &self.nodes[(cur >> 1) as usize];
            let var = self.level_to_var[n.level as usize] as usize;
            // Complement tags accumulate along the path.
            let (lo, hi) = (n.lo ^ (cur & 1), n.hi ^ (cur & 1));
            // Prefer the branch that can reach true; at least one can.
            if hi != FALSE {
                values[var] = Some(true);
                cur = hi;
            } else {
                values[var] = Some(false);
                cur = lo;
            }
        }
        Some(SatAssignment { values })
    }

    /// Returns an assignment falsifying `f`, if one exists.
    pub fn any_unsat(&self, f: Bdd) -> Option<SatAssignment> {
        if f.0 == TRUE {
            return None;
        }
        let mut values = vec![None; self.var_count()];
        let mut cur = f.0;
        while cur != FALSE {
            let n = &self.nodes[(cur >> 1) as usize];
            let var = self.level_to_var[n.level as usize] as usize;
            let (lo, hi) = (n.lo ^ (cur & 1), n.hi ^ (cur & 1));
            // In a reduced BDD every node other than the constant 1 has a
            // path to the 0 terminal, so any non-1 branch makes progress.
            if hi != TRUE {
                values[var] = Some(true);
                cur = hi;
            } else {
                values[var] = Some(false);
                cur = lo;
            }
        }
        Some(SatAssignment { values })
    }

    /// True iff `f` is the constant `true`.
    pub fn is_tautology(&self, f: Bdd) -> bool {
        f.0 == TRUE
    }

    /// True iff `f` is the constant `false`.
    pub fn is_contradiction(&self, f: Bdd) -> bool {
        f.0 == FALSE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_lists_dependencies() {
        let mut m = BddManager::new();
        let vars = m.new_vars(4);
        let (a, c) = (m.var(vars[0]), m.var(vars[2]));
        let f = m.xor(a, c);
        assert_eq!(m.support(f), vec![vars[0], vars[2]]);
        assert_eq!(m.support(m.constant(true)), Vec::new());
        // ¬f has exactly the support of f.
        let nf = m.not(f);
        assert_eq!(m.support(nf), m.support(f));
    }

    #[test]
    fn sat_count_xor_chain() {
        let mut m = BddManager::new();
        let vars = m.new_vars(6);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let parity = m.xor_many(&lits);
        // Exactly half of all 2^6 assignments have odd parity.
        assert_eq!(m.sat_count(parity), 32.0);
    }

    #[test]
    fn sat_count_complements_sum_to_space() {
        let mut m = BddManager::new();
        let vars = m.new_vars(5);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let p = m.and(lits[0], lits[1]);
        let f = m.or(p, lits[3]);
        let nf = m.not(f);
        assert_eq!(m.sat_count(f) + m.sat_count(nf), 32.0);
    }

    #[test]
    fn any_sat_satisfies() {
        let mut m = BddManager::new();
        let vars = m.new_vars(5);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let n3 = m.not(lits[3]);
        let f0 = m.and(lits[0], n3);
        let f = m.and(f0, lits[4]);
        let a = m.any_sat(f).expect("satisfiable");
        let total = a.to_total(5);
        assert!(m.eval(f, &total));
        assert_eq!(a.value(vars[0]), Some(true));
        assert_eq!(a.value(vars[3]), Some(false));
        assert!(m.any_sat(m.constant(false)).is_none());
        // Complemented root: a witness for ¬f must falsify f.
        let nf = m.not(f);
        let a = m.any_sat(nf).expect("satisfiable");
        assert!(!m.eval(f, &a.to_total(5)));
    }

    #[test]
    fn any_unsat_falsifies() {
        let mut m = BddManager::new();
        let vars = m.new_vars(3);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let f = m.or_many(&lits);
        let a = m.any_unsat(f).expect("not a tautology");
        assert!(!m.eval(f, &a.to_total(3)));
        assert!(m.any_unsat(m.constant(true)).is_none());
    }

    #[test]
    fn node_count_shares_subgraphs() {
        let mut m = BddManager::new();
        let vars = m.new_vars(3);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let f = m.and(lits[0], lits[1]);
        let g = m.and(lits[1], lits[2]);
        let shared = m.node_count_many(&[f, g]);
        let separate = m.node_count(f) + m.node_count(g);
        assert!(shared < separate);
        // A function and its complement share every node.
        let nf = m.not(f);
        assert_eq!(m.node_count_many(&[f, nf]), m.node_count(f));
    }
}
