//! Integration tests for the resource governor: budgets abort operations
//! as values, and the manager survives every abort intact.

use bbec_bdd::{Bdd, BddManager, BddVar, Budget, BudgetExceeded};
use std::time::{Duration, Instant};

/// A function family that needs many nodes: the "hidden weighted bit"
/// style nested ITE chain over `n` variables.
fn build_deep(m: &mut BddManager, vars: &[BddVar]) -> Bdd {
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let mut f = lits[0];
    for w in lits.windows(2) {
        let x = m.xor(w[0], w[1]);
        f = m.ite(x, f, w[1]);
    }
    f
}

#[test]
fn step_budget_aborts_and_reports_limit() {
    let mut m = BddManager::new();
    let vars = m.new_vars(24);
    m.set_budget(Some(Budget::steps(5)));
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let mut acc = lits[0];
    let mut err = None;
    for &l in &lits[1..] {
        match m.try_xor(acc, l) {
            Ok(r) => acc = r,
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    assert_eq!(err, Some(BudgetExceeded::Steps { limit: 5 }));
}

#[test]
fn node_budget_aborts_but_infallible_wrappers_ignore_it() {
    let mut m = BddManager::new();
    let vars = m.new_vars(16);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    m.set_budget(Some(Budget::nodes(20)));
    // Parity over 16 variables needs fewer than 20 nodes only for a prefix;
    // the budgeted op must abort eventually.
    let mut acc = lits[0];
    let mut aborted = false;
    for &l in &lits[1..] {
        match m.try_xor(acc, l) {
            Ok(r) => acc = r,
            Err(BudgetExceeded::Nodes { limit }) => {
                assert_eq!(limit, 20);
                aborted = true;
                break;
            }
            Err(e) => panic!("wrong abort kind: {e}"),
        }
    }
    assert!(aborted, "node budget never fired");
    // The classic names run with the budget ignored and still succeed.
    let full = m.xor_many(&lits);
    for bits in [0u32, 1, 0b1011, 0xFFFF] {
        let assign: Vec<bool> = (0..16).map(|i| bits >> i & 1 == 1).collect();
        let expect = (bits.count_ones() & 1) == 1;
        assert_eq!(m.eval(full, &assign), expect);
    }
}

#[test]
fn deadline_budget_aborts_long_running_work() {
    let mut m = BddManager::new();
    let vars = m.new_vars(64);
    // A deadline already in the past: the first 1024-step block aborts.
    m.set_budget(Some(Budget {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..Budget::default()
    }));
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let mut acc = lits[0];
    let mut err = None;
    for w in lits.windows(2) {
        let x = match m.try_xor(w[0], w[1]) {
            Ok(x) => x,
            Err(e) => {
                err = Some(e);
                break;
            }
        };
        match m.try_ite(x, acc, w[1]) {
            Ok(r) => acc = r,
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    assert_eq!(err, Some(BudgetExceeded::Deadline));
}

/// The manager-survival contract (ISSUE satellite): spec BDDs built and
/// protected before a budget abort keep evaluating correctly, the dropped
/// intermediates show up as dead nodes, and a GC reclaims them.
#[test]
fn manager_survives_mid_ite_budget_exhaustion() {
    let mut m = BddManager::new();
    let vars = m.new_vars(20);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();

    // "Spec" BDDs, protected like a check's specification outputs.
    let parity = m.xor_many(&lits[..8]);
    let majority3 = {
        let ab = m.and(lits[0], lits[1]);
        let ac = m.and(lits[0], lits[2]);
        let bc = m.and(lits[1], lits[2]);
        let or1 = m.or(ab, ac);
        m.or(or1, bc)
    };
    m.protect(parity);
    m.protect(majority3);
    m.collect_garbage();
    let live_before = m.stats().live_nodes;

    // Exhaust a tiny step budget mid-ITE over a deep function.
    m.set_budget(Some(Budget::steps(40)));
    let deep = m.try_ite(parity, majority3, lits[9]).and_then(|seed| {
        let mut f = seed;
        for w in lits.windows(3) {
            let x = m.try_xor(w[0], w[1])?;
            let y = m.try_ite(x, f, w[2])?;
            f = m.try_ite(y, w[1], f)?;
        }
        Ok(f)
    });
    assert!(matches!(deep, Err(BudgetExceeded::Steps { limit: 40 })));

    // Intermediates of the aborted computation are unprotected: live count
    // may have grown, but GC brings it back to exactly the spec footprint.
    let stats_after_abort = m.stats();
    assert!(stats_after_abort.live_nodes >= live_before, "abort must not free protected nodes");
    m.set_budget(None);
    m.collect_garbage();
    assert_eq!(
        m.stats().live_nodes,
        live_before,
        "GC after abort must reclaim exactly the dropped intermediates"
    );

    // The protected spec BDDs still evaluate correctly...
    for bits in 0..256u32 {
        let assign: Vec<bool> = (0..20).map(|i| bits >> i & 1 == 1).collect();
        let expect_parity = ((bits & 0xFF).count_ones() & 1) == 1;
        let a = assign[0] as u8 + assign[1] as u8 + assign[2] as u8;
        assert_eq!(m.eval(parity, &assign), expect_parity);
        assert_eq!(m.eval(majority3, &assign), a >= 2);
    }

    // ...and the manager is fully reusable for new work.
    let fresh = build_deep(&mut m, &vars[..10]);
    assert!(!fresh.is_const() || m.node_count(fresh) > 0);
    let check = m.and(parity, majority3);
    let lhs = m.and(check, fresh);
    let rhs = m.and(fresh, check);
    assert_eq!(lhs, rhs);
}

#[test]
fn set_budget_resets_the_step_window() {
    let mut m = BddManager::new();
    let vars = m.new_vars(12);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();

    m.set_budget(Some(Budget::steps(50)));
    let mut acc = lits[0];
    let mut first_err = None;
    for w in lits.windows(2) {
        let x = match m.try_xor(w[0], w[1]) {
            Ok(x) => x,
            Err(e) => {
                first_err = Some(e);
                break;
            }
        };
        match m.try_ite(x, acc, w[1]) {
            Ok(r) => acc = r,
            Err(e) => {
                first_err = Some(e);
                break;
            }
        }
    }
    assert!(first_err.is_some(), "budget never fired");

    // Re-arming the same budget opens a fresh window: the small op that
    // follows fits comfortably even though cumulative steps exceed 50.
    m.set_budget(Some(Budget::steps(50)));
    let ok = m.try_and(lits[0], lits[1]);
    assert!(ok.is_ok(), "fresh window must allow small operations");
}

#[test]
fn telemetry_accumulates_across_operations() {
    let mut m = BddManager::new();
    let vars = m.new_vars(10);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let before = m.telemetry();
    let f = m.xor_many(&lits);
    let _ = m.and_many(&lits);
    let delta = m.telemetry().since(&before);
    assert!(delta.apply_steps > 0, "apply steps must be charged");
    assert!(delta.cache_misses > 0, "fresh work must miss the cache");
    // Recomputing an identical result is answered from the cache.
    let before_hit = m.telemetry();
    let g = m.xor_many(&lits);
    assert_eq!(f, g);
    let delta_hit = m.telemetry().since(&before_hit);
    assert!(delta_hit.cache_hits > 0, "recomputation must hit the cache");
    // GC passes are counted.
    let before_gc = m.telemetry();
    m.collect_garbage();
    assert_eq!(m.telemetry().since(&before_gc).gc_passes, 1);
}
