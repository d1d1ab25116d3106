//! The visitor form of `paths_from_fanin` against the list the function
//! built before it had one: the same paths in the same order under the
//! same cap, on `c17`, `c432_like` and random netlists, for every signal
//! as the site and for caps that truncate the backward segments, the
//! forward segments and the product.

use proptest::prelude::*;
use pulsar_logic::{
    c17, c432_like, paths_from_fanin, random_netlist, visit_paths_from_fanin, BenchParams, Netlist,
    Path, PathStep, SignalId,
};

/// The segment-product enumeration as it was written before the visitor:
/// collect the backward segments, then the forward ones, then build every
/// combined path, each capped at `limit`.
fn reference(nl: &Netlist, site: SignalId, limit: usize) -> Vec<Path> {
    fn back_dfs(
        nl: &Netlist,
        at: SignalId,
        stack: &mut Vec<PathStep>,
        out: &mut Vec<(SignalId, Vec<PathStep>)>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        match nl.driver_id(at) {
            None => {
                let mut steps = stack.clone();
                steps.reverse();
                out.push((at, steps));
            }
            Some(g) => {
                for (pin, &inp) in nl.gate(g).inputs.iter().enumerate() {
                    stack.push(PathStep { gate: g, pin });
                    back_dfs(nl, inp, stack, out, limit);
                    stack.pop();
                }
            }
        }
    }
    fn fwd_dfs(
        nl: &Netlist,
        is_output: &[bool],
        at: SignalId,
        stack: &mut Vec<PathStep>,
        out: &mut Vec<Vec<PathStep>>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        if is_output[at.index()] {
            out.push(stack.clone());
        }
        for &(g, pin) in &nl.fanouts()[at.index()] {
            stack.push(PathStep { gate: g, pin });
            fwd_dfs(nl, is_output, nl.gate(g).output, stack, out, limit);
            stack.pop();
        }
    }
    let mut back = Vec::new();
    back_dfs(nl, site, &mut Vec::new(), &mut back, limit);
    let mut is_output = vec![false; nl.signal_count()];
    for &o in nl.outputs() {
        is_output[o.index()] = true;
    }
    let mut fwd = Vec::new();
    fwd_dfs(nl, &is_output, site, &mut Vec::new(), &mut fwd, limit);
    let mut result = Vec::new();
    'outer: for (pi, bsteps) in &back {
        for fsteps in &fwd {
            if result.len() >= limit {
                break 'outer;
            }
            let mut steps = bsteps.clone();
            steps.extend_from_slice(fsteps);
            result.push(Path { from: *pi, steps });
        }
    }
    result
}

fn visited(nl: &Netlist, site: SignalId, limit: usize) -> Vec<Path> {
    let mut out = Vec::new();
    visit_paths_from_fanin(nl, site, limit, |p| {
        out.push(p.clone());
        Ok::<(), ()>(())
    })
    .expect("the visitor never fails");
    out
}

/// Every signal of `nl` as the site, at each cap in `limits`.
fn matches_reference(nl: &Netlist, limits: &[usize]) -> usize {
    let mut paths = 0;
    for s in 0..nl.signal_count() {
        let site = SignalId::from_index(s);
        for &limit in limits {
            let expect = reference(nl, site, limit);
            assert_eq!(visited(nl, site, limit), expect, "site {s}, cap {limit}");
            assert_eq!(
                paths_from_fanin(nl, site, limit),
                expect,
                "site {s}, cap {limit}"
            );
            paths += expect.len();
        }
    }
    paths
}

#[test]
fn visitor_matches_the_list_on_c17() {
    assert!(matches_reference(&c17(), &[0, 1, 2, 3, 5, 512]) > 0);
}

#[test]
fn visitor_matches_the_list_on_c432_like() {
    // 512 is the test generator's default cap; 7 and 40 truncate.
    assert!(matches_reference(&c432_like(), &[1, 7, 40, 512]) > 0);
}

#[test]
fn visitor_stops_at_the_first_error() {
    let nl = c432_like();
    let site = nl.gates()[40].output;
    let all = visited(&nl, site, 512);
    assert!(all.len() > 3, "the site needs several paths");
    let mut seen = 0;
    let stopped = visit_paths_from_fanin(&nl, site, 512, |_| {
        seen += 1;
        if seen == 3 {
            Err("stop")
        } else {
            Ok(())
        }
    });
    assert_eq!(stopped, Err("stop"));
    assert_eq!(seen, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn visitor_matches_the_list_on_random_netlists(
        seed in 0u64..10_000,
        inputs in 2usize..8,
        gates in 4usize..40,
        layers in 1usize..7,
        limit in 1usize..64,
    ) {
        let nl = random_netlist(
            &BenchParams { inputs, gates, outputs: 3.min(gates), layers },
            seed,
        );
        matches_reference(&nl, &[limit, 512]);
    }
}
