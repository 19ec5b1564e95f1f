//! Input-permutation invariance of the selection policies.
//!
//! The issue queue hands candidates to `SelectPolicy::prioritize` in the
//! order of its positions — an implementation detail: an entry takes the
//! lowest free position at dispatch, so the order depends on which
//! entries issued or were squashed before it arrived, not on its age.
//! The simulated schedule must not depend on that order: every policy's
//! sort key embeds the unique sequence number, so the prioritized order
//! is a total function of the candidate *set*. This regression test pins
//! that property by shuffling each candidate set many ways and asserting
//! the prioritized output never changes.

use tv_core::{CriticalityDrivenSelect, FaultyFirstSelect};
use tv_uarch::{AgeBasedSelect, IssueCandidate, SelectPolicy};
use tv_workloads::OpClass;

fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle(cands: &mut [IssueCandidate], s: &mut u64) {
    for i in (1..cands.len()).rev() {
        let j = (splitmix(s) as usize) % (i + 1);
        cands.swap(i, j);
    }
}

/// A random candidate set with unique, non-contiguous sequence numbers and
/// every faulty/critical combination represented over time.
fn random_set(s: &mut u64, len: usize) -> Vec<IssueCandidate> {
    let mut seq = 0u64;
    (0..len)
        .map(|_| {
            seq += 1 + splitmix(s) % 7; // unique, gappy
            IssueCandidate {
                slot: seq as usize,
                seq,
                timestamp: (seq % 64) as u8,
                faulty: splitmix(s) % 3 == 0,
                critical: splitmix(s) % 3 == 0,
                op: OpClass::IntAlu,
            }
        })
        .collect()
}

fn assert_permutation_invariant(policy: &mut dyn SelectPolicy) {
    let mut s = 0x5eed_0000 ^ policy.name().len() as u64;
    for trial in 0..64 {
        let len = 1 + (splitmix(&mut s) as usize) % 24;
        let set = random_set(&mut s, len);

        let mut reference = set.clone();
        policy.prioritize(&mut reference);

        for round in 0..16 {
            let mut shuffled = set.clone();
            shuffle(&mut shuffled, &mut s);
            policy.prioritize(&mut shuffled);
            assert_eq!(
                shuffled,
                reference,
                "{} order depends on input order (trial {trial}, round {round})",
                policy.name(),
            );
        }
    }
}

#[test]
fn abs_is_input_permutation_invariant() {
    assert_permutation_invariant(&mut AgeBasedSelect::new());
}

#[test]
fn ffs_is_input_permutation_invariant() {
    assert_permutation_invariant(&mut FaultyFirstSelect::new());
}

#[test]
fn cds_is_input_permutation_invariant() {
    assert_permutation_invariant(&mut CriticalityDrivenSelect::new());
}
