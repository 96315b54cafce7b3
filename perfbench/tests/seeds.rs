//! Seed plumbing: a seed fixes the generated configs and every pass of
//! them digests the same; another seed generates other configs.

use std::path::PathBuf;

use krisp_obs::Obs;
use krisp_perfbench::check;
use krisp_perfbench::trace::Tracer;
use krisp_perfbench::workload::{plan, run_op, setup, Workload};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_seed_fixes_the_configs_and_another_seed_changes_them() {
    for w in Workload::ALL {
        let env = setup(
            w,
            7,
            &scratch(&format!("seeds-{}", w.name())),
            &mut Tracer::off(),
        );
        let a = format!("{:?}", plan(w, 7, &env));
        let b = format!("{:?}", plan(w, 7, &env));
        let c = format!("{:?}", plan(w, 8, &env));
        assert_eq!(a, b, "{}: same seed, same configs", w.name());
        assert_ne!(a, c, "{}: another seed, other configs", w.name());
    }
}

#[test]
fn every_pass_of_a_seed_has_the_same_digest() {
    let w = Workload::OverloadEmulated;
    let env = setup(w, 11, &scratch("digest"), &mut Tracer::off());
    let ops = plan(w, 11, &env);
    let pass = || -> Vec<u64> {
        ops.iter()
            .take(2)
            .map(|op| check::digest(&run_op(op, &env, Obs::disabled())))
            .collect()
    };
    let first = pass();
    assert_eq!(check::pass_digest(&first), check::pass_digest(&pass()));
}
