//! The output checker must be able to fail: each kind of wrong output
//! turns the verdict incorrect.

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_obs::Obs;
use krisp_perfbench::check::{self, Verdict};
use krisp_perfbench::reference;
use krisp_perfbench::workload::Output;
use krisp_server::{
    oracle_perfdb, run_server, run_server_observed, ExperimentResult, ServerConfig,
};
use krisp_sim::SimDuration;

fn small_config() -> ServerConfig {
    let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 32);
    cfg.warmup = Some(SimDuration::from_millis(20));
    cfg.duration = Some(SimDuration::from_millis(100));
    cfg
}

fn small_run() -> ExperimentResult {
    let cfg = small_config();
    run_server(&cfg, &oracle_perfdb(&cfg.models, &[32]))
}

fn verdict(outcome: Result<(), String>) -> Verdict {
    let mut v = Verdict::default();
    v.note(outcome);
    v
}

#[test]
fn a_clean_result_passes() {
    let out = Output::Server(small_run());
    assert_eq!(check::check_output(&out), Ok(()));
    let again = check::digest(&Output::Server(small_run()));
    assert!(verdict(check::check_digest("clean", check::digest(&out), again)).correct());
}

#[test]
fn one_perturbed_f64_is_caught_by_the_digest() {
    let r = small_run();
    let want = check::digest(&Output::Server(r.clone()));
    let mut energy = r.clone();
    energy.energy_j = f64::from_bits(energy.energy_j.to_bits() + 1);
    let mut latency = r;
    latency.workers[1].latencies_ms[3] =
        f64::from_bits(latency.workers[1].latencies_ms[3].to_bits() ^ 1);
    for bad in [energy, latency] {
        let got = check::digest(&Output::Server(bad));
        assert!(!verdict(check::check_digest("perturbed", want, got)).correct());
    }
}

#[test]
fn a_books_imbalance_is_caught() {
    let mut r = small_run();
    r.flow
        .as_mut()
        .expect("server runs keep flow books")
        .completed += 1;
    let v = verdict(check::check_output(&Output::Server(r)));
    assert!(!v.correct());
    assert!(v.problems()[0].contains("books"), "{:?}", v.problems());
}

#[test]
fn an_unplanned_error_is_caught() {
    let mut r = small_run();
    r.robustness
        .as_mut()
        .expect("server runs keep robustness books")
        .errors
        .push("stale perfdb entry".into());
    assert!(!verdict(check::check_output(&Output::Server(r))).correct());
}

#[test]
fn the_goldens_replay_and_a_one_byte_mismatch_is_caught() {
    for outcome in check::golden_replay(&check::goldens_dir()) {
        assert_eq!(outcome, Ok(()));
    }
    let name = "cluster_clean.json";
    let fixture = std::fs::read(check::goldens_dir().join(name)).expect("fixture exists");
    let produced = String::from_utf8(fixture.clone()).expect("fixtures are UTF-8");
    assert_eq!(check::check_golden(name, &produced, &fixture), Ok(()));
    let mut flipped = fixture;
    let last_digit = flipped
        .iter()
        .rposition(u8::is_ascii_digit)
        .expect("a fixture holds numbers");
    flipped[last_digit] = if flipped[last_digit] == b'9' {
        b'8'
    } else {
        flipped[last_digit] + 1
    };
    assert!(!verdict(check::check_golden(name, &produced, &flipped)).correct());
}

#[test]
fn the_reference_replay_agrees_with_the_engine_on_a_recorded_run() {
    let cfg = small_config();
    let db = oracle_perfdb(&cfg.models, &[32]);
    let (obs, sink) = Obs::recording(1 << 20);
    let r = run_server_observed(&cfg, &db, obs);
    assert_eq!(
        r,
        run_server(&cfg, &db),
        "recording must not change the run"
    );
    let events: Vec<_> = sink.lock().unwrap().drain();
    let traces = [(
        ModelKind::Squeezenet,
        krisp_models::generate_trace(
            ModelKind::Squeezenet,
            &krisp_models::TraceConfig::with_batch(32),
        ),
    )]
    .into_iter()
    .collect();
    let stream = reference::kernel_stream(&events, &cfg.models, &traces);
    let stats =
        reference::replay(&stream, cfg.sharing_penalty, true).expect("engine matches reference");
    assert_eq!(stats.kernels, stream.len() as u64);
    assert_eq!(stats.completions, stats.kernels);
}
