//! The model-based harness (`common::model`) over the whole config
//! table: fault-free streams in lockstep across every config, streams
//! with faults on each config alone, concurrent clients, a traced replay,
//! and the harness's checks on itself — its coverage, its determinism and
//! its shrinking.

use common::model::{self, Config, Coverage, Op, CONFIGS, DURABLE, FS_SITES, KINDS, STORE_SITES};

/// Fixed seeds: the same seeds, the same streams, the same object ids.
const SEEDS: [u64; 3] = [2015, 16, 7];
const LEN: usize = 48;

fn fault_free(seed: u64) -> Vec<Op> {
    model::fault_free(seed, LEN)
}

fn configs(concurrent: bool) -> Vec<&'static Config> {
    CONFIGS
        .iter()
        .filter(|c| c.concurrent() == concurrent)
        .collect()
}

#[test]
fn every_config_agrees_with_the_model_and_with_each_other() {
    let configs = configs(false);
    for seed in &SEEDS[..1] {
        let ops = fault_free(*seed);
        model::check("lockstep", &ops, |ops| model::lockstep(&configs, ops));
    }
}

#[test]
fn faults_crashes_and_kills_leave_every_config_recoverable() {
    // Each config takes its own streams, the fault rotation going on from
    // one to the next: together they reach every site. Configs that can
    // crash go first, so the filesystem faults land where they fire.
    let (mut cov, mut streams) = (Coverage::default(), model::Streams::default());
    let mut order = configs(false);
    order.sort_by_key(|c| !c.applies(Op::Crash { site: 0, k: 0 }));
    for (i, config) in order.into_iter().enumerate() {
        for seed in SEEDS {
            let ops = streams.next(seed + 100 * i as u64, LEN);
            cov.extend(model::check(config.name, &ops, |ops| model::run(config, ops)).cov);
        }
    }
    for config in configs(false) {
        for kind in KINDS.iter().filter(|k| applies(config, k)) {
            assert!(
                cov.ops.contains(&(config.name, *kind)),
                "{} never ran {kind}",
                config.name
            );
        }
    }
    for site in FS_SITES.iter().chain(&STORE_SITES).chain(&["tear", "kill"]) {
        assert!(cov.sites.contains(site), "no fault fired at {site}");
    }
    for kind in DURABLE {
        assert!(cov.crashed.contains(kind), "no crash swept {kind}");
    }
}

/// Whether the op kind named `kind` runs on `config`.
fn applies(config: &Config, kind: &str) -> bool {
    model::stream(0, 400)
        .into_iter()
        .find(|op| op.kind() == kind)
        .is_some_and(|op| config.applies(op))
}

#[test]
fn concurrent_clients_get_dense_ids_and_read_what_was_committed() {
    for config in configs(true) {
        let ops = fault_free(SEEDS[0]);
        let run = model::check(config.name, &ops, |ops| model::run(config, ops));
        assert!(run.cov.ops.contains(&(config.name, "commit")));
    }
}

#[test]
fn tracing_changes_no_byte_and_span_shape_is_stable_across_thread_counts() {
    let ops = fault_free(SEEDS[0]);
    for name in ["mem"] {
        let config = model::config(name);
        let untraced = model::check(name, &ops, |ops| model::run(config, ops)).trail;
        let mut shapes = Vec::new();
        for threads in [1, 2, 8] {
            let (trail, shape) =
                model::check(name, &ops, |ops| model::traced(config, ops, threads));
            for (step, (a, b)) in trail.iter().zip(&untraced).enumerate() {
                assert_eq!(
                    (&a.ids, a.bytes),
                    (&b.ids, b.bytes),
                    "{name} t{threads} step {step}"
                );
            }
            for phase in ["commit", "checkout", "optimize", "fsck"] {
                assert!(
                    shape.iter().any(|(path, _)| path == phase),
                    "{name}: no {phase} span"
                );
            }
            shapes.push(shape);
        }
        assert!(
            shapes.windows(2).all(|w| w[0] == w[1]),
            "{name}: span shape moves with threads"
        );
    }
}

#[test]
fn a_seed_is_one_stream_and_one_set_of_object_ids() {
    assert_eq!(model::stream(SEEDS[0], LEN), model::stream(SEEDS[0], LEN));
    assert_ne!(model::stream(SEEDS[0], LEN), model::stream(SEEDS[1], LEN));
    let ops = fault_free(SEEDS[1]);
    let ids = || {
        let run = model::check("mem", &ops, |ops| model::run(model::config("mem"), ops));
        run.trail.into_iter().map(|t| t.ids).collect::<Vec<_>>()
    };
    assert_eq!(ids(), ids());
}

#[test]
fn a_failure_shrinks_to_a_minimal_sequence_printed_as_a_literal() {
    // A planted invariant, "at most one version", over a real run.
    let ops = model::stream(SEEDS[0], 24);
    let failed = std::panic::catch_unwind(|| {
        model::check("planted", &ops, |ops| {
            let run = model::run(model::config("mem"), ops)?;
            match run.model.versions.len() {
                0 | 1 => Ok(()),
                n => Err(model::Failure {
                    config: "mem",
                    step: ops.len(),
                    message: format!("{n} versions"),
                }),
            }
        })
    });
    let message = *failed.unwrap_err().downcast::<String>().unwrap();
    assert!(message.contains("minimal sequence (2 ops)"), "{message}");
    let literal = message.lines().last().unwrap();
    assert!(
        literal.starts_with("&[") && literal.matches("edit: ").count() == 2,
        "{literal}"
    );
}
