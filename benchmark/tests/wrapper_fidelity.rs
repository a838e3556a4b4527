//! The benchmark must time what users run: for every workload, at smoke
//! scale, the decomposed build path of `harness::run_rep` yields the same
//! outcome as `ExperimentConfig::run()` on the same config and seed.

use spider_benchmark::alloc::CountingAlloc;
use spider_benchmark::harness::{check_rep, run_rep, Inputs};
use spider_benchmark::spans::Spans;
use spider_benchmark::workloads::{workload, NAMES, SCENARIO_SEED};

#[test]
fn decomposed_build_matches_experiment_config_run() {
    let alloc = CountingAlloc::new();
    for name in NAMES {
        // With the traffic drawn from the scenario seed, a repetition is
        // exactly `ExperimentConfig::run()`.
        let def = workload(name, SCENARIO_SEED, true).expect("known workload");
        let rep = run_rep(&def, 0, &alloc, &mut Spans::new(false)).expect("benchmark path runs");
        let ours = &rep.report;
        let theirs = def.cfg.run().expect("ExperimentConfig::run runs");
        assert!(ours.attempted_payments > 0, "{name}: nothing attempted");
        assert_eq!(ours.scheme, theirs.scheme, "{name}");
        assert_eq!(ours.attempted_payments, theirs.attempted_payments, "{name}");
        assert_eq!(ours.completed_payments, theirs.completed_payments, "{name}");
        assert_eq!(ours.attempted_volume, theirs.attempted_volume, "{name}");
        assert_eq!(ours.delivered_volume, theirs.delivered_volume, "{name}");
        assert_eq!(ours.units_locked, theirs.units_locked, "{name}");
        assert_eq!(ours.units_failed, theirs.units_failed, "{name}");
        assert_eq!(ours.units_dropped, theirs.units_dropped, "{name}");
        assert_eq!(ours.drops_by_reason, theirs.drops_by_reason, "{name}");
        assert_eq!(ours.retries, theirs.retries, "{name}");
        assert_eq!(ours.admission_deferred, theirs.admission_deferred, "{name}");
        assert_eq!(ours.topology_events, theirs.topology_events, "{name}");
        assert_eq!(ours.fault_events, theirs.fault_events, "{name}");
        assert_eq!(ours.faults_injected, theirs.faults_injected, "{name}");
        assert_eq!(ours.completion_times, theirs.completion_times, "{name}");

        // Another `--seed` redraws the traffic and nothing else; every
        // repetition passes its checks and reproduces its digest.
        let other = workload(name, 7, true).expect("known workload");
        assert_eq!(
            format!("{:?}", other.cfg),
            format!("{:?}", def.cfg),
            "{name}: the scenario must not depend on --seed"
        );
        let other_rep = run_rep(&other, 0, &alloc, &mut Spans::new(false)).expect("runs");
        assert_ne!(
            other_rep.report.attempted_volume, ours.attempted_volume,
            "{name}: --seed did not change the traffic"
        );
        for (def, rep) in [(&def, &rep), (&other, &other_rep)] {
            let inputs = Inputs::build(def).expect("inputs build");
            assert_eq!(
                check_rep(rep, inputs.due, None),
                Vec::<String>::new(),
                "{name}"
            );
            let again = run_rep(def, 1, &alloc, &mut Spans::new(false)).expect("second repetition");
            assert_eq!(
                check_rep(&again, inputs.due, Some(rep.digest())),
                Vec::<String>::new(),
                "{name}"
            );
        }
    }
}

#[test]
fn smoke_workloads_exercise_their_layers() {
    let alloc = CountingAlloc::new();
    let run = |name: &str| {
        let def = workload(name, 42, true).expect("known workload");
        run_rep(&def, 0, &alloc, &mut Spans::new(false)).expect("runs")
    };
    let churn = run("ripple1k-churn-waterfilling");
    assert!(churn.report.topology_events > 0, "churn schedule is empty");
    let isp = run("isp-stress-observed");
    assert!(isp.obs.trace_events > 0, "trace sink is off");
    assert!(isp.obs.invariant_audits > 0, "invariant monitor never ran");
    assert!(isp.report.profile.enabled, "profiler is off");
    assert!(isp.report.faults_injected > 0, "no fault was injected");
    let fifo = run("ripple-fifo-protocol");
    assert!(
        fifo.slab.units_injected > 0,
        "queueing engine never injected"
    );
}
