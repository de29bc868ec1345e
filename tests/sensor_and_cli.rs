//! Integration tests for the sensor-fidelity scenario axis and the
//! CLI's interaction with the engine defaults.

use therm3d::{ScenarioConfig, SensorProfile, SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_workload::{Benchmark, TraceConfig};

fn run_with_sensor(profile: SensorProfile, secs: f64) -> therm3d::RunResult {
    let exp = Experiment::Exp3;
    let stack = exp.stack();
    let policy = PolicyKind::DvfsTt.build(&stack, 0xACE1);
    let jobs = TraceConfig::new(Benchmark::WebHigh, stack.num_cores(), secs).with_seed(7).stream();
    let cfg = SimConfig::fast(exp)
        .with_scenario(ScenarioConfig::paper_default().with_sensor(profile).with_sensor_seed(99));
    Simulator::new(cfg, policy).run_source(jobs, secs)
}

#[test]
fn ideal_sensor_matches_default_config() {
    let explicit = run_with_sensor(SensorProfile::Ideal, 10.0);
    let exp = Experiment::Exp3;
    let stack = exp.stack();
    let policy = PolicyKind::DvfsTt.build(&stack, 0xACE1);
    let jobs = TraceConfig::new(Benchmark::WebHigh, stack.num_cores(), 10.0).with_seed(7).stream();
    let default = Simulator::new(SimConfig::fast(exp), policy).run_source(jobs, 10.0);
    assert_eq!(explicit, default, "the default sensor is ideal");
}

#[test]
fn noisy_sensor_changes_behaviour_but_stays_deterministic() {
    let noisy = || run_with_sensor(SensorProfile::NoisyQuantized, 15.0);
    let a = noisy();
    let b = noisy();
    assert_eq!(a, b, "noise comes from a seeded stream");
    let clean = run_with_sensor(SensorProfile::Ideal, 15.0);
    assert_ne!(a, clean, "2 °C sensor noise must alter DVFS trigger timing");
    // A different sensor seed gives a different (still deterministic)
    // trajectory — the scenario carries the seed, not global state.
    let reseeded = {
        let exp = Experiment::Exp3;
        let stack = exp.stack();
        let policy = PolicyKind::DvfsTt.build(&stack, 0xACE1);
        let jobs =
            TraceConfig::new(Benchmark::WebHigh, stack.num_cores(), 15.0).with_seed(7).stream();
        let cfg = SimConfig::fast(exp).with_scenario(
            ScenarioConfig::paper_default()
                .with_sensor(SensorProfile::NoisyQuantized)
                .with_sensor_seed(100),
        );
        Simulator::new(cfg, policy).run_source(jobs, 15.0)
    };
    assert_ne!(a, reseeded, "the sensor seed feeds the noise stream");
    // Metrics use true temperatures, so results stay physically sane.
    assert!((0.0..=100.0).contains(&a.hotspot_pct));
    assert_eq!(a.unfinished, 0);
}

#[test]
fn underreading_sensor_worsens_hot_spots() {
    // A sensor that reads 3 °C cool delays every threshold reaction.
    let clean = run_with_sensor(SensorProfile::Ideal, 25.0);
    let offset = run_with_sensor(SensorProfile::OffsetCool3C, 25.0);
    assert!(
        offset.hotspot_pct > clean.hotspot_pct,
        "under-reporting must cost hot-spot time: {:.2}% vs {:.2}%",
        offset.hotspot_pct,
        clean.hotspot_pct
    );
}

#[test]
fn cli_run_matches_library_run() {
    // The CLI's `run` path must produce exactly the library numbers.
    let cmd = therm3d_cli::parse(
        "run --exp exp1 --policy Default --benchmark gzip -t 5 --grid 4 --csv"
            .split_whitespace()
            .map(str::to_owned),
    )
    .expect("valid command line");
    let out = therm3d_cli::execute(&cmd).expect("infallible subcommand");
    let row = out.lines().nth(1).expect("csv row");

    let exp = Experiment::Exp1;
    let stack = exp.stack();
    let policy = PolicyKind::Default.build(&stack, 0xACE1);
    let jobs = TraceConfig::new(Benchmark::Gzip, 8, 5.0).with_seed(2009).stream();
    let mut cfg = SimConfig::paper_default(exp);
    cfg.thermal = cfg.thermal.with_grid(4, 4);
    let r = Simulator::new(cfg, policy).run_source(jobs, 5.0);
    let expected_prefix = format!("Default,EXP-1,false,{:.4}", r.hotspot_pct);
    assert!(row.starts_with(&expected_prefix), "row `{row}` vs `{expected_prefix}`");
}
