//! Regenerates Table I: workload characteristics of the eight benchmarks,
//! plus the offered load the synthetic generator achieves for each.

use therm3d_workload::{Benchmark, JobSource, TraceConfig};

fn main() {
    println!("TABLE I. WORKLOAD CHARACTERISTICS");
    println!(
        "{:<3} {:<12} {:>9} {:>9} {:>9} {:>8} {:>12}",
        "#", "Benchmark", "AvgUtil%", "L2-IMiss", "L2-DMiss", "FPinstr", "gen-offered%"
    );
    for b in Benchmark::ALL {
        let s = b.stats();
        // Verify the synthetic generator reproduces the measured average
        // utilization (600 s, 8 cores, fixed seed).
        let mut jobs = TraceConfig::new(b, 8, 600.0).with_seed(2009).stream();
        let mut work_s = 0.0;
        while let Some(job) = jobs.next_job() {
            work_s += job.work_s;
        }
        let offered = work_s / (600.0 * 8.0) * 100.0;
        println!(
            "{:<3} {:<12} {:>9.2} {:>9.1} {:>9.1} {:>8.1} {:>12.2}",
            b.table_index(),
            b.name(),
            s.avg_utilization * 100.0,
            s.l2_imiss_per_100k,
            s.l2_dmiss_per_100k,
            s.fp_per_100k,
            offered
        );
    }
}
