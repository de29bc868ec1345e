//! A served campaign in one process: the coordinator on one thread,
//! `workers` in-process `work()` clients over loopback.

use therm3d_coord::{work, ServeOptions, Server, WorkOptions};
use therm3d_sweep::{CacheStore, SweepReport, SweepSpec};

/// What a served campaign returned.
pub struct Served {
    /// The coordinator's assembled report.
    pub report: SweepReport,
    /// Leases the workers completed work under, summed.
    pub leases: usize,
    /// Cells per lease the coordinator granted.
    pub lease_cells: usize,
}

/// Serves `spec` on an OS-assigned loopback port to `workers` clients,
/// each running its leases on one runner thread, and writes every
/// result into `cache`.
///
/// A client that fails would leave the coordinator waiting forever for
/// its cells, so a client failure ends the process with an error
/// instead of returning.
///
/// # Errors
///
/// The coordinator cannot bind or fails to assemble the report.
pub fn serve(spec: &SweepSpec, cache: &mut CacheStore, workers: usize) -> Result<Served, String> {
    let server = Server::bind(spec, "127.0.0.1:0", &ServeOptions::default())?;
    let addr = server.local_addr().to_string();
    let lease_cells = server.lease_cells();
    let opts = WorkOptions { threads: Some(1), ..WorkOptions::default() };
    std::thread::scope(|scope| {
        let coordinator = scope.spawn(move || server.run(Some(cache), None));
        let clients: Vec<_> = (0..workers).map(|_| scope.spawn(|| work(&addr, &opts))).collect();
        let mut leases = 0;
        for client in clients {
            match client.join() {
                Ok(Ok(summary)) => leases += summary.leases,
                Ok(Err(e)) => abort(&format!("a campaign worker failed: {e}")),
                Err(_) => abort("a campaign worker panicked"),
            }
        }
        let report = coordinator.join().unwrap_or_else(|_| abort("the coordinator panicked"))?;
        Ok(Served { report, leases, lease_cells })
    })
}

fn abort(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    std::process::exit(1);
}
