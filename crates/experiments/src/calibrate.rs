//! Calibration tool: grid-searches each profile's WRPKRU-density lever
//! (call rate for SS, pointer-write rate for CPI) against the Fig. 10
//! target density, printing the best rate per benchmark. The results are
//! baked into `specmpk_workloads::profile::standard_profiles`.

use specmpk_core::PolicyRef;
use specmpk_ooo::{Core, SimConfig};
use specmpk_trace::Json;
use specmpk_workloads::{standard_profiles, Scheme, Workload, WorkloadProfile};

/// Fig. 10-style target WRPKRU / kilo-instruction per benchmark.
fn target(name: &str, scheme: Scheme) -> f64 {
    match (name, scheme) {
        ("520.omnetpp_r", Scheme::ShadowStack) => 25.0,
        ("500.perlbench_r", Scheme::ShadowStack) => 18.0,
        ("502.gcc_r", Scheme::ShadowStack) => 15.0,
        ("541.leela_r", Scheme::ShadowStack) => 13.0,
        ("531.deepsjeng_r", Scheme::ShadowStack) => 11.0,
        ("526.blender_r", Scheme::ShadowStack) => 8.0,
        ("523.xalancbmk_r", Scheme::ShadowStack) => 6.0,
        ("525.x264_r", Scheme::ShadowStack) => 2.5,
        ("557.xz_r", Scheme::ShadowStack) => 1.0,
        ("505.mcf_r", Scheme::ShadowStack) => 0.3,
        ("453.povray", Scheme::Cpi) => 12.0,
        ("471.omnetpp", Scheme::Cpi) => 8.0,
        ("400.perlbench", Scheme::Cpi) => 5.0,
        ("483.xalancbmk", Scheme::Cpi) => 3.5,
        ("445.gobmk", Scheme::Cpi) => 1.5,
        ("429.mcf", Scheme::Cpi) => 0.15,
        _ => 1.0,
    }
}

fn measure(profile: WorkloadProfile) -> f64 {
    let w = Workload::from_profile(profile);
    let p = w.build_protected();
    let mut cfg = SimConfig::with_policy(PolicyRef::NONSECURE_SPEC);
    cfg.max_instructions = 150_000;
    let mut core = Core::new(cfg, &p);
    let r = core.run();
    r.stats.wrpkru_per_kilo_instr()
}

/// Runs the grid search, prints the best rate per benchmark and returns
/// the calibration rows.
pub(crate) fn calibrate() -> Json {
    let grid: Vec<f64> = vec![
        0.002, 0.004, 0.008, 0.015, 0.025, 0.04, 0.06, 0.09, 0.13, 0.18, 0.25, 0.35, 0.5, 0.7, 0.9,
    ];
    println!(
        "{:<20} {:>8} {:>9} {:>6} {:>9}",
        "benchmark", "target", "best rate", "seed", "density"
    );
    // Every grid point of every profile is one independent simulation
    // cell; fan them all out at once, then reduce per profile in the same
    // (seed offset, rate) order as the former nested loops, so strict-<
    // tie-breaking picks the identical winner.
    let profiles = standard_profiles();
    let mut cells: Vec<(usize, u64, f64)> = Vec::new();
    for (pi, base) in profiles.iter().enumerate() {
        let seed_offsets: &[u64] = if base.scheme == Scheme::Cpi { &[0, 1, 2, 3] } else { &[0] };
        for &off in seed_offsets {
            for &rate in &grid {
                cells.push((pi, off, rate));
            }
        }
    }
    let densities = specmpk_par::par_map(cells.clone(), |(pi, off, rate)| {
        let base = profiles[pi];
        let mut p = base;
        p.seed = base.seed + off * 1000;
        match base.scheme {
            Scheme::ShadowStack => p.call_rate = rate,
            Scheme::Cpi => p.fn_ptr_write_rate = rate,
        }
        measure(p)
    });
    let mut results = Vec::new();
    let mut points = cells.iter().zip(&densities).peekable();
    for (pi, base) in profiles.iter().enumerate() {
        let goal = target(base.name, base.scheme);
        let mut best = (f64::INFINITY, 0.0, 0u64, 0.0);
        while let Some(&(&(ci, off, rate), &d)) = points.peek() {
            if ci != pi {
                break;
            }
            points.next();
            let err = (d.max(1e-3) / goal).ln().abs();
            if err < best.0 {
                best = (err, rate, base.seed + off * 1000, d);
            }
        }
        println!(
            "{:<20} {:>8.2} {:>9.3} {:>6} {:>9.2}",
            format!("{} ({})", base.name, base.scheme.label()),
            goal,
            best.1,
            best.2,
            best.3
        );
        results.push(
            Json::object()
                .with("benchmark", base.name)
                .with("scheme", base.scheme.label())
                .with("target_density", goal)
                .with("best_rate", best.1)
                .with("seed", best.2)
                .with("density", best.3),
        );
    }
    Json::Arr(results)
}
