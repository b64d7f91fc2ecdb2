//! Counter explorer: run one benchmark (optionally paired with a
//! co-runner) on one Table 1 configuration and print the full VTune-style
//! counter set, the derived metrics, and the phase profile.
//!
//! ```text
//! counters --bench cg [--config "HT on -8-2"] [--class T|S|W]
//!          [--pair ft] [--schedule dynamic,8] [--no-prefetch]
//! ```

use paxsim_core::prelude::*;
use paxsim_machine::sim::{simulate, JobSpec};
use paxsim_machine::to_cycles;
use paxsim_nas::{Class, KernelId};
use paxsim_omp::os::{split_jobs, PlacementPolicy};
use paxsim_omp::schedule::Schedule;

struct Args {
    bench: KernelId,
    pair: Option<KernelId>,
    config: HwConfig,
    class: Class,
    schedule: Schedule,
    prefetch: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        bench: KernelId::Cg,
        pair: None,
        config: config_by_name("CMP-based SMP").unwrap(),
        class: Class::T,
        schedule: Schedule::Static,
        prefetch: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => args.bench = it.next().expect("--bench NAME").parse().expect("benchmark"),
            "--pair" => {
                args.pair = Some(it.next().expect("--pair NAME").parse().expect("benchmark"))
            }
            "--config" => {
                let name = it.next().expect("--config NAME");
                args.config = config_by_name(&name)
                    .unwrap_or_else(|| panic!("unknown configuration '{name}'"));
            }
            "--class" => {
                args.class = match it.next().as_deref() {
                    Some("T") | Some("t") => Class::T,
                    Some("S") | Some("s") => Class::S,
                    Some("W") | Some("w") => Class::W,
                    other => panic!("unknown class {other:?}"),
                }
            }
            "--schedule" => {
                args.schedule = it
                    .next()
                    .expect("--schedule S")
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("counters: {e}");
                        std::process::exit(2);
                    })
            }
            "--no-prefetch" => args.prefetch = false,
            other => panic!("unknown argument '{other}'"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut machine = paxsim_machine::config::MachineConfig::paxville_smp();
    machine.prefetch = args.prefetch;
    let store = TraceStore::new();

    let jobs: Vec<JobSpec> = match args.pair {
        None => {
            let trace = store.get(TraceKey {
                kernel: args.bench,
                class: args.class,
                nthreads: args.config.threads,
                schedule: args.schedule,
            });
            vec![JobSpec::pinned(trace, args.config.contexts.clone())]
        }
        Some(pair) => {
            assert!(
                args.config.threads.is_multiple_of(2),
                "{} cannot host two programs",
                args.config.name
            );
            let halves = split_jobs(&args.config.contexts, 2, PlacementPolicy::Spread);
            [args.bench, pair]
                .into_iter()
                .zip(halves)
                .map(|(k, half)| {
                    let trace = store.get(TraceKey {
                        kernel: k,
                        class: args.class,
                        nthreads: half.len(),
                        schedule: args.schedule,
                    });
                    JobSpec::pinned(trace, half)
                })
                .collect()
        }
    };

    let out = simulate(&machine, jobs);
    println!(
        "machine: {} | class {} | schedule {:?} | prefetch {}",
        args.config.name, args.class, args.schedule, args.prefetch
    );
    println!("wall cycles: {}\n", out.wall_cycles);

    for job in &out.jobs {
        let c = &job.counters;
        let m = c.metrics();
        println!("== {} — {} cycles ==", job.name, job.cycles);
        println!("  instructions {:>12}   CPI {:.3}", c.instructions, m.cpi);
        println!(
            "  L1D  {:>11} access {:>10} miss ({:.2}%)",
            c.l1d_access,
            c.l1d_miss,
            100.0 * m.l1_miss_rate
        );
        println!(
            "  L2   {:>11} access {:>10} miss ({:.2}%)",
            c.l2_access,
            c.l2_miss,
            100.0 * m.l2_miss_rate
        );
        println!(
            "  TC   {:>11} access {:>10} miss ({:.2}%)",
            c.tc_access,
            c.tc_miss,
            100.0 * m.tc_miss_rate
        );
        println!(
            "  ITLB {:>11} access {:>10} miss ({:.3}%)   DTLB {} misses (ld {}, st {})",
            c.itlb_access,
            c.itlb_miss,
            100.0 * m.itlb_miss_rate,
            c.dtlb_miss(),
            c.dtlb_miss_load,
            c.dtlb_miss_store
        );
        println!(
            "  branches {:>9} ({:.2}% predicted)   coherence invalidations {}",
            c.branches,
            100.0 * m.branch_prediction_rate,
            c.coherence_invalidations
        );
        println!(
            "  bus: {} demand reads, {} writes, {} prefetches ({:.1}% prefetching)",
            c.bus_demand_read,
            c.bus_write,
            c.bus_prefetch,
            100.0 * m.pct_prefetch_bus
        );
        println!(
            "  stalls (cycles): mem {} | branch {} | tc {} | tlb {} | wb {} | issue {} — {:.1}% of execution; sync {}",
            to_cycles(c.ticks_stall_mem),
            to_cycles(c.ticks_stall_branch),
            to_cycles(c.ticks_stall_tc),
            to_cycles(c.ticks_stall_tlb),
            to_cycles(c.ticks_stall_wb),
            to_cycles(c.ticks_stall_issue),
            100.0 * m.pct_stalled,
            c.sync_cycles()
        );
        println!();
        println!("{}", phases_text(&job.name, job, 8));
    }
}
