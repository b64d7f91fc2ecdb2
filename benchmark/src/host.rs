//! What the harness needs from the host: a clean environment, a CPU that
//! is not being taken away, memory readings, scratch directories inside
//! the checkout, and a seeded generator for input order.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The benchmark's own directory. Goldens, span files and scratch space
/// all live under it, so a run never reads or writes outside its checkout.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where span files and scratch directories go (git-ignored).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Every `PAXSIM_*` variable changes what paxsim does (fault plans, obs,
/// memoization, quick benches); a number measured under one is not the
/// number this benchmark defines.
pub fn paxsim_env_vars() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PAXSIM_"))
        .collect();
    v.sort();
    v
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Share of one CPU this thread got over ≈ 0.1 s of fixed arithmetic. The
/// fastest of 128 equal spins is what a spin costs undisturbed, so 128 of
/// those over the time all 128 took is the share nobody took away — the
/// hypervisor for a neighbour, or another process here. Arithmetic only:
/// it repeats within 1 % on a host whose memory system does not.
fn cpu_share() -> f64 {
    const SPINS: u32 = 128;
    let started = Instant::now();
    let mut fastest = Duration::MAX;
    for _ in 0..SPINS {
        let t = Instant::now();
        let mut y = 1u64;
        for i in 0..4_000_000u64 {
            y = y.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(y);
        fastest = fastest.min(t.elapsed());
    }
    (fastest * SPINS).as_secs_f64() / started.elapsed().as_secs_f64()
}

/// Below this share the CPU counts as taken away (an idle host reads
/// 0.94–0.98, two competing spinners 0.47).
const QUIET_SHARE: f64 = 0.85;
/// Longest one run waits for a quiet CPU: the episodes seen on the host
/// this was sized on (everything at a quarter of its speed) last a minute
/// or two, and a run has to end inside the driver's 180 s.
const RUN_WAIT_S: f64 = 60.0;
/// Longest all runs of one checkout wait within an hour, so that a host
/// that is never quiet costs the driver's time cap a known amount.
const HOUR_WAIT_S: f64 = 300.0;

/// Seconds the ledger `text` (lines of `unix-seconds waited-seconds`)
/// books within the hour before `now`.
fn waited_in_last_hour(text: &str, now: u64) -> f64 {
    text.lines()
        .filter_map(|l| {
            let (at, waited) = l.split_once(' ')?;
            Some((at.parse::<u64>().ok()?, waited.parse::<f64>().ok()?))
        })
        .filter(|(at, _)| now.saturating_sub(*at) < 3600)
        .map(|(_, waited)| waited)
        .sum()
}

/// Called before every timed section of an end-to-end run: while the CPU
/// is being taken away, sleep, within [`RUN_WAIT_S`] for this process and
/// [`HOUR_WAIT_S`] for this checkout (booked in `out/waited.txt`). A
/// section that starts on a disturbed host is a measurement of the host.
/// Returns the seconds waited.
pub fn wait_for_quiet_cpu() -> f64 {
    static RUN_WAITED_MS: AtomicU64 = AtomicU64::new(0);
    let ledger = out_dir().join("waited.txt");
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let booked = std::fs::read_to_string(&ledger).map_or(0.0, |t| waited_in_last_hour(&t, now));
    let before = RUN_WAITED_MS.load(Ordering::Relaxed) as f64 / 1e3;
    let mut waited = 0.0;
    loop {
        let share = cpu_share();
        if share >= QUIET_SHARE || before + waited >= RUN_WAIT_S || booked + waited >= HOUR_WAIT_S {
            break;
        }
        eprintln!("paxbench: this thread gets {share:.2} of a CPU; waiting for a quiet host");
        let t = Instant::now();
        std::thread::sleep(Duration::from_secs(1));
        waited += t.elapsed().as_secs_f64();
    }
    if waited > 0.0 {
        RUN_WAITED_MS.fetch_add((waited * 1e3) as u64, Ordering::Relaxed);
        let booking = std::fs::create_dir_all(out_dir())
            .and_then(|()| {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&ledger)
            })
            .and_then(|mut f| writeln!(f, "{now} {waited:.1}"));
        if let Err(e) = booking {
            eprintln!(
                "paxbench: booking {waited:.1} s of waiting in {}: {e}",
                ledger.display()
            );
        }
    }
    waited
}

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// A fresh directory under `out/`, removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join(format!(
            "tmp-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// SplitMix64: the seeded generator behind input order and fresh keys.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..16).collect();
        let shuffled = |seed| {
            let mut v = base.clone();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(1), shuffled(1));
        assert_ne!(shuffled(1), shuffled(2));
        let mut sorted = shuffled(3);
        sorted.sort_unstable();
        assert_eq!(sorted, base);
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let a = TempDir::new("t").unwrap();
        let b = TempDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.starts_with(bench_dir()));
        drop(a);
        assert!(!kept.exists());
    }

    #[test]
    fn ledger_counts_the_last_hour_only() {
        let text = "1000 50.0\n4000 20.5\nnot a line\n4500 9.5\n";
        assert_eq!(waited_in_last_hour(text, 4599), 80.0);
        assert_eq!(waited_in_last_hour(text, 4600), 30.0);
        assert_eq!(waited_in_last_hour(text, 9000), 0.0);
        assert_eq!(waited_in_last_hour("", 1), 0.0);
    }

    #[test]
    fn cpu_share_is_a_share() {
        let share = cpu_share();
        assert!(share > 0.0 && share <= 1.0, "{share}");
    }

    #[test]
    fn memory_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
    }
}
