//! The hardware stream prefetcher of one core.
//!
//! Paxville's L2 prefetcher watches demand-miss line addresses, detects
//! ascending/descending streams within 4 KB regions, and runs a few lines
//! ahead of each stream — but only when the front-side bus has headroom,
//! because speculative traffic must yield to demand traffic. The paper uses
//! "% prefetching bus accesses" as its proxy for leftover bus capacity, so
//! this throttling behaviour is central to reproducing Figures 2 and 4.

/// One tracked stream.
#[derive(Debug, Clone, Copy)]
struct Stream {
    /// 4 KB-region id (line address ≫ 6).
    region: u64,
    last_line: u64,
    /// +1 or −1 once established; 0 while training.
    dir: i64,
    /// Next line the prefetcher would fetch.
    next: u64,
    stamp: u64,
}

/// Per-core stream detector. [`StreamPrefetcher::on_demand_miss`] returns
/// the line addresses worth prefetching; the engine decides (based on bus
/// backlog) whether to actually issue them.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    streams: Vec<Stream>,
    max_streams: usize,
    degree: usize,
    clock: u64,
}

/// Lines per 4 KB region (64 B lines).
const LINES_PER_REGION: u64 = 64;

impl StreamPrefetcher {
    pub fn new(max_streams: usize, degree: usize) -> Self {
        assert!(max_streams >= 1 && degree >= 1);
        Self {
            streams: Vec::with_capacity(max_streams),
            max_streams,
            degree,
            clock: 0,
        }
    }

    /// Observe a demand L2 miss at `line` (tagged line address). Returns up
    /// to `degree` candidate prefetch lines when the access extends an
    /// established stream.
    pub fn on_demand_miss(&mut self, line: u64, out: &mut Vec<u64>) {
        self.clock += 1;
        let clock = self.clock;
        let region = line / LINES_PER_REGION;
        let degree = self.degree as u64;

        if let Some(s) = self
            .streams
            .iter_mut()
            .find(|s| s.region == region || s.region + 1 == region || region + 1 == s.region)
        {
            s.stamp = clock;
            let delta = line as i64 - s.last_line as i64;
            if s.dir == 0 {
                // Training: a second nearby miss in a consistent direction
                // establishes the stream.
                if delta.abs() <= 4 && delta != 0 {
                    s.dir = delta.signum();
                    s.next = (line as i64 + s.dir) as u64;
                }
            }
            s.last_line = line;
            s.region = region;
            if s.dir != 0 {
                // Keep the prefetch frontier `degree` lines ahead of the
                // demand stream.
                let target = line as i64 + s.dir * degree as i64;
                let mut n = s.next as i64;
                // Re-anchor if the demand stream jumped past the frontier.
                if (s.dir > 0 && n <= line as i64) || (s.dir < 0 && n >= line as i64) {
                    n = line as i64 + s.dir;
                }
                while (s.dir > 0 && n <= target) || (s.dir < 0 && n >= target) {
                    if n >= 0 {
                        out.push(n as u64);
                    }
                    n += s.dir;
                    if out.len() >= self.degree {
                        break;
                    }
                }
                s.next = n as u64;
            }
            return;
        }

        // New stream (allocate / replace LRU).
        let s = Stream {
            region,
            last_line: line,
            dir: 0,
            next: line + 1,
            stamp: clock,
        };
        if self.streams.len() < self.max_streams {
            self.streams.push(s);
        } else {
            let (idx, _) = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .expect("streams non-empty");
            self.streams[idx] = s;
        }
    }

    /// Number of currently tracked streams (diagnostics).
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Canonical replay-relevant snapshot (see `crate::memo`): streams in
    /// their exact table order (the adjacency search scans in order and
    /// more than one stream can match, so order is behavioral) with
    /// absolute stamps reduced to LRU ranks — replacement only compares
    /// stamps among live streams.
    pub(crate) fn canon(&self) -> PrefetcherCanon {
        let mut by_age: Vec<usize> = (0..self.streams.len()).collect();
        by_age.sort_by_key(|&i| self.streams[i].stamp);
        let mut rank = vec![0u64; self.streams.len()];
        for (r, &i) in by_age.iter().enumerate() {
            rank[i] = (r + 1) as u64;
        }
        PrefetcherCanon {
            streams: self
                .streams
                .iter()
                .zip(&rank)
                .map(|(s, &r)| (s.region, s.last_line, s.dir, s.next, r))
                .collect(),
        }
    }

    pub(crate) fn restore(&mut self, c: &PrefetcherCanon) {
        self.streams = c
            .streams
            .iter()
            .map(|&(region, last_line, dir, next, r)| Stream {
                region,
                last_line,
                dir,
                next,
                stamp: r,
            })
            .collect();
        // Fresh stamps must exceed every rank.
        self.clock = self.streams.len() as u64;
    }
}

/// See [`StreamPrefetcher::canon`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PrefetcherCanon {
    /// (region, last_line, dir, next, age rank 1..=n) per stream.
    streams: Vec<(u64, u64, i64, u64, u64)>,
}

#[cfg(test)]
impl PrefetcherCanon {
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of_val(&*self.streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn misses(pf: &mut StreamPrefetcher, lines: impl IntoIterator<Item = u64>) -> Vec<u64> {
        let mut out = Vec::new();
        for l in lines {
            pf.on_demand_miss(l, &mut out);
        }
        out
    }

    #[test]
    fn ascending_stream_detected() {
        let mut pf = StreamPrefetcher::new(8, 3);
        let out = misses(&mut pf, [100, 101, 102]);
        assert!(!out.is_empty(), "stream should be established by 2nd miss");
        assert!(out.iter().all(|&l| l > 102 || (l > 101 && l <= 105)));
        // Prefetches run ahead of the last demand line.
        assert!(out.iter().max().unwrap() <= &105);
    }

    #[test]
    fn descending_stream_detected() {
        let mut pf = StreamPrefetcher::new(8, 2);
        let out = misses(&mut pf, [200, 199, 198]);
        assert!(!out.is_empty());
        assert!(
            out.iter().all(|&l| l < 199),
            "prefetch below stream: {out:?}"
        );
    }

    #[test]
    fn random_misses_no_prefetch() {
        let mut pf = StreamPrefetcher::new(8, 3);
        // Far-apart regions: never trains.
        let out = misses(&mut pf, [10_000, 50_000, 90_000, 130_000]);
        assert!(out.is_empty(), "no stream should form: {out:?}");
    }

    #[test]
    fn frontier_does_not_duplicate() {
        let mut pf = StreamPrefetcher::new(8, 2);
        let mut out = Vec::new();
        for l in 100..140u64 {
            pf.on_demand_miss(l, &mut out);
        }
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.len(), "duplicate prefetches: {out:?}");
    }

    #[test]
    fn stream_table_replacement() {
        let mut pf = StreamPrefetcher::new(2, 2);
        misses(&mut pf, [100, 101]); // stream A established
        misses(&mut pf, [10_000]); // stream B training
        misses(&mut pf, [20_000]); // stream C replaces LRU (A)
        assert_eq!(pf.active_streams(), 2);
        // Stream A's region was evicted; restarting it trains from scratch.
        let out = misses(&mut pf, [102]);
        assert!(out.is_empty(), "evicted stream must retrain: {out:?}");
    }

    #[test]
    fn crosses_region_boundary() {
        let mut pf = StreamPrefetcher::new(8, 2);
        // Lines 62..66 span a 64-line region boundary; the stream must
        // survive the crossing (adjacent-region match).
        let mut out = Vec::new();
        for l in 60..70u64 {
            pf.on_demand_miss(l, &mut out);
        }
        assert!(
            out.iter().any(|&l| l >= 64),
            "prefetching should continue into the next region: {out:?}"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Prefetch candidates for a strictly ascending stream are
            /// always ahead of the latest demand miss.
            #[test]
            fn ascending_prefetch_ahead(start in 0u64..1_000_000, n in 3usize..60) {
                let mut pf = StreamPrefetcher::new(8, 3);
                for i in 0..n as u64 {
                    let mut out = Vec::new();
                    let last_demand = start + i;
                    pf.on_demand_miss(last_demand, &mut out);
                    for &p in &out {
                        prop_assert!(p > last_demand, "prefetch {p} behind demand {last_demand}");
                    }
                }
            }

            /// The prefetcher never returns more than `degree` candidates
            /// per miss.
            #[test]
            fn degree_bounded(lines in proptest::collection::vec(0u64..10_000, 1..200), degree in 1usize..6) {
                let mut pf = StreamPrefetcher::new(8, degree);
                for l in lines {
                    let mut out = Vec::new();
                    pf.on_demand_miss(l, &mut out);
                    prop_assert!(out.len() <= degree);
                }
            }
        }
    }
}
