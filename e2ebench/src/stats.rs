//! The benchmark's own statistics: percentiles with their sample counts,
//! `/proc` parsing for CPU time and peak memory, and the accounting of
//! attempted and failed operations.

use std::time::Duration;

/// A percentile together with the number of samples it was taken from,
/// so a reader can tell whether enough samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`. Returns `None`
/// for an empty sample. `values` need not be sorted.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(Percentile {
        value: sorted[rank.clamp(1, sorted.len()) - 1],
        samples: sorted.len(),
    })
}

/// Samples that lie strictly above the `q` percentile's rank. A tail
/// percentile means little unless this is at least ten; the benchmark
/// states it next to the open loop's p99.
pub fn samples_beyond(samples: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * samples as f64).ceil() as usize;
    samples.saturating_sub(rank)
}

/// Median of `values` (mean of the middle pair for an even count), or 0
/// for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The fastest decile of a run's duration samples (the nearest-rank 10th
/// percentile; the fastest sample below ten), or 0 for an empty sample.
///
/// The shared host this benchmark runs on alternates between a fast state
/// and one about 45% slower, in phases of one to twenty seconds, whatever
/// the process does. A run's median then flips between the two states
/// with the share of slow phases it happens to see, while its fastest
/// decile stays in the fast state unless nine tenths of the run are slow.
/// A slower program moves both states, so the fastest decile moves too.
pub fn fastest_decile(durations: &[f64]) -> f64 {
    percentile(durations, 0.1).map_or(0.0, |p| p.value)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time (user + system) in clock ticks from the contents of a
/// `/proc/<pid>/stat` or `/proc/<pid>/task/<tid>/stat` file, together with
/// the thread or process name. The name sits in parentheses and may itself
/// contain spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_stat(contents: &str) -> Option<(String, u64)> {
    let open = contents.find('(')?;
    let close = contents.rfind(')')?;
    let name = contents.get(open + 1..close)?.to_string();
    // After ")": field 3 (state) is index 0, so utime (field 14) is index
    // 11 and stime (field 15) is index 12.
    let rest: Vec<&str> = contents.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((name, utime + stime))
}

/// The `VmHWM` (peak resident set) line of `/proc/self/status`, in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, 100 on
/// every Linux target this benchmark runs on).
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU seconds the whole process has used so far.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |(_, ticks)| ticks as f64 / CLOCK_TICKS_PER_S)
}

/// CPU seconds used so far by the threads whose name starts with
/// `prefix` (the tensor pool's workers are `cae-par-<i>`).
pub fn threads_cpu_s(prefix: &str) -> f64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        .filter_map(|s| parse_stat(&s))
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, ticks)| ticks as f64 / CLOCK_TICKS_PER_S)
        .sum()
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// Attempted and failed operations of one run.
///
/// An operation is one observation that must be scored within the
/// latency limit, or one output check. An observation scored late or
/// never scored fails; so does a check whose outputs are wrong.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the checks that failed, for the error stream.
    pub failed_checks: Vec<String>,
}

impl Ledger {
    /// Accounts `due` observations of which `scored_in_time` were scored
    /// within the latency limit.
    pub fn observations(&mut self, due: u64, scored_in_time: u64) {
        self.attempted += due;
        self.failed += due.saturating_sub(scored_in_time);
    }

    /// Accounts one output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks.push(what.into());
        }
    }

    /// Whether every output check passed. Late observations are a
    /// performance failure, not wrong output, so they do not count here.
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_sample_count() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&values, 0.5).unwrap();
        assert_eq!(
            p50,
            Percentile {
                value: 50.0,
                samples: 100
            }
        );
        assert_eq!(percentile(&values, 0.99).unwrap().value, 99.0);
        assert_eq!(percentile(&values, 1.0).unwrap().value, 100.0);
        assert_eq!(percentile(&values, 0.0).unwrap().value, 1.0);
        assert_eq!(
            percentile(&[7.0], 0.99).unwrap(),
            Percentile {
                value: 7.0,
                samples: 1
            }
        );
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_decile_ignores_a_slow_majority() {
        // Six of ten samples in the slow state: the median is slow, the
        // fastest decile is not.
        let mut v = vec![0.37, 0.26, 0.38, 0.36, 0.27, 0.39, 0.25, 0.37, 0.26, 0.38];
        assert_eq!(fastest_decile(&v), 0.25);
        assert!(median(&v) > 0.35);
        v.extend([0.28; 10]);
        assert_eq!(fastest_decile(&v), 0.26, "rank 2 of 20");
        assert_eq!(fastest_decile(&[]), 0.0);
    }

    #[test]
    fn parses_stat_with_awkward_names() {
        let line = "4242 (cae-par-1) S 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 3 0 100";
        assert_eq!(parse_stat(line), Some(("cae-par-1".to_string(), 175)));
        // A name holding spaces and a ')' must not shift the fields.
        let odd = "7 (a) b (c)) R 1 2 3 4 5 6 7 8 9 10 11 12 0 0 20 0 1 0 5";
        assert_eq!(parse_stat(odd), Some(("a) b (c)".to_string(), 23)));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn ledger_counts_late_observations_and_failed_checks() {
        let mut ledger = Ledger::default();
        ledger.observations(960, 955);
        ledger.check(true, "scores finite");
        assert_eq!((ledger.attempted, ledger.failed), (961, 5));
        assert!(ledger.correct(), "late observations are not wrong output");
        ledger.check(false, "replay diverged");
        assert_eq!((ledger.attempted, ledger.failed), (962, 6));
        assert!(!ledger.correct());
        assert_eq!(ledger.failed_checks, vec!["replay diverged".to_string()]);
        // More scored than due (never happens) must not underflow.
        ledger.observations(1, 2);
        assert_eq!(ledger.failed, 6);
    }
}
