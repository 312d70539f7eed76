//! Host-interference record: what the machine did to a run while it was
//! measured. Steal time and run-queue wait show a run slowed by other
//! tenants, which is how a spread between runs is told apart from a change
//! in the program.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::metrics::fastest;

/// Counters read at the start of a measured region.
#[derive(Debug)]
pub struct HostProbe {
    wall: Instant,
    steal_ticks: Option<u64>,
    sched: Option<(u64, u64)>,
}

/// Steal ticks of all CPUs (`/proc/stat`, eighth counter of the `cpu` line).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// `(cpu time ns, run-queue wait ns)` of the calling thread.
fn schedstat() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The calibration time of the reference host: the host-time end-to-end
/// metrics are scaled to a host on which [`calibration_s`] takes this long.
pub const CALIBRATION_REF_S: f64 = 0.04;

/// How much slower than the reference host this run's host was: its
/// fastest calibration over the reference's.
pub fn slowdown(calibrations: &[f64]) -> f64 {
    fastest(calibrations) / CALIBRATION_REF_S
}

/// Wall time, in seconds, of one fixed piece of work that belongs to this
/// benchmark and not to the program: integer hashing, floating-point
/// arithmetic, random updates of a 2 MiB table, a heap and a sort. A change
/// to the program leaves it alone, so its fastest time in a run reads the
/// host's speed during that run.
pub fn calibration_s() -> f64 {
    let start = Instant::now();
    let mut table = vec![0u64; 1 << 18];
    let mut heap = BinaryHeap::with_capacity(1 << 12);
    let (mut x, mut acc) = (0x243F_6A88_85A3_08D3u64, 0.0f64);
    for i in 0..1_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x >> 46) as usize];
        *slot = slot.wrapping_add(x);
        acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-16);
        heap.push(x >> 32);
        if i % 2 == 1 {
            black_box(heap.pop());
        }
        if heap.len() >= 1 << 12 {
            heap.clear();
        }
    }
    table.sort_unstable();
    black_box((table, heap, acc));
    start.elapsed().as_secs_f64()
}

impl HostProbe {
    pub fn start() -> Self {
        HostProbe {
            wall: Instant::now(),
            steal_ticks: steal_ticks(),
            sched: schedstat(),
        }
    }

    /// The record as one JSON object: worker count, host CPUs, wall and CPU
    /// time of the measuring thread, its run-queue wait, the steal ticks
    /// all CPUs accrued meanwhile (`-1` where `/proc` was unreadable), the
    /// fastest, median and slowest of the timed repeats' and of the set-up
    /// builds' and the calibrations' wall times, the [`slowdown`], the
    /// process's peak resident memory, and the simulated `work` of one
    /// repeat.
    pub fn finish_json(
        &self,
        repeats: &[f64],
        setups: &[f64],
        calibrations: &[f64],
        work: &[(&str, u64)],
    ) -> String {
        let wall = self.wall.elapsed().as_secs_f64();
        let steal = match (self.steal_ticks, steal_ticks()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as i64,
            _ => -1,
        };
        let (cpu_s, wait_ms) = match (self.sched, schedstat()) {
            (Some((c0, w0)), Some((c1, w1))) => (
                c1.saturating_sub(c0) as f64 / 1e9,
                w1.saturating_sub(w0) as f64 / 1e6,
            ),
            _ => (-1.0, -1.0),
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let work: Vec<String> = work.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!(
            "{{\"host\": {{\"workers\": {}, \"nproc\": {nproc}, \"wall_s\": {wall:.4}, \
             \"cpu_s\": {cpu_s:.4}, \"runqueue_wait_ms\": {wait_ms:.3}, \"steal_ticks\": {steal}, \
             \"repeats\": {}, \"repeat_wall_s\": {}, \"setup_s\": {}, \"calibration_s\": {}, \"slowdown\": {:.4}, \"peak_rss_mb\": {:.3}}}, \
             \"work\": {{{}}}}}",
            pes_sim::parallelism(),
            repeats.len(),
            low_mid_high(repeats),
            low_mid_high(setups),
            low_mid_high(calibrations),
            slowdown(calibrations),
            peak_rss_mb().unwrap_or(-1.0),
            work.join(", "),
        )
    }
}

/// `[fastest, median, slowest]` of `times` as a JSON array (zeros when
/// empty).
fn low_mid_high(times: &[f64]) -> String {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pick = |i: usize| sorted.get(i).copied().unwrap_or(0.0);
    let last = sorted.len().saturating_sub(1);
    format!("[{:.4}, {:.4}, {:.4}]", pick(0), pick(last / 2), pick(last))
}
