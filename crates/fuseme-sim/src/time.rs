//! Simulated wall-clock model.
//!
//! The paper's cost model (Eq. 2) treats communication and computation as
//! overlapping: the cost of a stage is the *maximum* of its normalized
//! network and compute terms, not their sum. The clock applies that per
//! task, then schedules tasks in waves of `slots` (the cluster's `N·T_c`
//! task slots) with [`pack_waves`]: a wave takes as long as its slowest
//! task, and a stage takes the sum of its waves. The executor's
//! `run_stage` is the one caller.

use serde::{Deserialize, Serialize};

/// Per-task resource consumption used for time accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskCost {
    /// Bytes received over the simulated network.
    pub recv_bytes: u64,
    /// Floating-point operations executed.
    pub flops: u64,
}

/// One wave of a stage: how many tasks ran concurrently and how long the
/// wave took (its slowest task). The executor records one per wave on the
/// stage span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaveSlot {
    /// Tasks placed in this wave.
    pub tasks: usize,
    /// Simulated duration of the wave, in seconds.
    pub secs: f64,
}

impl WaveSlot {
    /// The slot of the tasks `wave` (indices into `secs`, the per-task
    /// durations).
    pub fn new(wave: &[usize], secs: &[f64]) -> WaveSlot {
        WaveSlot {
            tasks: wave.len(),
            secs: wave.iter().map(|&i| secs[i]).fold(0.0f64, f64::max),
        }
    }
}

/// Packs tasks of durations `secs` into waves of `slots` concurrent tasks,
/// longest first: returns each wave's task indices, in execution order. A
/// stage takes the sum of its waves' [`WaveSlot::secs`].
///
/// Longest-first placement (the longest-processing-time heuristic real
/// schedulers approximate) also makes stage time monotone non-increasing
/// in the slot count; naive in-order chunking is not, because a slow task
/// landing on a wave boundary can serialize behind another slow one. Ties
/// keep task order.
pub fn pack_waves(secs: &[f64], slots: usize) -> Vec<Vec<usize>> {
    assert!(slots > 0, "cluster must have at least one task slot");
    let mut order: Vec<usize> = (0..secs.len()).collect();
    order.sort_by(|&a, &b| secs[b].total_cmp(&secs[a]));
    order.chunks(slots).map(<[usize]>::to_vec).collect()
}

/// Accumulates simulated elapsed seconds across stages.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimClock {
    elapsed: f64,
}

impl SimClock {
    /// A clock at zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Simulated seconds elapsed so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed
    }

    /// Advances the clock by an explicit number of seconds: a stage's fixed
    /// overhead and its waves.
    pub fn advance(&mut self, secs: f64) {
        debug_assert!(secs >= 0.0);
        self.elapsed += secs;
    }

    /// Simulated duration of a single task under Eq. 2's overlap model.
    /// `net_bps` and `flops_ps` are the *per-task* effective bandwidths
    /// (node bandwidth divided by tasks per node).
    pub fn task_secs(task: &TaskCost, net_bps: f64, flops_ps: f64) -> f64 {
        let net = task.recv_bytes as f64 / net_bps;
        let com = task.flops as f64 / flops_ps;
        net.max(com)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(bytes: u64, flops: u64) -> TaskCost {
        TaskCost {
            recv_bytes: bytes,
            flops,
        }
    }

    /// Stage time of `tasks` in `slots`, as the executor computes it.
    fn stage_secs(tasks: &[TaskCost], slots: usize, net_bps: f64, flops_ps: f64) -> f64 {
        let secs: Vec<f64> = tasks
            .iter()
            .map(|c| SimClock::task_secs(c, net_bps, flops_ps))
            .collect();
        pack_waves(&secs, slots)
            .iter()
            .map(|w| WaveSlot::new(w, &secs).secs)
            .sum()
    }

    #[test]
    fn single_wave_takes_slowest_task() {
        // net: 100/10=10s vs 10/10=1s compute → 10s; second task 2s compute.
        assert_eq!(stage_secs(&[t(100, 10), t(0, 20)], 4, 10.0, 10.0), 10.0);
    }

    #[test]
    fn overlap_takes_max_not_sum() {
        assert_eq!(stage_secs(&[t(100, 100)], 1, 10.0, 10.0), 10.0); // not 20
    }

    #[test]
    fn waves_accumulate() {
        // Three tasks (5s, 1s, 3s), two slots, longest first: wave {5,3}
        // then wave {1} → 6s.
        assert_eq!(
            stage_secs(&[t(50, 0), t(10, 0), t(30, 0)], 2, 10.0, 1.0),
            6.0
        );
    }

    #[test]
    fn more_slots_never_slower() {
        let tasks: Vec<TaskCost> = (1..=16).map(|i| t(i * 10, 0)).collect();
        assert!(stage_secs(&tasks, 8, 10.0, 1.0) <= stage_secs(&tasks, 2, 10.0, 1.0));
    }

    #[test]
    fn advance_adds_overhead() {
        let mut c = SimClock::new();
        c.advance(1.5);
        c.advance(0.5);
        assert_eq!(c.elapsed_secs(), 2.0);
    }

    #[test]
    fn empty_stage_is_free() {
        assert_eq!(stage_secs(&[], 4, 1.0, 1.0), 0.0);
        assert!(pack_waves(&[], 4).is_empty());
    }

    #[test]
    fn schedule_decomposes_into_waves() {
        // Tasks of 5s, 1s, 3s in two slots: wave {5,3} then wave {1}; equal
        // durations keep task order.
        let secs = [5.0, 1.0, 3.0];
        let waves = pack_waves(&secs, 2);
        assert_eq!(waves, vec![vec![0, 2], vec![1]]);
        assert_eq!(
            WaveSlot::new(&waves[0], &secs),
            WaveSlot {
                tasks: 2,
                secs: 5.0
            }
        );
        assert_eq!(
            WaveSlot::new(&waves[1], &secs),
            WaveSlot {
                tasks: 1,
                secs: 1.0
            }
        );
        assert_eq!(pack_waves(&[2.0, 2.0, 2.0], 2), vec![vec![0, 1], vec![2]]);
    }
}
