//! Property-based tests for the runtime simulator: scheduling-time laws,
//! ledger conservation, and admission-order guarantees.

use proptest::prelude::*;

use fuseme_sim::executor::run_stage;
use fuseme_sim::time::TaskCost;
use fuseme_sim::{pack_waves, Cluster, ClusterConfig, Phase, SimClock, TaskWork, WaveSlot};

fn config(slots: usize) -> ClusterConfig {
    let mut cc = ClusterConfig::test_small();
    cc.nodes = 1;
    cc.tasks_per_node = slots;
    cc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wave scheduling: more slots never increases stage time, and stage
    /// time is bounded below by the slowest single task and above by the
    /// serial sum.
    #[test]
    fn wave_time_laws(
        tasks in proptest::collection::vec((0u64..10_000, 0u64..10_000), 1..40),
        slots_a in 1usize..8,
        extra in 1usize..8,
    ) {
        let costs: Vec<TaskCost> = tasks
            .iter()
            .map(|&(b, f)| TaskCost { recv_bytes: b, flops: f })
            .collect();
        let (bw, fl) = (100.0, 100.0);
        let secs: Vec<f64> = costs.iter().map(|c| SimClock::task_secs(c, bw, fl)).collect();
        let time = |slots: usize| -> f64 {
            pack_waves(&secs, slots)
                .iter()
                .map(|w| WaveSlot::new(w, &secs).secs)
                .sum()
        };
        let waves = pack_waves(&secs, slots_a);
        prop_assert!(waves.iter().all(|w| !w.is_empty() && w.len() <= slots_a));
        let mut placed: Vec<usize> = waves.concat();
        placed.sort_unstable();
        prop_assert_eq!(placed, (0..secs.len()).collect::<Vec<_>>());
        let narrow = time(slots_a);
        let wide = time(slots_a + extra);
        prop_assert!(wide <= narrow + 1e-9, "more slots slower: {wide} > {narrow}");
        let slowest = costs
            .iter()
            .map(|c| (c.recv_bytes as f64 / bw).max(c.flops as f64 / fl))
            .fold(0.0f64, f64::max);
        let serial: f64 = costs
            .iter()
            .map(|c| (c.recv_bytes as f64 / bw).max(c.flops as f64 / fl))
            .sum();
        prop_assert!(narrow + 1e-9 >= slowest);
        prop_assert!(narrow <= serial + 1e-9);
    }

    /// The ledger always records exactly the sum of task receive bytes,
    /// in the stage's phase.
    #[test]
    fn ledger_records_exact_bytes(
        bytes in proptest::collection::vec(0u64..100_000, 1..30),
        agg_phase in proptest::bool::ANY,
    ) {
        let cluster = Cluster::new(config(4));
        let phase = if agg_phase { Phase::Aggregation } else { Phase::Consolidation };
        let total: u64 = bytes.iter().sum();
        let tasks: Vec<TaskWork<'_, usize>> = bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| TaskWork {
                task_id: i,
                recv_bytes: b,
                mem_bytes: 0,
                flops: 0,
                job: Box::new(move || Ok(i)),
            })
            .collect();
        let out = run_stage(&cluster, phase, tasks).unwrap();
        prop_assert_eq!(out.outputs, (0..bytes.len()).collect::<Vec<_>>());
        let stats = cluster.comm();
        let (hit, miss) = if agg_phase {
            (stats.aggregation_bytes, stats.consolidation_bytes)
        } else {
            (stats.consolidation_bytes, stats.aggregation_bytes)
        };
        prop_assert_eq!(hit, total);
        prop_assert_eq!(miss, 0);
    }

    /// Admission control fires before any side effect: if any task exceeds
    /// the budget, nothing is charged and nothing runs.
    #[test]
    fn oom_has_no_side_effects(
        mems in proptest::collection::vec(0u64..100, 1..20),
        victim in 0usize..20,
    ) {
        let cluster = Cluster::new(config(4));
        let budget = cluster.config().mem_per_task;
        let victim = victim % mems.len();
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let tasks: Vec<TaskWork<'_, ()>> = mems
            .iter()
            .enumerate()
            .map(|(i, &m)| TaskWork {
                task_id: i,
                recv_bytes: 7,
                mem_bytes: if i == victim { budget + 1 } else { m },
                flops: 0,
                job: Box::new(|| {
                    ran.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    Ok(())
                }),
            })
            .collect();
        let err = run_stage(&cluster, Phase::Consolidation, tasks).unwrap_err();
        let is_oom = matches!(err, fuseme_sim::SimError::OutOfMemory { .. });
        prop_assert!(is_oom);
        prop_assert_eq!(cluster.comm().total(), 0);
        prop_assert_eq!(ran.load(std::sync::atomic::Ordering::SeqCst), 0);
        prop_assert_eq!(cluster.elapsed_secs(), 0.0);
    }

    /// Simulated time is additive across stages and independent of task
    /// submission order.
    #[test]
    fn stage_time_order_independent(
        tasks in proptest::collection::vec((0u64..10_000, 0u64..10_000), 2..20),
    ) {
        let run_order = |rev: bool| {
            let cluster = Cluster::new(config(3));
            let mut work: Vec<TaskWork<'_, ()>> = tasks
                .iter()
                .enumerate()
                .map(|(i, &(b, f))| TaskWork {
                    task_id: i,
                    recv_bytes: b,
                    mem_bytes: 0,
                    flops: f,
                    job: Box::new(|| Ok(())),
                })
                .collect();
            if rev {
                work.reverse();
            }
            run_stage(&cluster, Phase::Consolidation, work).unwrap();
            cluster.elapsed_secs()
        };
        let fwd = run_order(false);
        let rev = run_order(true);
        prop_assert!((fwd - rev).abs() < 1e-12);
    }
}

/// One step of an arbitrary replica-cache workload.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// Consult/insert a replica set: (matrix, axis, pqr-index, bytes).
    Admit(u64, u64, u8, u64),
    /// Version-bump a matrix (a driver write invalidates its replicas).
    Bump(u64),
}

fn cache_ops(budget: u64) -> impl Strategy<Value = Vec<CacheOp>> {
    // 4-in-5 admissions, 1-in-5 version bumps (the vendored proptest has
    // no `prop_oneof`; a discriminant field plays its part).
    proptest::collection::vec(
        (0u8..5, 0u64..4, 0u64..3, 0u8..3, 1..=budget + budget / 4).prop_map(
            |(kind, m, a, g, b)| {
                if kind < 4 {
                    CacheOp::Admit(m, a, g, b)
                } else {
                    CacheOp::Bump(m)
                }
            },
        ),
        1..60,
    )
}

/// The three grids an admit step can reference.
fn grid(i: u8) -> (usize, usize, usize) {
    [(2, 3, 1), (3, 2, 2), (6, 1, 1)][i as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any admit/bump interleaving, the LRU's residency never
    /// exceeds its byte budget, and the counters reconcile against a
    /// replay of the returned outcomes: `saved_bytes` is exactly the sum
    /// of hit bytes — a hit-evict-miss cycle recharges the shuffle
    /// exactly once, never discounts it twice.
    #[test]
    fn replica_cache_budget_and_accounting_laws(ops in cache_ops(10_000)) {
        use fuseme_sim::ReplicaCache;
        let budget = 10_000;
        let cache = ReplicaCache::new(budget);
        let (mut hits, mut misses, mut saved) = (0u64, 0u64, 0u64);
        for op in ops {
            match op {
                CacheOp::Admit(m, a, g, b) => {
                    if cache.admit(m, a, grid(g), b).is_hit() {
                        hits += 1;
                        saved += b;
                        // A hit means the replica set really is resident.
                        prop_assert!(cache.contains(m, a, grid(g)));
                    } else {
                        misses += 1;
                    }
                }
                CacheOp::Bump(m) => cache.bump_version(m),
            }
            prop_assert!(
                cache.resident_bytes() <= budget,
                "LRU exceeded its budget: {} > {budget}",
                cache.resident_bytes()
            );
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.misses, misses);
        prop_assert_eq!(stats.saved_bytes, saved);
        prop_assert_eq!(stats.resident_bytes, cache.resident_bytes());
    }

    /// A version bump *always* invalidates: whatever happened before, no
    /// replica of the bumped matrix remains visible on any axis, and the
    /// next admission of that matrix is a miss.
    #[test]
    fn version_bump_always_invalidates(ops in cache_ops(10_000), victim in 0u64..4) {
        use fuseme_sim::ReplicaCache;
        let cache = ReplicaCache::new(10_000);
        for op in ops {
            match op {
                CacheOp::Admit(m, a, g, b) => {
                    cache.admit(m, a, grid(g), b);
                }
                CacheOp::Bump(m) => cache.bump_version(m),
            }
        }
        cache.bump_version(victim);
        for axis in 0..3 {
            prop_assert!(cache.replica_pqrs(victim, axis).is_empty());
            for g in 0..3u8 {
                prop_assert!(!cache.contains(victim, axis, grid(g)));
            }
        }
        prop_assert!(!cache.admit(victim, 0, grid(0), 64).is_hit());
    }

    /// The hit → evict → miss life cycle, pinned deterministically under a
    /// randomized filler load: an entry that was hit, then evicted by
    /// pressure, must miss (and so be re-charged) on its next admission.
    #[test]
    fn hit_then_evict_then_miss_recharges_once(filler in 1u64..=9_999) {
        use fuseme_sim::ReplicaCache;
        let budget = 10_000;
        let cache = ReplicaCache::new(budget);
        let bytes = budget - filler + 1; // guarantees filler forces eviction
        assert!(!cache.admit(7, 0, grid(0), bytes).is_hit());
        prop_assert!(cache.admit(7, 0, grid(0), bytes).is_hit());
        // Fill past the budget with a different matrix: victim evicted.
        cache.admit(8, 0, grid(1), filler);
        prop_assert!(!cache.contains(7, 0, grid(0)));
        prop_assert!(cache.stats().evictions >= 1);
        // The replica set must be shuffled (charged) again exactly once.
        prop_assert!(!cache.admit(7, 0, grid(0), bytes).is_hit());
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, 1);
        prop_assert_eq!(stats.saved_bytes, bytes);
    }
}
