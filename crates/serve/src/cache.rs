//! Engine registry internals: the per-model plan cache and the atomic
//! publication cell the feedback loop swaps plans through.
//!
//! A serving process keeps one compiled engine per (model, batch) —
//! Fig. 17's occupancy curves mean the batch-16 placement is not the
//! batch-1 placement — built lazily the first time the dynamic batcher
//! forms a batch of that size, then reused for the lifetime of the
//! deployment (the paper's "profiling is only done during the offline
//! phase" amortization argument, applied per variant).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use duet_analysis::{check_plan_model, ModelCheckConfig, PlanModel};
use duet_core::{Duet, SchedulePlan};
use duet_device::SystemModel;

use crate::spec::ModelSpec;

/// A test hook that perturbs a re-corrected plan's model before the
/// hot-swap gate checks it (chaos injection for the refusal path).
type SwapChaos = Box<dyn Fn(&mut PlanModel) + Send + Sync>;

/// An `arc-swap`-style publication cell: readers `load` a cheap `Arc`
/// clone, writers `store` a whole new value. Readers never observe a
/// partially updated value, and a stored value stays alive until the
/// last reader drops its `Arc` — exactly what a plan hot-swap needs.
#[derive(Debug)]
pub struct ArcCell<T> {
    inner: RwLock<Arc<T>>,
}

impl<T> ArcCell<T> {
    pub fn new(value: T) -> Self {
        ArcCell {
            inner: RwLock::new(Arc::new(value)),
        }
    }

    /// Snapshot the current value.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically publish a new value.
    pub fn store(&self, value: Arc<T>) {
        *self.inner.write().unwrap_or_else(PoisonError::into_inner) = value;
    }
}

/// One compiled, scheduled engine for a specific batch size, plus its
/// exported plan (the deployable artifact).
#[derive(Debug)]
pub struct EngineVariant {
    pub batch: usize,
    pub duet: Duet,
    pub plan: SchedulePlan,
}

impl EngineVariant {
    fn from_duet(batch: usize, duet: Duet) -> Self {
        let plan = duet.export_plan();
        EngineVariant { batch, duet, plan }
    }
}

/// Lazy per-batch engine cache for one model.
pub struct PlanCache {
    spec: ModelSpec,
    /// The system variants are planned for: the registration-time one
    /// until a replan is accepted, then that replan's — so a variant
    /// first built after a hot-swap is planned like the ones that were
    /// swapped. Only locked while `slots` is held.
    system: Mutex<SystemModel>,
    /// Profiling repetitions for variant builds (serving builds trade a
    /// little profile fidelity for startup latency).
    profile_runs: (usize, usize),
    slots: Mutex<BTreeMap<usize, Arc<ArcCell<EngineVariant>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    swap_chaos: OnceLock<SwapChaos>,
}

impl PlanCache {
    pub fn new(spec: ModelSpec, system: SystemModel) -> Self {
        PlanCache {
            spec,
            system: Mutex::new(system),
            profile_runs: (120, 12),
            slots: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            swap_chaos: OnceLock::new(),
        }
    }

    /// Install a perturbation applied to every re-corrected plan model
    /// before the D5xx hot-swap gate checks it. Test-only in spirit: it
    /// exists to demonstrate (and regression-test) that a dirty
    /// candidate is refused and the old engine stays published. The first
    /// perturbation installed stays; later calls change nothing.
    pub fn set_swap_chaos(&self, f: impl Fn(&mut PlanModel) + Send + Sync + 'static) {
        let _ = self.swap_chaos.set(Box::new(f));
    }

    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The engine for `batch`, building (and caching) it on first use.
    pub fn get_or_build(&self, batch: usize) -> Arc<EngineVariant> {
        assert!(batch > 0, "batch must be positive");
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cell) = slots.get(&batch) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cell.load();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let graph = self.spec.graph_at(batch);
        let system = self
            .system
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let duet = Duet::builder()
            .system(system)
            .profile_runs(self.profile_runs.0, self.profile_runs.1)
            .build(&graph)
            .expect("serving model builds");
        let variant = Arc::new(EngineVariant::from_duet(batch, duet));
        let cell = Arc::new(ArcCell::new_arc(variant.clone()));
        slots.insert(batch, cell);
        variant
    }

    /// Re-run Algorithm 1's correction for every cached variant against
    /// `system` and atomically publish the re-scheduled engines (the
    /// feedback loop's hot swap).
    ///
    /// Every candidate must pass the `D5xx` model check before
    /// publication: a re-corrected plan proven to admit a deadlock, a
    /// nondeterministic dispatch or a transfer race is *refused* and the
    /// currently-published engine keeps serving. Returns
    /// `(swapped, rejected)` variant counts.
    pub fn recorrect_all(&self, system: &SystemModel) -> (usize, usize) {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let mut swapped = 0;
        let mut rejected = 0;
        for cell in slots.values() {
            let old = cell.load();
            let duet = old.duet.recorrect(system.clone());
            let clean = match duet.plan_model() {
                Ok(mut model) => {
                    if let Some(f) = self.swap_chaos.get() {
                        f(&mut model);
                    }
                    !check_plan_model(&model, &ModelCheckConfig::default())
                        .report
                        .has_errors()
                }
                Err(_) => false,
            };
            if clean {
                // Shared subgraphs are lowered already; a placement that
                // moved between the units and the whole graph is lowered
                // here, not in the first request after the swap.
                duet.lower_tapes();
                cell.store(Arc::new(EngineVariant::from_duet(old.batch, duet)));
                swapped += 1;
            } else {
                rejected += 1;
            }
        }
        if swapped > 0 {
            *self.system.lock().unwrap_or_else(PoisonError::into_inner) = system.clone();
        }
        (swapped, rejected)
    }

    /// Batch sizes with a built engine.
    pub fn cached_batches(&self) -> Vec<usize> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.keys().copied().collect()
    }

    /// (cache hits, cache misses — i.e. builds).
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

impl<T> ArcCell<T> {
    fn new_arc(value: Arc<T>) -> Self {
        ArcCell {
            inner: RwLock::new(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> PlanCache {
        PlanCache::new(
            ModelSpec::serving_zoo("mlp").unwrap(),
            SystemModel::paper_server(),
        )
    }

    #[test]
    fn variants_are_built_once_and_reused() {
        let c = cache();
        let a = c.get_or_build(1);
        let b = c.get_or_build(1);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let (hits, misses) = c.counters();
        assert_eq!((hits, misses), (1, 1));
        c.get_or_build(4);
        assert_eq!(c.cached_batches(), vec![1, 4]);
    }

    #[test]
    fn variant_plans_record_their_batch() {
        let c = cache();
        for batch in [1, 2, 8] {
            let v = c.get_or_build(batch);
            assert_eq!(v.batch, batch);
            assert_eq!(v.plan.batch, batch);
            assert_eq!(v.duet.batch(), batch);
            // The exported plan round-trips through the D2xx linter.
            let facts = v.plan.to_facts();
            let lint = duet_analysis::lint_plan(
                v.duet.graph(),
                &facts,
                &duet_analysis::LintConfig::default(),
            );
            assert!(
                !lint.has_errors(),
                "batch {batch} plan lints clean:\n{lint}"
            );
        }
    }

    #[test]
    fn recorrect_all_publishes_new_engines() {
        let c = cache();
        let before = c.get_or_build(2);
        let mut degraded = SystemModel::paper_server();
        degraded.gpu.peak_gflops /= 12.0;
        degraded.gpu.mem_bw_gbps /= 8.0;
        degraded.gpu.kernel_launch_us *= 8.0;
        assert_eq!(c.recorrect_all(&degraded), (1, 0));
        let after = c.get_or_build(2);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "swap must publish a new engine"
        );
        assert_eq!(after.batch, 2);
    }

    #[test]
    fn dirty_recorrected_plan_is_refused() {
        let c = cache();
        let before = c.get_or_build(2);
        // Corrupt every candidate with a self-trigger: subgraph 0 waits
        // on its own finish, a guaranteed D500 deadlock.
        c.set_swap_chaos(|model| model.add_trigger(0, 0));
        let mut degraded = SystemModel::paper_server();
        degraded.gpu.peak_gflops /= 12.0;
        assert_eq!(
            c.recorrect_all(&degraded),
            (0, 1),
            "dirty candidate must be rejected, not swapped"
        );
        let after = c.get_or_build(2);
        assert!(
            Arc::ptr_eq(&before, &after),
            "refused swap keeps the old engine published"
        );
    }

    #[test]
    fn variant_built_after_a_swap_is_planned_for_the_swapped_system() {
        let c = PlanCache::new(
            ModelSpec::serving_zoo("wide_deep").unwrap(),
            SystemModel::paper_server(),
        );
        c.get_or_build(1);
        let degraded = crate::loadgen::degraded_gpu(&SystemModel::paper_server());
        assert_eq!(c.recorrect_all(&degraded), (1, 0));
        let late = c.get_or_build(2);
        let json = |s: &SystemModel| serde_json::to_string(s).unwrap();
        assert_eq!(
            json(late.duet.system()),
            json(&degraded),
            "a variant built after the swap must be planned for the deployed system"
        );
        // Its prediction is what it runs at under that system, so the
        // drift monitor has nothing to fire a second swap on.
        let deployed_us =
            duet_runtime::measure_latency(late.duet.graph(), late.duet.placed(), &degraded);
        assert_eq!(late.duet.latency_us().to_bits(), deployed_us.to_bits());
    }

    #[test]
    fn arc_cell_swaps_atomically_for_held_readers() {
        let cell = ArcCell::new(1u32);
        let reader = cell.load();
        cell.store(Arc::new(2));
        assert_eq!(*reader, 1, "held snapshot survives the swap");
        assert_eq!(*cell.load(), 2);
    }
}
