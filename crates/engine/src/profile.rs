//! The pipeline's **profile** stage: per-tenant locality monitoring.
//!
//! A [`TenantProfiler`] watches one tenant's access subsequence and, at
//! each epoch boundary, yields a miss-ratio curve for the solver. The
//! default implementation is `cps_hotl`'s [`WindowedProfiler`] (exact
//! within the epoch, EWMA-blended across epochs); the trait exists so a
//! sampled or hardware-counter-backed profiler can be swapped in
//! without touching the control loop.

use crate::EngineConfig;
use cps_cachesim::AccessCounts;
use cps_hotl::online::OnlineProfiler;
use cps_hotl::windowed::WindowedProfiler;
use cps_hotl::{Footprint, MissRatioCurve, ReuseProfile, SoloProfile};
use cps_trace::Block;

/// One tenant's locality monitor — the pipeline's first stage.
///
/// Implementations must uphold the windowing contract of
/// [`WindowedProfiler`]: [`TenantProfiler::window_reuse`] reflects only
/// accesses since the last [`TenantProfiler::end_window`], and
/// `end_window` folds the window into the blended estimate it returns.
pub trait TenantProfiler: Send {
    /// Consumes one access by this tenant.
    fn observe(&mut self, block: Block);

    /// Accesses observed since the last window boundary.
    fn window_accesses(&self) -> usize;

    /// Exact reuse statistics of the current window.
    fn window_reuse(&self) -> ReuseProfile;

    /// Merges a chunk profiler into the current window, exactly as if
    /// its accesses had been observed here in order (see
    /// [`OnlineProfiler::absorb`]). The engine itself never calls it:
    /// it observes every access inline. It stays part of the stage
    /// contract for profilers fed from pre-profiled chunks.
    fn absorb_window(&mut self, chunk: &OnlineProfiler);

    /// Ends the window and returns the blended miss-ratio curve, or
    /// `None` if this tenant has never been observed.
    fn end_window(&mut self) -> Option<MissRatioCurve>;
}

impl TenantProfiler for WindowedProfiler {
    fn observe(&mut self, block: Block) {
        WindowedProfiler::observe(self, block);
    }

    fn window_accesses(&self) -> usize {
        WindowedProfiler::window_accesses(self)
    }

    fn window_reuse(&self) -> ReuseProfile {
        WindowedProfiler::window_reuse(self)
    }

    fn absorb_window(&mut self, chunk: &OnlineProfiler) {
        WindowedProfiler::absorb_window(self, chunk);
    }

    fn end_window(&mut self) -> Option<MissRatioCurve> {
        WindowedProfiler::end_window(self)
    }
}

/// The default profile stage: one [`WindowedProfiler`] per tenant,
/// sampled out to the full cache size, with the config's decay.
pub fn default_profilers(config: &EngineConfig, tenants: usize) -> Vec<Box<dyn TenantProfiler>> {
    let blocks = config.cache.blocks();
    (0..tenants)
        .map(|_| Box::new(WindowedProfiler::new(blocks, config.decay)) as Box<dyn TenantProfiler>)
        .collect()
}

/// Builds per-tenant [`SoloProfile`]s from the *current* epoch windows —
/// the natural-baseline inputs, which must be captured before
/// `end_window` folds and resets the windows. Access rates come from
/// the realized per-tenant counts (floored at 1 so an idle tenant still
/// has a well-defined rate).
pub fn window_solo_profiles(
    profilers: &[Box<dyn TenantProfiler>],
    per_tenant: &[AccessCounts],
    blocks: usize,
) -> Vec<SoloProfile> {
    profilers
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let reuse = p.window_reuse();
            let footprint = Footprint::from_reuse(&reuse);
            let mrc = MissRatioCurve::from_footprint(&footprint, blocks);
            SoloProfile {
                name: format!("tenant{i}"),
                access_rate: (per_tenant[i].accesses.max(1)) as f64,
                accesses: reuse.accesses,
                footprint,
                mrc,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::CacheConfig;

    #[test]
    fn default_stage_matches_config_geometry_and_mode() {
        let cfg = EngineConfig::new(CacheConfig::new(16, 2), 100).decay(0.25);
        let profilers = default_profilers(&cfg, 3);
        assert_eq!(profilers.len(), 3);
        let mut p = WindowedProfiler::new(32, 0.25);
        let mut boxed = profilers;
        for b in [1u64, 2, 1, 3] {
            p.observe(b);
            boxed[0].observe(b);
        }
        let a = p.end_window().unwrap();
        let b = boxed[0].end_window().unwrap();
        assert_eq!(a.samples(), b.samples(), "trait object defers verbatim");
    }

    #[test]
    fn solo_profiles_snapshot_the_open_window() {
        let cfg = EngineConfig::new(CacheConfig::new(8, 1), 100);
        let mut profilers = default_profilers(&cfg, 2);
        for b in 0..6u64 {
            profilers[0].observe(b % 3);
        }
        let counts = vec![
            AccessCounts {
                accesses: 6,
                misses: 3,
            },
            AccessCounts::default(),
        ];
        let solos = window_solo_profiles(&profilers, &counts, 8);
        assert_eq!(solos[0].name, "tenant0");
        assert_eq!(solos[0].accesses, 6);
        assert_eq!(solos[0].access_rate, 6.0);
        // Idle tenant: empty window, rate floored at 1.
        assert_eq!(solos[1].accesses, 0);
        assert_eq!(solos[1].access_rate, 1.0);
    }
}
