//! Measured per-width throughput model driving batch-width selection.
//!
//! The original widest-fit static packing walked straight into a W=8
//! cliff in its session sweep: 8 sessions sustained ~3009 blocks/s
//! while 4 sustained ~4085. Diagnosing that row for the farm revealed
//! it was a *scheduling* artifact, not an engine one — widest-fit
//! packed all 8 sessions into a single 8-wide batch pinned to one
//! worker while the second core sat idle (fixed by the worker-count
//! clamp in `crate::baseline`'s `plan_batches`). At the engine level,
//! `SEED_BLOCKS_PER_SEC` — recorded by `width_probe` on the 2-core
//! host — shows steady-state throughput generally *rising* with width,
//! with a dip at W=8. Either way the lesson stands: width is a
//! *throughput* choice, not a capacity one — so the farm picks it from
//! measured blocks/s per width, seeded from those checked-in rates and
//! refined online as quanta complete on the actual host.
//!
//! Online refinement has a trap: a farm under load measures its sampled
//! widths *with* contention, while unsampled widths keep their
//! uncontended seed values — naïve EWMA would let a stale seed for a
//! slower width outgrow a contended measurement of a faster one and
//! steer the scheduler onto the very cliff the seeds warn about. The
//! tuner therefore scales an unsampled width by a measured/seed *drift
//! ratio* transferred from the sampled widths, chosen so the recorded
//! seed ordering survives refinement: against every sampled width with
//! a *higher* seed the worst such ratio applies (so an unsampled width
//! can never out-estimate live data from a width recorded faster),
//! while a width seeded above everything sampled inherits the ratio of
//! the highest-seeded measurement (so the scheduler still explores
//! upward and genuinely wide wins get measured rather than starved).
//! The recorded W=8 dip is therefore structurally unselectable at load
//! ≥ 4 until this host's own measurements invert the recorded ordering
//! — and a width is only ever measured after being selected.
//! [`WidthTuner::choose`] takes the arg-max effective estimate over
//! supported widths the current load can fill.

use sim::SUPPORTED_LANES;

/// Seed estimates (blocks/s), recorded by `width_probe` on the 2-core
/// host (steady-state, one engine, precise tracking), one per entry of
/// [`SUPPORTED_LANES`]. The recorded
/// dip at W=8 means the tuner jumps 4 → 16 and only packs 8-wide if
/// this host's own measurements show W=8 beating W=4.
const SEED_BLOCKS_PER_SEC: [f64; 5] = [15921.0, 19712.0, 24943.0, 22809.0, 35848.0];

/// EWMA weight of a fresh measurement. 0.4 converges within a few quanta
/// without letting one noisy quantum overturn the ordering.
const EWMA_ALPHA: f64 = 0.4;

/// Per-width sustained-throughput estimates with online refinement.
#[derive(Debug, Clone)]
pub struct WidthTuner {
    /// Reference rates per [`SUPPORTED_LANES`] entry (construction-time
    /// seeds; never mutated).
    seed: [f64; SUPPORTED_LANES.len()],
    /// EWMA of measurements per width, initialised to the seed.
    est: [f64; SUPPORTED_LANES.len()],
    /// Measurements folded in per width.
    samples: [u64; SUPPORTED_LANES.len()],
}

impl Default for WidthTuner {
    fn default() -> WidthTuner {
        WidthTuner::new()
    }
}

impl WidthTuner {
    /// A tuner seeded from the checked-in benchmark measurements.
    #[must_use]
    pub fn new() -> WidthTuner {
        WidthTuner::with_seeds(SEED_BLOCKS_PER_SEC)
    }

    /// A tuner seeded from caller-supplied blocks/s estimates (one per
    /// [`SUPPORTED_LANES`] entry) — used when a host's own `width_probe`
    /// run is fresher than `SEED_BLOCKS_PER_SEC`, recorded by
    /// `width_probe` on the 2-core host.
    ///
    /// # Panics
    ///
    /// Panics if any seed is not a positive finite rate.
    #[must_use]
    pub fn with_seeds(seeds: [f64; SUPPORTED_LANES.len()]) -> WidthTuner {
        assert!(
            seeds.iter().all(|s| s.is_finite() && *s > 0.0),
            "seeds must be positive finite blocks/s"
        );
        WidthTuner {
            seed: seeds,
            est: seeds,
            samples: [0; SUPPORTED_LANES.len()],
        }
    }

    /// The measured/seed drift ratio to scale unsampled width `i` by:
    /// the worst ratio among sampled widths whose seed is at least
    /// `seed[i]` — or, when `i` is seeded above everything sampled, the
    /// ratio of the highest-seeded sampled width. 1.0 with no samples.
    ///
    /// Both branches preserve the seed ordering (see [module
    /// docs](self)): downward it is a hard bound below live data,
    /// upward it transfers the host's observed speed so wider
    /// still-unmeasured widths remain reachable.
    fn drift_for(&self, i: usize) -> f64 {
        let sampled = || {
            (0..SUPPORTED_LANES.len())
                .filter(|&j| self.samples[j] > 0)
                .map(|j| (self.seed[j], self.est[j] / self.seed[j]))
        };
        let above = sampled()
            .filter(|&(seed, _)| seed >= self.seed[i])
            .map(|(_, r)| r)
            .fold(f64::INFINITY, f64::min);
        if above.is_finite() {
            above
        } else {
            // Seeded above everything measured: inherit the ratio of
            // the highest-seeded measurement (1.0 if none at all).
            sampled()
                .max_by(|a, b| a.0.partial_cmp(&b.0).expect("seeds are finite"))
                .map_or(1.0, |(_, r)| r)
        }
    }

    fn index_of(width: usize) -> usize {
        SUPPORTED_LANES
            .iter()
            .position(|&w| w == width)
            .unwrap_or_else(|| panic!("unsupported lane width {width}"))
    }

    /// The effective blocks/s estimate for a supported width: the
    /// measurement EWMA once the width has samples, otherwise the seed
    /// scaled by the transferred drift ratio (see [module docs](self)).
    /// The downward bound is airtight: for a sampled width `v`, the
    /// scaled estimate of an unsampled `w` is at most
    /// `seed[w] * est[v] / seed[v]`, which is below `est[v]` whenever
    /// `seed[w] < seed[v]` — a width recorded slower than live data
    /// cannot be chosen on its stale seed, no matter how the host
    /// drifts.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in [`SUPPORTED_LANES`].
    #[must_use]
    pub fn estimate(&self, width: usize) -> f64 {
        let i = WidthTuner::index_of(width);
        if self.samples[i] > 0 {
            self.est[i]
        } else {
            self.seed[i] * self.drift_for(i)
        }
    }

    /// Folds a measured quantum (blocks/s sustained at `width`) into the
    /// estimates. Degenerate rates (zero, negative, non-finite) are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in [`SUPPORTED_LANES`].
    pub fn record(&mut self, width: usize, blocks_per_sec: f64) {
        if !blocks_per_sec.is_finite() || blocks_per_sec <= 0.0 {
            return;
        }
        let i = WidthTuner::index_of(width);
        self.est[i] = EWMA_ALPHA * blocks_per_sec + (1.0 - EWMA_ALPHA) * self.est[i];
        self.samples[i] += 1;
    }

    /// The best-throughput supported width that `available` waiting jobs
    /// can fill (ties go to the wider batch — fewer engines for the same
    /// modelled throughput). Always at least 1.
    #[must_use]
    pub fn choose(&self, available: usize) -> usize {
        let available = available.max(1);
        let mut best = SUPPORTED_LANES[0];
        let mut best_est = self.estimate(best);
        for &w in &SUPPORTED_LANES[1..] {
            if w > available {
                break;
            }
            let est = self.estimate(w);
            if est >= best_est {
                best = w;
                best_est = est;
            }
        }
        best
    }

    /// Whether some strictly narrower supported width has a higher
    /// effective estimate than `width` — a dominated width is worse on
    /// both axes (a narrower engine is cheaper per cycle at equal
    /// occupancy *and* measures faster at full occupancy), so nothing
    /// ever justifies packing it. With the checked-in seeds this is
    /// exactly the W=8 dip; live measurements can clear it.
    fn dominated(&self, width: usize) -> bool {
        let est = self.estimate(width);
        SUPPORTED_LANES
            .iter()
            .take_while(|&&v| v < width)
            .any(|&v| self.estimate(v) > est)
    }

    /// The narrowest supported width that covers `lanes` live sessions
    /// (re-packing may never shrink below the jobs already running)
    /// without landing on a dominated width: a drain tail of 5–8
    /// sessions stays on the 16-wide engine rather than re-packing
    /// through the recorded W=8 dip, until this host's own measurements
    /// clear it.
    #[must_use]
    pub fn cover(&self, lanes: usize) -> usize {
        SUPPORTED_LANES
            .iter()
            .copied()
            .find(|&w| w >= lanes && !self.dominated(w))
            .unwrap_or(SUPPORTED_LANES[SUPPORTED_LANES.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_avoid_the_w8_dip() {
        let t = WidthTuner::new();
        // Eight waiting jobs pack at 4, not 8: the engine rows measure
        // W=8 below W=4 on the recording host. Sixteen or more jump to
        // the measured-faster W=16.
        assert_eq!(t.choose(8), 4);
        assert_eq!(t.choose(15), 4);
        assert_eq!(t.choose(16), 16);
        assert_eq!(t.choose(100), 16);
        // Fewer available jobs cap the width.
        assert_eq!(t.choose(3), 2);
        assert_eq!(t.choose(1), 1);
        assert_eq!(t.choose(0), 1, "empty load still yields a valid width");
    }

    #[test]
    fn never_picks_a_width_estimated_below_w4() {
        let t = WidthTuner::new();
        for avail in 1..=32 {
            let w = t.choose(avail);
            if avail >= 4 {
                assert!(
                    t.estimate(w) >= t.estimate(4),
                    "choose({avail}) = {w} with estimate below W=4's"
                );
            }
        }
    }

    #[test]
    fn contended_w4_samples_do_not_resurrect_the_w8_seed() {
        let mut t = WidthTuner::new();
        // A loaded farm measures W=4 far below its uncontended seed.
        // Naïve EWMA would drop est(4) below the stale uncontended W=8
        // seed (22809); the drift normalisation scales the unsampled
        // W=8 estimate down in step instead, preserving the recorded
        // W=4 > W=8 ordering.
        for _ in 0..20 {
            t.record(4, 2000.0);
        }
        assert!(t.estimate(4) < 22809.0, "contention really did bite");
        assert_eq!(
            t.choose(8),
            4,
            "W=8 must not win on a stale seed (est4 {:.0} vs est8 {:.0})",
            t.estimate(4),
            t.estimate(8)
        );
        assert!(t.estimate(8) < t.estimate(4));
    }

    #[test]
    fn real_measurements_at_both_widths_can_flip_the_choice() {
        let mut t = WidthTuner::new();
        // Pin W=4 near its seed, then observe W=8 genuinely faster on
        // this host: the tuner follows the evidence.
        for _ in 0..12 {
            t.record(4, 25_000.0);
        }
        for _ in 0..12 {
            t.record(8, 50_000.0);
        }
        assert_eq!(t.choose(8), 8);
        // ...and when W=8 craters again, it backs off.
        for _ in 0..12 {
            t.record(8, 5_000.0);
        }
        assert_eq!(t.choose(8), 4);
    }

    #[test]
    fn optimistic_samples_at_one_width_cannot_lift_an_unsampled_one() {
        let mut t = WidthTuner::new();
        // A contended W=4 measurement goes stale at ~56% of its seed...
        for _ in 0..8 {
            t.record(4, 14_000.0);
        }
        // ...then W=1 measures healthily. A global-average drift would
        // creep back up and let the *unsampled* W=8 seed outrank the
        // live W=4 data; the worst-observed-ratio rule keeps every
        // unsampled width pinned below any sampled width with a higher
        // seed.
        for _ in 0..8 {
            t.record(1, 12_000.0);
        }
        assert!(
            t.estimate(8) < t.estimate(4),
            "unsampled W=8 ({:.0}) must stay below sampled W=4 ({:.0})",
            t.estimate(8),
            t.estimate(4)
        );
        assert_eq!(t.choose(12), 4);
    }

    #[test]
    fn contended_narrow_samples_do_not_strand_the_wide_widths() {
        let mut t = WidthTuner::new();
        // Under churn the farm samples the narrow widths first, and it
        // samples them contended — well below seed. A pessimism rule
        // that bounded *every* unsampled width by the worst observed
        // ratio would pin W=16's estimate under the live W=4 number
        // forever: never estimated fastest, never selected, never
        // measured. The upward branch transfers the measured ratio
        // instead, so a width seeded above everything sampled keeps its
        // recorded lead and gets its turn on the engine.
        for _ in 0..8 {
            t.record(4, 16_000.0);
        }
        for _ in 0..8 {
            t.record(1, 9_000.0);
        }
        assert!(
            t.estimate(16) > t.estimate(4),
            "unsampled W=16 ({:.0}) must keep its seed lead over sampled W=4 ({:.0})",
            t.estimate(16),
            t.estimate(4)
        );
        assert_eq!(t.choose(16), 16);
        // The dip stays pinned down even while W=16 floats up.
        assert!(t.estimate(8) < t.estimate(4));
    }

    #[test]
    fn record_ignores_degenerate_samples() {
        let mut t = WidthTuner::new();
        let before = t.estimate(4);
        t.record(4, 0.0);
        t.record(4, -5.0);
        t.record(4, f64::NAN);
        assert_eq!(t.estimate(4), before);
    }

    #[test]
    fn cover_rounds_up_and_skips_the_dominated_dip() {
        let t = WidthTuner::new();
        assert_eq!(t.cover(0), 1);
        assert_eq!(t.cover(1), 1);
        assert_eq!(t.cover(3), 4);
        // 5–8 live sessions must not land on W=8: the seeds rank it
        // below W=4, so it is dominated and the cover jumps to 16.
        assert_eq!(t.cover(5), 16);
        assert_eq!(t.cover(8), 16);
        assert_eq!(t.cover(9), 16);
        assert_eq!(t.cover(99), 16);
    }

    #[test]
    fn measurements_clearing_the_dip_restore_the_tight_cover() {
        let mut t = WidthTuner::new();
        // This host measures *both* widths and W=8 comes out genuinely
        // above W=4 (beating W=8's own seed alone is not enough — an
        // unsampled W=4 floats up in proportion, keeping the recorded
        // order): no longer dominated, so a 5-session tail packs at 8
        // again instead of over-covering at 16.
        for _ in 0..12 {
            t.record(4, 25_000.0);
        }
        for _ in 0..12 {
            t.record(8, 30_000.0);
        }
        assert_eq!(t.cover(5), 8);
        assert_eq!(t.cover(9), 16);
    }
}
