//! Construction configuration (ε, seeds, ablation toggles).
//!
//! [`BuildConfig`] is a fluent builder: start from [`BuildConfig::new`] (or
//! [`BuildConfig::try_new`] for checked construction) and chain `with_*`
//! setters. Validation of the whole configuration happens up front in
//! [`BuildConfig::validate`], which every [`crate::StructureBuilder`] calls
//! before doing any work.

use crate::error::FtbfsError;
use crate::ftbfs::AugmentCoverage;
use ftb_par::ParallelConfig;

/// Configuration of the `(b, r)` FT-BFS construction.
#[derive(Clone, Debug)]
pub struct BuildConfig {
    /// The tradeoff parameter `ε ∈ [0, 1]`: the reinforcement budget is
    /// `Õ(n^{1-ε})` and the backup budget `Õ(n^{1+ε})`.
    pub eps: f64,
    /// Seed of the tie-breaking weight assignment `W` (and hence of the whole
    /// construction).
    pub seed: u64,
    /// Worker-thread configuration for the parallel sweeps.
    pub parallel: ParallelConfig,
    /// Override for the number of Phase S1 rounds (`K = ⌈1/ε⌉ + 2` when
    /// `None`). Used by the ablation experiment.
    pub k_override: Option<usize>,
    /// Override for the per-terminal Phase S1 / S2 budget (`⌈n^ε⌉` when
    /// `None`). Used by the ablation experiment.
    pub budget_override: Option<usize>,
    /// Disable the Phase S2 heavy-path-decomposition machinery (Sub-phases
    /// S2.1–S2.3). The resulting structure is still correct — the skipped
    /// pairs simply surface as additional reinforced edges — which is exactly
    /// what the ablation experiment measures.
    pub enable_phase_s2: bool,
    /// After construction, run the exact protection verifier and keep only
    /// the genuinely unprotected edges in the reinforced set (the
    /// algorithmic set from Observation 2.2 is an over-approximation).
    pub exact_reinforcement: bool,
    /// Force the ε ≥ 1/2 baseline branch regardless of `eps`.
    pub force_baseline: bool,
    /// Fail the build with [`FtbfsError::DisconnectedSource`] when the source
    /// cannot reach every vertex. Off by default: unreachable vertices simply
    /// stay outside the structure, matching the legacy behaviour.
    pub require_connected: bool,
    /// Capacity (in distance rows) of the per-context LRU for fault-query
    /// engines configured from this build configuration. Structures do not
    /// carry their config, so this does **not** flow into an engine
    /// automatically: lift it with
    /// [`EngineOptions::from_build_config`](crate::engine::EngineOptions::from_build_config)
    /// and pass the result to `EngineCore::build_with`. Minimum 1 (enforced
    /// at engine construction).
    pub engine_lru_rows: usize,
    /// Maximum fault-set size (`|F|`) engines configured from this build
    /// configuration accept; larger sets are rejected with
    /// [`FtbfsError::FaultSetTooLarge`]. Like `engine_lru_rows`, lift it via
    /// [`EngineOptions::from_build_config`](crate::engine::EngineOptions::from_build_config).
    /// Default 2 (the dual-failure regime of the paper's successors);
    /// minimum 1.
    pub max_faults: usize,
    /// Replacement-path augmentation stage to run after construction
    /// ([`crate::builder::build_augmented_structure`] /
    /// [`FtBfsAugmenter::from_build_config`](crate::ftbfs::FtBfsAugmenter::from_build_config)):
    /// [`AugmentCoverage::Off`] (default) builds the plain `(b, r)`
    /// structure, [`AugmentCoverage::SingleFault`] /
    /// [`AugmentCoverage::DualFailure`] additionally build the sparse
    /// `H⁺` answering vertex faults, reinforced-edge hypotheticals and (for
    /// dual) two-failure sets without full-graph recomputation.
    pub augment: AugmentCoverage,
}

impl BuildConfig {
    /// Default configuration for a given ε. Does not validate; call
    /// [`BuildConfig::validate`] (or use [`BuildConfig::try_new`]) before
    /// building.
    pub fn new(eps: f64) -> Self {
        BuildConfig {
            eps,
            seed: 0xF7B5_0001,
            parallel: ParallelConfig::default(),
            k_override: None,
            budget_override: None,
            enable_phase_s2: true,
            exact_reinforcement: false,
            force_baseline: false,
            require_connected: false,
            engine_lru_rows: crate::engine::EngineOptions::DEFAULT_LRU_ROWS,
            max_faults: crate::engine::EngineOptions::DEFAULT_MAX_FAULTS,
            augment: AugmentCoverage::Off,
        }
    }

    /// Checked construction: like [`BuildConfig::new`] but rejects an ε
    /// outside `[0, 1]` immediately.
    pub fn try_new(eps: f64) -> Result<Self, FtbfsError> {
        let config = Self::new(eps);
        config.validate()?;
        Ok(config)
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the parallel configuration.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Use a serial (single-threaded) construction.
    pub fn serial(mut self) -> Self {
        self.parallel = ParallelConfig::serial();
        self
    }

    /// Override the number of Phase S1 rounds (ablation knob).
    pub fn with_k_override(mut self, k: Option<usize>) -> Self {
        self.k_override = k;
        self
    }

    /// Override the per-terminal budget (ablation knob).
    pub fn with_budget_override(mut self, budget: Option<usize>) -> Self {
        self.budget_override = budget;
        self
    }

    /// Enable or disable Phase S2 (ablation knob).
    pub fn with_phase_s2(mut self, enable: bool) -> Self {
        self.enable_phase_s2 = enable;
        self
    }

    /// Enable the exact-reinforcement post-pass.
    pub fn with_exact_reinforcement(mut self, exact: bool) -> Self {
        self.exact_reinforcement = exact;
        self
    }

    /// Force the ε ≥ 1/2 baseline branch.
    pub fn with_force_baseline(mut self, force: bool) -> Self {
        self.force_baseline = force;
        self
    }

    /// Require the source to reach every vertex; otherwise builds fail with
    /// [`FtbfsError::DisconnectedSource`].
    pub fn with_require_connected(mut self, require: bool) -> Self {
        self.require_connected = require;
        self
    }

    /// Set the per-context LRU row capacity of engines derived from this
    /// configuration (minimum 1).
    pub fn with_engine_lru_rows(mut self, rows: usize) -> Self {
        self.engine_lru_rows = rows.max(1);
        self
    }

    /// Set the maximum fault-set size engines derived from this
    /// configuration accept (minimum 1).
    pub fn with_max_faults(mut self, max: usize) -> Self {
        self.max_faults = max.max(1);
        self
    }

    /// Select the replacement-path augmentation stage
    /// ([`AugmentCoverage::Off`] by default).
    pub fn with_augment(mut self, coverage: AugmentCoverage) -> Self {
        self.augment = coverage;
        self
    }

    /// Validate the configuration independently of any input graph.
    ///
    /// Checks `ε ∈ [0, 1]` (finite) and that the ablation overrides describe
    /// a usable amount of work (no zero rounds / zero budget).
    pub fn validate(&self) -> Result<(), FtbfsError> {
        if !self.eps.is_finite() || !(0.0..=1.0).contains(&self.eps) {
            return Err(FtbfsError::InvalidEps { eps: self.eps });
        }
        if self.k_override == Some(0) || self.budget_override == Some(0) {
            // Report the effective values so the offending zero is visible.
            return Err(FtbfsError::BudgetOverflow {
                k_rounds: self.k_rounds(),
                budget: self.budget_override.unwrap_or(1),
            });
        }
        Ok(())
    }

    /// Validate the configuration against an `n`-vertex input: everything in
    /// [`BuildConfig::validate`] plus an overflow check of the total
    /// `K · budget · n` work envelope the phases may allocate.
    pub fn validate_for(&self, n: usize) -> Result<(), FtbfsError> {
        self.validate()?;
        let k = self.k_rounds();
        let budget = self.budget(n);
        if k.checked_mul(budget)
            .and_then(|per_terminal| per_terminal.checked_mul(n))
            .is_none()
        {
            return Err(FtbfsError::BudgetOverflow {
                k_rounds: k,
                budget,
            });
        }
        Ok(())
    }

    /// The number of Phase S1 rounds: `K = ⌈1/ε⌉ + 2` (Eq. 4), unless
    /// overridden.
    pub fn k_rounds(&self) -> usize {
        if let Some(k) = self.k_override {
            return k;
        }
        if self.eps <= 0.0 {
            return 2;
        }
        (1.0 / self.eps).ceil() as usize + 2
    }

    /// The per-terminal last-edge budget `⌈n^ε⌉`, unless overridden.
    pub fn budget(&self, n: usize) -> usize {
        if let Some(b) = self.budget_override {
            return b.max(1);
        }
        ((n as f64).powf(self.eps).ceil() as usize).max(1)
    }

    /// `true` if the `ε ≥ 1/2` baseline branch should be used (the
    /// `n^{3/2}` term of Theorem 3.1 dominates there).
    pub fn use_baseline_branch(&self) -> bool {
        self.force_baseline || self.eps >= 0.5
    }
}

impl Default for BuildConfig {
    fn default() -> Self {
        Self::new(0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_rounds_follow_eq_4() {
        assert_eq!(BuildConfig::new(0.5).k_rounds(), 4);
        assert_eq!(BuildConfig::new(0.25).k_rounds(), 6);
        assert_eq!(BuildConfig::new(0.1).k_rounds(), 12);
        assert_eq!(BuildConfig::new(0.0).k_rounds(), 2);
        assert_eq!(BuildConfig::new(0.1).with_seed(1).k_rounds(), 12);
        let overridden = BuildConfig {
            k_override: Some(3),
            ..BuildConfig::new(0.1)
        };
        assert_eq!(overridden.k_rounds(), 3);
    }

    #[test]
    fn budget_is_ceil_n_to_eps() {
        let c = BuildConfig::new(0.5);
        assert_eq!(c.budget(100), 10);
        assert_eq!(c.budget(101), 11);
        let c0 = BuildConfig::new(0.0);
        assert_eq!(c0.budget(1000), 1);
        let forced = BuildConfig {
            budget_override: Some(7),
            ..BuildConfig::new(0.5)
        };
        assert_eq!(forced.budget(100), 7);
    }

    #[test]
    fn baseline_branch_selection() {
        assert!(BuildConfig::new(0.5).use_baseline_branch());
        assert!(BuildConfig::new(0.9).use_baseline_branch());
        assert!(!BuildConfig::new(0.3).use_baseline_branch());
        let forced = BuildConfig {
            force_baseline: true,
            ..BuildConfig::new(0.1)
        };
        assert!(forced.use_baseline_branch());
    }

    #[test]
    fn builder_style_setters() {
        let c = BuildConfig::new(0.2).with_seed(99).serial();
        assert_eq!(c.seed, 99);
        assert!(c.parallel.is_serial());
        assert!(c.enable_phase_s2);
        assert!(!c.exact_reinforcement);
        let c = c
            .with_phase_s2(false)
            .with_exact_reinforcement(true)
            .with_force_baseline(true)
            .with_require_connected(true)
            .with_k_override(Some(5))
            .with_budget_override(Some(9));
        assert!(!c.enable_phase_s2);
        assert!(c.exact_reinforcement);
        assert!(c.force_baseline);
        assert!(c.require_connected);
        assert_eq!(c.k_rounds(), 5);
        assert_eq!(c.budget(1_000_000), 9);
    }

    #[test]
    fn augment_defaults_off_and_is_settable() {
        let c = BuildConfig::new(0.3);
        assert_eq!(c.augment, AugmentCoverage::Off);
        let c = c.with_augment(AugmentCoverage::DualFailure);
        assert_eq!(c.augment, AugmentCoverage::DualFailure);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn max_faults_defaults_to_two_and_clamps_to_one() {
        let c = BuildConfig::new(0.3);
        assert_eq!(c.max_faults, 2);
        assert_eq!(c.clone().with_max_faults(4).max_faults, 4);
        assert_eq!(c.with_max_faults(0).max_faults, 1);
    }

    #[test]
    fn validation_accepts_the_legal_range() {
        for eps in [0.0, 0.25, 0.5, 1.0] {
            assert!(BuildConfig::new(eps).validate().is_ok(), "eps = {eps}");
            assert!(BuildConfig::try_new(eps).is_ok());
        }
    }

    #[test]
    fn validation_rejects_bad_eps() {
        for eps in [-0.1, 1.01, f64::NAN, f64::INFINITY, -f64::INFINITY] {
            let err = BuildConfig::new(eps).validate().unwrap_err();
            assert!(
                matches!(err, FtbfsError::InvalidEps { .. }),
                "eps = {eps} gave {err:?}"
            );
            assert!(BuildConfig::try_new(eps).is_err());
        }
    }

    #[test]
    fn validation_rejects_degenerate_overrides() {
        let zero_k = BuildConfig::new(0.3).with_k_override(Some(0));
        assert!(matches!(
            zero_k.validate(),
            Err(FtbfsError::BudgetOverflow { .. })
        ));
        let zero_budget = BuildConfig::new(0.3).with_budget_override(Some(0));
        assert!(matches!(
            zero_budget.validate(),
            Err(FtbfsError::BudgetOverflow { .. })
        ));
    }

    #[test]
    fn validation_rejects_overflowing_work_envelopes() {
        let absurd = BuildConfig::new(0.3)
            .with_k_override(Some(usize::MAX))
            .with_budget_override(Some(usize::MAX));
        assert!(matches!(
            absurd.validate_for(1000),
            Err(FtbfsError::BudgetOverflow { .. })
        ));
        assert!(BuildConfig::new(0.3).validate_for(1000).is_ok());
    }
}
