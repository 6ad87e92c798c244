//! Policy presets — the configurations evaluated in §7.2.
//!
//! The paper deliberately uses a *simple* policy (fscale `y = xⁿ` with `n`
//! between 3 and 6, `f_default` around 1) to demonstrate that HPT/HWT are
//! effective even without sophistication. Every preset runs the default
//! Elector, that simple policy with `n = 4`
//! ([`ElectorConfig::default`](crate::manager::elector::ElectorConfig::default)).
//! These presets reproduce the Figure 8/9 configurations.

use crate::manager::nominator::NominatorMode;
use crate::manager::M5Config;
use crate::tracker::{TrackerAlgo, TrackerConfig};

/// M5 with the HPT-only Nominator and the CM-Sketch(32K) tracker — the
/// paper's headline configuration (`M5(HPT)` in Figure 9).
pub fn simple_hpt_policy() -> M5Config {
    M5Config {
        hpt: Some(TrackerConfig::hpt()),
        hwt: None,
        mode: NominatorMode::HptOnly,
        ..M5Config::default()
    }
}

/// M5 with the HWT-driven Nominator (`M5(HWT)` in Figure 9) — Guideline 4:
/// best for sparse-hot-page applications such as Redis and CacheLib.
pub fn simple_hwt_policy() -> M5Config {
    M5Config {
        hpt: None,
        hwt: Some(TrackerConfig::hwt()),
        mode: NominatorMode::HwtDriven,
        ..M5Config::default()
    }
}

/// M5 with the HPT-driven Nominator (`M5(HPT+HWT)` in Figure 9) —
/// Guideline 3: best for mixed dense/sparse workloads such as roms and
/// Liblinear.
pub fn simple_hpt_hwt_policy() -> M5Config {
    M5Config {
        hpt: Some(TrackerConfig::hpt()),
        hwt: Some(TrackerConfig::hwt()),
        mode: NominatorMode::HptDriven,
        ..M5Config::default()
    }
}

/// M5 with a Space-Saving(50) HPT — the FPGA-synthesizable alternative of
/// Figure 8.
pub fn space_saving_50_policy() -> M5Config {
    M5Config {
        hpt: Some(TrackerConfig {
            algo: TrackerAlgo::space_saving_50(),
            ..TrackerConfig::hpt()
        }),
        hwt: None,
        mode: NominatorMode::HptOnly,
        ..M5Config::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::M5Manager;

    #[test]
    fn presets_construct_valid_managers() {
        for (cfg, name) in [
            (simple_hpt_policy(), "m5-hpt"),
            (simple_hwt_policy(), "m5-hwt"),
            (simple_hpt_hwt_policy(), "m5-hpt+hwt"),
            (space_saving_50_policy(), "m5-hpt"),
        ] {
            use cxl_sim::system::MigrationDaemon;
            let m = M5Manager::new(cfg);
            assert_eq!(m.name(), name);
        }
    }

    #[test]
    fn space_saving_preset_uses_50_entries() {
        let cfg = space_saving_50_policy();
        assert_eq!(
            cfg.hpt.unwrap().algo,
            TrackerAlgo::SpaceSaving { entries: 50 }
        );
    }
}
