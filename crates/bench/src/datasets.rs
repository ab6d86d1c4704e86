//! Standard dataset instantiations shared by the `repro` binary, the
//! bench binaries, and the integration tests.

use hetesim_data::{acm, dblp};

/// How large a network to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small networks for tests (~hundreds of nodes per type).
    Tiny,
    /// The default experiment scale (~thousands; seconds per experiment).
    Default,
    /// Entity counts matching Section 5.1 of the paper.
    Paper,
}

impl Scale {
    /// Parses `"tiny" | "default" | "paper"`.
    pub fn parse(text: &str) -> Option<Scale> {
        match text {
            "tiny" => Some(Scale::Tiny),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// The standard seed used by all reproduction runs, so printed tables are
/// stable across machines.
pub const REPRO_SEED: u64 = 2012; // EDBT 2012

/// Builds the ACM-like network at the given scale.
pub fn acm_dataset(scale: Scale) -> acm::AcmDataset {
    let cfg = match scale {
        Scale::Tiny => acm::AcmConfig::tiny(REPRO_SEED),
        Scale::Default => acm::AcmConfig {
            seed: REPRO_SEED,
            ..acm::AcmConfig::default()
        },
        Scale::Paper => acm::AcmConfig::paper_scale(REPRO_SEED),
    };
    acm::generate(&cfg)
}

/// Builds the DBLP-like network at the given scale.
pub fn dblp_dataset(scale: Scale) -> dblp::DblpDataset {
    let cfg = match scale {
        Scale::Tiny => dblp::DblpConfig::tiny(REPRO_SEED),
        Scale::Default => dblp::DblpConfig {
            seed: REPRO_SEED,
            ..dblp::DblpConfig::default()
        },
        Scale::Paper => dblp::DblpConfig::paper_scale(REPRO_SEED),
    };
    dblp::generate(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn tiny_datasets_build() {
        let a = acm_dataset(Scale::Tiny);
        assert!(a.hin.total_edges() > 0);
        let d = dblp_dataset(Scale::Tiny);
        assert!(d.hin.total_edges() > 0);
    }
}
