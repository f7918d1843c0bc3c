//! Shared engine/workload setup for `ftb-serve`, `ftb-loadgen` and
//! `ftb-build`.
//!
//! All three binaries must agree on the graph down to the last edge id —
//! the server to build the engine, the load generator to mint valid
//! queries and verify the handshake fingerprint, the snapshot builder to
//! stamp the recipe into the file it writes. An [`EngineSpec`] is that
//! shared recipe: a workload family, size, seed and build parameters, all
//! deterministic. [`EngineSpec::apply_cli_flag`] is the one parser of the
//! spec's command-line flags, so the binaries cannot drift apart; and
//! [`encode_spec`]/[`decode_spec`] round-trip the spec through a
//! snapshot's application-note section, so a snapshot file carries its own
//! provenance.

use ftb_core::{
    AugmentCoverage, BuildConfig, EngineCore, EngineOptions, FtBfsAugmenter, FtbfsError,
    SnapshotError, Sources, StructureBuilder, TradeoffBuilder,
};
use ftb_graph::{Graph, VertexId};
use ftb_io::{Reader, Writer};
use ftb_workloads::{Workload, WorkloadFamily};
use std::path::Path;
use std::sync::Arc;

/// A deterministic recipe for the served graph and engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineSpec {
    /// Workload family generating the graph.
    pub family: WorkloadFamily,
    /// Target vertex count.
    pub n: usize,
    /// Generation/build seed.
    pub seed: u64,
    /// Tradeoff parameter `ε` of the structure build.
    pub eps: f64,
    /// Run the replacement-path augmentation stage, giving vertex faults
    /// and dual failures a sparse serving tier instead of the full-graph
    /// fallback.
    pub augment: bool,
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec {
            family: WorkloadFamily::ErdosRenyi,
            n: 1000,
            seed: 7,
            eps: 0.3,
            augment: false,
        }
    }
}

/// Parse a workload family by its [`WorkloadFamily::name`].
pub fn parse_family(name: &str) -> Option<WorkloadFamily> {
    WorkloadFamily::all()
        .iter()
        .copied()
        .find(|f| f.name() == name)
}

impl EngineSpec {
    /// The graph this spec names (deterministic in `family`/`n`/`seed`).
    pub fn graph(&self) -> Graph {
        Workload::new(self.family, self.n, self.seed).generate()
    }

    /// The single source the structure is built from.
    pub fn source(&self) -> VertexId {
        VertexId(0)
    }

    /// Build the shareable engine core for `graph` (which must come from
    /// [`EngineSpec::graph`]).
    pub fn build_core(
        &self,
        graph: &Graph,
        options: EngineOptions,
    ) -> Result<Arc<EngineCore>, FtbfsError> {
        let config = BuildConfig::new(self.eps).with_seed(self.seed);
        let structure = TradeoffBuilder::from_config(config.clone())
            .build(graph, &Sources::single(self.source()))?;
        let core = if self.augment {
            let config = config.with_augment(AugmentCoverage::SingleFault);
            let augmented = FtBfsAugmenter::from_build_config(&config).augment(graph, structure)?;
            EngineCore::build_augmented_with(graph, augmented, options)?
        } else {
            EngineCore::build_with(graph, structure, options)?
        };
        Ok(Arc::new(core))
    }

    /// Human-readable one-liner for startup banners.
    pub fn describe(&self) -> String {
        format!(
            "{}(n={}, seed={}) eps={}{}",
            self.family.name(),
            self.n,
            self.seed,
            self.eps,
            if self.augment { " +augmented" } else { "" }
        )
    }

    /// The usage fragment for the flags [`EngineSpec::apply_cli_flag`]
    /// understands, including the valid family names.
    pub fn cli_usage() -> String {
        format!(
            "[--family NAME] [--n N] [--seed S] [--eps E] [--augment]\n\
             families: {}",
            WorkloadFamily::all()
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }

    /// Try to consume one command-line flag belonging to the spec,
    /// pulling the flag's value (when it takes one) from `next`.
    ///
    /// Returns `Ok(true)` when the flag was a spec flag and was applied,
    /// `Ok(false)` when the flag is not a spec flag (the caller handles
    /// it), and `Err(message)` when the flag was recognised but its value
    /// was missing or invalid. This is the single parser all binaries
    /// share, so `ftb-serve`, `ftb-loadgen` and `ftb-build` cannot drift
    /// in how a spec is spelled.
    pub fn apply_cli_flag(
        &mut self,
        flag: &str,
        next: &mut dyn FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        fn need(flag: &str, v: Option<String>) -> Result<String, String> {
            v.ok_or_else(|| format!("missing value for {flag}"))
        }
        fn num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
            s.parse()
                .map_err(|_| format!("{flag} expects a number, got {s:?}"))
        }
        match flag {
            "--family" => {
                let name = need(flag, next())?;
                self.family =
                    parse_family(&name).ok_or_else(|| format!("unknown family {name:?}"))?;
            }
            "--n" => self.n = num(flag, &need(flag, next())?)?,
            "--seed" => self.seed = num(flag, &need(flag, next())?)?,
            "--eps" => self.eps = num(flag, &need(flag, next())?)?,
            "--augment" => self.augment = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Serialize `spec` for a snapshot's application-note section.
///
/// The note travels inside the checksummed container, so a loaded
/// snapshot names the exact recipe it was built from.
pub fn encode_spec(spec: &EngineSpec) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(spec.family.name());
    w.put_u64(spec.n as u64);
    w.put_u64(spec.seed);
    w.put_f64(spec.eps);
    w.put_u8(spec.augment as u8);
    w.into_bytes()
}

/// Decode a spec from a snapshot's application-note section. Total: every
/// byte string maps to `Ok` or a typed [`SnapshotError`], never a panic.
pub fn decode_spec(bytes: &[u8]) -> Result<EngineSpec, SnapshotError> {
    fn bad(detail: &'static str) -> SnapshotError {
        SnapshotError::Malformed {
            section: "engine spec note",
            detail,
        }
    }
    let mut r = Reader::new(bytes);
    let name = r.get_str()?;
    let family = parse_family(&name).ok_or_else(|| bad("unknown workload family"))?;
    let n = r.get_u64()? as usize;
    let seed = r.get_u64()?;
    let eps = r.get_f64()?;
    if !eps.is_finite() {
        return Err(bad("eps is not finite"));
    }
    let augment = match r.get_u8()? {
        0 => false,
        1 => true,
        _ => return Err(bad("augment flag is not 0/1")),
    };
    r.finish("engine spec note")?;
    Ok(EngineSpec {
        family,
        n,
        seed,
        eps,
        augment,
    })
}

/// Why [`load_snapshot`] failed: the file could not be read, or its bytes
/// were not a valid engine snapshot.
#[derive(Debug)]
pub enum SnapshotLoadError {
    /// Reading the snapshot file failed.
    Io(std::io::Error),
    /// The file's bytes did not decode to an engine snapshot.
    Decode(SnapshotError),
}

impl std::fmt::Display for SnapshotLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotLoadError::Io(e) => write!(f, "reading snapshot failed: {e}"),
            SnapshotLoadError::Decode(e) => write!(f, "decoding snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotLoadError::Io(e) => Some(e),
            SnapshotLoadError::Decode(e) => Some(e),
        }
    }
}

/// Persist `core` (with `spec` stamped into the note section) to `path`.
///
/// The bytes are written to a `.tmp` sibling first and renamed into
/// place, so a crash mid-write never leaves a truncated file under the
/// final name — a half-written snapshot would be *detected* at load (the
/// checksum covers everything), but it should not shadow a good one.
pub fn save_snapshot(path: &Path, core: &EngineCore, spec: &EngineSpec) -> std::io::Result<()> {
    let bytes = core.write_snapshot(&encode_spec(spec));
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

/// Load an engine core (and the [`EngineSpec`] it was built from) from a
/// snapshot file written by [`save_snapshot`].
///
/// `options` are the *serving* knobs — deployment configuration supplied
/// at load time, deliberately not part of the persisted state.
pub fn load_snapshot(
    path: &Path,
    options: EngineOptions,
) -> Result<(Arc<EngineCore>, EngineSpec), SnapshotLoadError> {
    let bytes = std::fs::read(path).map_err(SnapshotLoadError::Io)?;
    let (core, note) =
        EngineCore::read_snapshot(&bytes, options).map_err(SnapshotLoadError::Decode)?;
    let spec = decode_spec(&note).map_err(SnapshotLoadError::Decode)?;
    Ok((Arc::new(core), spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_parse() {
        for &f in WorkloadFamily::all() {
            assert_eq!(parse_family(f.name()), Some(f));
        }
        assert_eq!(parse_family("no-such-family"), None);
    }

    #[test]
    fn spec_graph_is_deterministic() {
        let spec = EngineSpec {
            n: 120,
            ..EngineSpec::default()
        };
        assert_eq!(spec.graph().fingerprint(), spec.graph().fingerprint());
    }

    #[test]
    fn augment_spec_builds_an_augmented_tier() {
        let spec = EngineSpec {
            n: 120,
            augment: true,
            ..EngineSpec::default()
        };
        let core = spec
            .build_core(&spec.graph(), EngineOptions::default())
            .expect("spec graphs are valid input");
        assert_eq!(core.augment_coverage(), AugmentCoverage::SingleFault);
        assert!(core.augmented_edges().is_some_and(|k| k > 0));

        let plain = EngineSpec {
            augment: false,
            ..spec
        };
        let core = plain
            .build_core(&plain.graph(), EngineOptions::default())
            .unwrap();
        assert_eq!(core.augmented_edges(), None);
    }

    #[test]
    fn spec_note_round_trips() {
        let spec = EngineSpec {
            family: WorkloadFamily::ErdosRenyi,
            n: 321,
            seed: 99,
            eps: 0.45,
            augment: true,
        };
        assert_eq!(decode_spec(&encode_spec(&spec)), Ok(spec));
    }

    #[test]
    fn spec_note_decoding_is_total() {
        let bytes = encode_spec(&EngineSpec::default());
        for cut in 0..bytes.len() {
            assert!(decode_spec(&bytes[..cut]).is_err(), "prefix of {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_spec(&trailing),
            Err(SnapshotError::TrailingBytes { .. })
        ));
        let mut bad_flag = bytes;
        *bad_flag.last_mut().unwrap() = 7;
        assert!(matches!(
            decode_spec(&bad_flag),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn cli_flags_apply() {
        let mut spec = EngineSpec::default();
        let argv = [
            "--family",
            "erdos-renyi",
            "--n",
            "77",
            "--seed",
            "3",
            "--eps",
            "0.5",
            "--augment",
        ];
        let mut it = argv.iter().map(|s| s.to_string());
        while let Some(flag) = it.next() {
            assert_eq!(spec.apply_cli_flag(&flag, &mut || it.next()), Ok(true));
        }
        assert_eq!(spec.n, 77);
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.eps, 0.5);
        assert!(spec.augment);
        assert_eq!(spec.apply_cli_flag("--workers", &mut || None), Ok(false));
        assert!(spec.apply_cli_flag("--n", &mut || None).is_err());
        assert!(spec
            .apply_cli_flag("--n", &mut || Some("x".into()))
            .is_err());
        assert!(spec
            .apply_cli_flag("--family", &mut || Some("nope".into()))
            .is_err());
    }
}
