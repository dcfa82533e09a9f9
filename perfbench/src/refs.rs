//! Reference outputs, kept in `refs/` beside the benchmark.
//!
//! They come from the tree-walk engine running the plain-Go compile with
//! the collector off — no inserted frees, no GC, not the default engine
//! — so they are independent of every layer the benchmark times. Program
//! outputs do not depend on the run seed (the seed moves only jitter,
//! migrations and arrivals); `write` checks that on several seeds before
//! it writes anything.

use std::collections::BTreeMap;
use std::path::PathBuf;

use gofree::{compile, execute, run_service, CompileOptions, RunConfig, Setting, VmEngine};

use crate::work::{programs, service_config, Workload, KV_REQUESTS};

/// Where the reference files live.
pub(crate) fn dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/refs"))
}

/// Loaded reference files.
#[derive(Debug, Default)]
pub(crate) struct Refs {
    outputs: BTreeMap<String, String>,
    checksums: BTreeMap<String, i64>,
}

impl Refs {
    /// Loads the references a workload needs.
    ///
    /// # Errors
    ///
    /// A missing or malformed reference file.
    pub(crate) fn load(w: Workload) -> Result<Refs, String> {
        let mut refs = Refs::default();
        for p in programs(w) {
            let read = |ext: &str| {
                let path = dir().join(format!("{}.{ext}", p.name));
                std::fs::read_to_string(&path)
                    .map_err(|e| format!("reading reference {}: {e}", path.display()))
            };
            if w == Workload::KvPoisson {
                let text = read("checksum")?;
                let (n, sum) = parse_checksum(&text)
                    .ok_or_else(|| format!("malformed checksum reference for {}", p.name))?;
                if n != KV_REQUESTS as u64 {
                    return Err(format!(
                        "checksum reference for {} covers {n} requests, not {KV_REQUESTS}",
                        p.name
                    ));
                }
                refs.checksums.insert(p.name.to_string(), sum);
            } else {
                refs.outputs.insert(p.name.to_string(), read("out")?);
            }
        }
        Ok(refs)
    }

    /// The reference output of a batch program.
    ///
    /// # Errors
    ///
    /// When none was loaded.
    pub(crate) fn output(&self, program: &str) -> Result<&str, String> {
        self.outputs
            .get(program)
            .map(String::as_str)
            .ok_or_else(|| format!("no reference output for {program}"))
    }

    /// The reference checksum of a service program.
    ///
    /// # Errors
    ///
    /// When none was loaded.
    pub(crate) fn checksum(&self, program: &str) -> Result<i64, String> {
        self.checksums
            .get(program)
            .copied()
            .ok_or_else(|| format!("no reference checksum for {program}"))
    }
}

fn parse_checksum(text: &str) -> Option<(u64, i64)> {
    let mut it = text.split_whitespace();
    let n = it.next()?.strip_prefix("requests=")?.parse().ok()?;
    let sum = it.next()?.strip_prefix("checksum=")?.parse().ok()?;
    Some((n, sum))
}

/// The reference configuration: tree-walk engine, everything else the
/// paper's defaults.
fn reference_config(seed: u64) -> RunConfig {
    RunConfig {
        engine: VmEngine::TreeWalk,
        ..crate::work::run_config(seed)
    }
}

/// Regenerates every reference file, checking that `seeds` agree.
///
/// # Errors
///
/// A compile or VM error, seeds that disagree, or a write failure.
pub fn write(seeds: &[u64]) -> Result<(), String> {
    let opts = CompileOptions::go();
    for w in Workload::ALL {
        for p in programs(w) {
            let compiled = compile(&p.source, &opts).map_err(|d| d.render(&p.source))?;
            let mut seen: Option<String> = None;
            for &seed in seeds {
                let cfg = reference_config(seed);
                let text = if w == Workload::KvPoisson {
                    let r = run_service(&compiled, Setting::GoGcOff, &cfg, &service_config())
                        .map_err(|e| format!("{}: {e}", p.name))?;
                    format!(
                        "requests={} checksum={}\n",
                        r.stats.requests, r.stats.checksum
                    )
                } else {
                    execute(&compiled, Setting::GoGcOff, &cfg)
                        .map_err(|e| format!("{}: {e}", p.name))?
                        .output
                };
                match &seen {
                    Some(first) if *first != text => {
                        return Err(format!("{}: seeds disagree on the reference", p.name))
                    }
                    _ => seen = Some(text),
                }
            }
            let ext = if w == Workload::KvPoisson {
                "checksum"
            } else {
                "out"
            };
            let path = dir().join(format!("{}.{ext}", p.name));
            std::fs::write(&path, seen.expect("at least one seed"))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_lines_parse() {
        assert_eq!(
            parse_checksum("requests=50000 checksum=-12\n"),
            Some((50000, -12))
        );
        assert_eq!(parse_checksum("checksum=1"), None);
    }
}
