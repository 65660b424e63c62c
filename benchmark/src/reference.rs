//! The committed reference outputs (`reference.json`), valid for the
//! default seed only.

use unsnap_obs::reader;

use crate::workloads::{Driver, Workload};

/// Reference facts of one solve workload at the default seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Sweeps of one solve (for `converge-dsa`: the committed count the
    /// `+ 2` allowance is measured from).
    pub sweeps: usize,
    /// Scalar-flux sum, minimum and maximum.
    pub flux: [f64; 3],
}

const REFERENCE_JSON: &str = include_str!("../reference.json");

/// The seed `reference.json` was recorded with.
pub fn reference_seed() -> u64 {
    reader::parse(REFERENCE_JSON)
        .ok()
        .and_then(|doc| doc.get("seed").and_then(|v| v.as_u64()))
        .expect("reference.json carries its seed")
}

/// The committed reference for solves of `workload`'s problem by
/// `driver`, when `seed` is the one the references were recorded with.
/// `jacobi-2x2` solves the `sweep-linear` problem, so its single-domain
/// solves (the traced pass runs some) answer to that reference.
pub fn reference_for(workload: Workload, driver: Driver, seed: u64) -> Option<Reference> {
    if seed != reference_seed() {
        return None;
    }
    let name = match (workload, driver) {
        (Workload::Jacobi2x2, Driver::Session) => Workload::SweepLinear.name(),
        _ => workload.name(),
    };
    let doc = reader::parse(REFERENCE_JSON).expect("reference.json is valid JSON");
    let entry = doc.get("workloads")?.get(name)?;
    let flux = entry.get("flux")?.as_array()?;
    Some(Reference {
        sweeps: entry.get("sweeps")?.as_usize()?,
        flux: [flux[0].as_f64()?, flux[1].as_f64()?, flux[2].as_f64()?],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::DEFAULT_SEED;

    #[test]
    fn every_solve_workload_has_a_reference_for_the_default_seed() {
        assert_eq!(reference_seed(), DEFAULT_SEED);
        for w in Workload::ALL {
            let Some(driver) = w.driver() else { continue };
            assert!(
                reference_for(w, driver, DEFAULT_SEED).is_some(),
                "{}",
                w.name()
            );
            assert!(reference_for(w, driver, DEFAULT_SEED + 1).is_none());
        }
        assert_eq!(
            reference_for(Workload::Jacobi2x2, Driver::Session, DEFAULT_SEED),
            reference_for(Workload::SweepLinear, Driver::Session, DEFAULT_SEED)
        );
    }
}
