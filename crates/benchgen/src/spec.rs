//! Dataset specifications and summary statistics (Table 5.2).

use std::fmt;

/// Which benchmark workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scientists branching for isolated analysis — version tree.
    Sci,
    /// Curated canonical dataset with branch-and-merge — version DAG.
    Cur,
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::Sci => "SCI",
            Workload::Cur => "CUR",
        })
    }
}

/// Generator parameters (Table 5.2 columns).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub name: String,
    pub workload: Workload,
    /// Target number of versions `|V|`.
    pub num_versions: usize,
    /// Number of branches `B`.
    pub branches: usize,
    /// Modifications (inserts or updates) per commit `I`.
    pub mods_per_commit: usize,
    /// Attributes per record; the first attribute is the primary key.
    /// The paper uses 100 4-byte integers; we default to 20.
    pub num_attrs: usize,
    pub seed: u64,
}

impl DatasetSpec {
    pub fn sci(
        name: impl Into<String>,
        num_versions: usize,
        branches: usize,
        mods_per_commit: usize,
    ) -> Self {
        DatasetSpec {
            name: name.into(),
            workload: Workload::Sci,
            num_versions,
            branches,
            mods_per_commit,
            num_attrs: 20,
            seed: 0x0_5C1,
        }
    }

    pub fn cur(
        name: impl Into<String>,
        num_versions: usize,
        branches: usize,
        mods_per_commit: usize,
    ) -> Self {
        DatasetSpec {
            name: name.into(),
            workload: Workload::Cur,
            num_versions,
            branches,
            mods_per_commit,
            num_attrs: 20,
            seed: 0x0_C04,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_attrs(mut self, num_attrs: usize) -> Self {
        assert!(num_attrs >= 1, "records need at least the key attribute");
        self.num_attrs = num_attrs;
        self
    }

    /// The scaled stand-ins for the paper's benchmark datasets
    /// (Table 5.2, divided by ~100 in record count — see EXPERIMENTS.md).
    pub fn presets() -> Vec<DatasetSpec> {
        vec![
            DatasetSpec::sci("SCI_10K", 1000, 100, 10),
            DatasetSpec::sci("SCI_20K", 1000, 100, 20),
            DatasetSpec::sci("SCI_50K", 1000, 100, 50),
            DatasetSpec::sci("SCI_80K", 1000, 100, 80),
            DatasetSpec::sci("SCI_100K", 2000, 200, 50),
            DatasetSpec::cur("CUR_10K", 1000, 100, 10),
            DatasetSpec::cur("CUR_50K", 1000, 100, 50),
            DatasetSpec::cur("CUR_100K", 2000, 200, 50),
        ]
    }

    /// The full-scale tier: 1M+ records across thousands of versions
    /// (|R| ≈ |V| × I), used by the storage/recreation frontier bench.
    /// Too large for the CI smoke gate — `frontier` runs these only when
    /// run with `--tier full` (see EXPERIMENTS.md).
    pub fn scale_presets() -> Vec<DatasetSpec> {
        vec![
            DatasetSpec::sci("SCI_1M", 4000, 400, 270),
            // CUR spends one version per cycle on a merge (which creates
            // no records), so it needs a higher I to clear 1M records.
            DatasetSpec::cur("CUR_1M", 4000, 400, 300),
        ]
    }
}

/// Realized dataset statistics — one row of Table 5.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetStats {
    pub name: String,
    /// `|V|`
    pub versions: usize,
    /// `|R|` (distinct records)
    pub records: u64,
    /// `|E|` (version–record memberships)
    pub edges: u64,
    /// `B`
    pub branches: usize,
    /// `I`
    pub mods_per_commit: usize,
    /// `|R̂|` — records duplicated by the DAG→tree transform (CUR only).
    pub rhat: u64,
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} |V|={:<6} |R|={:<9} |E|={:<10} B={:<5} I={:<5} |R̂|={}",
            self.name,
            self.versions,
            self.records,
            self.edges,
            self.branches,
            self.mods_per_commit,
            self.rhat
        )
    }
}
