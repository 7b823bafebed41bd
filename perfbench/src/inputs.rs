//! Seeded input generation: graph pairs written to packs and the observe
//! update streams, all made before any timing starts.

use std::path::{Path, PathBuf};

use std::process::Command;

use dcs_datasets::large::{generate_packs, LargeConfig};
use dcs_graph::{GraphPack, SignedGraph, VertexId, Weight};
use serde_json::json;

/// A SplitMix64 generator: tiny, seedable, and good enough for shuffles.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent seed for one purpose of one workload.
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    let mut mix = SplitMix::new(seed);
    tag.bytes().fold(mix.next_u64(), |acc, byte| {
        SplitMix::new(acc ^ u64::from(byte)).next_u64()
    })
}

/// The pair of a workload: a power-law background with planted emerging
/// groups, shaped like `LargeConfig::benchmark()` at a smaller size.
pub fn workload_pair(workload: &str, seed: u64) -> LargeConfig {
    let (vertices, edges, groups): (usize, usize, &[usize]) = match workload {
        "serve-stream" => (5_000, 50_000, &[24, 20, 16, 12]),
        _ => (20_000, 200_000, &[48, 40, 32, 24]),
    };
    LargeConfig {
        vertices,
        edges,
        group_sizes: groups.to_vec(),
        seed: derive_seed(seed, workload),
        ..LargeConfig::benchmark()
    }
}

/// A generated pair on disk.
pub struct PackedPair {
    pub g1_pack: PathBuf,
    pub g2_pack: PathBuf,
    pub vertices: usize,
    pub g1_edges: usize,
    pub g2_edges: usize,
    /// Vertices of each planted group, sorted ascending.
    pub planted: Vec<Vec<VertexId>>,
}

impl PackedPair {
    /// Opens and decodes `G2`.
    pub fn open_g2(&self) -> SignedGraph {
        GraphPack::open(&self.g2_pack)
            .and_then(|pack| pack.to_graph())
            .expect("the generated G2 pack opens")
    }
}

const PLANTED_FILE: &str = "planted.json";

/// Writes the workload's pair as two packs plus the planted groups into
/// `dir`.  Runs in a child process (see [`prepare`]).
pub fn generate_into(workload: &str, seed: u64, dir: &Path) -> std::io::Result<()> {
    let config = workload_pair(workload, seed);
    let pair = generate_packs(&config, dir.join("g1.dcspack"), dir.join("g2.dcspack"))?;
    let planted: Vec<Vec<VertexId>> = pair.planted.into_iter().map(|g| g.vertices).collect();
    std::fs::write(dir.join(PLANTED_FILE), json!(planted).to_string())
}

/// Generates the workload's pair into `dir` in a child process, so the
/// generator's memory never counts toward this process's peak RSS.
pub fn prepare(workload: &str, seed: u64, dir: &Path) -> PackedPair {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let status = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--generate-into",
        ])
        .arg(dir)
        .status()
        .expect("run the input generator");
    assert!(status.success(), "the input generator failed: {status}");
    let text = std::fs::read_to_string(dir.join(PLANTED_FILE)).expect("read the planted groups");
    let planted = serde_json::from_str::<serde_json::Value>(&text)
        .ok()
        .and_then(|value| {
            value
                .as_array()?
                .iter()
                .map(|group| {
                    group
                        .as_array()?
                        .iter()
                        .map(|v| v.as_u64().map(|v| v as VertexId))
                        .collect::<Option<Vec<_>>>()
                })
                .collect::<Option<Vec<_>>>()
        })
        .expect("the planted groups parse");
    let header = |path: &Path| GraphPack::open(path).expect("the generated packs open");
    let g1_pack = dir.join("g1.dcspack");
    let g2_pack = dir.join("g2.dcspack");
    let (g1, g2) = (header(&g1_pack), header(&g2_pack));
    PackedPair {
        vertices: g1.vertices(),
        g1_edges: g1.edges(),
        g2_edges: g2.edges(),
        g1_pack,
        g2_pack,
        planted,
    }
}

pub type Update = (VertexId, VertexId, Weight);

/// A deterministic stream of observe batches.
///
/// The first batches carry every edge of `G2` once, in a seeded order, so the
/// observed graph grows towards `G2` and the planted groups emerge as their
/// edges arrive.  Later batches jitter the weights of seeded `G2` edges.
/// Batch `i` is a pure function of the seed and `i`, so the benchmark can
/// replay any prefix of what the server acknowledged.
pub struct UpdateStream {
    edges: Vec<Update>,
    batch_size: usize,
    seed: u64,
}

impl UpdateStream {
    pub fn new(g2: &SignedGraph, batch_size: usize, seed: u64) -> UpdateStream {
        let mut edges: Vec<Update> = g2.edges().collect();
        let mut rng = SplitMix::new(seed);
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.below(i + 1));
        }
        UpdateStream {
            edges,
            batch_size,
            seed,
        }
    }

    /// Batches that deliver `G2` (after these, batches jitter weights).
    pub fn growth_batches(&self) -> usize {
        self.edges.len() / self.batch_size
    }

    pub fn batch(&self, index: usize) -> Vec<Update> {
        let start = index * self.batch_size;
        if start + self.batch_size <= self.edges.len() {
            return self.edges[start..start + self.batch_size].to_vec();
        }
        let mut rng = SplitMix::new(self.seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        (0..self.batch_size)
            .map(|_| {
                let (u, v, w) = self.edges[rng.below(self.edges.len())];
                (u, v, w * (rng.unit() - 0.5) * 0.2)
            })
            .collect()
    }
}

/// Renders an `observe` request line (with its newline).
pub fn observe_line(session: &str, batch: &[Update]) -> String {
    let request = dcs_server::Request::Observe {
        session: session.to_string(),
        updates: batch.to_vec(),
    };
    let mut line = serde_json::to_string(&request.to_value()).expect("observe requests serialize");
    line.push('\n');
    line
}

/// Mean, over the planted groups, of the best Jaccard similarity between the
/// group and any mined subset.
pub fn planted_jaccard(planted: &[Vec<VertexId>], subsets: &[Vec<VertexId>]) -> f64 {
    if planted.is_empty() {
        return 0.0;
    }
    let jaccard = |a: &[VertexId], b: &[VertexId]| {
        let inter = a.iter().filter(|v| b.binary_search(v).is_ok()).count();
        let union = a.len() + b.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    };
    let total: f64 = planted
        .iter()
        .map(|group| {
            subsets
                .iter()
                .map(|subset| jaccard(group, subset))
                .fold(0.0, f64::max)
        })
        .sum();
    total / planted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    #[test]
    fn streams_are_deterministic_and_cover_g2_first() {
        let g2 =
            GraphBuilder::from_edges(6, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0)]);
        let a = UpdateStream::new(&g2, 2, 7);
        let b = UpdateStream::new(&g2, 2, 7);
        assert_eq!(a.growth_batches(), 2);
        let mut delivered: Vec<Update> = (0..2).flat_map(|i| a.batch(i)).collect();
        delivered.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(delivered, g2.edges().collect::<Vec<_>>());
        for i in 0..6 {
            assert_eq!(a.batch(i), b.batch(i));
        }
        assert_ne!(a.batch(4), a.batch(5));
    }

    #[test]
    fn jaccard_averages_best_matches() {
        let planted = vec![vec![1, 2, 3, 4], vec![7, 8]];
        let mined = vec![vec![1, 2, 3, 4], vec![8, 9]];
        // Group a matches exactly; group b shares 1 of 3 vertices.
        let score = planted_jaccard(&planted, &mined);
        assert!((score - (1.0 + 1.0 / 3.0) / 2.0).abs() < 1e-12);
    }
}
