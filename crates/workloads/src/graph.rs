//! Graph-analytics workloads over a synthetic power-law graph.
//!
//! The paper's throughput-computing workloads come from the IMP suite
//! (pagerank, triangle counting, graph500, SGD, LSH — Section 5.1.2). We
//! rebuild their memory behaviour by actually walking a synthetic scale-free
//! graph stored in CSR form:
//!
//! * the **vertex array** (16 B per vertex: rank/label/visited word) is the
//!   target of degree-skewed random gathers — the hot-vertex skew is what
//!   makes frequency-based replacement effective on these codes, and
//! * the **edge array** (8 B per edge) is scanned sequentially — the
//!   streaming component that drives raw bandwidth demand.
//!
//! Each kernel ([`GraphKernel`]) walks the same graph with a different mix
//! of these two behaviours (and a different store ratio), mirroring the real
//! algorithms. All cores share one graph (the workloads are multi-threaded)
//! and each core owns a contiguous vertex partition.
//!
//! The sharing holds across cells too: a graph depends only on its
//! (footprint, degree, seed), never on the kernel or the design, so every
//! live [`crate::Workload`] with equal inputs resolves the same
//! [`GraphSlot`] through [`graph_slot`]. The first cell that needs the graph
//! builds it; the others reuse it, and it is freed when its last holder
//! drops it.

use crate::trace::{MemoryAccess, TraceGenerator};
use banshee_common::{Addr, XorShiftRng, ZipfSampler};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Bytes of per-vertex state (rank + next rank or label + visited flag).
pub const VERTEX_BYTES: u64 = 16;
/// Bytes per edge entry (destination + weight).
pub const EDGE_BYTES: u64 = 8;

/// A synthetic scale-free graph in CSR form.
#[derive(Debug)]
pub struct SyntheticGraph {
    offsets: Vec<u64>,
    edges: Vec<u32>,
}

impl SyntheticGraph {
    /// Build a graph whose in-memory footprint (vertex + edge arrays) is
    /// roughly `footprint_bytes`, with the given average degree. Edge
    /// destinations follow a Zipf distribution so a few vertices are very
    /// hot, as in real power-law graphs.
    pub fn build(footprint_bytes: u64, avg_degree: u64, seed: u64) -> Self {
        let avg_degree = avg_degree.max(1);
        // footprint = V * VERTEX_BYTES + V * avg_degree * EDGE_BYTES
        let per_vertex = VERTEX_BYTES + avg_degree * EDGE_BYTES;
        let vertices = (footprint_bytes / per_vertex).max(64) as usize;
        let zipf = ZipfSampler::new(vertices, 0.9);
        let mut rng = XorShiftRng::new(seed);
        let mut offsets = Vec::with_capacity(vertices + 1);
        let mut edges = Vec::with_capacity(vertices * avg_degree as usize);
        offsets.push(0);
        for _u in 0..vertices {
            // Degree varies around the average (1..2*avg).
            let degree = rng.range_inclusive(1, 2 * avg_degree - 1);
            for _ in 0..degree {
                edges.push(zipf.sample(&mut rng) as u32);
            }
            offsets.push(edges.len() as u64);
        }
        SyntheticGraph { offsets, edges }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The neighbours of `u`.
    pub fn neighbours(&self, u: usize) -> &[u32] {
        let start = self.offsets[u] as usize;
        let end = self.offsets[u + 1] as usize;
        &self.edges[start..end]
    }

    /// Byte offset of vertex `u`'s state within the workload's region.
    pub fn vertex_addr(&self, u: usize) -> u64 {
        u as u64 * VERTEX_BYTES
    }

    /// Byte offset of edge slot `i` within the workload's region (the edge
    /// array is laid out after the vertex array).
    pub fn edge_addr(&self, i: usize) -> u64 {
        self.vertex_count() as u64 * VERTEX_BYTES + i as u64 * EDGE_BYTES
    }

    /// Total footprint in bytes (vertex array + edge array).
    pub fn footprint_bytes(&self) -> u64 {
        self.vertex_count() as u64 * VERTEX_BYTES + self.edge_count() as u64 * EDGE_BYTES
    }
}

/// One graph's lazily filled home: empty until the first `get_or_init`
/// builds the graph.
type GraphCell = OnceLock<Arc<SyntheticGraph>>;

/// A shared handle on a [`GraphCell`].
pub(crate) type GraphSlot = Arc<GraphCell>;

/// `SyntheticGraph::build`'s inputs: (footprint bytes, degree, seed).
type GraphKey = (u64, u64, u64);

/// Every graph slot some holder still keeps alive, by key. The table holds
/// weak references only, so it never keeps a graph alive by itself.
static GRAPH_SLOTS: Mutex<Vec<(GraphKey, Weak<GraphCell>)>> = Mutex::new(Vec::new());

/// The shared slot for the graph `SyntheticGraph::build(footprint_bytes,
/// avg_degree, seed)` would return. Builds nothing: the holder fills the
/// slot with `get_or_init`, so a graph is built once per key however many
/// holders share it, different keys can build in parallel, and a holder
/// that needs a graph another thread is building waits for it.
pub(crate) fn graph_slot(footprint_bytes: u64, avg_degree: u64, seed: u64) -> GraphSlot {
    let key = (footprint_bytes, avg_degree, seed);
    // The table holds no invariant a panicking holder could break.
    let mut slots = GRAPH_SLOTS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(slot) = slots
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, weak)| weak.upgrade())
    {
        return slot;
    }
    slots.retain(|(_, weak)| weak.strong_count() > 0);
    let slot = GraphSlot::default();
    slots.push((key, Arc::downgrade(&slot)));
    slot
}

/// Which graph kernel to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "variants are the kernel names")]
pub enum GraphKernel {
    PageRank,
    TriangleCount,
    Graph500,
    Sgd,
    Lsh,
}

impl GraphKernel {
    /// All kernels, in the paper's figure order.
    pub const ALL: [GraphKernel; 5] = [
        GraphKernel::PageRank,
        GraphKernel::TriangleCount,
        GraphKernel::Graph500,
        GraphKernel::Sgd,
        GraphKernel::Lsh,
    ];

    /// Display name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            GraphKernel::PageRank => "pagerank",
            GraphKernel::TriangleCount => "tri_count",
            GraphKernel::Graph500 => "graph500",
            GraphKernel::Sgd => "sgd",
            GraphKernel::Lsh => "lsh",
        }
    }

    /// Mean instruction gap between memory accesses for this kernel
    /// (graph kernels are memory-bound; SGD and LSH do more arithmetic per
    /// byte).
    fn inst_gap(&self) -> u32 {
        match self {
            GraphKernel::PageRank => 3,
            GraphKernel::TriangleCount => 3,
            GraphKernel::Graph500 => 4,
            GraphKernel::Sgd => 6,
            GraphKernel::Lsh => 5,
        }
    }
}

/// One core's trace over the shared graph.
pub struct GraphKernelTrace {
    graph: Arc<SyntheticGraph>,
    kernel: GraphKernel,
    /// Base virtual address of the shared graph region.
    base: u64,
    /// Vertex partition owned by this core.
    part_start: usize,
    part_end: usize,
    cursor: usize,
    pending: VecDeque<MemoryAccess>,
    rng: XorShiftRng,
    name: String,
}

impl GraphKernelTrace {
    /// Create core `core_id` of `cores` total, walking `graph` with `kernel`.
    pub fn new(
        graph: Arc<SyntheticGraph>,
        kernel: GraphKernel,
        base: u64,
        core_id: usize,
        cores: usize,
        seed: u64,
    ) -> Self {
        assert!(cores > 0 && core_id < cores);
        let v = graph.vertex_count();
        let part = v.div_ceil(cores);
        let part_start = (core_id * part).min(v.saturating_sub(1));
        let part_end = ((core_id + 1) * part).min(v).max(part_start + 1);
        GraphKernelTrace {
            graph,
            kernel,
            base,
            part_start,
            part_end,
            cursor: part_start,
            pending: VecDeque::new(),
            rng: XorShiftRng::new(seed ^ (core_id as u64).wrapping_mul(0x9E37_79B9)),
            name: kernel.name().to_string(),
        }
    }

    /// Emit the access pattern for processing one vertex, then advance.
    fn process_next_vertex(&mut self) {
        let u = self.cursor;
        self.cursor += 1;
        if self.cursor >= self.part_end {
            self.cursor = self.part_start;
        }
        // Borrow the graph and the queue as disjoint fields, so the loops
        // below can read one while appending to the other.
        let graph = &*self.graph;
        let pending = &mut self.pending;
        let (base, gap) = (self.base, self.kernel.inst_gap());
        let mut push = |offset: u64, write: bool| {
            pending.push_back(MemoryAccess {
                vaddr: Addr::new(base + offset),
                write,
                inst_gap: gap,
            })
        };
        let degree = graph.neighbours(u).len();
        let edge_base = graph.offsets[u] as usize;

        match self.kernel {
            GraphKernel::PageRank => {
                // Read own state, scan the edge list, gather each
                // neighbour's rank, then write the new rank.
                push(graph.vertex_addr(u), false);
                for (i, &v) in graph.neighbours(u).iter().enumerate() {
                    push(graph.edge_addr(edge_base + i), false);
                    push(graph.vertex_addr(v as usize), false);
                }
                push(graph.vertex_addr(u), true);
            }
            GraphKernel::TriangleCount => {
                // For each neighbour, also scan a prefix of the neighbour's
                // own adjacency list (set intersection).
                push(graph.vertex_addr(u), false);
                for (i, &v) in graph.neighbours(u).iter().enumerate() {
                    push(graph.edge_addr(edge_base + i), false);
                    let v = v as usize;
                    let v_base = graph.offsets[v] as usize;
                    let v_deg = graph.neighbours(v).len().min(8);
                    for j in 0..v_deg {
                        push(graph.edge_addr(v_base + j), false);
                    }
                }
            }
            GraphKernel::Graph500 => {
                // BFS-like: visit a vertex chosen partly at random (frontier
                // order is irregular), scan its adjacency, and touch the
                // visited word of each target (a store roughly 1 time in 4).
                let u = self.part_start
                    + self
                        .rng
                        .next_below((self.part_end - self.part_start) as u64)
                        as usize;
                let edge_base = graph.offsets[u] as usize;
                push(graph.vertex_addr(u), false);
                for (i, &v) in graph.neighbours(u).iter().enumerate() {
                    push(graph.edge_addr(edge_base + i), false);
                    let write = i % 4 == 0;
                    push(graph.vertex_addr(v as usize), write);
                }
            }
            GraphKernel::Sgd => {
                // Stream ratings (edges) and update the two latent-factor
                // blocks they connect: read-modify-write both endpoints.
                push(graph.vertex_addr(u), false);
                for (i, &v) in graph.neighbours(u).iter().enumerate().take(8) {
                    push(graph.edge_addr(edge_base + i), false);
                    push(graph.vertex_addr(v as usize), false);
                    push(graph.vertex_addr(v as usize), true);
                }
                push(graph.vertex_addr(u), true);
            }
            GraphKernel::Lsh => {
                // Stream the point (a long sequential run over the edge
                // array) and probe a few random hash buckets in the vertex
                // array.
                for i in 0..16.min(degree.max(1)) {
                    push(graph.edge_addr(edge_base + i), false);
                }
                for _ in 0..4 {
                    let bucket = self.rng.next_below(graph.vertex_count() as u64) as usize;
                    push(graph.vertex_addr(bucket), false);
                }
            }
        }
    }
}

impl TraceGenerator for GraphKernelTrace {
    fn next_access(&mut self) -> MemoryAccess {
        while self.pending.is_empty() {
            self.process_next_vertex();
        }
        self.pending.pop_front().expect("pending refilled")
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn footprint_bytes(&self) -> u64 {
        self.graph.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn small_graph() -> Arc<SyntheticGraph> {
        Arc::new(SyntheticGraph::build(1 << 20, 8, 7))
    }

    #[test]
    fn graph_footprint_close_to_budget() {
        let g = SyntheticGraph::build(8 << 20, 16, 1);
        let fp = g.footprint_bytes();
        assert!(fp > 4 << 20 && fp < 12 << 20, "footprint {fp}");
        assert!(g.vertex_count() > 1000);
        assert_eq!(g.offsets.len(), g.vertex_count() + 1);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.edge_count());
    }

    #[test]
    fn degrees_are_positive_and_edges_valid() {
        let g = SyntheticGraph::build(1 << 20, 8, 3);
        for u in 0..g.vertex_count() {
            let n = g.neighbours(u);
            assert!(!n.is_empty());
            for &v in n {
                assert!((v as usize) < g.vertex_count());
            }
        }
    }

    #[test]
    fn edge_destinations_are_skewed() {
        // Power-law targets: the most popular 1% of vertices should attract
        // far more than 1% of the edges.
        let g = SyntheticGraph::build(2 << 20, 16, 5);
        let mut indeg: BTreeMap<u32, u64> = BTreeMap::new();
        for u in 0..g.vertex_count() {
            for &v in g.neighbours(u) {
                *indeg.entry(v).or_insert(0) += 1;
            }
        }
        let mut counts: Vec<u64> = indeg.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct = (g.vertex_count() / 100).max(1);
        let top_sum: u64 = counts.iter().take(top1pct).sum();
        let total: u64 = counts.iter().sum();
        assert!(
            top_sum as f64 / total as f64 > 0.05,
            "top-1% in-degree share {}",
            top_sum as f64 / total as f64
        );
    }

    #[test]
    fn traces_stay_inside_the_graph_region() {
        let g = small_graph();
        let fp = g.footprint_bytes();
        for kernel in GraphKernel::ALL {
            let mut t = GraphKernelTrace::new(Arc::clone(&g), kernel, 0x4000_0000, 0, 4, 1);
            for _ in 0..5000 {
                let a = t.next_access();
                assert!(a.vaddr.raw() >= 0x4000_0000);
                assert!(
                    a.vaddr.raw() < 0x4000_0000 + fp,
                    "{} escaped the region",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn partitions_do_not_overlap_for_sequential_kernels() {
        let g = small_graph();
        let mut t0 = GraphKernelTrace::new(Arc::clone(&g), GraphKernel::PageRank, 0, 0, 2, 1);
        let mut t1 = GraphKernelTrace::new(Arc::clone(&g), GraphKernel::PageRank, 0, 1, 2, 1);
        // The vertex *being processed* (first access of each batch) must come
        // from disjoint halves. Gathers may touch any vertex — that is the
        // point of a shared graph.
        let first0 = t0.next_access().vaddr.raw() / VERTEX_BYTES;
        let first1 = t1.next_access().vaddr.raw() / VERTEX_BYTES;
        assert!(first0 < (g.vertex_count() as u64).div_ceil(2));
        assert!(first1 >= (g.vertex_count() as u64).div_ceil(2));
    }

    #[test]
    fn pagerank_mixes_reads_and_rank_writes() {
        let g = small_graph();
        let mut t = GraphKernelTrace::new(g, GraphKernel::PageRank, 0, 0, 1, 1);
        let writes = (0..10_000).filter(|_| t.next_access().write).count();
        assert!(writes > 0 && writes < 5000);
    }

    #[test]
    fn sgd_writes_more_than_pagerank() {
        let g = small_graph();
        let count_writes = |kernel| {
            let mut t = GraphKernelTrace::new(Arc::clone(&g), kernel, 0, 0, 1, 1);
            (0..20_000).filter(|_| t.next_access().write).count()
        };
        assert!(count_writes(GraphKernel::Sgd) > count_writes(GraphKernel::PageRank));
    }

    #[test]
    fn kernel_names_match_figures() {
        let names: Vec<_> = GraphKernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["pagerank", "tri_count", "graph500", "sgd", "lsh"]);
    }
}
