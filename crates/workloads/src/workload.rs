//! The workload catalogue: everything Figure 4 puts on its x-axis, plus a
//! factory that builds per-core trace generators.

use crate::graph::{graph_slot, GraphKernel, GraphKernelTrace, GraphSlot, SyntheticGraph};
use crate::mix::SpecMix;
use crate::spec::SpecProgram;
use crate::synthetic::SyntheticTrace;
use crate::trace::{TraceFactory, TraceGenerator};
use std::sync::Arc;

/// Every workload evaluated in the paper's Figures 4–6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// A multi-threaded graph kernel over a shared power-law graph.
    Graph(GraphKernel),
    /// A homogeneous SPEC workload: every core runs its own copy.
    Spec(SpecProgram),
    /// A heterogeneous SPEC mix (Table 4).
    Mix(SpecMix),
}

impl WorkloadKind {
    /// The 16 workloads of Figure 4, in the figure's x-axis order:
    /// 5 graph kernels, 8 SPEC programs, 3 mixes.
    pub fn figure4_suite() -> Vec<WorkloadKind> {
        let mut v = Vec::new();
        for k in GraphKernel::ALL {
            v.push(WorkloadKind::Graph(k));
        }
        for p in SpecProgram::FIGURE4 {
            v.push(WorkloadKind::Spec(p));
        }
        for m in SpecMix::ALL {
            v.push(WorkloadKind::Mix(m));
        }
        v
    }

    /// Only the graph kernels (used by the large-page study, Section 5.4.1).
    pub fn graph_suite() -> Vec<WorkloadKind> {
        GraphKernel::ALL
            .iter()
            .map(|&k| WorkloadKind::Graph(k))
            .collect()
    }

    /// Display name as printed on the figure axes.
    pub fn name(&self) -> String {
        match self {
            WorkloadKind::Graph(k) => k.name().to_string(),
            WorkloadKind::Spec(p) => p.name().to_string(),
            WorkloadKind::Mix(m) => m.name().to_string(),
        }
    }

    /// Every workload the catalogue can name: graph kernels, all SPEC
    /// programs (including the mix-only ones) and the Table 4 mixes.
    pub fn catalogue() -> Vec<WorkloadKind> {
        let mut v = Vec::new();
        for k in GraphKernel::ALL {
            v.push(WorkloadKind::Graph(k));
        }
        for p in SpecProgram::ALL {
            v.push(WorkloadKind::Spec(p));
        }
        for m in SpecMix::ALL {
            v.push(WorkloadKind::Mix(m));
        }
        v
    }

    /// All parsable workload names, in catalogue order (what a scenario
    /// file's `"builtin"` field may contain).
    pub fn all_names() -> Vec<String> {
        Self::catalogue().iter().map(|w| w.name()).collect()
    }

    /// Resolve a display name ("pagerank", "mcf", "mix1", ...) back to its
    /// workload, or `None` if no built-in workload has that name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        Self::catalogue().into_iter().find(|w| w.name() == name)
    }
}

/// Average degree of every graph kernel's synthetic graph.
const GRAPH_DEGREE: u64 = 16;

/// A fully specified workload: what to run and how big its data is.
///
/// A graph kernel's workload holds its graph's shared slot: every live
/// workload with the same footprint and seed walks one graph, built by the
/// first [`Workload::build_traces`] that needs it.
#[derive(Clone)]
pub struct Workload {
    kind: WorkloadKind,
    total_footprint_bytes: u64,
    seed: u64,
    /// The shared graph (graph kernels only).
    graph: Option<GraphSlot>,
}

impl std::fmt::Debug for Workload {
    // The graph slot is left out: it would print millions of edges.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("kind", &self.kind)
            .field("total_footprint_bytes", &self.total_footprint_bytes)
            .field("seed", &self.seed)
            .finish()
    }
}

impl Workload {
    /// Create a workload description. `total_footprint_bytes` is the data
    /// footprint across the machine (the interesting regime is a few times
    /// the DRAM cache); traces are fully deterministic given `seed`.
    /// Builds nothing.
    pub fn new(kind: WorkloadKind, total_footprint_bytes: u64, seed: u64) -> Self {
        let graph = match kind {
            WorkloadKind::Graph(_) => Some(graph_slot(total_footprint_bytes, GRAPH_DEGREE, seed)),
            WorkloadKind::Spec(_) | WorkloadKind::Mix(_) => None,
        };
        Workload {
            kind,
            total_footprint_bytes,
            seed,
            graph,
        }
    }

    /// Which benchmark(s) to run.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Total data footprint across the machine, in bytes.
    pub fn total_footprint_bytes(&self) -> u64 {
        self.total_footprint_bytes
    }

    /// RNG seed of the traces.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The workload's display name.
    pub fn name(&self) -> String {
        self.kind.name()
    }

    /// Build one trace generator per core.
    ///
    /// * Graph kernels share one graph (built here on first use, then
    ///   shared with every workload of equal footprint and seed); each core
    ///   owns a vertex partition.
    /// * Homogeneous SPEC workloads give every core a private copy (disjoint
    ///   virtual regions) of the same program, splitting the footprint
    ///   budget evenly.
    /// * Mixes assign Table 4's program list round-robin over the cores.
    pub fn build_traces(&self, cores: usize) -> Vec<Box<dyn TraceGenerator>> {
        assert!(cores > 0, "need at least one core");
        // Each core's virtual region starts at a widely separated base so
        // per-core footprints can never collide.
        let region_stride: u64 = 1 << 40;
        match self.kind {
            WorkloadKind::Graph(kernel) => {
                let graph = self
                    .graph
                    .as_ref()
                    .expect("a graph workload holds its graph slot")
                    .get_or_init(|| {
                        Arc::new(SyntheticGraph::build(
                            self.total_footprint_bytes,
                            GRAPH_DEGREE,
                            self.seed,
                        ))
                    });
                (0..cores)
                    .map(|core| {
                        Box::new(GraphKernelTrace::new(
                            Arc::clone(graph),
                            kernel,
                            0,
                            core,
                            cores,
                            self.seed.wrapping_add(core as u64),
                        )) as Box<dyn TraceGenerator>
                    })
                    .collect()
            }
            WorkloadKind::Spec(program) => {
                let per_core = (self.total_footprint_bytes / cores as u64).max(2 * 4096);
                // One Zipf table, shared by every core's private copy.
                let prototype = SyntheticTrace::new(program.params(per_core), 0, 0);
                (0..cores)
                    .map(|core| {
                        Box::new(prototype.fork(
                            core as u64 * region_stride,
                            self.seed.wrapping_add(core as u64 * 1013),
                        )) as Box<dyn TraceGenerator>
                    })
                    .collect()
            }
            WorkloadKind::Mix(mix) => {
                let per_core = (self.total_footprint_bytes / cores as u64).max(2 * 4096);
                // Cores run the mix's programs round-robin: one prototype
                // (and Zipf table) per program in use.
                let prototypes: Vec<SyntheticTrace> = mix
                    .programs()
                    .iter()
                    .take(cores)
                    .map(|program| SyntheticTrace::new(program.params(per_core), 0, 0))
                    .collect();
                (0..cores)
                    .map(|core| {
                        Box::new(prototypes[core % prototypes.len()].fork(
                            core as u64 * region_stride,
                            self.seed.wrapping_add(core as u64 * 7919),
                        )) as Box<dyn TraceGenerator>
                    })
                    .collect()
            }
        }
    }
}

impl TraceFactory for Workload {
    fn name(&self) -> String {
        Workload::name(self)
    }

    fn build_traces(&self, cores: usize) -> Vec<Box<dyn TraceGenerator>> {
        Workload::build_traces(self, cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn figure4_suite_has_sixteen_workloads() {
        let suite = WorkloadKind::figure4_suite();
        assert_eq!(suite.len(), 16);
        let names: BTreeSet<_> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 16);
        assert_eq!(suite[0].name(), "pagerank");
        assert_eq!(suite[15].name(), "mix3");
    }

    #[test]
    fn graph_workloads_share_one_region() {
        let w = Workload::new(WorkloadKind::Graph(GraphKernel::PageRank), 4 << 20, 1);
        let mut traces = w.build_traces(4);
        assert_eq!(traces.len(), 4);
        // All cores' accesses fall in the same (shared) footprint.
        let fp = traces[0].footprint_bytes();
        for t in traces.iter_mut() {
            for _ in 0..200 {
                assert!(t.next_access().vaddr.raw() < fp);
            }
        }
    }

    #[test]
    fn spec_workloads_are_private_per_core() {
        let w = Workload::new(WorkloadKind::Spec(SpecProgram::Mcf), 16 << 20, 2);
        let mut traces = w.build_traces(4);
        // Core regions are separated by the region stride.
        let mut bases = BTreeSet::new();
        for t in traces.iter_mut() {
            bases.insert(t.next_access().vaddr.raw() >> 40);
        }
        assert_eq!(bases.len(), 4);
    }

    #[test]
    fn mix_assigns_different_programs_to_cores() {
        let w = Workload::new(WorkloadKind::Mix(SpecMix::Mix1), 32 << 20, 3);
        let traces = w.build_traces(16);
        let names: BTreeSet<_> = traces.iter().map(|t| t.name().to_string()).collect();
        assert_eq!(names.len(), 8, "Table 4 mixes have 8 distinct programs");
    }

    // The graph table is process-wide and tests run in parallel, so every
    // graph test below uses its own (footprint, seed) key.

    /// The graph `w` has built, if any.
    fn built_graph(w: &Workload) -> Option<Arc<SyntheticGraph>> {
        w.graph.as_ref().expect("a graph workload").get().cloned()
    }

    #[test]
    fn graph_workload_builds_nothing_until_traced() {
        let w = Workload::new(WorkloadKind::Graph(GraphKernel::Sgd), 1 << 20, 101);
        assert!(built_graph(&w).is_none(), "Workload::new built the graph");
        let _traces = w.build_traces(2);
        assert!(built_graph(&w).is_some());
    }

    #[test]
    fn graph_workloads_with_equal_inputs_share_one_graph() {
        let kind = |k| WorkloadKind::Graph(k);
        let pagerank = Workload::new(kind(GraphKernel::PageRank), 1 << 20, 102);
        let tri_count = Workload::new(kind(GraphKernel::TriangleCount), 1 << 20, 102);
        let other_seed = Workload::new(kind(GraphKernel::PageRank), 1 << 20, 103);
        let other_footprint = Workload::new(kind(GraphKernel::PageRank), 2 << 20, 102);
        for w in [&pagerank, &tri_count, &other_seed, &other_footprint] {
            w.build_traces(1);
        }
        let graph = built_graph(&pagerank).unwrap();
        assert!(Arc::ptr_eq(&graph, &built_graph(&tri_count).unwrap()));
        assert!(!Arc::ptr_eq(&graph, &built_graph(&other_seed).unwrap()));
        assert!(!Arc::ptr_eq(
            &graph,
            &built_graph(&other_footprint).unwrap()
        ));
    }

    #[test]
    fn graph_is_released_with_its_last_holder() {
        let w = Workload::new(WorkloadKind::Graph(GraphKernel::Lsh), 1 << 20, 104);
        let traces = w.build_traces(2);
        let slot = Arc::downgrade(w.graph.as_ref().unwrap());
        let graph = Arc::downgrade(&built_graph(&w).unwrap());
        drop(w);
        // The traces still walk the graph; the slot has no holder left.
        assert!(slot.upgrade().is_none(), "the table kept the slot alive");
        assert!(graph.upgrade().is_some());
        drop(traces);
        assert!(graph.upgrade().is_none(), "the graph outlived its holders");
        let again = Workload::new(WorkloadKind::Graph(GraphKernel::Lsh), 1 << 20, 104);
        assert!(built_graph(&again).is_none(), "a released graph was reused");
        again.build_traces(1);
        assert!(built_graph(&again).is_some());
    }

    #[test]
    fn concurrent_builds_share_one_graph() {
        let w = Workload::new(WorkloadKind::Graph(GraphKernel::Graph500), 1 << 20, 105);
        let traces: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let w = w.clone();
                    s.spawn(move || w.build_traces(2))
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // One reference from the slot, one from each of the four traces.
        let graph = built_graph(&w).unwrap();
        assert_eq!(Arc::strong_count(&graph), 1 + 1 + 4);
        drop(traces);
    }

    #[test]
    fn shared_graph_traces_match_a_fresh_build() {
        let (footprint, seed, cores) = (1 << 20, 106, 4);
        let fresh = Arc::new(SyntheticGraph::build(footprint, GRAPH_DEGREE, seed));
        for kernel in GraphKernel::ALL {
            let w = Workload::new(WorkloadKind::Graph(kernel), footprint, seed);
            for (core, mut trace) in w.build_traces(cores).into_iter().enumerate() {
                let mut expected = GraphKernelTrace::new(
                    Arc::clone(&fresh),
                    kernel,
                    0,
                    core,
                    cores,
                    seed.wrapping_add(core as u64),
                );
                for _ in 0..10_000 {
                    assert_eq!(trace.next_access(), expected.next_access());
                }
            }
        }
    }

    #[test]
    fn debug_leaves_the_graph_out() {
        let w = Workload::new(WorkloadKind::Graph(GraphKernel::PageRank), 1 << 20, 107);
        w.build_traces(1);
        let debug = format!("{w:?}");
        assert!(debug.len() < 120, "{debug}");
        assert!(
            debug.contains("PageRank") && debug.contains("107"),
            "{debug}"
        );
    }

    #[test]
    fn workload_is_deterministic() {
        let w = Workload::new(WorkloadKind::Spec(SpecProgram::Soplex), 8 << 20, 7);
        let mut a = w.build_traces(2);
        let mut b = w.build_traces(2);
        for core in 0..2 {
            for _ in 0..500 {
                assert_eq!(a[core].next_access(), b[core].next_access());
            }
        }
    }
}
