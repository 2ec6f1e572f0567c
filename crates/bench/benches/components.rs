//! Criterion microbenchmarks of the hot structures on the memory-controller
//! path: the tag buffer, the FBR metadata engine, the SRAM tag-array cache,
//! the DRAM channel scheduler, the TLB and the workload generators.
//!
//! These are throughput benchmarks of the simulator's building blocks (they
//! also double as a regression guard for the simulation speed that the
//! experiment harness depends on).

use banshee::{BansheeConfig, CacheSetMetadata, FrequencyReplacement, TagBuffer};
use banshee_common::{Addr, LineAddr, PageNum, TrafficClass, XorShiftRng, ZipfSampler};
use banshee_dcache::{DCacheConfig, DramCacheController, MemRequest};
use banshee_dram::{DramConfig, DramDevice};
use banshee_memhier::{PteMapInfo, SetAssocCache, Tlb, TlbEntry};
use banshee_workloads::{SpecProgram, SyntheticGraph};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_tag_buffer(c: &mut Criterion) {
    c.bench_function("tag_buffer_lookup_insert", |b| {
        let mut tb = TagBuffer::new(1024, 8, 0.7);
        for i in 0..512u64 {
            tb.insert_remap(PageNum::new(i), PteMapInfo::cached_in((i % 4) as u8));
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(tb.lookup(PageNum::new(i % 2048)));
            if i.is_multiple_of(64) {
                tb.drain();
            }
            tb.insert_clean(PageNum::new(i % 4096), PteMapInfo::NOT_CACHED);
        });
    });
}

fn bench_fbr(c: &mut Criterion) {
    c.bench_function("fbr_algorithm1_sampled_access", |b| {
        let cfg = BansheeConfig::paper_default();
        let mut fbr = FrequencyReplacement::new(&cfg);
        let mut set = CacheSetMetadata::new(4, 5);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(fbr.on_access(&mut set, i % 37, 0.3));
        });
    });
}

fn bench_sram_cache(c: &mut Criterion) {
    c.bench_function("llc_tag_array_access", |b| {
        let mut llc = SetAssocCache::new(8 * 1024 * 1024, 16);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E37);
            black_box(llc.access(LineAddr::new(i % (1 << 20)), i.is_multiple_of(7)));
        });
    });
}

fn bench_dram_channel(c: &mut Criterion) {
    c.bench_function("dram_device_access", |b| {
        let mut dev = DramDevice::new(
            banshee_common::DramKind::InPackage,
            DramConfig::in_package_default(),
        );
        let mut now = 0u64;
        b.iter(|| {
            now += 4;
            black_box(dev.access(
                now,
                Addr::new((now * 64) % (1 << 30)),
                64,
                TrafficClass::HitData,
                false,
            ));
        });
    });
}

fn bench_tlb(c: &mut Criterion) {
    c.bench_function("tlb_lookup", |b| {
        let mut tlb = Tlb::new(64);
        for i in 0..64u64 {
            tlb.fill(TlbEntry {
                vpage: i,
                ppage: PageNum::new(i),
                info: PteMapInfo::NOT_CACHED,
                size: banshee_memhier::PageSize::Base4K,
            });
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(tlb.lookup(i % 96));
        });
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    c.bench_function("synthetic_trace_mcf", |b| {
        let mut gen = SpecProgram::Mcf.build(16 << 20, 0, 1);
        b.iter(|| black_box(gen.next_access()));
    });
    // The kv_ycsb support (256 B values over 64 MiB) at YCSB's skew.
    c.bench_function("zipf_sample_262k", |b| {
        let zipf = ZipfSampler::new(262_144, 0.99);
        let mut rng = XorShiftRng::new(1);
        b.iter(|| black_box(zipf.sample(&mut rng)));
    });
    // What each pagerank cell builds at quick scale (4 x a 16 MiB cache).
    c.bench_function("pagerank_graph_build_64mib", |b| {
        b.iter(|| black_box(SyntheticGraph::build(64 << 20, 16, 1).edge_count()));
    });
}

fn bench_banshee_controller(c: &mut Criterion) {
    c.bench_function("banshee_controller_access", |b| {
        let cfg = DCacheConfig::scaled(banshee_common::MemSize::mib(16));
        let mut ctrl = banshee::BansheeController::from_dcache(&cfg);
        // One reused sink, exactly as the system simulator drives it.
        let mut sink = banshee_dcache::PlanSink::new();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let addr = Addr::new((i % 100_000) * 64);
            let hint = ctrl.current_mapping(addr.page());
            sink.reset();
            ctrl.access(&MemRequest::demand(addr, 0).with_hint(hint), i, &mut sink);
            black_box(sink.op_count());
        });
    });
}

criterion_group!(
    components,
    bench_tag_buffer,
    bench_fbr,
    bench_sram_cache,
    bench_dram_channel,
    bench_tlb,
    bench_trace_generation,
    bench_banshee_controller
);
criterion_main!(components);
