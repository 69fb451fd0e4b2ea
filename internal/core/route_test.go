package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/gpusim"
	"repro/internal/workload"
)

func TestDefaultCrossoverSane(t *testing.T) {
	c := DefaultCrossover()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.SmallLimit != 12 || c.CPUParallelLimit != 25 {
		t.Errorf("paper limits drifted: %+v", c)
	}
	// The headline regime: the GPU band must open the 26..40+ range that
	// the heuristics used to own.
	if c.GPULimit < 40 || c.GPULimit > 64 {
		t.Errorf("gpu_limit %d outside [40, 64]", c.GPULimit)
	}
	if c.GPUCliqueLimit < c.CliqueCPULimit {
		t.Errorf("gpu clique cap %d below cpu clique cap %d", c.GPUCliqueLimit, c.CliqueCPULimit)
	}
}

// TestCalibrateMonotone: a faster device or a larger budget never shrinks
// the exact-GPU band.
func TestCalibrateMonotone(t *testing.T) {
	base := Calibrate(gpusim.GTX1080(), 5*time.Second)

	fast := gpusim.GTX1080()
	fast.SMCount *= 2
	if c := Calibrate(fast, 5*time.Second); c.GPULimit < base.GPULimit {
		t.Errorf("doubling SMs shrank gpu_limit: %d < %d", c.GPULimit, base.GPULimit)
	}
	if c := Calibrate(gpusim.GTX1080(), 30*time.Second); c.GPULimit < base.GPULimit ||
		c.GPUCliqueLimit < base.GPUCliqueLimit {
		t.Errorf("larger budget shrank the band: %+v vs %+v", c, base)
	}
	if c := Calibrate(nil, 0); c != base {
		t.Errorf("nil device / zero budget should select the defaults: %+v", c)
	}
}

func TestLoadCrossover(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crossover.json")

	// Partial override: present fields win, absent fields keep defaults.
	if err := os.WriteFile(path, []byte(`{"gpu_limit": 48, "small_limit": 10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCrossover(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.GPULimit != 48 || c.SmallLimit != 10 {
		t.Errorf("overrides not applied: %+v", c)
	}
	if d := DefaultCrossover(); c.CPUParallelLimit != d.CPUParallelLimit || c.DenseEdgeFactor != d.DenseEdgeFactor {
		t.Errorf("defaults not preserved: %+v", c)
	}

	// A typo'd field name must fail loudly, not silently use defaults.
	if err := os.WriteFile(path, []byte(`{"gpu_limt": 48}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCrossover(path); err == nil {
		t.Error("unknown field accepted")
	}

	// An inverted ladder must be rejected.
	if err := os.WriteFile(path, []byte(`{"small_limit": 30, "cpu_parallel_limit": 20}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCrossover(path); err == nil {
		t.Error("inverted thresholds accepted")
	}

	// gpu_limit beyond the bitset width clamps to 64.
	if err := os.WriteFile(path, []byte(`{"gpu_limit": 100}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = LoadCrossover(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.GPULimit != 64 {
		t.Errorf("gpu_limit %d, want clamp to 64", c.GPULimit)
	}

	if _, err := LoadCrossover(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func genQuery(t testing.TB, kind workload.Kind, n int, seed int64) *cost.Query {
	t.Helper()
	q, err := workload.Generate(kind, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestRouteThresholds(t *testing.T) {
	x := DefaultCrossover()
	tests := []struct {
		kind workload.Kind
		n    int
		want Algorithm
	}{
		{workload.KindChain, 8, AlgDPCCP},
		{workload.KindClique, 12, AlgDPCCP},
		{workload.KindMB, 20, AlgMPDPParallel},
		{workload.KindChain, 25, AlgMPDPParallel},
		// Beyond the CPU clique cap the GPU band picks cliques up, to its
		// own cap; past that, the heuristics.
		{workload.KindClique, 16, AlgMPDPGPU},
		{workload.KindClique, 20, AlgUnionDP},
		// Bounded-degree trees and sparse cyclic graphs stay exact on the
		// simulated GPU past the CPU band.
		{workload.KindCycle, 40, AlgMPDPGPU},
		{workload.KindSnowflake, 30, AlgMPDPGPU},
		// Stars are hub-bombs: a degree-d hub has 2^d connected supersets,
		// so past the CPU band they skip the GPU and go straight to the
		// tree heuristic.
		{workload.KindStar, 40, AlgIDP2},
		// Past the bitset width exact enumeration is impossible anywhere.
		{workload.KindStar, 70, AlgIDP2},
		{workload.KindCycle, 70, AlgUnionDP},
	}
	for _, tc := range tests {
		alg, _, _ := Route(genQuery(t, tc.kind, tc.n, 5), x)
		if alg != tc.want {
			t.Errorf("%s/%d: routed to %s, want %s", tc.kind, tc.n, alg, tc.want)
		}
	}
}

// TestRouteDenseGeneralCapped: a cyclic general graph with edge density
// beyond DenseEdgeFactor caps the GPU band like a clique — its
// connected-set space explodes the same way — but keeps the exact
// CPU-parallel band below 25 relations.
func TestRouteDenseGeneralCapped(t *testing.T) {
	x := DefaultCrossover()

	// A near-clique: clique minus one edge is still ShapeGeneral but far
	// denser than DenseEdgeFactor allows.
	nearClique := func(n int) *cost.Query {
		q := genQuery(t, workload.KindClique, n, 3)
		q.G.Edges = q.G.Edges[:len(q.G.Edges)-1]
		if shape := DetectShape(q.G); shape != ShapeGeneral {
			t.Fatalf("clique minus an edge detected as %s, want general", shape)
		}
		return q
	}

	// Inside the CPU band, density must not downgrade exactness.
	n := x.GPUCliqueLimit + 2 // 18 by default, within cpu_parallel_limit
	if alg, _, _ := Route(nearClique(n), x); alg != AlgMPDPParallel {
		t.Errorf("dense general graph of %d rels routed to %s, want mpdp-cpu", n, alg)
	}
	// Past the CPU band, dense graphs skip the GPU band (capped at
	// gpu_clique_limit) and go heuristic.
	if alg, _, _ := Route(nearClique(30), x); alg != AlgUnionDP {
		t.Errorf("dense general graph of 30 rels routed to %s, want uniondp", alg)
	}
	// A sparse cycle of the same size stays exact on the GPU.
	if alg, _, _ := Route(genQuery(t, workload.KindCycle, 30, 3), x); alg != AlgMPDPGPU {
		t.Errorf("sparse cycle of 30 rels routed to %s, want mpdp-gpu", alg)
	}
}

// TestRouteCrossoverConfig: config-loaded thresholds move the band edges.
func TestRouteCrossoverConfig(t *testing.T) {
	x := Crossover{GPULimit: 30}.WithDefaults()
	if alg, _, _ := Route(genQuery(t, workload.KindCycle, 30, 1), x); alg != AlgMPDPGPU {
		t.Errorf("cycle/30 under gpu_limit=30: %s", alg)
	}
	if alg, _, _ := Route(genQuery(t, workload.KindCycle, 31, 1), x); alg != AlgUnionDP {
		t.Errorf("cycle/31 over gpu_limit=30: %s", alg)
	}
}
