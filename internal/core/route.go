package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/cost"
	"repro/internal/gpusim"
)

// Crossover holds Route's thresholds: which algorithm, and so which
// execution substrate, plans a query of a given size and shape. The zero
// value of any field selects the calibrated default (see Calibrate); a
// JSON file with the same field names overrides them per deployment
// (LoadCrossover).
//
// The regimes, in increasing query size:
//
//	n ≤ SmallLimit                 sequential DPCCP on cpu-seq
//	n ≤ CPUParallelLimit           MPDP on cpu-parallel (clique-shaped
//	                               graphs capped at CliqueCPULimit)
//	n ≤ GPULimit                   MPDP on the simulated GPU (clique and
//	                               dense general graphs capped at
//	                               GPUCliqueLimit)
//	beyond                         heuristics (IDP2 for trees, UnionDP
//	                               otherwise)
type Crossover struct {
	// SmallLimit routes graphs of at most this many relations to the
	// sequential exact DPCCP — below it, any parallel substrate's fixed
	// overhead exceeds the whole optimization.
	SmallLimit int `json:"small_limit"`
	// CPUParallelLimit routes graphs of at most this many relations to
	// CPU-parallel MPDP (the paper's raised fall-back limit of 25).
	CPUParallelLimit int `json:"cpu_parallel_limit"`
	// CliqueCPULimit lowers CPUParallelLimit for clique-shaped graphs,
	// whose enumeration cost grows as 3^n.
	CliqueCPULimit int `json:"clique_cpu_limit"`
	// GPULimit routes trees and sparse cyclic graphs of at most this many
	// relations to GPU-MPDP instead of the heuristics — the paper's
	// headline regime, exact plans at sizes CPU enumerators cannot touch.
	// Hard-capped at 64 (the exact enumerators' bitset width).
	GPULimit int `json:"gpu_limit"`
	// GPUCliqueLimit caps the GPU route for clique-shaped and dense
	// general graphs (see DenseEdgeFactor).
	GPUCliqueLimit int `json:"gpu_clique_limit"`
	// DenseEdgeFactor classifies a general (cyclic, non-clique) graph as
	// dense when it has more than DenseEdgeFactor × n edges; dense graphs
	// use GPUCliqueLimit instead of GPULimit, since their connected-set
	// space explodes the same way a clique's does.
	DenseEdgeFactor float64 `json:"dense_edge_factor"`
}

// WithDefaults fills zero fields from the calibrated defaults.
func (c Crossover) WithDefaults() Crossover {
	d := DefaultCrossover()
	if c.SmallLimit == 0 {
		c.SmallLimit = d.SmallLimit
	}
	if c.CPUParallelLimit == 0 {
		c.CPUParallelLimit = d.CPUParallelLimit
	}
	if c.CliqueCPULimit == 0 {
		c.CliqueCPULimit = d.CliqueCPULimit
	}
	if c.GPULimit == 0 {
		c.GPULimit = d.GPULimit
	}
	if c.GPUCliqueLimit == 0 {
		c.GPUCliqueLimit = d.GPUCliqueLimit
	}
	if c.DenseEdgeFactor == 0 {
		c.DenseEdgeFactor = d.DenseEdgeFactor
	}
	if c.GPULimit > 64 {
		c.GPULimit = 64
	}
	return c
}

// Validate rejects threshold sets that would leave the router without a
// monotone size ladder.
func (c Crossover) Validate() error {
	c = c.WithDefaults()
	if c.SmallLimit < 1 || c.SmallLimit > c.CPUParallelLimit {
		return fmt.Errorf("core: small_limit %d must be in [1, cpu_parallel_limit=%d]",
			c.SmallLimit, c.CPUParallelLimit)
	}
	if c.CPUParallelLimit > c.GPULimit {
		return fmt.Errorf("core: cpu_parallel_limit %d exceeds gpu_limit %d",
			c.CPUParallelLimit, c.GPULimit)
	}
	if c.CliqueCPULimit < 1 || c.GPUCliqueLimit < c.CliqueCPULimit {
		return fmt.Errorf("core: gpu_clique_limit %d must be >= clique_cpu_limit %d >= 1",
			c.GPUCliqueLimit, c.CliqueCPULimit)
	}
	if c.DenseEdgeFactor < 1 {
		return fmt.Errorf("core: dense_edge_factor %g must be >= 1", c.DenseEdgeFactor)
	}
	return nil
}

// LoadCrossover reads a Crossover from a JSON file; absent fields keep the
// calibrated defaults. Unknown fields are rejected so a typo cannot
// silently fall back to defaults.
func LoadCrossover(path string) (Crossover, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Crossover{}, err
	}
	var c Crossover
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Crossover{}, fmt.Errorf("core: %s: %w", path, err)
	}
	c = c.WithDefaults()
	if err := c.Validate(); err != nil {
		return Crossover{}, fmt.Errorf("core: %s: %w", path, err)
	}
	return c, nil
}

// cpuPairsPerSec is the calibration constant for real per-pair evaluation
// throughput: candidate joins costed per second per core by the shared
// set evaluators (measured by BenchmarkCore on the tracked clique rows,
// rounded down; see BENCH_core.json).
const cpuPairsPerSec = 25e6

// defaultCrossover is computed once: AlgAuto reads it on every call.
var defaultCrossover = Calibrate(gpusim.GTX1080(), 5*time.Second)

// DefaultCrossover returns the thresholds calibrated for the paper's
// GTX 1080 device model and a 5-second per-query compute budget.
func DefaultCrossover() Crossover { return defaultCrossover }

// Calibrate derives the crossover thresholds from the device's work model
// and a per-query compute budget, instead of hard-coding magic sizes:
//
//   - GPULimit: MPDP-GPU unranks the full C(n,k) candidate space at every
//     level — 2^n lattice points per run, the massively-parallel design of
//     §5 — so the largest exact-GPU query is where the modeled unrank +
//     filter time (6 warp-cycles per candidate) plus per-level overhead
//     (kernel launches + host↔device transfer) still fits the budget.
//   - GPUCliqueLimit: on cliques every subset is connected, so the 3^n
//     valid pairs are *costed for real* whatever the substrate; the cap is
//     where real evaluation at cpuPairsPerSec fits the budget.
//   - SmallLimit and CPUParallelLimit follow the paper's evaluation (12
//     and 25): below 12 sequential DPCCP wins outright, and 25 is the
//     paper's raised fall-back limit for the CPU-parallel enumerator.
//
// A faster device raises GPULimit; the budget raises both GPU caps.
func Calibrate(dev *gpusim.Device, budget time.Duration) Crossover {
	if dev == nil {
		dev = gpusim.GTX1080()
	}
	if budget <= 0 {
		budget = 5 * time.Second
	}
	budgetSec := budget.Seconds()

	// Warp instructions retired per second, and the per-level fixed cost:
	// the ~4 kernel launches of Algorithm 5 plus one host↔device round
	// trip.
	throughput := float64(dev.SMCount*dev.SchedulersPerSM) * dev.ClockGHz * 1e9
	levelOverheadSec := (4*dev.KernelLaunchUS + dev.LevelTransferUS) * 1e-6

	const unrankFilterCycles = 6 // unrank (2) + connectivity filter (4) per candidate

	gpuLimit := 0
	for n := 1; n <= 64; n++ {
		candidates := 1.0 // 2^n lattice points, accumulated to avoid overflow
		for i := 0; i < n; i++ {
			candidates *= 2
		}
		sec := candidates*unrankFilterCycles/float64(dev.WarpSize)/throughput +
			float64(n-1)*levelOverheadSec
		if sec > budgetSec {
			break
		}
		gpuLimit = n
	}
	if gpuLimit < 26 {
		gpuLimit = 26 // never below the CPU band, even on a toy device
	}

	gpuClique := 0
	for n, pairs := 1, 3.0; n <= 24; n, pairs = n+1, pairs*3 {
		if pairs/cpuPairsPerSec > budgetSec {
			break
		}
		gpuClique = n
	}
	if gpuClique < 15 {
		gpuClique = 15
	}

	return Crossover{
		SmallLimit:       12,
		CPUParallelLimit: 25,
		CliqueCPULimit:   14,
		GPULimit:         gpuLimit,
		GPUCliqueLimit:   gpuClique,
		DenseEdgeFactor:  4,
	}
}

// Route is the single routing policy of every driver. It walks the
// crossover ladder x (already resolved with WithDefaults): sequential DPCCP
// for small graphs, CPU-parallel MPDP to the paper's fall-back limit, then
// GPU-MPDP with fused pruning and CCC for large trees and sparse cyclic
// graphs up to the bitset width. Cliques and dense general graphs (whose
// connected-set space explodes the same way) cap the exact bands early.
// Beyond them alg is the shape's heuristic. fallback is always that
// heuristic — IDP2 for trees, UnionDP otherwise — which callers run when
// an exact alg exceeds its time budget.
func Route(q *cost.Query, x Crossover) (alg, fallback Algorithm, shape Shape) {
	shape = DetectShape(q.G)
	n, edges := q.N(), len(q.G.Edges)
	fallback = AlgUnionDP
	if shape.IsTree() {
		fallback = AlgIDP2
	}
	if n <= x.SmallLimit && n <= 64 {
		return AlgDPCCP, fallback, shape
	}
	// Only literal cliques shrink the CPU-parallel band; the density test
	// caps only the GPU band, where a dense general graph's connected-set
	// lattice explodes like a clique's. Dense graphs of 17..25 relations
	// therefore still get the exact CPU-parallel route.
	cpuLimit := x.CPUParallelLimit
	if shape == ShapeClique && x.CliqueCPULimit < cpuLimit {
		cpuLimit = x.CliqueCPULimit
	}
	if n <= cpuLimit && n <= 64 {
		return AlgMPDPParallel, fallback, shape
	}
	gpuLimit := x.GPULimit
	if shape == ShapeClique || shape == ShapeStar ||
		(shape == ShapeGeneral && float64(edges) > x.DenseEdgeFactor*float64(n)) {
		// Cliques and dense graphs explode the candidate-pair space;
		// stars explode the *lattice* instead — a hub of degree d has
		// 2^d connected supersets, so a star past ~26 relations is
		// guaranteed to overflow the memo cap before the GPU run finishes
		// enumerating. All three skip to the clique cap (stars within the
		// CPU band never reach here, so stars beyond 25 route to IDP2).
		gpuLimit = x.GPUCliqueLimit
	}
	if n <= gpuLimit && n <= 64 {
		return AlgMPDPGPU, fallback, shape
	}
	return fallback, fallback, shape
}
