// Package backend abstracts *where* an optimization runs, separating the
// execution substrate from the algorithm choice: the same MPDP enumeration
// can execute on the sequential CPU path, the work-stealing CPU-parallel
// driver, or the multi-device simulated GPU — and the heuristics form a
// fourth, approximate substrate. core.Route picks the algorithm per query
// from size, shape and crossover thresholds; this package's
// algorithm→backend map picks the substrate that runs it, and the serving
// layers report which backend produced every plan.
//
// The backend split mirrors the paper's evaluation axes (CPU vs GPU,
// sequential vs parallel, exact vs heuristic) and the device/backend
// separation of multi-device accelerator simulators.
package backend

import (
	"context"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/plan"
)

// ID names an execution backend.
type ID string

// The backend registry.
const (
	// CPUSeq runs the sequential exact enumerators (DPCCP, MPDP, DPSize,
	// DPSub) on one core.
	CPUSeq ID = "cpu-seq"
	// CPUParallel runs the work-stealing CPU-parallel drivers (MPDP-CPU,
	// PDP, DPE) across all cores.
	CPUParallel ID = "cpu-parallel"
	// GPU runs MPDP on the multi-device simulated GPU with fused pruning
	// and CCC, coalescing concurrent requests into device-saturating
	// batches.
	GPU ID = "gpu"
	// Heuristic runs the approximate algorithms (IDP2, UnionDP, GEQO, ...);
	// it is the only backend whose plans are not guaranteed optimal.
	Heuristic ID = "heuristic"
)

// IDs lists every backend, in routing-preference order.
func IDs() []ID { return []ID{CPUSeq, CPUParallel, GPU, Heuristic} }

// backendOf is the algorithm→substrate map: the one place that says which
// backend executes each registered algorithm.
var backendOf = map[core.Algorithm]ID{
	core.AlgDPSize:       CPUSeq,
	core.AlgDPSub:        CPUSeq,
	core.AlgDPCCP:        CPUSeq,
	core.AlgMPDP:         CPUSeq,
	core.AlgPDP:          CPUParallel,
	core.AlgDPE:          CPUParallel,
	core.AlgMPDPParallel: CPUParallel,
	core.AlgDPSizeGPU:    GPU,
	core.AlgDPSubGPU:     GPU,
	core.AlgMPDPGPU:      GPU,
	core.AlgGEQO:         Heuristic,
	core.AlgGOO:          Heuristic,
	core.AlgMinSel:       Heuristic,
	core.AlgIKKBZ:        Heuristic,
	core.AlgLinDP:        Heuristic,
	core.AlgIDP1:         Heuristic,
	core.AlgIDP2:         Heuristic,
	core.AlgUnionDP:      Heuristic,
}

// Of returns the ID of the backend that executes alg ("" for AlgAuto and
// unknown names).
func Of(alg core.Algorithm) ID { return backendOf[alg] }

// Options configures one backend optimization; the fields mirror
// core.Options minus the algorithm (passed separately) and the GPU device
// model (owned by the GPU backend).
type Options struct {
	Model   *cost.Model
	Timeout time.Duration
	Threads int
	K       int
	Seed    int64
	// Arena, when non-nil, supplies the result's plan nodes for the exact
	// backends (see core.Options.Arena).
	Arena *plan.Arena
	// Warm and Harvest are the subplan-memo hooks threaded to the level
	// drivers (see dp.Input); backends whose algorithms do not run a level
	// driver ignore them.
	Warm    func(tab *plan.Table, buckets [][]bitset.Mask) int
	Harvest func(tab *plan.Table)
}

// Result is one backend answer.
type Result struct {
	Plan  *plan.Node
	Stats dp.Stats
	// Backend identifies the substrate that produced the plan.
	Backend ID
	// Algorithm is the algorithm that ran (it can differ from the request
	// when a backend substitutes, which none currently do).
	Algorithm core.Algorithm
	// GPU carries the multi-device work model when Backend == GPU.
	GPU     *gpusim.MultiStats
	Elapsed time.Duration
}

// Backend is one execution substrate.
type Backend interface {
	// ID returns the backend's registry name.
	ID() ID
	// Optimize plans q with alg, one of the algorithms Of maps to ID.
	// Cancelling ctx aborts the run promptly with the context's error.
	// Implementations must be safe for concurrent use — the service worker
	// pool calls them from many goroutines.
	Optimize(ctx context.Context, q *cost.Query, alg core.Algorithm, opts Options) (*Result, error)
	// Close releases backend resources (the GPU backend's batcher).
	Close()
}

// Set is the full backend lineup one service owns. Create with NewSet,
// release with Close.
type Set struct {
	byID map[ID]Backend
}

// NewSet builds the four standard backends; gpu configures the simulated
// device pool.
func NewSet(gpu GPUConfig) *Set {
	s := &Set{byID: make(map[ID]Backend, 4)}
	for _, b := range []Backend{
		coreBackend{id: CPUSeq, oneCore: true},
		coreBackend{id: CPUParallel},
		newGPUBackend(gpu),
		coreBackend{id: Heuristic},
	} {
		s.byID[b.ID()] = b
	}
	return s
}

// Get returns the backend with the given ID, or nil.
func (s *Set) Get(id ID) Backend { return s.byID[id] }

// For returns the backend that executes alg, or nil.
func (s *Set) For(alg core.Algorithm) Backend { return s.byID[Of(alg)] }

// Close releases every backend.
func (s *Set) Close() {
	for _, b := range s.byID {
		b.Close()
	}
}
