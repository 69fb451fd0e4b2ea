// Package core is the library's entry point and the home of the one
// routing policy. Optimize dispatches through a single algorithm table to
// any of the join-order optimizers implemented in this repository — the
// sequential exact algorithms (DPSize, DPSub, DPCCP, MPDP), the
// CPU-parallel ones (PDP, DPE, MPDP-parallel), the GPU-model ones
// (DPSize-GPU, DPSub-GPU, MPDP-GPU) and the heuristics (GEQO, GOO, IKKBZ,
// LinDP/adaptive, IDP1, IDP2-MPDP, UnionDP-MPDP).
//
// Route is the paper's policy as the crossover ladder of Crossover: exact
// DPCCP for small graphs, CPU-parallel MPDP up to the raised fall-back
// limit, GPU-MPDP for large trees and sparse cyclic graphs, and IDP2 (trees)
// or UnionDP (everything else) beyond. AlgAuto runs Route's choice, and so
// does the optimizer service: every driver plans a query the same way.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/heuristic"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// Algorithm names an optimizer selectable through Options.
type Algorithm string

// The optimizer names; the algorithm table below registers each one.
const (
	// Exact, sequential.
	AlgDPSize Algorithm = "dpsize" // PostgreSQL's standard DP
	AlgDPSub  Algorithm = "dpsub"
	AlgDPCCP  Algorithm = "dpccp"
	AlgMPDP   Algorithm = "mpdp"
	// Exact, CPU-parallel.
	AlgPDP          Algorithm = "pdp"
	AlgDPE          Algorithm = "dpe"
	AlgMPDPParallel Algorithm = "mpdp-cpu"
	// Exact, GPU execution model.
	AlgDPSizeGPU Algorithm = "dpsize-gpu"
	AlgDPSubGPU  Algorithm = "dpsub-gpu"
	AlgMPDPGPU   Algorithm = "mpdp-gpu"
	// Heuristics.
	AlgGEQO    Algorithm = "geqo"
	AlgGOO     Algorithm = "goo"
	AlgMinSel  Algorithm = "minsel"
	AlgIKKBZ   Algorithm = "ikkbz"
	AlgLinDP   Algorithm = "lindp" // adaptive LinDP of Neumann & Radke
	AlgIDP1    Algorithm = "idp1"
	AlgIDP2    Algorithm = "idp2-mpdp"
	AlgUnionDP Algorithm = "uniondp-mpdp"
	AlgAuto    Algorithm = "auto" // Route's choice under the default crossover
)

// DefaultTimeout is the optimization budget of AlgAuto and of the service
// when none is configured: an exact run that exceeds it falls back to the
// shape's heuristic with a fresh budget.
const DefaultTimeout = 30 * time.Second

// call carries one optimization's resolved inputs to an algorithm's runner.
type call struct {
	in  dp.Input
	h   heuristic.Options
	gpu gpusim.Config
}

type runner func(c call) (*plan.Node, dp.Stats, *gpusim.Stats, error)

func exact(f dp.Func) runner {
	return func(c call) (*plan.Node, dp.Stats, *gpusim.Stats, error) {
		p, st, err := f(c.in)
		return p, st, nil, err
	}
}

func device(f func(dp.Input, gpusim.Config) (*plan.Node, dp.Stats, gpusim.Stats, error)) runner {
	return func(c call) (*plan.Node, dp.Stats, *gpusim.Stats, error) {
		p, st, gs, err := f(c.in, c.gpu)
		return p, st, &gs, err
	}
}

// mpdpGPU runs MPDP on the multi-device scheduler the GPU backend also
// uses (one device unless GPU.Devices says otherwise), so a routed GPU run
// costs the same wall time on every driver: general graphs are costed
// through the output-sensitive CCP stream, not a per-set 2^|B| walk.
func mpdpGPU(c call) (*plan.Node, dp.Stats, *gpusim.Stats, error) {
	p, st, ms, err := gpusim.MPDPGPUMulti(c.in, c.gpu)
	return p, st, &ms.Stats, err
}

func approx(f func(*cost.Query, heuristic.Options) (*plan.Node, error)) runner {
	return func(c call) (*plan.Node, dp.Stats, *gpusim.Stats, error) {
		p, err := f(c.in.Q, c.h)
		return p, dp.Stats{}, nil, err
	}
}

// algorithms is the algorithm table: each optimizer declared once with
// whether it guarantees the optimal plan and how to run it. AlgAuto has no
// runner; Optimize resolves it through Route first.
var algorithms = []struct {
	name  Algorithm
	exact bool
	run   runner
}{
	{AlgDPSize, true, exact(dp.DPSize)},
	{AlgDPSub, true, exact(dp.DPSub)},
	{AlgDPCCP, true, exact(dp.DPCCP)},
	{AlgMPDP, true, exact(dp.MPDP)},
	{AlgPDP, true, exact(parallel.PDP)},
	{AlgDPE, true, exact(parallel.DPE)},
	{AlgMPDPParallel, true, exact(parallel.MPDP)},
	{AlgDPSizeGPU, true, device(gpusim.DPSizeGPU)},
	{AlgDPSubGPU, true, device(gpusim.DPSubGPU)},
	{AlgMPDPGPU, true, mpdpGPU},
	{AlgGEQO, false, approx(heuristic.GEQO)},
	{AlgGOO, false, approx(heuristic.GOO)},
	{AlgMinSel, false, approx(heuristic.MinSel)},
	{AlgIKKBZ, false, approx(heuristic.IKKBZ)},
	{AlgLinDP, false, approx(heuristic.Adaptive)},
	{AlgIDP1, false, approx(heuristic.IDP1)},
	{AlgIDP2, false, approx(heuristic.IDP2)},
	{AlgUnionDP, false, approx(heuristic.UnionDP)},
	{AlgAuto, false, nil},
}

// lookup returns a's table index, or -1 for unregistered names.
func lookup(a Algorithm) int {
	for i := range algorithms {
		if algorithms[i].name == a {
			return i
		}
	}
	return -1
}

// Algorithms lists every registered optimizer name.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(algorithms))
	for i := range algorithms {
		out[i] = algorithms[i].name
	}
	return out
}

// IsExact reports whether the algorithm guarantees the optimal plan.
func (a Algorithm) IsExact() bool {
	i := lookup(a)
	return i >= 0 && algorithms[i].exact
}

// Options configures one optimization.
type Options struct {
	Algorithm Algorithm
	// Model is the cost model (nil: cost.DefaultModel()).
	Model *cost.Model
	// Timeout bounds optimization time (0: unlimited, or DefaultTimeout
	// under AlgAuto).
	Timeout time.Duration
	// Threads for CPU-parallel algorithms (0: all cores).
	Threads int
	// K is the sub-problem bound for IDP/UnionDP (0: 15, the paper default).
	K int
	// Seed for randomized heuristics.
	Seed int64
	// GPU configures the device model for the *-gpu algorithms.
	GPU *gpusim.Config
	// Arena, when non-nil, supplies the plan nodes of the result for the
	// exact algorithms (heuristics allocate normally). The returned
	// Result.Plan aliases the arena: callers must copy the tree before
	// calling Arena.Reset for the next query. Long-lived workers use this
	// to make steady-state plan materialization allocation-free.
	Arena *plan.Arena
	// Warm and Harvest are the subplan-memo hooks (see dp.Input); only the
	// level drivers (MPDP sequential and CPU-parallel) honour them.
	Warm    func(tab *plan.Table, buckets [][]bitset.Mask) int
	Harvest func(tab *plan.Table)
}

// Result is the outcome of one optimization.
type Result struct {
	Plan  *plan.Node
	Stats dp.Stats
	// Algorithm is the algorithm that produced the plan: the requested one,
	// or under AlgAuto the routed one (its fallback heuristic when FellBack).
	Algorithm Algorithm
	// FellBack is true when AlgAuto's exact route exceeded the time budget
	// and the plan came from the shape's fallback heuristic.
	FellBack bool
	Elapsed  time.Duration
	// GPU carries the device work model for the *-gpu algorithms;
	// GPU.SimTimeMS is the modeled device time (see internal/gpusim).
	GPU *gpusim.Stats
}

// Optimize plans the query with the selected algorithm. AlgAuto (the
// default) runs Route's choice under DefaultCrossover and, when that exact
// run exceeds the budget, the shape's fallback heuristic under a fresh one.
// The context is checked cooperatively throughout the enumeration:
// cancelling it aborts an in-flight run promptly with the context's error,
// independently of (and in addition to) Options.Timeout. A nil ctx means
// context.Background().
func Optimize(ctx context.Context, q *cost.Query, opts Options) (*Result, error) {
	if opts.Algorithm != "" && opts.Algorithm != AlgAuto {
		return run(ctx, q, opts)
	}
	alg, fallback, _ := Route(q, DefaultCrossover())
	if opts.Timeout == 0 {
		opts.Timeout = DefaultTimeout
	}
	opts.Algorithm = alg
	res, err := run(ctx, q, opts)
	if !errors.Is(err, dp.ErrTimeout) || !alg.IsExact() {
		return res, err
	}
	opts.Algorithm = fallback
	res, err = run(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	res.FellBack = true
	return res, nil
}

// run executes one registered algorithm under its own budget.
func run(ctx context.Context, q *cost.Query, opts Options) (*Result, error) {
	i := lookup(opts.Algorithm)
	if i < 0 || algorithms[i].run == nil {
		return nil, fmt.Errorf("core: unknown algorithm %q", opts.Algorithm)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := opts.Model
	if m == nil {
		m = cost.DefaultModel()
	}
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	c := call{
		in: dp.Input{
			Q: q, M: m, Ctx: ctx, Arena: opts.Arena, Deadline: deadline,
			Threads: opts.Threads, Warm: opts.Warm, Harvest: opts.Harvest,
		},
		h: heuristic.Options{
			Model: m, K: opts.K, Ctx: ctx, Deadline: deadline, Threads: opts.Threads, Seed: opts.Seed,
		},
		gpu: gpusim.DefaultConfig(),
	}
	if opts.GPU != nil {
		c.gpu = *opts.GPU
	}

	start := time.Now()
	res := &Result{Algorithm: opts.Algorithm}
	var err error
	res.Plan, res.Stats, res.GPU, err = algorithms[i].run(c)
	res.Elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Explain renders a plan as an indented operator tree with relation names.
func Explain(q *cost.Query, p *plan.Node) string {
	return p.Explain(q.Names())
}
