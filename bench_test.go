// Benchmarks regenerating the paper's tables and figures as testing.B
// targets — one benchmark family per experiment (see DESIGN.md for the
// index). Each family sweeps query sizes as sub-benchmarks; custom metrics
// report the paper's counters (evaluated pairs, CCP pairs), simulated GPU
// milliseconds and normalized plan costs alongside wall-clock ns/op.
//
// Sizes are chosen so the full sweep finishes in minutes; cmd/mpdp-bench
// runs the same experiments at paper scale.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/parallel"
	"repro/internal/service"
	"repro/internal/workload"
)

const benchSeed = 1

func benchQuery(kind workload.Kind, n int) *cost.Query {
	rng := rand.New(rand.NewSource(benchSeed + int64(n)))
	q, err := workload.Generate(kind, n, rng)
	if err != nil {
		panic(err)
	}
	return q
}

// runExact benchmarks one exact optimizer on one query, reporting the
// paper's counters as custom metrics.
func runExact(b *testing.B, q *cost.Query, f dp.Func, threads int) {
	b.Helper()
	b.ReportAllocs()
	var stats dp.Stats
	for i := 0; i < b.N; i++ {
		p, st, err := f(dp.Input{Q: q, M: cost.DefaultModel(), Threads: threads})
		if err != nil {
			b.Fatal(err)
		}
		if p == nil {
			b.Fatal("nil plan")
		}
		stats = st
	}
	b.ReportMetric(float64(stats.Evaluated), "evaluated-pairs")
	b.ReportMetric(float64(stats.CCP), "ccp-pairs")
}

// --- Figure 2 / Figure 4: enumeration counters ---------------------------

func BenchmarkFig2Counters(b *testing.B) {
	q := benchQuery(workload.KindMB, 18)
	var rep dp.CounterReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = dp.Counters(dp.Input{Q: q, M: cost.DefaultModel()})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.CCP), "ccp-pairs")
	b.ReportMetric(float64(rep.MPDPEvaluated)/float64(rep.CCP), "mpdp-ratio")
	b.ReportMetric(float64(rep.DPSubEvaluated)/float64(rep.CCP), "dpsub-ratio")
	b.ReportMetric(float64(rep.DPSizeEvaluated)/float64(rep.CCP), "dpsize-ratio")
}

func BenchmarkFig4DPSubCounters(b *testing.B) {
	for _, n := range []int{10, 15, 20} {
		b.Run(fmt.Sprintf("star-%d", n), func(b *testing.B) {
			q := benchQuery(workload.KindStar, n)
			var rep dp.CounterReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = dp.Counters(dp.Input{Q: q, M: cost.DefaultModel()})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.DPSubEvaluated)/float64(rep.CCP), "evaluated-over-ccp")
		})
	}
}

// --- Figures 6-9: optimization time per topology -------------------------

// figureSuite lists the per-figure algorithm lineup with per-algorithm size
// caps (slower algorithms stop earlier, like the curves in the paper).
type benchAlg struct {
	name    string
	f       dp.Func
	threads int
	maxN    int
}

func figureAlgs() []benchAlg {
	nThreads := runtime.GOMAXPROCS(0)
	return []benchAlg{
		{"Postgres1CPU", dp.DPSize, 1, 14},
		{"DPCCP1CPU", dp.DPCCP, 1, 16},
		{"DPE", parallel.DPE, nThreads, 16},
		{"MPDPCPU", parallel.MPDP, nThreads, 18},
		{"MPDPSeq", dp.MPDP, 1, 18},
	}
}

func benchFigure(b *testing.B, kind workload.Kind, sizes []int) {
	for _, alg := range figureAlgs() {
		for _, n := range sizes {
			if n > alg.maxN {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", alg.name, n), func(b *testing.B) {
				q := benchQuery(kind, n)
				runExact(b, q, alg.f, alg.threads)
			})
		}
	}
	// GPU models, reporting simulated milliseconds.
	gpuAlgs := []struct {
		name string
		alg  core.Algorithm
	}{
		{"MPDPGPU", core.AlgMPDPGPU},
		{"DPSubGPU", core.AlgDPSubGPU},
		{"DPSizeGPU", core.AlgDPSizeGPU},
	}
	for _, g := range gpuAlgs {
		for _, n := range sizes {
			if n > 18 {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", g.name, n), func(b *testing.B) {
				q := benchQuery(kind, n)
				var sim float64
				for i := 0; i < b.N; i++ {
					res, err := core.Optimize(context.Background(), q, core.Options{Algorithm: g.alg})
					if err != nil {
						b.Fatal(err)
					}
					sim = res.GPU.SimTimeMS
				}
				b.ReportMetric(sim, "sim-ms")
			})
		}
	}
}

func BenchmarkFig6Star(b *testing.B)      { benchFigure(b, workload.KindStar, []int{10, 14, 18}) }
func BenchmarkFig7Snowflake(b *testing.B) { benchFigure(b, workload.KindSnowflake, []int{10, 14, 18}) }
func BenchmarkFig8Clique(b *testing.B)    { benchFigure(b, workload.KindClique, []int{8, 10, 12}) }
func BenchmarkFig9MusicBrainz(b *testing.B) {
	benchFigure(b, workload.KindMB, []int{10, 14, 18})
}

// --- Figure 10: execution vs optimization time ---------------------------

func BenchmarkFig10ExecOptRatio(b *testing.B) {
	for _, n := range []int{10, 14, 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := benchQuery(workload.KindMB, n)
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := core.Optimize(context.Background(), q, core.Options{Algorithm: core.AlgMPDPGPU})
				if err != nil {
					b.Fatal(err)
				}
				ratio = cost.EstimatedExecTimeMS(res.Plan.Cost) / res.GPU.SimTimeMS
			}
			b.ReportMetric(ratio, "exec-over-opt")
		})
	}
}

// --- Figure 11: JOB ------------------------------------------------------

func BenchmarkFig11JOB(b *testing.B) {
	queries := workload.JOBQueries(benchSeed)
	picks := []int{0, 12, 24, 28} // 5, 9, 11 and 17 relations
	for _, qi := range picks {
		jq := queries[qi]
		b.Run(fmt.Sprintf("%s-n%d/MPDP", jq.Name, jq.Rels), func(b *testing.B) {
			runExact(b, jq.Query, dp.MPDP, 1)
		})
		b.Run(fmt.Sprintf("%s-n%d/DPCCP", jq.Name, jq.Rels), func(b *testing.B) {
			runExact(b, jq.Query, dp.DPCCP, 1)
		})
	}
}

// --- Figure 12: CPU scalability ------------------------------------------

func BenchmarkFig12Scalability(b *testing.B) {
	q := benchQuery(workload.KindMB, 17)
	for _, threads := range []int{1, 2, 4, 8, 16} {
		if threads > runtime.GOMAXPROCS(0) {
			break
		}
		b.Run(fmt.Sprintf("MPDP/threads=%d", threads), func(b *testing.B) {
			runExact(b, q, parallel.MPDP, threads)
		})
		b.Run(fmt.Sprintf("DPE/threads=%d", threads), func(b *testing.B) {
			runExact(b, q, parallel.DPE, threads)
		})
	}
}

// --- Figure 13: AWS cost --------------------------------------------------

func BenchmarkFig13AWSCost(b *testing.B) {
	const (
		c5largeCentsPerHour = 8.5
		g4dnCentsPerHour    = 52.6
	)
	q := benchQuery(workload.KindStar, 16)
	b.Run("DPCCP-c5.large", func(b *testing.B) {
		var cents float64
		for i := 0; i < b.N; i++ {
			start := time.Now()
			_, _, err := dp.DPCCP(dp.Input{Q: q, M: cost.DefaultModel()})
			if err != nil {
				b.Fatal(err)
			}
			cents = time.Since(start).Hours() * c5largeCentsPerHour
		}
		b.ReportMetric(cents*1e6, "microcents")
	})
	b.Run("MPDP-GPU-g4dn", func(b *testing.B) {
		var cents float64
		for i := 0; i < b.N; i++ {
			cfg := gpusim.Config{Device: gpusim.TeslaT4(), FusedPrune: true, CCC: true}
			_, _, gs, err := gpusim.MPDPGPU(dp.Input{Q: q, M: cost.DefaultModel()}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cents = gs.SimTimeMS / 3600.0 / 1000.0 * g4dnCentsPerHour
		}
		b.ReportMetric(cents*1e6, "microcents")
	})
}

// --- Tables 1 and 2: heuristic plan quality -------------------------------

func benchHeuristicTable(b *testing.B, kind workload.Kind, sizes []int) {
	suite := []struct {
		name string
		alg  core.Algorithm
		k    int
	}{
		{"GOO", core.AlgGOO, 0},
		{"IKKBZ", core.AlgIKKBZ, 0},
		{"LinDP", core.AlgLinDP, 0},
		{"GEQO", core.AlgGEQO, 0},
		{"IDP2-MPDP-15", core.AlgIDP2, 15},
		{"UnionDP-MPDP-15", core.AlgUnionDP, 15},
	}
	for _, n := range sizes {
		q := benchQuery(kind, n)
		// Reference: best plan across the suite (computed once, not timed).
		best := 0.0
		for _, s := range suite {
			res, err := core.Optimize(context.Background(), q, core.Options{Algorithm: s.alg, K: s.k, Timeout: 30 * time.Second})
			if err != nil {
				continue
			}
			if best == 0 || res.Plan.Cost < best {
				best = res.Plan.Cost
			}
		}
		for _, s := range suite {
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				var norm float64
				for i := 0; i < b.N; i++ {
					res, err := core.Optimize(context.Background(), q, core.Options{Algorithm: s.alg, K: s.k, Timeout: 30 * time.Second})
					if err != nil {
						b.Skip(err)
					}
					norm = res.Plan.Cost / best
				}
				b.ReportMetric(norm, "normalized-cost")
			})
		}
	}
}

func BenchmarkTable1Snowflake(b *testing.B) {
	benchHeuristicTable(b, workload.KindSnowflake, []int{30, 60, 100})
}

func BenchmarkTable2Star(b *testing.B) {
	benchHeuristicTable(b, workload.KindStar, []int{30, 60, 100})
}

// --- Optimizer-as-a-service: concurrent throughput ------------------------

// BenchmarkServiceThroughput measures service.Optimize under concurrent
// clients, cold (every request is a distinct 20-relation query and the
// cache is too small to help) versus warm (one repeated 20-relation query
// served from the plan cache). The warm/cold ns/op ratio is the cache's
// speedup; clients sweep 1..GOMAXPROCS.
func BenchmarkServiceThroughput(b *testing.B) {
	clientCounts := []int{1}
	for c := 2; c <= runtime.GOMAXPROCS(0); c *= 2 {
		clientCounts = append(clientCounts, c)
	}

	run := func(b *testing.B, clients int, next func(i int) *cost.Query, svc *service.Service) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		var idx atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(idx.Add(1)) - 1
					if i >= b.N {
						return
					}
					if _, err := svc.Optimize(context.Background(), next(i)); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		snap := svc.Counters().Snapshot()
		b.ReportMetric(100*snap.HitRate, "hit-%")
	}

	for _, clients := range clientCounts {
		b.Run(fmt.Sprintf("warm/clients=%d", clients), func(b *testing.B) {
			svc := service.New(service.Config{})
			defer svc.Close()
			q := benchQuery(workload.KindMB, 20)
			if _, err := svc.Optimize(context.Background(), q); err != nil { // prime the cache
				b.Fatal(err)
			}
			run(b, clients, func(int) *cost.Query { return q }, svc)
		})
		b.Run(fmt.Sprintf("cold/clients=%d", clients), func(b *testing.B) {
			// A tiny cache plus a rotating pool of distinct queries keeps
			// every request a miss.
			svc := service.New(service.Config{CacheShards: 1, CacheCapacity: 1})
			defer svc.Close()
			pool := make([]*cost.Query, 64)
			for i := range pool {
				rng := rand.New(rand.NewSource(benchSeed + int64(1000+i)))
				q, err := workload.Generate(workload.KindMB, 20, rng)
				if err != nil {
					b.Fatal(err)
				}
				pool[i] = q
			}
			run(b, clients, func(i int) *cost.Query { return pool[i%len(pool)] }, svc)
		})
	}
}

// --- §7.2.5: GPU enhancement ablation -------------------------------------

func BenchmarkAblationGPUEnhancements(b *testing.B) {
	q := benchQuery(workload.KindSnowflake, 16)
	variants := []struct {
		name string
		cfg  gpusim.Config
	}{
		{"baseline", gpusim.Config{Device: gpusim.GTX1080()}},
		{"fused-prune", gpusim.Config{Device: gpusim.GTX1080(), FusedPrune: true}},
		{"ccc", gpusim.Config{Device: gpusim.GTX1080(), CCC: true}},
		{"both", gpusim.Config{Device: gpusim.GTX1080(), FusedPrune: true, CCC: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, _, gs, err := gpusim.MPDPGPU(dp.Input{Q: q, M: cost.DefaultModel()}, v.cfg)
				if err != nil {
					b.Fatal(err)
				}
				sim = gs.SimTimeMS
			}
			b.ReportMetric(sim, "sim-ms")
		})
	}
}
