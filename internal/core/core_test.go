package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/workload"
)

func TestEveryAlgorithmOptimizesAStarQuery(t *testing.T) {
	q := workload.Star(10, rand.New(rand.NewSource(1)))
	var optimal float64
	for _, alg := range Algorithms() {
		res, err := Optimize(context.Background(), q, Options{Algorithm: alg, Timeout: 30 * time.Second, K: 5})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Plan == nil {
			t.Fatalf("%s: nil plan", alg)
		}
		if alg.IsExact() {
			if optimal == 0 {
				optimal = res.Plan.Cost
			} else if math.Abs(res.Plan.Cost-optimal) > 1e-6*optimal {
				t.Errorf("%s: exact cost %.4f differs from %.4f", alg, res.Plan.Cost, optimal)
			}
		} else if res.Plan.Cost < optimal*(1-1e-9) {
			t.Errorf("%s: heuristic cost %.4f beats optimal %.4f", alg, res.Plan.Cost, optimal)
		}
		if err := res.Plan.Validate([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
			t.Errorf("%s: invalid plan: %v", alg, err)
		}
	}
}

func TestGPUAlgorithmsReportDeviceStats(t *testing.T) {
	q := workload.Snowflake(12, rand.New(rand.NewSource(2)))
	for _, alg := range []Algorithm{AlgMPDPGPU, AlgDPSubGPU, AlgDPSizeGPU} {
		res, err := Optimize(context.Background(), q, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if res.GPU == nil || res.GPU.SimTimeMS <= 0 || res.GPU.KernelLaunches == 0 {
			t.Errorf("%s: missing GPU stats: %+v", alg, res.GPU)
		}
	}
	res, err := Optimize(context.Background(), q, Options{Algorithm: AlgMPDP})
	if err != nil {
		t.Fatal(err)
	}
	if res.GPU != nil {
		t.Error("CPU algorithm must not report GPU stats")
	}
}

// TestAutoPolicySwitchesAtFallbackLimit pins Route's decisions on both
// sides of the paper's raised fall-back limit (25 relations, the top of
// the CPU-parallel band) and of a lowered one, together with each shape's
// fallback heuristic. It only routes; nothing is enumerated.
func TestAutoPolicySwitchesAtFallbackLimit(t *testing.T) {
	lowered := Crossover{SmallLimit: 2, CPUParallelLimit: 4}.WithDefaults()
	tests := []struct {
		kind          workload.Kind
		n             int
		x             Crossover
		alg, fallback Algorithm
	}{
		{workload.KindStar, 8, defaultCrossover, AlgDPCCP, AlgIDP2},
		{workload.KindChain, 25, defaultCrossover, AlgMPDPParallel, AlgIDP2},
		{workload.KindChain, 26, defaultCrossover, AlgMPDPGPU, AlgIDP2},
		{workload.KindCycle, 25, defaultCrossover, AlgMPDPParallel, AlgUnionDP},
		{workload.KindCycle, 26, defaultCrossover, AlgMPDPGPU, AlgUnionDP},
		{workload.KindStar, 25, defaultCrossover, AlgMPDPParallel, AlgIDP2},
		{workload.KindStar, 26, defaultCrossover, AlgIDP2, AlgIDP2},
		{workload.KindSnowflake, 40, defaultCrossover, AlgMPDPGPU, AlgIDP2},
		{workload.KindStar, 4, lowered, AlgMPDPParallel, AlgIDP2},
		{workload.KindStar, 5, lowered, AlgMPDPGPU, AlgIDP2},
	}
	for _, tc := range tests {
		alg, fallback, _ := Route(genQuery(t, tc.kind, tc.n, 4), tc.x)
		if alg != tc.alg || fallback != tc.fallback {
			t.Errorf("%s/%d (cpu_parallel_limit %d): routed to %s falling back to %s, want %s and %s",
				tc.kind, tc.n, tc.x.CPUParallelLimit, alg, fallback, tc.alg, tc.fallback)
		}
	}
}

// TestAutoRunsRoutedAlgorithm: AlgAuto (and the empty name) run exactly
// what Route picks and report it.
func TestAutoRunsRoutedAlgorithm(t *testing.T) {
	for _, q := range []*cost.Query{
		genQuery(t, workload.KindStar, 8, 3),
		genQuery(t, workload.KindChain, 16, 3),
	} {
		want, _, _ := Route(q, DefaultCrossover())
		for _, alg := range []Algorithm{AlgAuto, ""} {
			res, err := Optimize(context.Background(), q, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != want || res.FellBack {
				t.Errorf("%d rels, %q: ran %s (fellback=%v), want %s", q.N(), alg, res.Algorithm, res.FellBack, want)
			}
		}
	}
}

// TestAutoFallsBackOnTimeout: an exact route that overruns the budget is
// retried with the shape's heuristic under a fresh budget.
func TestAutoFallsBackOnTimeout(t *testing.T) {
	q := genQuery(t, workload.KindClique, 15, 2)
	if alg, _, _ := Route(q, DefaultCrossover()); alg != AlgMPDPGPU {
		t.Fatalf("precondition: clique/15 routes to %s, want mpdp-gpu", alg)
	}
	res, err := Optimize(context.Background(), q, Options{Timeout: 20 * time.Millisecond, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack || res.Algorithm != AlgUnionDP {
		t.Errorf("ran %s (fellback=%v), want the uniondp fallback", res.Algorithm, res.FellBack)
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	q := workload.Star(5, rand.New(rand.NewSource(5)))
	if _, err := Optimize(context.Background(), q, Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm must error")
	}
}

func TestExplainUsesRelationNames(t *testing.T) {
	q := workload.MusicBrainzQuery(6, rand.New(rand.NewSource(6)))
	res, err := Optimize(context.Background(), q, Options{Algorithm: AlgMPDP})
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(q, res.Plan)
	found := false
	for _, name := range q.Names() {
		if strings.Contains(out, name) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("Explain output has no relation names:\n%s", out)
	}
}

func TestTimeoutPropagates(t *testing.T) {
	q := workload.Clique(18, rand.New(rand.NewSource(7)))
	start := time.Now()
	_, err := Optimize(context.Background(), q, Options{Algorithm: AlgDPSub, Timeout: 50 * time.Millisecond})
	if err == nil {
		t.Skip("machine fast enough to finish; nothing to assert")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout ignored")
	}
}
