// Package loadgen is the honest load harness for the serving layer: an
// open-loop Poisson arrival generator with Zipf-skewed query popularity and
// a configurable cold/warm/isomorphic-twin mix, measuring per-request
// latency from the *scheduled* send time so queueing inside the harness
// cannot hide server-side delay (no coordinated omission — a closed-loop
// driver stops sending when the server slows down, which is exactly how the
// old benchmark reported a flat 4.6k req/s and a 1.0 hit ratio at every
// node count).
//
// The generator offers requests at a fixed rate regardless of how the
// target responds; the target either serves them, sheds them with
// service.ErrOverloaded (counted separately — shedding fast is the
// behaviour under test), or lets them time out. BenchmarkClusterLoad in the
// repo root sweeps the offered rate across topologies to find each knee and
// emits BENCH_load.json.
package loadgen

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// Target is the system under test: cluster.Optimize or service.Optimize
// wrapped to discard the answer. It must be safe for concurrent use.
type Target func(ctx context.Context, q *cost.Query) error

// Config tunes one load run. Rate and Duration are required.
type Config struct {
	// Rate is the offered arrival rate in requests per second. Arrivals
	// are Poisson: exponential inter-arrival gaps with mean 1/Rate.
	Rate float64
	// Duration is how long to offer load.
	Duration time.Duration
	// Pool is the warm working set, in popularity order: Zipf rank 0 is
	// the most popular query. Empty pools are invalid.
	Pool []*cost.Query
	// ZipfS is the Zipf skew exponent (must be > 1; 0: 1.2). Higher skews
	// concentrate more of the traffic on the head of the pool.
	ZipfS float64
	// ColdFrac is the fraction of requests carrying a never-seen-before
	// query — guaranteed cache misses that keep the optimizer itself, not
	// just its cache, in the measurement.
	ColdFrac float64
	// TwinFrac is the fraction of requests carrying an isomorphic
	// permutation of a pool query: a different wire query that canonical
	// fingerprinting must collapse onto the same cache entry.
	TwinFrac float64
	// ColdSize is the relation count of generated cold queries (0: 12).
	ColdSize int
	// Timeout is the per-request deadline (0: 2s). It also feeds the
	// service's deadline-aware shedder.
	Timeout time.Duration
	// MaxInFlight bounds the harness's concurrent requests (0: 4096). An
	// open-loop generator must not itself collapse under the backlog it
	// creates; arrivals past the bound are dropped and counted, never
	// silently skipped.
	MaxInFlight int
	// Seed makes the arrival schedule and query mix deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.ColdSize == 0 {
		c.ColdSize = 12
	}
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4096
	}
	return c
}

// Result is one run's measurement.
type Result struct {
	// Offered counts scheduled arrivals; Dropped counts those the harness
	// could not launch because MaxInFlight was exhausted (harness
	// saturation, not server behaviour — a non-zero value taints the run).
	Offered int
	Dropped int
	// OK counts served requests; their latencies are in Hist.
	OK int
	// Shed counts requests the server rejected with ErrOverloaded
	// (mapped to 429/503 on the wire) — fast failures, the degradation
	// mode admission control buys.
	Shed int
	// Timeout counts requests that hit the per-request deadline; Errors
	// counts everything else.
	Timeout int
	Errors  int
	// Cold/Twin/Replay count the query mix actually sent.
	Cold   int
	Twin   int
	Replay int
	// Hist holds served-request latency measured from the scheduled send
	// time: queue delay inside the harness counts against the server, as
	// it would for a real client.
	Hist *obs.Histogram
	// Elapsed is the wall-clock span from first scheduled arrival to last
	// completion; AchievedRate is OK/Elapsed in req/s.
	Elapsed      time.Duration
	AchievedRate float64
}

// Run offers cfg.Rate req/s against target for cfg.Duration and reports
// what came back. It blocks until every launched request completes.
func Run(ctx context.Context, target Target, cfg Config) *Result {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Pool)-1))

	res := &Result{Hist: &obs.Histogram{}}
	var ok, shed, timeouts, errs atomic.Int64
	var wg sync.WaitGroup
	inflight := make(chan struct{}, cfg.MaxInFlight)

	//mpdpvet:ignore openloop the one schedule anchor: all arrival times are offsets from it
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	scheduled := start
	coldSeq := cfg.Seed + 1e9 // cold-query seeds never collide with pool seeds
	for scheduled.Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		// Pick the query on the generator goroutine so the mix is
		// deterministic per seed regardless of completion order.
		var q *cost.Query
		switch r := rng.Float64(); {
		case r < cfg.ColdFrac:
			coldSeq++
			q = workload.MusicBrainzQuery(cfg.ColdSize, rand.New(rand.NewSource(coldSeq)))
			res.Cold++
		case r < cfg.ColdFrac+cfg.TwinFrac:
			base := cfg.Pool[zipf.Uint64()]
			q = workload.PermuteQuery(base, rng.Perm(base.N()))
			res.Twin++
		default:
			q = cfg.Pool[zipf.Uint64()]
			res.Replay++
		}
		res.Offered++

		if wait := time.Until(scheduled); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case inflight <- struct{}{}:
			wg.Add(1)
			go func(q *cost.Query, scheduled time.Time) {
				defer wg.Done()
				defer func() { <-inflight }()
				rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
				err := target(rctx, q)
				cancel()
				switch {
				case err == nil:
					res.Hist.Record(time.Since(scheduled))
					ok.Add(1)
				case errors.Is(err, service.ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					timeouts.Add(1)
				default:
					errs.Add(1)
				}
			}(q, scheduled)
		default:
			res.Dropped++
		}
		// Next Poisson arrival: exponential gap with mean 1/Rate, anchored
		// to the schedule (not to time.Now()) so a slow server cannot slow
		// the offered rate down — the open-loop property.
		gap := time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		scheduled = scheduled.Add(gap)
	}
	wg.Wait()

	res.OK = int(ok.Load())
	res.Shed = int(shed.Load())
	res.Timeout = int(timeouts.Load())
	res.Errors = int(errs.Load())
	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.AchievedRate = float64(res.OK) / res.Elapsed.Seconds()
	}
	return res
}

// NewPool generates a popularity-ordered working set of size MusicBrainz
// random-walk queries with relation counts cycling through sizes,
// deterministically per seed.
func NewPool(size int, sizes []int, seed int64) []*cost.Query {
	if len(sizes) == 0 {
		sizes = []int{8, 10, 12, 14}
	}
	pool := make([]*cost.Query, size)
	for i := range pool {
		n := sizes[i%len(sizes)]
		pool[i] = workload.MusicBrainzQuery(n, rand.New(rand.NewSource(seed+int64(i))))
	}
	return pool
}
