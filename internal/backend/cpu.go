package backend

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
)

// coreBackend is a substrate that executes through core.Optimize: the
// sequential exact enumerators on one core (oneCore), the work-stealing
// CPU-parallel drivers and the heuristics with the requested thread count.
type coreBackend struct {
	id      ID
	oneCore bool
}

func (b coreBackend) ID() ID { return b.id }

func (b coreBackend) Optimize(ctx context.Context, q *cost.Query, alg core.Algorithm, opts Options) (*Result, error) {
	threads := opts.Threads
	if b.oneCore {
		threads = 1
	}
	start := time.Now()
	res, err := core.Optimize(ctx, q, core.Options{
		Algorithm: alg,
		Model:     opts.Model,
		Timeout:   opts.Timeout,
		Threads:   threads,
		K:         opts.K,
		Seed:      opts.Seed,
		Arena:     opts.Arena,
		Warm:      opts.Warm,
		Harvest:   opts.Harvest,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Plan:      res.Plan,
		Stats:     res.Stats,
		Backend:   b.id,
		Algorithm: alg,
		Elapsed:   time.Since(start),
	}, nil
}

func (coreBackend) Close() {}
