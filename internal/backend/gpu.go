package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
)

// GPUConfig tunes the simulated GPU backend. The zero value selects the
// defaults listed on each field.
type GPUConfig struct {
	// Devices is the simulated device count (0: 2).
	Devices int
	// Device is the device model (nil: gpusim.GTX1080).
	Device *gpusim.Device
	// BatchWindow is how long the batcher holds the first request of a
	// batch while coalescing more from the worker pool (0: 200µs; negative
	// disables coalescing — every request runs alone on all devices).
	BatchWindow time.Duration
	// BatchMax caps the requests per coalesced batch (0: 2 × Devices).
	BatchMax int
}

func (c GPUConfig) withDefaults() GPUConfig {
	if c.Devices <= 0 {
		c.Devices = 2
	}
	if c.Device == nil {
		c.Device = gpusim.GTX1080()
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 2 * c.Devices
	}
	return c
}

// simConfig builds the gpusim configuration: the paper's full MPDP-GPU
// (fused pruning + CCC) on the configured device pool.
func (c GPUConfig) simConfig() gpusim.Config {
	return gpusim.Config{Device: c.Device, Devices: c.Devices, FusedPrune: true, CCC: true}
}

// DeviceModel resolves the configured device model (the default GTX 1080
// when unset), so callers pricing a MultiStats — the service's trace
// decomposition — bill against the same device the backend simulated.
func (c GPUConfig) DeviceModel() *gpusim.Device {
	if c.Device != nil {
		return c.Device
	}
	return gpusim.GTX1080()
}

// ErrGPUClosed is returned by Optimize when the backend was closed before
// the request could be serviced.
var ErrGPUClosed = errors.New("backend: gpu backend closed")

// gpuJob is one request waiting to be coalesced into a device batch.
type gpuJob struct {
	in   dp.Input
	done chan gpusim.BatchResult
}

// gpuBackend runs MPDP on the multi-device simulated GPU. Concurrent
// Optimize calls from the service worker pool are coalesced by a single
// batcher goroutine: the first request of a batch waits at most
// BatchWindow for company, then the whole batch is scheduled across the
// device pool at once (gpusim.MPDPGPUBatch), so a burst of cold queries
// saturates all devices instead of serializing on one.
type gpuBackend struct {
	cfg  GPUConfig
	jobs chan *gpuJob
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func newGPUBackend(cfg GPUConfig) Backend {
	b := &gpuBackend{
		cfg:  cfg.withDefaults(),
		jobs: make(chan *gpuJob, 64),
		quit: make(chan struct{}),
	}
	if b.cfg.BatchWindow > 0 {
		b.wg.Add(1)
		go b.batcher()
	}
	return b
}

func (b *gpuBackend) ID() ID { return GPU }

// Devices returns the simulated device count.
func (b *gpuBackend) Devices() int { return b.cfg.Devices }

func (b *gpuBackend) Optimize(ctx context.Context, q *cost.Query, alg core.Algorithm, opts Options) (*Result, error) {
	start := time.Now()
	var br gpusim.BatchResult
	if alg == core.AlgMPDPGPU {
		br = b.mpdp(ctx, q, opts, start)
	} else {
		// The baseline GPU algorithms stay single-device (the paper ports
		// only MPDP to multi-GPU); wrap their stats in the multi view.
		cfg := b.cfg.simConfig()
		cfg.Devices = 1
		res, err := core.Optimize(ctx, q, core.Options{
			Algorithm: alg, Model: opts.Model, Timeout: opts.Timeout, Arena: opts.Arena, GPU: &cfg,
		})
		switch {
		case err != nil:
			br.Err = err
		case res.GPU == nil:
			br.Err = fmt.Errorf("backend: gpu backend does not support %q", alg)
		default:
			br.Plan, br.Stats = res.Plan, res.Stats
			br.GPU = gpusim.MultiStats{Stats: *res.GPU, Devices: 1, PerDevice: []gpusim.Stats{*res.GPU}}
		}
	}
	if br.Err != nil {
		return nil, br.Err
	}
	gpu := br.GPU
	return &Result{
		Plan:      br.Plan,
		Stats:     br.Stats,
		Backend:   GPU,
		Algorithm: alg,
		GPU:       &gpu,
		Elapsed:   time.Since(start),
	}, nil
}

// mpdp runs MPDP-GPU across the device pool, through the batcher when
// coalescing is enabled.
func (b *gpuBackend) mpdp(ctx context.Context, q *cost.Query, opts Options, start time.Time) gpusim.BatchResult {
	m := opts.Model
	if m == nil {
		m = cost.DefaultModel()
	}
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	in := dp.Input{Q: q, M: m, Ctx: ctx, Arena: opts.Arena, Deadline: deadline}
	if b.cfg.BatchWindow <= 0 {
		var br gpusim.BatchResult
		br.Plan, br.Stats, br.GPU, br.Err = gpusim.MPDPGPUMulti(in, b.cfg.simConfig())
		return br
	}
	// Select against quit on both sides so an Optimize racing Close fails
	// loudly with ErrGPUClosed instead of hanging on a job the drained
	// batcher will never service. (The service layer never races them —
	// workers drain before backends close — but the Backend interface
	// makes no such promise.)
	job := &gpuJob{in: in, done: make(chan gpusim.BatchResult, 1)}
	select {
	case b.jobs <- job:
	case <-b.quit:
		return gpusim.BatchResult{Err: ErrGPUClosed}
	}
	select {
	case br := <-job.done:
		return br
	case <-ctx.Done():
		// The batch will still run (and abort promptly via in.Ctx); done
		// is buffered, so the batcher's delivery never blocks.
		return gpusim.BatchResult{Err: context.Cause(ctx)}
	case <-b.quit:
		// The final drain may still have delivered our result.
		select {
		case br := <-job.done:
			return br
		default:
			return gpusim.BatchResult{Err: ErrGPUClosed}
		}
	}
}

// batcher is the single coalescing loop: block for the first job, hold the
// batch open for BatchWindow (or until BatchMax), run it across the device
// pool, deliver, repeat. It exits only when quit is closed and no job is
// pending — the service closes its worker pool before the backends, so no
// submission can race the shutdown.
func (b *gpuBackend) batcher() {
	defer b.wg.Done()
	for {
		var first *gpuJob
		select {
		case first = <-b.jobs:
		case <-b.quit:
			// Drain anything already queued before exiting.
			select {
			case first = <-b.jobs:
			default:
				return
			}
		}
		batch := []*gpuJob{first}
		timer := time.NewTimer(b.cfg.BatchWindow)
	collect:
		for len(batch) < b.cfg.BatchMax {
			select {
			case j := <-b.jobs:
				batch = append(batch, j)
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()

		ins := make([]dp.Input, len(batch))
		for i, j := range batch {
			ins[i] = j.in
		}
		for i, r := range gpusim.MPDPGPUBatch(ins, b.cfg.simConfig()) {
			batch[i].done <- r
		}
	}
}

func (b *gpuBackend) Close() {
	b.once.Do(func() { close(b.quit) })
	b.wg.Wait()
}
