package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sql"
)

// Bounds on the in-process replay, so a traced run stays short.
const (
	replayServeReqs   = 3000 // serve workloads: requests after the warm-up
	replayColdRounds  = 2    // cold workloads: rounds
	parSeqMaxQueries  = 24
	parSeqMaxDuration = 3 * time.Second
	wastedMaxQueries  = 16
)

// runTraced is the per-layer run. It drives the workload over HTTP for
// half the run time with every other request asking for ?trace=1, reading
// /v1/stats and /metrics around it; then it replays the same seeded
// requests in-process through the public entry point of each layer:
// httpapi's handler through a recorder, sql.Compile,
// service.FingerprintQuery, the engine's Optimize, json.Marshal of the
// response, and internal/core for the backends.
func runTraced(bin string, w *workloadDef, seed int64, d time.Duration) (*outcome, error) {
	half := max(d/2, time.Second)
	in, err := w.build(w, seed, half)
	if err != nil {
		return nil, err
	}
	st, err := setUp(bin, w, in, 1)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	snap0, err := st.cl.stats()
	if err != nil {
		return nil, err
	}
	qw0, err := st.cl.histBuckets("mpdp_queue_wait_seconds")
	if err != nil {
		return nil, err
	}
	// Every other request asks for its trace; on the cold workloads every
	// other round, so the traced and untraced halves hold the same query
	// families.
	var smps []sample
	if w.rate > 0 {
		smps = st.cl.runOpen(in.main, in.at, conns(), func(i int) bool { return i%2 == 1 })
	} else {
		smps, _ = st.cl.runClosed(in.main, 1, in.round, half, func(i int) bool { return i/in.round%2 == 1 })
	}
	snap1, err := st.cl.stats()
	if err != nil {
		return nil, err
	}
	qw1, err := st.cl.histBuckets("mpdp_queue_wait_seconds")
	if err != nil {
		return nil, err
	}
	st.stop()

	main := in.main[:len(smps)]
	o := newOracle()
	c, err := check(o, main, smps, schemaFor(main), snap0.StatsEpoch)
	if err != nil {
		return nil, err
	}
	out := &outcome{rep: newReport(), attempted: len(smps), failed: c.failed, errs: c.errs, refused: c.refused}
	rep := out.rep

	// What the server and the responses report about the HTTP phase.
	reqs := float64(snap1.Requests - snap0.Requests)
	rep.add("service.hit_ratio", "frac", frac(float64(snap1.Hits-snap0.Hits), reqs))
	rep.add("service.coalesced_ratio", "frac", frac(float64(snap1.Coalesced-snap0.Coalesced), reqs))
	rep.add("service.miss_ratio", "frac", frac(float64(snap1.Misses-snap0.Misses), reqs))
	rep.add("service.shed", "count", float64(snap1.Shed-snap0.Shed))
	rep.add("service.stale_probes", "count", float64(snap1.StaleProbes-snap0.StaleProbes))
	rep.add("service.recosted", "count", float64(snap1.Recosted-snap0.Recosted))
	rep.add("service.recost_wins", "count", float64(snap1.RecostWins-snap0.RecostWins))
	rep.add("service.warm_seeded_frac", "frac", frac(float64(snap1.WarmStartRuns-snap0.WarmStartRuns), float64(snap1.Misses-snap0.Misses)))
	rep.add("service.queue_wait_p99_ms", "ms", 1e3*bucketQuantile(qw0, qw1, 0.99))

	var answered, fellBack float64
	share := map[string]float64{}
	var gpuSim, gpuWall, heurRatio, lags, late, connWaits, tracedLat, plainLat, net []float64
	var unattrib, traced float64
	for i := range smps {
		s := &smps[i]
		lags = append(lags, ms(s.sent-s.sched))
		late = append(late, ms(s.late()))
		if !c.ok[i] || main[i].kind == kindUpdate {
			continue
		}
		answered++
		share[s.resp.Backend]++
		if s.resp.FellBack {
			fellBack++
		}
		fresh := !s.resp.CacheHit && !s.resp.Coalesced
		if s.resp.Backend == string(backend.GPU) && fresh && !s.resp.FellBack {
			gpuSim = append(gpuSim, s.resp.GPUSimMS)
			gpuWall = append(gpuWall, s.resp.ElapsedUs/1e3)
		}
		if c.verdicts[i].heuristic {
			heurRatio = append(heurRatio, c.verdicts[i].ratio)
		}
		lat := s.latency()
		if w.rate == 0 {
			lat = s.rtt()
		}
		if s.traced {
			// The round trip splits into the server's traced wall time and
			// the rest (network, HTTP framing, body decode and encode); the
			// wall time no span covers is unattributed.
			connWaits = append(connWaits, ms(s.connWait))
			tracedLat = append(tracedLat, ms(lat))
			net = append(net, us(s.rtt())-s.resp.TraceWallUS)
			var spans float64
			for _, sp := range s.resp.Trace {
				if !sp.Sim {
					spans += sp.DurUS
				}
			}
			unattrib += max(0, s.resp.TraceWallUS-spans)
			traced += us(s.rtt())
		} else {
			plainLat = append(plainLat, ms(lat))
		}
	}
	for _, id := range []backend.ID{backend.CPUSeq, backend.CPUParallel, backend.GPU, backend.Heuristic} {
		rep.add("backend.share."+string(id), "frac", frac(share[string(id)], answered))
	}
	rep.add("backend.fallback_frac", "frac", frac(fellBack, answered))
	rep.add("gpusim.sim_ms_p50", "ms", median(gpuSim))
	rep.add("gpusim.wall_p50_ms", "ms", median(gpuWall))
	hr := 0.0
	if len(heurRatio) > 0 {
		hr = geomean(heurRatio)
	}
	rep.add("heuristic.cost_ratio", "x", hr)
	rep.add("harness.lag_p99_ms", "ms", quantile(lags, 0.99))
	rep.add("harness.conn_wait_p99_ms", "ms", quantile(connWaits, 0.99))
	rep.add("trace_overhead_frac", "frac", frac(median(tracedLat), median(plainLat))-1)
	rep.add("harness.net_p50_us", "us", median(net))
	rep.add("unattributed_frac", "frac", frac(unattrib, traced))
	if w.rate > 0 {
		if err := lateError(quantile(late, 0.99)); err != nil {
			return nil, err
		}
	}

	// The in-process replay of the same requests.
	n := len(main)
	if w.rate > 0 {
		n = min(n, replayServeReqs)
	} else {
		n = min(n, replayColdRounds*in.round)
	}
	rp, err := replay(w, in, main[:n])
	if err != nil {
		return nil, err
	}
	rep.add("httpapi.handler_p50_us", "us", median(rp.handler))
	rep.add("httpapi.handler_p99_us", "us", quantile(rp.handler, 0.99))
	rep.add("httpapi.allocs_per_req", "count", median(rp.allocs))
	rep.add("httpapi.self_p50_us", "us", median(rp.self))
	rep.add("httpapi.encode_p50_us", "us", median(rp.encode))
	rep.add("sql.compile_p50_us", "us", median(rp.compile))
	rep.add("sql.compile_p99_us", "us", quantile(rp.compile, 0.99))
	rep.add("sql.compile_share", "frac", frac(sum(rp.hitCompile), sum(rp.hitHandler)))
	rep.add("service.fingerprint_p50_us", "us", median(rp.fingerprint))
	hit, miss := median(rp.hit), median(rp.miss)
	rep.add("service.hit_p50_us", "us", hit)
	rep.add("service.miss_p50_ms", "ms", miss)
	rep.add("service.miss_over_hit", "x", frac(miss*1e3, hit))
	rep.add("dp.evaluated_pairs", "count", float64(rp.dp.Evaluated))
	rep.add("dp.ccp_pairs", "count", float64(rp.dp.CCP))
	rep.add("dp.useful_ratio", "frac", frac(float64(rp.dp.CCP), float64(rp.dp.Evaluated)))
	rep.add("dp.connected_sets", "count", float64(rp.dp.ConnectedSets))
	rep.add("dp.sets_per_s", "1/s", frac(float64(rp.dp.ConnectedSets), sum(rp.enumerate)/1e3))
	rep.add("dp.enumerate_p50_ms", "ms", median(rp.enumerate))
	rep.add("backend.fallback_wasted_s", "s", sum(rp.wasted))
	rep.add("heuristic.p50_ms", "ms", median(rp.heuristic))
	seqMS, parMS := sum(rp.seq), sum(rp.par)
	rep.add("parallel.seq_ms", "ms", seqMS)
	rep.add("parallel.par_ms", "ms", parMS)
	rep.add("parallel.par_over_seq", "x", frac(seqMS, parMS))
	out.failed += len(rp.refused)
	out.refused = append(out.refused, rp.refused...)
	out.attempted += n
	return out, nil
}

// timedEngine times the engine's Optimize (service.Optimize behind the
// handler) and keeps the last answer; the replay is sequential.
type timedEngine struct {
	httpapi.Engine
	dur time.Duration
	ans *httpapi.Answer
	q   *cost.Query
}

func (e *timedEngine) Optimize(ctx context.Context, q *cost.Query) (*httpapi.Answer, error) {
	t0 := time.Now()
	a, err := e.Engine.Optimize(ctx, q)
	e.dur, e.ans, e.q = time.Since(t0), a, q
	return a, err
}

// replayed holds the in-process measurements, one entry per replayed
// request of the kind each field names; times in µs unless marked.
type replayed struct {
	handler     []float64
	allocs      []float64
	self        []float64
	encode      []float64
	compile     []float64
	fingerprint []float64
	hit, miss   []float64 // µs, ms
	hitCompile  []float64
	hitHandler  []float64
	enumerate   []float64 // ms, exact misses
	dp          struct{ Evaluated, CCP, ConnectedSets uint64 }
	wasted      []float64 // s, per fallback
	heuristic   []float64 // ms
	seq, par    []float64 // ms
	refused     []string  // non-200 answers of the replay
}

// replay sends the warm-up and then reqs through an in-process copy of
// mpdp-serve (same service configuration, same httpapi mux).
func replay(w *workloadDef, in *inputs, reqs []*request) (*replayed, error) {
	svc := service.New(service.Config{
		Timeout:   w.budget,
		Workers:   w.workers,
		Threads:   w.threads,
		Admission: service.Admission{MaxQueueWait: 250 * time.Millisecond},
	})
	defer svc.Close()
	eng := &timedEngine{Engine: httpapi.ServiceEngine(svc)}
	mux := httpapi.New(eng, httpapi.Options{MaxStatementBytes: 1 << 20}).Mux()
	serve := func(r *request, traced bool) (*httptest.ResponseRecorder, time.Duration) {
		path := "/v1/optimize"
		if r.kind == kindUpdate {
			path = "/v1/catalog/stats"
		}
		if traced {
			path += "?trace=1"
		}
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(r.body)))
		if r.kind != kindSQL {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		eng.ans = nil
		t0 := time.Now()
		mux.ServeHTTP(rec, req)
		return rec, time.Since(t0)
	}
	for _, r := range in.warmup {
		serve(r, false)
		svc.WaitHarvest()
	}

	rp := &replayed{}
	log := newSchemaLog()
	var exactQs []*cost.Query
	var fallbackQs, heurQs []*cost.Query
	var heurAlgs []core.Algorithm
	var ms0, ms1 runtime.MemStats
	for _, r := range reqs {
		if r.kind == kindUpdate {
			if rec, _ := serve(r, false); rec.Code != http.StatusOK {
				rp.refused = append(rp.refused, fmt.Sprintf("replayed stats update: status %d", rec.Code))
			}
			log.apply(r.upd)
			continue
		}
		runtime.ReadMemStats(&ms0)
		rec, h := serve(r, true)
		runtime.ReadMemStats(&ms1)
		if rec.Code != http.StatusOK || eng.ans == nil {
			rp.refused = append(rp.refused, fmt.Sprintf("replayed %s: status %d: %s", r.label, rec.Code, strings.TrimSpace(rec.Body.String())))
			continue
		}
		var resp httpapi.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return nil, err
		}
		res, q, opt := eng.ans.Result, eng.q, eng.dur
		if !res.CacheHit && !res.Coalesced {
			svc.WaitHarvest()
		}

		t0 := time.Now()
		if _, err := json.Marshal(&resp); err != nil {
			return nil, err
		}
		enc := time.Since(t0)
		var comp time.Duration
		if r.kind == kindSQL {
			t0 = time.Now()
			_, err := sql.Compile(string(r.body), log.versions[len(log.versions)-1])
			comp = time.Since(t0)
			if err != nil {
				return nil, err
			}
		} else {
			var wq httpapi.WireQuery
			if err := json.Unmarshal(r.body, &wq); err != nil {
				return nil, err
			}
			t0 = time.Now()
			_, err := wq.ToQuery(nil)
			comp = time.Since(t0)
			if err != nil {
				return nil, err
			}
		}
		t0 = time.Now()
		service.FingerprintQuery(q)
		fp := time.Since(t0)

		var enumerate float64
		for _, sp := range resp.Trace {
			if sp.Phase == obs.PhaseEnumerate {
				enumerate += sp.DurUS
			}
		}
		rp.handler = append(rp.handler, us(h))
		rp.allocs = append(rp.allocs, float64(ms1.Mallocs-ms0.Mallocs))
		rp.self = append(rp.self, us(h-comp-opt))
		rp.encode = append(rp.encode, us(enc))
		rp.compile = append(rp.compile, us(comp))
		rp.fingerprint = append(rp.fingerprint, us(fp))
		switch {
		case res.CacheHit:
			rp.hit = append(rp.hit, us(opt))
			rp.hitCompile = append(rp.hitCompile, us(comp))
			rp.hitHandler = append(rp.hitHandler, us(h))
		case !res.Coalesced:
			rp.miss = append(rp.miss, ms(opt))
			if res.FellBack {
				fallbackQs = append(fallbackQs, q)
			}
			if res.Algorithm.IsExact() && !res.FellBack {
				rp.dp.Evaluated += res.Stats.Evaluated
				rp.dp.CCP += res.Stats.CCP
				rp.dp.ConnectedSets += res.Stats.ConnectedSets
				rp.enumerate = append(rp.enumerate, enumerate/1e3)
				exactQs = append(exactQs, q)
			} else {
				heurQs = append(heurQs, q)
				heurAlgs = append(heurAlgs, res.Algorithm)
			}
		}
	}

	// The backends, called through internal/core with the service's
	// budget: the exact attempts that timed out before a fallback, the
	// heuristics that answered, and MPDP-CPU at nproc threads against one.
	// A nil ctx is core.Optimize's documented context.Background().
	for _, q := range fallbackQs[:min(len(fallbackQs), wastedMaxQueries)] {
		alg, _, _ := svc.Route(q)
		t0 := time.Now()
		core.Optimize(nil, q, core.Options{Algorithm: alg, Timeout: w.budget})
		rp.wasted = append(rp.wasted, time.Since(t0).Seconds())
	}
	for k, q := range heurQs {
		t0 := time.Now()
		if _, err := core.Optimize(nil, q, core.Options{Algorithm: heurAlgs[k], Timeout: w.budget}); err != nil {
			return nil, fmt.Errorf("heuristic %s: %w", heurAlgs[k], err)
		}
		rp.heuristic = append(rp.heuristic, ms(time.Since(t0)))
	}
	start := time.Now()
	for k, q := range exactQs {
		if k == parSeqMaxQueries || time.Since(start) > parSeqMaxDuration {
			break
		}
		var pair [2]float64
		for j := 0; j < 2; j++ {
			threads := 1
			if (j+k)%2 == 1 {
				threads = runtime.NumCPU()
			}
			t0 := time.Now()
			if _, err := core.Optimize(nil, q, core.Options{Algorithm: core.AlgMPDPParallel, Threads: threads}); err != nil {
				return nil, err
			}
			if threads == 1 {
				pair[0] = ms(time.Since(t0))
			} else {
				pair[1] = ms(time.Since(t0))
			}
		}
		rp.seq = append(rp.seq, pair[0])
		rp.par = append(rp.par, pair[1])
	}
	return rp, nil
}
