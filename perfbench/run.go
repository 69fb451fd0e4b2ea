package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxLateP99 is how late the generator may send its requests after it
// could have (99th percentile) before the run is invalid: beyond it the
// harness, not the server, is setting the pace. Waiting for a free
// connection does not count: that is the server's pace, and it is charged
// to latency.
const maxLateP99 = 100 * time.Millisecond

// conns is the client's connection and worker bound.
func conns() int { return runtime.NumCPU() }

// started is a server that has been set up: healthy and warmed.
type started struct {
	srv    *server
	cl     *client
	setups []float64 // seconds from exec to healthy plus warm-up, per rep
	warm   []sample
}

// setUp starts the server reps times, each time timing exec to healthy
// plus the workload's warm-up, and keeps the last one running.
func setUp(bin string, w *workloadDef, in *inputs, reps int) (*started, error) {
	st := &started{}
	for k := 0; k < reps; k++ {
		srv, healthy, err := startServer(bin, w.serverArgs())
		if err != nil {
			return nil, err
		}
		cl := newClient(srv.base, conns())
		t0 := time.Now()
		warm, _ := cl.runClosed(in.warmup, conns(), 1, 0, nil)
		st.setups = append(st.setups, (healthy + time.Since(t0)).Seconds())
		if k < reps-1 {
			cl.close()
			srv.stop()
			continue
		}
		st.srv, st.cl, st.warm = srv, cl, warm
	}
	return st, nil
}

func (st *started) stop() {
	st.cl.close()
	st.srv.stop()
}

// checked is a phase's samples after the oracle has judged them.
type checked struct {
	verdicts []verdict // parallel to the samples; zero for failures
	ok       []bool    // 200 and judged correct
	failed   int
	errs     []string // oracle mismatches: the run is not correct
	refused  []string // non-200 answers and transport errors
}

// check judges every answered read against the oracle and counts
// failures: non-200 answers, transport errors and mismatches. log is the
// schema after each write of reqs (reqs[0..] in order); e0 is the server's
// stats epoch before the phase.
func check(o *oracle, reqs []*request, smps []sample, log *schemaLog, e0 uint64) (*checked, error) {
	c := &checked{verdicts: make([]verdict, len(smps)), ok: make([]bool, len(smps))}
	// Writes, in version order: version v is the schema after v writes.
	var updSent, updDone []time.Duration
	for i := range smps {
		if reqs[i].kind == kindUpdate {
			updSent = append(updSent, smps[i].sent)
			updDone = append(updDone, smps[i].done)
		}
	}
	sort.Slice(updDone, func(a, b int) bool { return updDone[a] < updDone[b] })
	for i := range smps {
		s, r := &smps[i], reqs[i]
		if s.err != nil || s.status != 200 {
			c.failed++
			c.refused = append(c.refused, fmt.Sprintf("%s %s: status %d: %v", r.label, r.class, s.status, s.err))
			continue
		}
		if r.kind == kindUpdate {
			c.ok[i] = true
			continue
		}
		var v verdict
		var err error
		if r.kind == kindJSON {
			var rf ref
			if rf, err = o.reference(r.label, r.q); err != nil {
				return nil, err
			}
			v = judge(r, s.resp, rf)
		} else {
			lo, hi := versionRange(s, updSent, updDone)
			if v, err = o.checkSQL(r, s.resp, log, lo, hi); err != nil {
				return nil, err
			}
			// A miss is stamped with the epoch it ran under and a hit with
			// its entry's, so no stamp may count more writes than had begun.
			if v.err == nil && s.resp.StatsEpoch > e0+uint64(hi) {
				v.err = fmt.Errorf("%s: answer stamped with stats epoch %d, but only %d writes had begun (epoch %d before them)", r.label, s.resp.StatsEpoch, hi, e0)
			}
		}
		c.verdicts[i] = v
		if v.err != nil {
			c.failed++
			c.errs = append(c.errs, v.err.Error())
			continue
		}
		c.ok[i] = true
	}
	return c, nil
}

// versionRange is the range of schema versions a read may have been bound
// under: every write finished before it was sent is in (lo), and every
// write begun before it finished may be (hi).
func versionRange(s *sample, updSent, updDone []time.Duration) (lo, hi int) {
	lo = sort.Search(len(updDone), func(k int) bool { return updDone[k] > s.sent })
	hi = sort.Search(len(updSent), func(k int) bool { return updSent[k] >= s.done })
	return lo, hi
}

// schemaFor builds the schema log of a phase's writes.
func schemaFor(reqs []*request) *schemaLog {
	log := newSchemaLog()
	for _, r := range reqs {
		if r.kind == kindUpdate {
			log.apply(r.upd)
		}
	}
	return log
}

// latencies returns the latency in ms of every correct answer, of the
// writes or of the reads, timed from the send or from the due time.
func latencies(reqs []*request, smps []sample, c *checked, writes bool, fromSend bool) []float64 {
	var out []float64
	for i := range smps {
		if !c.ok[i] || (reqs[i].kind == kindUpdate) != writes {
			continue
		}
		if fromSend {
			out = append(out, ms(smps[i].rtt()))
		} else {
			out = append(out, ms(smps[i].latency()))
		}
	}
	return out
}

func ratios(c *checked) []float64 {
	var out []float64
	for i, v := range c.verdicts {
		if c.ok[i] && v.ratio > 0 {
			out = append(out, v.ratio)
		}
	}
	return out
}

func okCount(c *checked, reqs []*request, writes bool) int {
	n := 0
	for i, ok := range c.ok {
		if ok && (reqs[i].kind == kindUpdate) == writes {
			n++
		}
	}
	return n
}

// lateError marks a run invalid when the generator sent its requests too
// late (late p99 in ms over maxLateP99). An invalid run prints no result:
// its figures measure the harness, and its answers were never wrong.
func lateError(p99ms float64) error {
	if p99ms > ms(maxLateP99) {
		return fmt.Errorf("run invalid: the generator fell behind its schedule (late p99 %.1f ms > %v)", p99ms, maxLateP99)
	}
	return nil
}

// runEndToEnd is the untraced run: set up, drive the workload, read the
// server's peak RSS, stop it, then judge every answer.
func runEndToEnd(bin string, w *workloadDef, seed int64, d time.Duration) (*outcome, error) {
	in, err := w.build(w, seed, d)
	if err != nil {
		return nil, err
	}
	st, err := setUp(bin, w, in, w.setups)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	snap, err := st.cl.stats()
	if err != nil {
		return nil, err
	}
	e0 := snap.StatsEpoch

	var smps, peak []sample
	var window, peakWindow time.Duration
	if w.rate > 0 {
		smps = st.cl.runOpen(in.main, in.at, conns(), nil)
		window = d
		for _, s := range smps {
			window = max(window, s.done)
		}
		if len(in.peak) > 0 {
			peak, peakWindow = st.cl.runClosed(in.peak, conns(), 1, in.peakD, nil)
		}
	} else {
		smps, window = st.cl.runClosed(in.main, 1, in.round, d, nil)
	}
	rss, err := st.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	st.stop()

	o := newOracle()
	out := &outcome{rep: newReport()}
	wc, err := check(o, in.warmup, st.warm, newSchemaLog(), e0)
	if err != nil {
		return nil, err
	}
	main := in.main[:len(smps)]
	c, err := check(o, main, smps, schemaFor(main), e0)
	if err != nil {
		return nil, err
	}
	out.attempted = len(st.warm) + len(smps)
	out.failed = wc.failed + c.failed
	out.errs = append(wc.errs, c.errs...)
	out.refused = append(wc.refused, c.refused...)

	rep := out.rep
	rep.add("setup_s", "s", median(st.setups))
	lat := latencies(main, smps, c, false, w.rate == 0)
	rep.add("p50_ms", "ms", median(lat))
	rep.add("p90_ms", "ms", quantile(lat, 0.90))
	rep.add("p99_ms", "ms", quantile(lat, 0.99))
	reads := okCount(c, main, false)
	rep.add("achieved_rps", "req/s", float64(reads)/window.Seconds())
	rep.add("plan_cost_ratio", "x", geomean(ratios(c)))
	rep.add("rss_peak_mb", "MB", rss)
	rep.add("samples", "count", float64(len(lat)))
	if w.rate > 0 {
		rep.add("offered_rps", "req/s", float64(len(in.at))/d.Seconds())
		var lags, queued, late, rtts, lessLate []float64
		byClass := map[string][]float64{}
		for i, s := range smps {
			lags = append(lags, ms(s.sent-s.sched))
			queued = append(queued, ms(s.queued()))
			late = append(late, ms(s.late()))
			rtts = append(rtts, ms(s.rtt()))
			if c.ok[i] {
				byClass[main[i].class] = append(byClass[main[i].class], ms(s.latency()))
				if main[i].kind != kindUpdate {
					lessLate = append(lessLate, ms(s.latency()-s.late()))
				}
			}
		}
		if err := lateError(quantile(late, 0.99)); err != nil {
			return nil, err
		}
		rep.add("harness.lag_p50_ms", "ms", median(lags))
		rep.add("harness.lag_p99_ms", "ms", quantile(lags, 0.99))
		rep.add("harness.queued_p99_ms", "ms", quantile(queued, 0.99))
		rep.add("harness.late_p99_ms", "ms", quantile(late, 0.99))
		rep.add("harness.late_p50_ms", "ms", median(late))
		rep.add("p50_less_late_ms", "ms", median(lessLate))
		rep.add("rtt_p50_ms", "ms", median(rtts))
		for cl, l := range byClass {
			rep.add("class."+cl+".p50_ms", "ms", median(l))
			rep.add("class."+cl+".p99_ms", "ms", quantile(l, 0.99))
		}
	} else {
		ratioByKind := map[string][]float64{}
		latByFamily := map[string][]float64{}
		for i, s := range smps {
			if c.ok[i] {
				kind, _, _ := strings.Cut(main[i].label, "-")
				ratioByKind[kind] = append(ratioByKind[kind], c.verdicts[i].ratio)
				latByFamily[main[i].label] = append(latByFamily[main[i].label], ms(s.rtt()))
			}
		}
		for k, r := range ratioByKind {
			rep.add("ratio."+k, "x", geomean(r))
		}
		for k, l := range latByFamily {
			rep.add("family."+k+".p50_ms", "ms", median(l))
		}
		rep.add("opt_per_s", "1/s", float64(reads)/window.Seconds())
		rep.add("rounds", "count", float64(len(smps)/in.round))
	}
	if upd := latencies(main, smps, c, true, false); len(upd) > 0 {
		rep.add("update_p50_ms", "ms", median(upd))
	}
	if len(peak) > 0 {
		pm := in.peak[:len(peak)]
		pc, err := check(o, pm, peak, newSchemaLog(), e0)
		if err != nil {
			return nil, err
		}
		out.attempted += len(peak)
		out.failed += pc.failed
		out.errs = append(out.errs, pc.errs...)
		out.refused = append(out.refused, pc.refused...)
		rep.add("peak_rps", "req/s", float64(okCount(pc, pm, false))/peakWindow.Seconds())
	}
	rep.add("error_frac", "frac", frac(float64(out.failed), float64(out.attempted)))
	return out, nil
}
