package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/sql"
)

// ref is a reference plan cost computed in-process through internal/core,
// never through the service router.
type ref struct {
	cost  float64
	exact bool // DPCCP: the optimum
	fp    string
}

// oracle memoizes reference costs by exact fingerprint. Its calls into
// internal/core pass a nil ctx, which core.Optimize documents as
// context.Background(): the oracle runs outside any request lifetime.
type oracle struct {
	memo map[string]ref
}

func newOracle() *oracle { return &oracle{memo: map[string]ref{}} }

// heuristicRefs are tried when exact DP is intractable; the best wins.
var heuristicRefs = []core.Algorithm{core.AlgGOO, core.AlgLinDP, core.AlgIDP2, core.AlgUnionDP}

// tractable reports whether DPCCP finishes in well under a second: up to
// 18 relations of any shape, and chains and cycles up to the bitset width.
func tractable(label string, n int) bool {
	if n <= 18 {
		return true
	}
	return n <= 64 && (strings.HasPrefix(label, "chain-") || strings.HasPrefix(label, "cycle-"))
}

func (o *oracle) reference(label string, q *cost.Query) (ref, error) {
	fp := service.FingerprintQuery(q).Key
	if r, ok := o.memo[fp]; ok {
		return r, nil
	}
	r := ref{fp: fp}
	if tractable(label, q.N()) {
		res, err := core.Optimize(nil, q, core.Options{Algorithm: core.AlgDPCCP})
		if err != nil {
			return r, fmt.Errorf("oracle dpccp on %s: %w", label, err)
		}
		r.cost, r.exact = res.Plan.Cost, true
	} else {
		r.cost = math.Inf(1)
		for _, alg := range heuristicRefs {
			res, err := core.Optimize(nil, q, core.Options{Algorithm: alg, Timeout: 30 * time.Second})
			if err != nil {
				return r, fmt.Errorf("oracle %s on %s: %w", alg, label, err)
			}
			r.cost = math.Min(r.cost, res.Plan.Cost)
		}
	}
	o.memo[fp] = r
	return r, nil
}

// costTol is the relative tolerance under which two plan costs are equal.
const costTol = 1e-9

// verdict is the oracle's judgement of one answer.
type verdict struct {
	ratio     float64 // returned cost over reference cost
	exactBand bool    // answered by an exact algorithm without fallback
	heuristic bool    // answered by a heuristic (routed or fallback)
	err       error   // a mismatch
}

// judge checks one answer against the reference of the query it asked.
// An exact answer must equal an exact reference (ratio exactly 1) and may
// not exceed a heuristic one; no answer may beat an exact reference; the
// fingerprint must be the query's canonical one, which for a twin is its
// base's.
func judge(r *request, resp *httpapi.Response, rf ref) verdict {
	v := verdict{exactBand: core.Algorithm(resp.Algorithm).IsExact() && !resp.FellBack}
	v.heuristic = !v.exactBand
	v.ratio = resp.Cost / rf.cost
	switch {
	case resp.Relations != r.rels:
		v.err = fmt.Errorf("%s: %d relations answered, %d asked", r.label, resp.Relations, r.rels)
	case resp.Fingerprint != rf.fp:
		v.err = fmt.Errorf("%s %s: fingerprint %s, want %s", r.label, r.class, resp.Fingerprint, rf.fp)
	case v.exactBand && rf.exact && math.Abs(v.ratio-1) > costTol:
		v.err = fmt.Errorf("%s: exact answer cost %.12g, optimum %.12g", r.label, resp.Cost, rf.cost)
	case v.exactBand && !rf.exact && v.ratio > 1+costTol:
		v.err = fmt.Errorf("%s: exact answer cost %.12g above heuristic reference %.12g", r.label, resp.Cost, rf.cost)
	case rf.exact && v.ratio < 1-costTol:
		v.err = fmt.Errorf("%s: answer cost %.12g below the optimum %.12g", r.label, resp.Cost, rf.cost)
	}
	if v.err == nil && v.exactBand && rf.exact {
		v.ratio = 1
	}
	return v
}

// schemaLog is the server's SQL schema after each statistics write, kept
// in step by applying the same copy-on-write update the server applies.
type schemaLog struct {
	versions []sql.Schema
}

func newSchemaLog() *schemaLog { return &schemaLog{versions: []sql.Schema{sql.MusicBrainzSchema()}} }

func (l *schemaLog) apply(u *httpapi.CatalogRelStats) {
	cur := l.versions[len(l.versions)-1]
	next := make(sql.Schema, len(cur))
	for k, v := range cur {
		next[k] = v
	}
	tb := next[u.Name]
	pk := tb.Rel.HasPKIndex
	tb.Rel = catalog.NewRelation(u.Name, u.Rows, tb.Rel.Width)
	tb.Rel.HasPKIndex = pk
	next[u.Name] = tb
	l.versions = append(l.versions, next)
}

// checkSQL judges a SQL answer. A twin is judged against its base
// statement, so it must return the base's fingerprint and cost. A
// statement may have been bound under any schema version from lo to hi (a
// write was in flight while it ran); the answer is correct if it is right
// for one of them.
func (o *oracle) checkSQL(r *request, resp *httpapi.Response, log *schemaLog, lo, hi int) (verdict, error) {
	text := r.body
	if r.class == classTwin {
		text = r.baseBody
	}
	var first verdict
	for v := hi; v >= lo; v-- {
		b, err := sql.Compile(string(text), log.versions[v])
		if err != nil {
			return verdict{}, fmt.Errorf("compiling %s: %w", r.label, err)
		}
		rf, err := o.reference(r.label, b.Query)
		if err != nil {
			return verdict{}, err
		}
		vd := judge(r, resp, rf)
		if vd.err == nil {
			return vd, nil
		}
		if v == hi {
			first = vd
		}
	}
	return first, nil
}
