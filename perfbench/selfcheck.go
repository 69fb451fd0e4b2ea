package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/service"
	"repro/internal/sql"
)

// selfCheck runs before any measurement: every rendered statement binds
// through sql.Compile to the generator's join graph, and one seed gives a
// byte-identical request sequence.
func selfCheck(seed int64) error {
	if err := checkBinding(seed, 64); err != nil {
		return err
	}
	return checkDeterminism(seed, time.Second)
}

// checkBinding renders statements of every kind the serve workloads send
// (pool statements, renamed twins, cold variants, drift windows) and
// requires each to bind to a graph isomorphic to the generator's (equal
// structural fingerprint) with one relation per generated table.
func checkBinding(seed int64, n int) error {
	g, err := newServeGen(seed)
	if err != nil {
		return err
	}
	schema := sql.MusicBrainzSchema()
	var reqs []*request
	reqs = append(reqs, g.pool[:min(n, len(g.pool))]...)
	for len(reqs) < 4*n {
		r, err := g.next()
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	dg := newDriftGen(seed)
	reqs = append(reqs, dg.windows...)
	for _, r := range reqs {
		b, err := sql.Compile(string(r.body), schema)
		if err != nil {
			return fmt.Errorf("%s %s does not compile: %w\n%s", r.label, r.class, err, r.body)
		}
		want := service.StructuralFingerprint(g.mb.graphQuery(r.st)).Key
		got := service.StructuralFingerprint(b.Query).Key
		if got != want || b.Query.N() != len(r.st.tables) || len(b.Query.G.Edges) != len(r.st.edges) {
			return fmt.Errorf("%s %s binds to another join graph (%d rels, %d edges; generated %d, %d)\n%s",
				r.label, r.class, b.Query.N(), len(b.Query.G.Edges), len(r.st.tables), len(r.st.edges), r.body)
		}
	}
	return nil
}

// checkDeterminism generates every workload's inputs twice from one seed
// and requires byte-identical request sequences and schedules.
func checkDeterminism(seed int64, d time.Duration) error {
	for _, w := range workloads {
		a, err := w.build(w, seed, d)
		if err != nil {
			return err
		}
		b, err := w.build(w, seed, d)
		if err != nil {
			return err
		}
		if da, db := digest(a), digest(b); !bytes.Equal(da, db) {
			return fmt.Errorf("%s: seed %d gave two different request sequences", w.name, seed)
		}
	}
	return nil
}

// digest hashes a run's inputs: every body, in order, and the schedule.
func digest(in *inputs) []byte {
	h := sha256.New()
	for _, part := range [][]*request{in.warmup, in.main, in.peak} {
		for _, r := range part {
			fmt.Fprintf(h, "%s|%s|%d|", r.kind, r.class, len(r.body))
			h.Write(r.body)
		}
		h.Write([]byte{0})
	}
	for _, t := range in.at {
		fmt.Fprintf(h, "%d,", t)
	}
	return h.Sum(nil)
}
