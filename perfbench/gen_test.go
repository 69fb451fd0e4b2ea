package main

import (
	"testing"
	"time"
)

// The same checks run before every benchmark run (selfCheck); here they
// cover several seeds: cd perfbench && go test .

func TestRenderedStatementsBindToGeneratedGraph(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, heldOutSeed} {
		if err := checkBinding(seed, 256); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestSeedGivesIdenticalRequestSequence(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		if err := checkDeterminism(seed, 3*time.Second); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	w := findWorkload("serve-zipf")
	a, err := w.build(w, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.build(w, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(digest(a)) == string(digest(b)) {
		t.Error("seeds 1 and 2 gave the same serve-zipf requests")
	}
}

func TestTwinsShareTheirBaseFingerprint(t *testing.T) {
	g, err := newServeGen(5)
	if err != nil {
		t.Fatal(err)
	}
	twins := 0
	for twins < 50 {
		r, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		if r.class != classTwin {
			continue
		}
		twins++
		got, err := exactFP(string(r.body), g.schema)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exactFP(string(r.baseBody), g.schema)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || string(r.body) == string(r.baseBody) {
			t.Fatalf("twin does not rename its base or lost its fingerprint:\n%s\n%s", r.body, r.baseBody)
		}
	}
}

func TestColdStatementsAreNeverSeen(t *testing.T) {
	w := findWorkload("serve-zipf")
	in, err := w.build(w, 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := newServeGen(3)
	seen := map[string]bool{}
	for _, r := range in.warmup {
		fp, _ := exactFP(string(r.body), g.schema)
		seen[fp] = true
	}
	for _, r := range append(in.main, in.peak...) {
		if r.class != classCold {
			continue
		}
		fp, err := exactFP(string(r.body), g.schema)
		if err != nil {
			t.Fatal(err)
		}
		if seen[fp] {
			t.Fatalf("cold statement repeats an earlier fingerprint:\n%s", r.body)
		}
		seen[fp] = true
	}
}
