package plan

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// The memo tables absorb one Get per candidate pair in the DP inner loops;
// these benches compare the Go-map memo against the Murmur3 open-addressing
// SoA Table of §5 that the DP hot path runs on.
func benchKeys(n int) []bitset.Mask {
	rng := rand.New(rand.NewSource(1))
	keys := make([]bitset.Mask, n)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = bitset.Mask(rng.Uint64())
		}
	}
	return keys
}

func BenchmarkMemoGet(b *testing.B) {
	keys := benchKeys(1 << 16)
	m := NewMemo(20)
	for _, k := range keys {
		m.Put(k, &Node{Set: k})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Get(keys[i&(len(keys)-1)]) == nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTableView(b *testing.B) {
	keys := benchKeys(1 << 16)
	t := NewTable(len(keys))
	for _, k := range keys {
		t.Put(k, Winner{Left: k.LowestBit(), Right: k.Diff(k.LowestBit()), Cost: 1, Found: true})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.View(keys[i&(len(keys)-1)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTableImprove(b *testing.B) {
	keys := benchKeys(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	t := NewTable(1 << 17)
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		t.Improve(k, Winner{Left: k.LowestBit(), Right: k.Diff(k.LowestBit()), Cost: float64(i), Found: true})
	}
}
