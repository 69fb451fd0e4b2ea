package plan

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

func TestTablePutBaseAndView(t *testing.T) {
	tab := NewTable(8)
	tab.PutBase(bitset.Single(3), &Node{Set: bitset.Single(3), RelID: 3, Op: OpScan, Rows: 100, Cost: 7})
	e, ok := tab.View(bitset.Single(3))
	if !ok {
		t.Fatal("base entry missing")
	}
	if !e.Leaf || e.RelID != 3 || e.Rows != 100 || e.Cost != 7 || e.Op != OpScan {
		t.Errorf("entry = %+v", e)
	}
	if e.LogRows != math.Log2(100) || e.LogIdx != math.Log2(102) {
		t.Errorf("memoized logs wrong: %v %v", e.LogRows, e.LogIdx)
	}
	if _, ok := tab.View(bitset.Single(4)); ok {
		t.Error("phantom entry")
	}
	if _, ok := tab.View(0); ok {
		t.Error("empty set must not resolve")
	}
}

func TestTableImproveSemantics(t *testing.T) {
	tab := NewTable(8)
	s := bitset.MaskOf(0, 1)
	w := Winner{Left: bitset.Single(0), Right: bitset.Single(1), Op: OpHashJoin, Rows: 10, Cost: 9, Found: true}
	if !tab.Improve(s, w) {
		t.Error("first winner must install")
	}
	if tab.Improve(s, w) {
		t.Error("equal-cost winner must not reinstall (ties keep the incumbent)")
	}
	w.Cost = 5
	if !tab.Improve(s, w) {
		t.Error("cheaper winner must install")
	}
	if c, _ := tab.Cost(s); c != 5 {
		t.Errorf("Cost = %v", c)
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d", tab.Len())
	}
}

// TestTableGrowthAtHighLoad drives the table far past its initial capacity
// and checks every entry survives the rehashes.
func TestTableGrowthAtHighLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := NewTable(2) // minimum capacity, forces repeated growth
	want := map[bitset.Mask]float64{}
	for i := 0; i < 20000; i++ {
		s := bitset.Mask(rng.Uint64())
		if s == 0 {
			continue
		}
		c := rng.Float64() * 1e6
		if cur, ok := want[s]; !ok || c < cur {
			want[s] = c
		}
		tab.Improve(s, Winner{Left: s.LowestBit(), Right: s.Diff(s.LowestBit()), Cost: c, Found: true})
	}
	if tab.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(want))
	}
	if 10*tab.Len() > 7*len(tab.keys) {
		t.Errorf("load factor above 0.7 after growth: %d/%d", tab.Len(), len(tab.keys))
	}
	for s, c := range want {
		got, ok := tab.Cost(s)
		if !ok || got != c {
			t.Fatalf("entry %v: cost %v ok=%v, want %v", s, got, ok, c)
		}
	}
}

// TestTableDifferentialAgainstMemo runs the same randomized insert/improve
// sequence through the SoA table and the reference map memo; stored costs
// and membership must agree exactly.
func TestTableDifferentialAgainstMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tab := NewTable(4)
	memo := NewMemo(8)
	keys := make([]bitset.Mask, 300)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = bitset.Mask(rng.Uint64() & 0xffff) // small space forces collisions
		}
	}
	for i := 0; i < 10000; i++ {
		s := keys[rng.Intn(len(keys))]
		c := rng.Float64() * 100
		w := Winner{Left: s.LowestBit(), Right: s.Diff(s.LowestBit()), Rows: c, Cost: c, Found: true}
		if rng.Intn(4) == 0 {
			tab.Put(s, w)
			memo.Put(s, &Node{Set: s, Cost: c})
		} else {
			ti := tab.Improve(s, w)
			mi := memo.Improve(s, &Node{Set: s, Cost: c})
			if ti != mi {
				t.Fatalf("Improve divergence on %v: table %v, memo %v", s, ti, mi)
			}
		}
	}
	if tab.Len() != memo.Len() {
		t.Fatalf("Len mismatch: %d vs %d", tab.Len(), memo.Len())
	}
	for _, s := range keys {
		c, ok := tab.Cost(s)
		n := memo.Get(s)
		if ok != (n != nil) {
			t.Fatalf("membership mismatch for %v", s)
		}
		if ok && c != n.Cost {
			t.Fatalf("cost mismatch for %v: %v vs %v", s, c, n.Cost)
		}
	}
}

// TestTableBuildDefersMaterialization checks that Build reconstructs the
// recorded winning tree from the splits, resolving base entries to the
// provided leaf plans and allocating interior nodes from the arena.
func TestTableBuildDefersMaterialization(t *testing.T) {
	leaves := []*Node{
		leaf(0, 10, 1), leaf(1, 20, 2), leaf(2, 30, 3),
	}
	tab := NewTable(8)
	for i, l := range leaves {
		tab.PutBase(bitset.Single(i), l)
	}
	s01 := bitset.MaskOf(0, 1)
	full := bitset.MaskOf(0, 1, 2)
	tab.Put(s01, Winner{Left: bitset.Single(0), Right: bitset.Single(1), Op: OpHashJoin, Rows: 200, Cost: 10, Found: true})
	tab.Put(full, Winner{Left: s01, Right: bitset.Single(2), Op: OpMergeJoin, Rows: 6000, Cost: 42, Found: true})

	a := NewArena()
	p := tab.Build(full, leaves, a)
	if p == nil {
		t.Fatal("Build returned nil")
	}
	if p.Op != OpMergeJoin || p.Cost != 42 || p.Set != full {
		t.Errorf("root = %+v", p)
	}
	if p.Left.Op != OpHashJoin || p.Left.Set != s01 {
		t.Errorf("left = %+v", p.Left)
	}
	if p.Right != leaves[2] || p.Left.Left != leaves[0] || p.Left.Right != leaves[1] {
		t.Error("base entries must resolve to the provided leaf plans")
	}
	if err := p.Validate([]int{0, 1, 2}); err != nil {
		t.Errorf("built plan invalid: %v", err)
	}
	if a.Len() != 2 {
		t.Errorf("arena handed out %d nodes, want 2 interior nodes", a.Len())
	}
	if tab.Build(bitset.MaskOf(1, 2), leaves, a) != nil {
		t.Error("Build of an unknown set must return nil")
	}
}

func TestTableRejectsEmptySet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty-set key")
		}
	}()
	NewTable(4).Put(0, Winner{Found: true})
}

func TestArenaResetRecyclesChunks(t *testing.T) {
	a := NewArena()
	first := make([]*Node, 0, 3*arenaChunk/2)
	for i := 0; i < cap(first); i++ {
		n := a.New()
		n.RelID = i
		first = append(first, n)
	}
	if a.Len() != len(first) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(first))
	}
	for i, n := range first {
		if n.RelID != i {
			t.Fatalf("node %d overwritten before Reset", i)
		}
	}
	a.Reset()
	if a.Len() != 0 {
		t.Errorf("Len after Reset = %d", a.Len())
	}
	// After Reset the same chunk memory is handed out again, zeroed.
	n := a.New()
	if n != first[0] {
		t.Error("Reset must recycle the first chunk")
	}
	if n.RelID != 0 || n.Left != nil {
		t.Error("recycled node not zeroed")
	}
}

func TestMurmurFinalizerAvalanche(t *testing.T) {
	// Flipping one input bit must flip roughly half the output bits.
	for bit := 0; bit < 64; bit++ {
		a := Murmur3Fmix64(0x12345678)
		b := Murmur3Fmix64(0x12345678 ^ (1 << uint(bit)))
		diff := a ^ b
		ones := 0
		for d := diff; d != 0; d &= d - 1 {
			ones++
		}
		if ones < 16 || ones > 48 {
			t.Errorf("bit %d: only %d output bits flipped", bit, ones)
		}
	}
}
